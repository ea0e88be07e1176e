// Table 1: the data-plane program inventory. Prints each program's
// (synthetic) LOC, rule-set size, pipeline and switch counts, next to the
// scale the paper reports for its originals.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  std::printf("== Table 1: data plane programs used in evaluation ==\n\n");
  std::printf("%-10s %9s %10s %6s %9s   %s\n", "name", "LOC", "rules(LOC)",
              "pipes", "switches", "paper scale");
  const char* paper[] = {
      "256 LOC, 1 pipe",    "227 LOC, 1 pipe",   "400 LOC, 1 pipe",
      "7086 LOC, 1 pipe",   ">1000 LOC, 1 pipe", ">3000 LOC, 2 pipes",
      ">10000 LOC, 4 pipes", ">20000 LOC, 8 pipes/2 switches"};
  int i = 0;
  for (const std::string& name : bench::program_names()) {
    ir::Context ctx;
    apps::AppBundle app = bench::make_program(ctx, name, /*rule_scale=*/1);
    std::printf("%-10s %9zu %10zu %6zu %9d   %s\n", app.name.c_str(),
                app.dp.program.loc(), app.rules.loc(),
                app.dp.topology.instances.size(),
                app.dp.topology.num_switches(), paper[i++]);
  }
  std::printf(
      "\nNote: this reproduction regenerates structure (features, pipes,\n"
      "switches); absolute LOC is smaller than the originals by design.\n");
  return 0;
}
