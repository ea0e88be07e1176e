// Table 2: the bug-detection matrix — 16 scenarios x 5 tools — printed
// next to the paper's verdicts.
#include "apps/table2.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  std::printf("== Table 2: bug-finding capability (this repro vs paper) ==\n\n");
  std::printf("%-3s %-46s | %-7s %-9s %-4s %-9s %-7s | %s\n", "#", "bug",
              "Meissa", "p4pktgen", "PTA", "Gauntlet", "Aquila", "paper?");
  auto mark = [](bool b) { return b ? "Y" : "-"; };
  int agree = 0;
  for (int i = 1; i <= apps::kNumBugs; ++i) {
    ir::Context ctx;
    apps::BugScenario bug = apps::make_bug(ctx, i);
    apps::Table2Row row = apps::evaluate_bug(ctx, bug, /*budget=*/60);
    std::array<bool, 5> want = apps::paper_matrix(i);
    bool match = row.meissa == want[0] && row.p4pktgen == want[1] &&
                 row.pta == want[2] && row.gauntlet == want[3] &&
                 row.aquila == want[4];
    agree += match;
    std::printf("%-3d %-46s | %-7s %-9s %-4s %-9s %-7s | %s\n", i,
                bug.name.c_str(), mark(row.meissa), mark(row.p4pktgen),
                mark(row.pta), mark(row.gauntlet), mark(row.aquila),
                match ? "match" : "MISMATCH");
  }
  std::printf("\n%d/%d rows match the paper's Table 2 verdicts.\n", agree,
              apps::kNumBugs);
  std::printf("(code bugs: 1-6; non-code/toolchain bugs: 7-16)\n");
  return agree == apps::kNumBugs ? 0 : 1;
}
