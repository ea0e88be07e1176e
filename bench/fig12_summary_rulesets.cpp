// Figure 12: effectiveness of code summary on gw-4 across the rule-set
// family set-1..set-4 — (a) running time, (b) SMT calls, (c) possible
// paths, with code summary on vs off.
//
// Expected shape: the gap persists (paper: 2.2-4.5x time, up to 14.9x SMT
// calls) and the static path count explodes while the summarized count
// grows only linearly with the rule set.
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  std::printf("== Figure 12: code summary on gw-4 vs table rule sets ==\n\n");
  std::printf("%-7s %8s | %10s %10s %7s | %9s %9s %7s | %12s %12s\n", "set",
              "rules", "time w/", "time w/o", "ratio", "SMT w/", "SMT w/o",
              "ratio", "paths w/", "paths w/o");
  std::vector<bench::RatioRow> time_ratios;
  std::vector<bench::RatioRow> smt_ratios;
  std::vector<std::pair<double, double>> log_paths;  // (w/, w/o), log10
  for (int set = 1; set <= 4; ++set) {
    apps::GwConfig cfg;
    cfg.level = 4;
    // Base 4 keeps the largest (set-4, paper-faithful-mode) run tractable
    // on one core while preserving the 2x-per-step scaling.
    cfg.elastic_ips = apps::elastic_ips_for_set(set, /*base=*/4);

    ir::Context ctx;
    apps::AppBundle app = apps::make_gateway(ctx, cfg);
    driver::GenOptions with;
    with.check_every_predicate = true;  // the paper's Algorithm 1/2
    with.build.elide_disjoint_negations = false;
    driver::Generator gw(ctx, app.dp, app.rules, with);
    bench::Timer t1;
    gw.generate();
    double with_s = t1.elapsed();

    ir::Context ctx2;
    apps::AppBundle app2 = apps::make_gateway(ctx2, cfg);
    driver::GenOptions without;
    without.code_summary = false;
    without.check_every_predicate = true;
    without.build.elide_disjoint_negations = false;
    driver::Generator go(ctx2, app2.dp, app2.rules, without);
    bench::Timer t2;
    go.generate();
    double without_s = t2.elapsed();

    const std::string name = "set-" + std::to_string(set);
    const double smt_ratio =
        static_cast<double>(go.stats().smt_checks) /
        static_cast<double>(std::max<uint64_t>(1, gw.stats().smt_checks));
    std::printf(
        "%-7s %8zu | %9.3fs %9.3fs %6.1fx | %9llu %9llu %6.1fx | %12s %12s\n",
        name.c_str(), app.rules.loc(), with_s, without_s, without_s / with_s,
        static_cast<unsigned long long>(gw.stats().smt_checks),
        static_cast<unsigned long long>(go.stats().smt_checks), smt_ratio,
        gw.stats().paths_summarized.str().c_str(),
        go.stats().paths_original.str().c_str());
    time_ratios.emplace_back(name, without_s / with_s);
    smt_ratios.emplace_back(name, smt_ratio);
    log_paths.emplace_back(gw.stats().paths_summarized.log10(),
                           go.stats().paths_original.log10());
  }

  std::printf("\nShape checks (from the rows above):\n");
  bench::print_ratio_check("time ratio", time_ratios);
  bench::print_ratio_check("SMT ratio", smt_ratios);
  std::printf("  path growth per rule-set step, w/ | w/o:");
  for (size_t i = 1; i < log_paths.size(); ++i) {
    std::printf(" %.1fx | 10^%.1f%s",
                std::pow(10, log_paths[i].first - log_paths[i - 1].first),
                log_paths[i].second - log_paths[i - 1].second,
                i + 1 < log_paths.size() ? ";" : "\n");
  }
  return 0;
}
