// Figure 11: effectiveness of code summary across the production
// programs gw-1..gw-4 — (a) running time, (b) number of SMT calls,
// (c) number of possible paths in the generation CFG (log scale), each
// with code summary on vs off, plus the pre-condition-filtering ablation.
//
// Expected shape: summary reduces time (paper: 1.2-5.0x), SMT calls
// (paper: 1.8-14.9x) and paths (paper: 10^60-10^390x).
//
// `--threads N` runs the generator with N workers (0 = hardware
// concurrency); a JSON line with per-phase wall times follows each row.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  const int threads = bench::parse_threads(argc, argv);
  std::printf("== Figure 11: code summary effectiveness (gw-1..gw-4, "
              "%d threads) ==\n\n", threads);
  std::printf("%-7s | %10s %10s %7s | %9s %9s %7s | %12s %12s\n", "prog",
              "time w/", "time w/o", "ratio", "SMT w/", "SMT w/o", "ratio",
              "paths w/", "paths w/o");
  std::printf("--------+-------------------------------+--------------------"
              "---------+---------------------------\n");
  std::vector<bench::RatioRow> time_ratios;
  std::vector<bench::RatioRow> smt_ratios;
  std::vector<bench::RatioRow> path_gaps;  // orders of magnitude
  for (int level = 1; level <= 4; ++level) {
    ir::Context ctx;
    apps::GwConfig cfg;
    cfg.level = level;
    cfg.elastic_ips = apps::elastic_ips_for_set(2);
    apps::AppBundle app = apps::make_gateway(ctx, cfg);

    driver::GenOptions with;
    with.check_every_predicate = true;  // the paper's Algorithm 1/2
    with.build.elide_disjoint_negations = false;
    with.threads = threads;
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
    without.threads = threads;
    driver::Generator go(ctx2, app2.dp, app2.rules, without);
    bench::Timer t2;
    go.generate();
    double without_s = t2.elapsed();

    const double smt_ratio =
        static_cast<double>(go.stats().smt_checks) /
        static_cast<double>(std::max<uint64_t>(1, gw.stats().smt_checks));
    std::printf("%-7s | %9.3fs %9.3fs %6.1fx | %9llu %9llu %6.1fx | %12s %12s\n",
                app.name.c_str(), with_s, without_s, without_s / with_s,
                static_cast<unsigned long long>(gw.stats().smt_checks),
                static_cast<unsigned long long>(go.stats().smt_checks),
                smt_ratio, gw.stats().paths_summarized.str().c_str(),
                go.stats().paths_original.str().c_str());
    time_ratios.emplace_back(app.name, without_s / with_s);
    smt_ratios.emplace_back(app.name, smt_ratio);
    path_gaps.emplace_back(app.name, go.stats().paths_original.log10() -
                                         gw.stats().paths_summarized.log10());
    bench::print_phase_json(app.name, "summary", threads, gw.stats());
    bench::print_phase_json(app.name, "no-summary", threads, go.stats());
  }

  // Ablation: intra-pipeline elimination only (pre-condition filtering off).
  std::printf("\n-- ablation: inter-pipeline pre-condition filtering --\n");
  std::printf("%-7s %16s %18s\n", "prog", "paths (full)", "paths (no filter)");
  std::string filter_check;
  for (int level = 2; level <= 4; ++level) {
    ir::Context ctx;
    apps::GwConfig cfg;
    cfg.level = level;
    cfg.elastic_ips = apps::elastic_ips_for_set(2);
    apps::AppBundle app = apps::make_gateway(ctx, cfg);
    driver::GenOptions full;
    driver::Generator g1(ctx, app.dp, app.rules, full);
    g1.generate();
    ir::Context ctx2;
    apps::AppBundle app2 = apps::make_gateway(ctx2, cfg);
    driver::GenOptions nofilter;
    nofilter.summary.precondition_filtering = false;
    driver::Generator g2(ctx2, app2.dp, app2.rules, nofilter);
    g2.generate();
    std::printf("%-7s %16s %18s\n", app.name.c_str(),
                g1.stats().paths_summarized.str().c_str(),
                g2.stats().paths_summarized.str().c_str());
    filter_check += (filter_check.empty() ? " " : ", ") + app.name +
                    (g2.stats().paths_summarized.log10() >
                             g1.stats().paths_summarized.log10()
                         ? " yes"
                         : " no");
  }

  std::printf("\nShape checks (from the rows above):\n");
  bench::print_ratio_check("time ratio", time_ratios);
  bench::print_ratio_check("SMT ratio", smt_ratios);
  std::printf("  ratios grow with the pipe count: time %s, SMT %s\n",
              bench::ratios_grow(time_ratios) ? "yes" : "no",
              bench::ratios_grow(smt_ratios) ? "yes" : "no");
  std::printf("  path-count gap (w/o over w/):");
  for (size_t i = 0; i < path_gaps.size(); ++i) {
    std::printf("%s %s 10^%.0f", i == 0 ? "" : ",", path_gaps[i].first.c_str(),
                path_gaps[i].second);
  }
  std::printf("\n  filtering off leaves more summarized paths:%s\n",
              filter_check.c_str());
  return 0;
}
