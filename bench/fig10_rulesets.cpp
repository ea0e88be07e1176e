// Figure 10: generation time on gw-1 and gw-2 as the table rule set
// scales (set-1..set-4: elastic IPs double per step), Meissa vs Aquila.
//
// Expected shape: both grow with the rule set; Meissa stays well below
// Aquila at every point (paper: 6.7-41.2x).
#include "bench_common.hpp"

namespace {
constexpr double kBudget = 120;
}

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  std::printf("== Figure 10: running time vs table rule set (Meissa / "
              "Aquila) ==\n");
  for (int level = 1; level <= 2; ++level) {
    std::printf("\n-- gw-%d --\n", level);
    std::printf("%-7s %10s %12s %12s %9s\n", "set", "rules", "Meissa",
                "Aquila", "speedup");
    for (int set = 1; set <= 4; ++set) {
      ir::Context ctx;
      apps::GwConfig cfg;
      cfg.level = level;
      cfg.elastic_ips = apps::elastic_ips_for_set(set);
      apps::AppBundle app = apps::make_gateway(ctx, cfg);

      driver::GenOptions gen;
      gen.time_budget_seconds = kBudget;
      driver::Generator meissa(ctx, app.dp, app.rules, gen);
      bench::Timer t;
      meissa.generate();
      double ms = t.elapsed();

      ir::Context actx;
      apps::AppBundle aapp = apps::make_gateway(actx, cfg);
      baselines::AquilaOptions aopts;
      aopts.time_budget_seconds = kBudget;
      baselines::BaselineResult aq = baselines::run_aquila(
          actx, aapp.dp, aapp.rules, aapp.intents, aopts);

      char speedup[32];
      if (aq.timed_out) {
        std::snprintf(speedup, sizeof speedup, ">%.0fx", kBudget / ms);
      } else {
        std::snprintf(speedup, sizeof speedup, "%.1fx", aq.seconds / ms);
      }
      std::printf("%-7s %10zu %11.2fs %-12s %9s\n",
                  ("set-" + std::to_string(set)).c_str(), app.rules.loc(), ms,
                  bench::outcome(aq).c_str(), speedup);
    }
  }
  std::printf("\nShape check: Meissa < Aquila on every rule set; the gap\n"
              "persists as the set doubles (paper: 6.7-41.2x).\n");
  return 0;
}
