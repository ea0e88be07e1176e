// Figure 9: test-case generation time across the eight programs for
// Meissa and the three comparable tools (p4pktgen, Gauntlet model-based,
// Aquila). PTA is excluded as in the paper (handwritten tests only).
//
// Expected shape: Meissa completes everywhere; p4pktgen/Gauntlet are
// slower on the open-source programs (and p4pktgen covers far fewer
// behaviours) and unsupported on gw-*; Aquila falls behind on gw-1/gw-2
// and times out on gw-3/gw-4 under the budget.
//
// `--threads N` runs Meissa's generator with N workers (0 = hardware
// concurrency); a JSON line with per-phase wall times follows each row.
#include "bench_common.hpp"

namespace {
constexpr double kBudget = 60;  // seconds; the paper used one hour
}

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  const int threads = bench::parse_threads(argc, argv);
  std::printf(
      "== Figure 9: generation time per program (budget %.0fs, %d threads) "
      "==\n\n",
      kBudget, threads);
  std::printf("%-10s | %-12s %-9s | %-16s %-16s %-16s\n", "program",
              "Meissa", "#tmpl", "Aquila", "p4pktgen", "Gauntlet");
  std::printf("-----------+------------------------+-------------------------"
              "-----------------------\n");

  for (const std::string& name : bench::program_names()) {
    // Meissa.
    ir::Context ctx;
    apps::AppBundle app = bench::make_program(ctx, name);
    driver::GenOptions gen;
    gen.time_budget_seconds = kBudget;
    gen.threads = threads;
    driver::Generator meissa(ctx, app.dp, app.rules, gen);
    bench::Timer t;
    auto templates = meissa.generate();
    double meissa_s = t.elapsed();

    // Aquila (its own context: separate interned universe).
    ir::Context actx;
    apps::AppBundle aapp = bench::make_program(actx, name);
    baselines::AquilaOptions aopts;
    aopts.time_budget_seconds = kBudget;
    baselines::BaselineResult aq = baselines::run_aquila(
        actx, aapp.dp, aapp.rules, aapp.intents, aopts);

    // p4pktgen / Gauntlet (skip production programs like the paper; the
    // gates also reject them, but skipping avoids burning their budget).
    baselines::BaselineResult pg, gl;
    if (!bench::is_production(name)) {
      ir::Context pctx;
      apps::AppBundle papp = bench::make_program(pctx, name);
      baselines::P4pktgenOptions popts;
      popts.time_budget_seconds = kBudget;
      popts.action_cover = true;  // its generation algorithm
      pg = baselines::run_p4pktgen(pctx, papp.dp, papp.rules, nullptr, popts);

      ir::Context gctx;
      apps::AppBundle gapp = bench::make_program(gctx, name);
      baselines::GauntletOptions gopts;
      gopts.time_budget_seconds = kBudget;
      gl = baselines::run_gauntlet(gctx, gapp.dp, gapp.rules, nullptr, gopts);
    } else {
      pg.supported = false;
      pg.unsupported_reason = "production program";
      gl.supported = false;
      gl.unsupported_reason = "production program";
    }

    char mcol[32];
    std::snprintf(mcol, sizeof mcol, "%.2fs", meissa_s);
    std::printf("%-10s | %-12s %-9zu | %-16s %-16s %-16s\n", name.c_str(),
                meissa.stats().engine.timed_out ? "o (timeout)" : mcol,
                templates.size(), bench::outcome(aq).c_str(),
                bench::outcome(pg).c_str(), bench::outcome(gl).c_str());
    bench::print_phase_json(name, "meissa", threads, meissa.stats());
  }
  std::printf(
      "\nShape checks: Meissa finishes on every program including gw-3/gw-4;\n"
      "Aquila degrades with program size (paper: 22.9x/26.5x slower on\n"
      "gw-1/gw-2, timeout on gw-3/gw-4); p4pktgen explores default behaviour\n"
      "only (rule-blind) and Gauntlet's model-based mode enumerates complete\n"
      "paths without early termination.\n");
  return 0;
}
