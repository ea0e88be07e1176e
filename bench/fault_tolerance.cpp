// Robustness evaluation: (a) coverage vs. per-check solver budget — how
// exact/degraded coverage trades off as checks are starved, and (b)
// verdict stability vs. link loss rate — the retry/dedup layer must keep
// the end-to-end verdicts of a lossy run identical to the fault-free run.
// Backs the tables in EXPERIMENTS.md ("Resource governance & fault
// tolerance").
#include "bench_common.hpp"
#include "driver/tester.hpp"

namespace meissa::bench {
namespace {

void coverage_vs_budget() {
  std::printf("== Coverage vs. per-check solver budget ==\n");
  std::printf("%-10s %-12s %10s %10s %10s %10s %8s\n", "program", "budget",
              "templates", "exact", "degraded", "unknowns", "time");
  const uint64_t kBudgets[] = {0, 256, 64, 16, 4, 1};  // conflicts; 0 = inf
  // ACL: its final DFS still reaches the SAT core (cross-field
  // disjunctions), which is the only layer the budget limits.
  for (const char* name : {"Router", "ACL", "gw-2", "gw-4"}) {
    for (uint64_t conflicts : kBudgets) {
      ir::Context ctx;
      apps::AppBundle app = make_program(ctx, name);
      driver::GenOptions opts;
      opts.threads = 1;
      opts.smt_budget.max_conflicts = conflicts;
      if (conflicts != 0) opts.smt_budget.max_propagations = 256 * conflicts;
      Timer timer;
      driver::Generator gen(ctx, app.dp, app.rules, opts);
      (void)gen.generate();
      const driver::GenStats& s = gen.stats();
      char budget[32];
      if (conflicts == 0) {
        std::snprintf(budget, sizeof budget, "unlimited");
      } else {
        std::snprintf(budget, sizeof budget, "%lluc",
                      static_cast<unsigned long long>(conflicts));
      }
      std::printf("%-10s %-12s %10llu %10llu %10llu %10llu %7.2fs\n", name,
                  budget, static_cast<unsigned long long>(s.templates),
                  static_cast<unsigned long long>(s.engine.valid_paths),
                  static_cast<unsigned long long>(s.engine.degraded_paths),
                  static_cast<unsigned long long>(s.engine.solver.unknowns),
                  timer.elapsed());
    }
  }
  std::printf(
      "expect: unlimited row has degraded == unknowns == 0; tighter budgets\n"
      "expect: trade exact for degraded coverage, never crash or hang.\n\n");
}

void stability_vs_loss() {
  std::printf("== Verdict stability vs. link loss rate ==\n");
  std::printf("%-10s %8s %8s %8s %8s %10s %8s %10s\n", "program", "loss",
              "cases", "passed", "failed", "retries", "quarant", "stable");
  const double kLoss[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  for (const char* name : {"Router", "gw-2"}) {
    // Fault-free ground truth for the verdict-stability column.
    uint64_t base_passed = 0, base_failed = 0;
    for (double loss : kLoss) {
      uint64_t passed = 0, failed = 0, cases = 0, retries = 0, quarant = 0;
      bool stable = true;
      for (uint64_t seed : {3u, 17u, 99u}) {
        ir::Context ctx;
        apps::AppBundle app = make_program(ctx, name);
        sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
        driver::TestRunOptions opts;
        opts.gen.threads = 1;
        opts.link.drop_rate = loss;
        opts.link.duplicate_rate = loss > 0 ? 0.02 : 0.0;
        opts.link.reorder_rate = loss > 0 ? 0.05 : 0.0;
        opts.link.seed = seed;
        driver::Meissa meissa(ctx, app.dp, app.rules, opts);
        driver::TestReport r = meissa.test(device, app.intents);
        passed += r.passed;
        failed += r.failed;
        cases += r.cases;
        retries += r.send_retries;
        quarant += r.quarantined.size();
        if (loss == 0.0) {
          base_passed += r.passed;
          base_failed += r.failed;
        } else {
          stable = stable && r.passed * 3 == base_passed &&
                   r.failed * 3 == base_failed;
        }
      }
      std::printf("%-10s %7.0f%% %8llu %8llu %8llu %10llu %8llu %10s\n", name,
                  loss * 100, static_cast<unsigned long long>(cases),
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(quarant),
                  loss == 0.0 ? "(base)" : (stable ? "yes" : "NO"));
    }
  }
  std::printf(
      "expect: every lossy row reproduces the base verdicts (stable=yes)\n"
      "expect: with zero quarantined cases; retries grow with the loss "
      "rate.\n");
}

}  // namespace
}  // namespace meissa::bench

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  meissa::bench::coverage_vs_budget();
  meissa::bench::stability_vs_loss();
  return 0;
}
