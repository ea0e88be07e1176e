// Incremental re-testing evaluation: for each gateway rule-set family
// (set-1..set-4 = gw-1..gw-4), run a baseline generation, apply one
// single-table rule update, and compare the incremental update's cost
// against a from-scratch regeneration of the updated program — backend
// SMT checks and wall time, with the byte-identity soundness bar checked
// on every row. Backs the "Change-impact analysis & incremental
// re-testing" section in DESIGN.md and the EXPERIMENTS.md delta table.
#include "bench_common.hpp"
#include "driver/incremental.hpp"

namespace meissa::bench {
namespace {

void incremental_retest(int threads) {
  std::printf("== Incremental re-testing: single-table update vs full "
              "regeneration (threads=%d) ==\n", threads);
  std::printf("%-8s %-14s %6s %6s %8s %10s %10s %8s %10s %10s %6s\n",
              "program", "table", "dirty", "clean", "reused", "inc.checks",
              "inc.time", "hits", "full.chks", "full.time", "ratio");
  for (const char* name : {"gw-1", "gw-2", "gw-3", "gw-4"}) {
    ir::Context ctx;
    apps::AppBundle app = make_program(ctx, name);
    driver::IncrementalOptions iopts;
    iopts.gen.threads = threads;
    driver::IncrementalSession session(ctx, app.dp, iopts);
    p4::RuleSet rules = app.rules;
    session.run(rules);

    // The last installed rule sits in a late-pipeline table — the churn
    // shape the paper motivates with (rule updates, not program edits).
    const std::string table = rules.entries.back().table;
    rules.remove_last_entry(table);
    Timer inc_timer;
    driver::UpdateReport up = session.run(rules);
    const double inc_seconds = inc_timer.elapsed();

    // From-scratch regeneration of the updated program, fresh context.
    ir::Context ctx2;
    apps::AppBundle app2 = make_program(ctx2, name);
    p4::RuleSet rules2 = app2.rules;
    rules2.remove_last_entry(table);
    driver::GenOptions gopts;
    gopts.threads = threads;
    Timer full_timer;
    driver::Generator gen(ctx2, app2.dp, rules2, gopts);
    std::vector<sym::TestCaseTemplate> full = gen.generate();
    const double full_seconds = full_timer.elapsed();
    std::vector<std::string> full_sigs;
    for (const sym::TestCaseTemplate& t : full) {
      full_sigs.push_back(
          driver::IncrementalSession::full_signature(ctx2, gen.graph(), t));
    }
    std::sort(full_sigs.begin(), full_sigs.end());

    const uint64_t full_checks = gen.stats().smt_checks;
    const double ratio =
        double(full_checks) / double(up.smt_checks > 0 ? up.smt_checks : 1);
    std::printf("%-8s %-14s %6zu %6zu %8llu %10llu %9.3fs %8llu %10llu "
                "%9.3fs %5.1fx%s\n",
                name, table.c_str(), up.impact.dirty.size(),
                up.impact.clean.size(),
                static_cast<unsigned long long>(up.summaries_reused),
                static_cast<unsigned long long>(up.smt_checks), inc_seconds,
                static_cast<unsigned long long>(up.pc_cache_hits),
                static_cast<unsigned long long>(full_checks), full_seconds,
                ratio,
                up.full_sigs == full_sigs ? "" : "  BYTE-MISMATCH");
  }
  std::printf(
      "expect: every row byte-identical (no BYTE-MISMATCH); the update\n"
      "expect: pays several-fold fewer backend checks than regeneration —\n"
      "expect: clean-region summary replay plus shared verdict-cache hits.\n");
}

}  // namespace
}  // namespace meissa::bench

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  int threads = meissa::bench::parse_threads(argc, argv, 4);
  meissa::bench::incremental_retest(threads);
  return 0;
}
