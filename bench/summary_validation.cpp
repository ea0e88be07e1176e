// Summary translation validation cost: across the eight evaluation
// programs, what does proving each run's code summary sound cost next to
// computing the summary itself?
//
// Expected shape: every program fully proven (all obligations unsat, zero
// refuted), validation wall time of the same order as summarization (both
// are per-pipeline solver sweeps over the same regions), and the
// structural fast path visible as obligations-per-SMT-check > 1.
//
// A JSON line per program follows the table for scripted sweeps.
#include "analysis/validate.hpp"
#include "bench_common.hpp"
#include "cfg/build.hpp"
#include "summary/summary.hpp"

int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  using namespace meissa;
  std::printf("== Summary translation validation cost (8 programs) ==\n\n");
  std::printf("%-9s | %9s %9s | %6s %6s %6s %6s | %9s %9s\n", "prog",
              "summ", "validate", "oblig", "unsat", "unpro", "refut",
              "smt", "edges");
  std::printf("----------+---------------------+-----------------------------"
              "+--------------------\n");
  bool all_proven = true;
  for (const std::string& name : bench::program_names()) {
    ir::Context ctx;
    apps::AppBundle app = bench::make_program(ctx, name);
    cfg::Cfg original = cfg::build_cfg(app.dp, app.rules, ctx);

    bench::Timer ts;
    summary::SummaryResult sr = summary::summarize(ctx, original, {});
    const double summ_s = ts.elapsed();

    bench::Timer tv;
    analysis::ValidationResult r =
        analysis::validate_summary(ctx, original, sr.graph, {});
    const double validate_s = tv.elapsed();
    all_proven = all_proven && r.proven();

    uint64_t edges = 0;
    for (const analysis::PipelineValidation& p : r.pipelines) {
      edges += p.ledger.size();
    }
    std::printf("%-9s | %8.3fs %8.3fs | %6llu %6llu %6llu %6llu | %9llu %9llu\n",
                app.name.c_str(), summ_s, validate_s,
                static_cast<unsigned long long>(r.obligations),
                static_cast<unsigned long long>(r.unsat),
                static_cast<unsigned long long>(r.unproven),
                static_cast<unsigned long long>(r.refuted),
                static_cast<unsigned long long>(r.smt_checks),
                static_cast<unsigned long long>(edges));
    std::printf(
        "{\"program\":\"%s\",\"summary_seconds\":%.6f,"
        "\"validate_seconds\":%.6f,\"obligations\":%llu,\"unsat\":%llu,"
        "\"unproven\":%llu,\"refuted\":%llu,\"smt_checks\":%llu,"
        "\"proven\":%s}\n",
        util::json_escape(app.name).c_str(), summ_s, validate_s,
        static_cast<unsigned long long>(r.obligations),
        static_cast<unsigned long long>(r.unsat),
        static_cast<unsigned long long>(r.unproven),
        static_cast<unsigned long long>(r.refuted),
        static_cast<unsigned long long>(r.smt_checks),
        r.proven() ? "true" : "false");
  }
  std::printf("\nShape checks: every row fully proven (unsat == oblig,\n"
              "refut == 0); validation time comparable to summarization.\n");
  if (!all_proven) {
    std::fprintf(stderr, "FAIL: a summary did not prove\n");
    return 1;
  }
  return 0;
}
