// Test-case generation facade: CFG build → (optional) code summary →
// DFS test-case template generation, with the statistics the paper's
// evaluation reports (time, SMT calls, path counts).
#pragma once

#include <memory>

#include "analysis/validate.hpp"
#include "cfg/build.hpp"
#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "util/faultinject.hpp"
#include "util/supervise.hpp"

namespace meissa::driver {

struct GenOptions {
  // The paper's headline technique; off = the basic framework (§3.2).
  bool code_summary = true;
  cfg::BuildOptions build;
  summary::SummaryOptions summary;
  // Engine ablations (also used by the baseline reimplementations).
  bool early_termination = true;
  bool check_every_predicate = false;  // paper-faithful Algorithm 1 mode
  bool incremental = true;
  bool use_z3 = false;
  // Generation-time assumptions over in.* fields (LPI assumes).
  std::vector<ir::ExprRef> assumes;
  // Decide predicates statically ahead of the solver (summary pass and
  // final DFS). Solver-equivalent: the emitted templates are identical
  // with this on or off; only the SMT-call count changes.
  bool static_pruning = true;
  uint64_t max_templates = 0;  // 0 = unlimited
  double time_budget_seconds = 0;  // 0 = unlimited (final DFS budget)
  // Worker threads for the summary pass and the final DFS (0 = hardware
  // concurrency). Any value yields the same templates: the exploration is
  // sharded deterministically and results merge in sequential DFS order.
  int threads = 0;
  // Per-check solver budget for the final DFS. Applies to the final DFS
  // only, never to the summary pass: a degraded check inside a summary
  // would silently change the summarized graph every later run depends on,
  // whereas a degraded final-DFS branch is visibly accounted (exact vs.
  // degraded coverage). Default = unlimited → output byte-identical.
  smt::Budget smt_budget;
  // Translation validation of the code-summary transform: after
  // summarize(), prove every eliminated path-fragment infeasible and the
  // surviving summary a simulation of the original. A refuted obligation
  // fails generation (util::ValidationError naming the pipeline and edge);
  // budget-exhausted obligations are reported as unproven in GenStats but
  // do not fail. Off by default: validation adds solver work and the
  // emitted templates are identical either way.
  bool validate_summary = false;
  // Solver-throughput layer for the final DFS, both output-transparent —
  // templates are byte-identical on or off: the canonicalized
  // path-condition verdict cache (auto-disabled under a limited
  // smt_budget; see EngineOptions::pc_cache) and the adaptive
  // fast-path-vs-bit-blasting portfolio keyed by CFG region. On by
  // default. Both reach only the final DFS: the summary engines never run
  // the portfolio and use the cache exactly when `shared_pc_cache` is set.
  // The Gauntlet and p4pktgen models (run_gauntlet, run_p4pktgen) keep
  // both at their default, on.
  bool pc_cache = true;
  bool solver_portfolio = true;
  // Externally-owned verdict cache shared across Generator runs (the
  // incremental session warms it on the baseline and reuses it per
  // update). Forwarded to EngineOptions::shared_pc_cache — see the
  // precondition contract there. Must outlive generate().
  smt::PathCondCache* shared_pc_cache = nullptr;
  // Optional cooperative stop for the whole generation (polled by the DFS
  // workers). Must outlive generate().
  const util::CancelToken* cancel = nullptr;
  // Crash safety: non-empty = write versioned work-unit checkpoints into
  // this directory at summary wave boundaries and every `checkpoint_every`
  // emitted results per DFS shard. With `resume`, a valid checkpoint from
  // a prior (killed) run of the *same* program and options — content-key
  // guarded — is loaded first, and the run continues to templates byte-
  // identical to an uninterrupted run's.
  std::string checkpoint_dir;
  bool resume = false;
  uint64_t checkpoint_every = 8;
  // Shard supervision: when enabled, every DFS shard attempt runs under a
  // watchdog (per-shard heartbeats; stall/deadline trips cancel the
  // attempt). A tripped shard is re-queued once on a fresh context; a
  // second failure degrades it (counted, never silently dropped).
  util::SuperviseOptions supervise;
  // Runtime fault injection (tests/stress): consulted at shard starts and
  // checkpoint writes. Must outlive generate().
  util::FaultInjector* fault = nullptr;
};

// Every GenStats member, declared once (see util/stats.hpp). The final
// DFS's own counters (coverage split, solver-cache traffic, timeout) live
// in `engine` only.
#define MEISSA_GEN_STATS(X)                                                 \
  /* The GenOptions::cancel token fired and generation stopped early. */    \
  X(bool, cancelled)                                                        \
  X(double, build_seconds)                                                  \
  X(double, summary_seconds)                                                \
  X(double, dfs_seconds)                                                    \
  X(double, total_seconds)                                                  \
  X(uint64_t, smt_checks) /* summary + final DFS ("# of SMT calls") */      \
  /* Solver calls avoided by static pruning (summary + final DFS):     */   \
  /* branches refuted and checks skipped without touching the solver.  */   \
  X(uint64_t, smt_calls_skipped)                                            \
  X(uint64_t, templates)                                                    \
  X(uint64_t, diagnostics) /* invalid-header-read findings */               \
  /* Summary translation validation (GenOptions::validate_summary). */      \
  X(uint64_t, validate_obligations)                                         \
  X(uint64_t, validate_unsat)                                               \
  X(uint64_t, validate_unproven)                                            \
  X(uint64_t, validate_refuted)                                             \
  X(double, validate_seconds)                                               \
  /* Crash safety & supervision (GenOptions::checkpoint_dir /          */   \
  /* supervise): a valid checkpoint was loaded and this run resumed    */   \
  /* from it; pipelines whose explore phase the checkpoint skipped;    */   \
  /* checkpoint persists that succeeded / failed (failures never abort */   \
  /* the run — it just keeps the previous file). Shard-level           */   \
  /* requeue/degrade/resume counts live in `engine`.                   */   \
  X(bool, resumed)                                                          \
  X(uint64_t, resumed_pipelines)                                            \
  X(uint64_t, checkpoint_writes)                                            \
  X(uint64_t, checkpoint_failures)                                          \
  X(util::BigCount, paths_original)   /* possible paths, original CFG */    \
  X(util::BigCount, paths_summarized) /* possible paths after summary */    \
  X(std::vector<summary::PipelineSummary>, pipelines)                       \
  /* Final DFS: exact coverage is engine.valid_paths, engine.degraded_ */   \
  /* paths the branches a budgeted check could not decide, and         */   \
  /* engine.solver.unknowns the kUnknown checks.                       */   \
  X(sym::EngineStats, engine)

struct GenStats {
  // += accumulates another run's stats (benchmark aggregation across apps).
  MEISSA_STATS_STRUCT(GenStats, MEISSA_GEN_STATS)
};

class Generator {
 public:
  Generator(ir::Context& ctx, const p4::DataPlane& dp,
            const p4::RuleSet& rules, GenOptions opts = {});

  // Runs summary (once) + DFS and returns all templates.
  std::vector<sym::TestCaseTemplate> generate();

  const GenStats& stats() const { return stats_; }
  const cfg::Cfg& graph() const { return *active_; }          // DFS graph
  const cfg::Cfg& original_graph() const { return original_; }
  // Full validation result (GenOptions::validate_summary); nullptr when
  // validation did not run.
  const analysis::ValidationResult* validation() const {
    return validation_ ? &*validation_ : nullptr;
  }
  // The engine used for the final DFS; valid after generate(). Exposes
  // solve_for_model for the sender.
  sym::Engine& engine() { return *engine_; }

  const p4::DataPlane& dataplane() const { return dp_; }

 private:
  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  GenOptions opts_;
  cfg::Cfg original_;
  std::optional<summary::SummaryResult> summarized_;
  std::optional<analysis::ValidationResult> validation_;
  const cfg::Cfg* active_ = nullptr;
  // Dataflow facts for the final-DFS graph; must outlive engine_.
  analysis::Facts facts_;
  std::unique_ptr<sym::Engine> engine_;
  GenStats stats_;
};

}  // namespace meissa::driver
