// Incremental re-testing session (ROADMAP "incremental re-testing").
//
// Production rule sets churn continuously; a from-scratch generation per
// update re-pays nearly all of its solver work on regions the change
// cannot influence. IncrementalSession holds the reusable state across
// runs of the *same data plane* under evolving rules:
//
//   * the per-region SummaryUnits of the last run — replayed verbatim
//     (summary resume) for every region the change-impact analysis
//     (analysis/impact) proves clean, so only dirty regions re-explore;
//   * a shared path-condition verdict cache (smt/cache.hpp) warmed by the
//     baseline — the final DFS of an update answers repeated checks from
//     the cache instead of the backend (hash-consing keeps unchanged
//     conjuncts pointer-identical across runs within one ir::Context);
//   * the previous run's coverage signatures, diffed per update into
//     added/removed/unchanged template counts (*delta coverage*).
//
// Soundness bar (enforced by the determinism suite and the
// incremental-smoke CI job): templates after an incremental update are
// byte-identical to a from-scratch regeneration of the updated program.
// That holds because (a) a clean region's replayed unit is exactly what
// re-exploring it would produce — its fingerprint, its upstream regions'
// fingerprints, and the glue are unchanged, and the summary encodes a
// unit from its own paths alone; and (b) cached verdicts are semantic
// properties of their conjunct sets (see smt/cache.hpp), so cache hits
// never change branch decisions. Everything reused is keyed by content,
// never by "the rules looked similar".
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/impact.hpp"
#include "driver/generator.hpp"

namespace meissa::driver {

struct IncrementalOptions {
  // Baseline generation configuration, reused for every update. Must have
  // code_summary on (the summary units are the reuse grain) and no
  // checkpoint_dir (the session holds state in memory; the generator's
  // checkpoint hooks would displace the session's summary hooks).
  GenOptions gen;
  // Test hook: mutates the freshly-built impact model before it is diffed
  // and stored. The conservative-edge soundness tests delete dependency
  // edges here to prove the edges are load-bearing — with an edge removed,
  // incremental output must *differ* from full regeneration.
  std::function<void(analysis::ImpactModel&)> mutate_model;
};

// What one run (baseline or update) produced.
struct UpdateReport {
  int run = 0;  // 0 = baseline, then 1, 2, ... per update
  // The invalidation verdict vs the previous run (baseline: full, all
  // regions dirty).
  analysis::ImpactDiff impact;
  // Regions whose summary explore phase was skipped by unit replay.
  uint64_t summaries_reused = 0;
  // Delta coverage vs the previous run, over semantic template signatures
  // (exit, entry/emit instance, path condition, final values — template
  // ids and node numbering excluded).
  uint64_t added = 0;
  uint64_t removed = 0;
  uint64_t unchanged = 0;
  struct RegionPaths {
    std::string region;
    uint64_t paths = 0;   // summarized paths in this region
    bool reused = false;  // replayed from the previous run's unit
  };
  std::vector<RegionPaths> regions;  // instance order
  uint64_t smt_checks = 0;     // backend checks this run actually paid
  uint64_t pc_cache_hits = 0;  // checks the shared cache answered, all engines
  double seconds = 0;
  GenStats stats;
  std::vector<sym::TestCaseTemplate> templates;  // this run's full output
  // Sorted signatures of `templates` (the generator's graph does not
  // outlive run(), so they are computed eagerly): semantic coverage
  // signatures, and strict full signatures for byte-identity checks.
  std::vector<std::string> coverage_sigs;
  std::vector<std::string> full_sigs;
};

class IncrementalSession {
 public:
  // `dp` must outlive the session; all runs share `ctx` (pointer-stable
  // hash-consing is what makes the verdict cache valid across runs).
  IncrementalSession(ir::Context& ctx, const p4::DataPlane& dp,
                     IncrementalOptions opts = {});

  // Generates for `rules`: the first call is the baseline (everything
  // dirty), each later call an incremental update reusing clean-region
  // summaries and cached verdicts.
  UpdateReport run(const p4::RuleSet& rules);

  int runs() const { return runs_; }

  // Semantic coverage signature of one template: stable across runs and
  // thread counts (no template id, no node numbering) — the delta-coverage
  // unit of account.
  static std::string coverage_signature(const ir::Context& ctx,
                                        const cfg::Cfg& g,
                                        const sym::TestCaseTemplate& t);
  // Strict signature: coverage_signature plus the exact node path — what
  // the byte-identity checks (vs from-scratch regeneration) compare.
  static std::string full_signature(const ir::Context& ctx, const cfg::Cfg& g,
                                    const sym::TestCaseTemplate& t);

 private:
  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  IncrementalOptions opts_;
  // Shared across all runs; see EngineOptions::shared_pc_cache for the
  // precondition contract (all runs assert the same GenOptions::assumes).
  smt::PathCondCache cache_;
  std::unordered_map<std::string, summary::SummaryUnit> units_;
  std::optional<analysis::ImpactModel> model_;
  std::vector<std::string> prev_sigs_;  // sorted coverage signatures
  int runs_ = 0;
};

}  // namespace meissa::driver
