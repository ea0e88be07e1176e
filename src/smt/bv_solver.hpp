// Meissa's own incremental bit-vector solver (see solver.hpp).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "smt/bitblast.hpp"
#include "smt/domain.hpp"
#include "smt/sat.hpp"
#include "smt/solver.hpp"

namespace meissa::smt {

class BvSolver final : public Solver {
 public:
  // `ctx` is unused: expressions carry their own field ids and widths.
  explicit BvSolver(ir::Context& ctx);

  void push() override;
  void pop() override;
  void add(ir::ExprRef bexp) override;
  CheckResult check() override;
  Model model() override;
  void set_budget(const Budget& budget) override { budget_ = budget; }
  void set_region(uint64_t region) override { region_ = region; }
  void set_portfolio(bool on) override { portfolio_ = on; }
  const SolverStats& stats() const override { return stats_; }

  // Underlying SAT statistics (exposed for the micro benchmarks).
  const SatSolver::Stats& sat_stats() const { return sat_.stats(); }

  // Caps the bit-blaster's memoization caches (0 = unbounded); they are
  // epoch-cleared between blasts once past the cap. Tests use tiny caps.
  void set_blast_cache_cap(size_t cap) { blast_cache_cap_ = cap; }
  size_t blast_cache_entries() const { return blaster_.cache_entries(); }

  // Forces every check through bit-blasting (fast path never consulted).
  // Used by the differential tests and by the Aquila baseline, whose
  // queries have no domain procedure; not part of the Solver interface.
  void set_force_blast(bool on) { force_blast_ = on; }

  // Per-region portfolio win counters, summed over regions (tests/report).
  uint64_t portfolio_fast_wins() const;
  uint64_t portfolio_sat_wins() const;

 private:
  // Attempts the pure-domain decision procedure: every scope's asserts
  // decomposed into single-field atoms, each required into its field's
  // Domain, and the f == g conjuncts closed into equality classes whose
  // members share one domain (the intersection of theirs) and one witness.
  // kUnknown when any other conjunct was opaque or a witness search ran
  // out of attempts, unless some domain came up empty.
  CheckResult try_fast_path();

  // Bandit decision: should this check attempt the fast path first?
  bool should_try_fast_path();

  // check() minus the observability wrapper.
  CheckResult check_impl();
  // The SAT-core solve under the scope selectors, within the budget.
  CheckResult solve_core(const std::vector<Lit>& assumptions);

  void blast_pending();

  struct Scope {
    std::vector<ir::ExprRef> asserts;
    size_t next_unblasted = 0;
    Lit selector{0};
    bool has_selector = false;
  };

  SatSolver sat_;
  BitBlaster blaster_;
  std::vector<Scope> scopes_;
  SolverStats stats_;
  Budget budget_;
  Model model_;
  bool model_from_fast_path_ = false;

  // Adaptive per-check portfolio (see check_impl). Counters live in the
  // solver instance — one solver per exploration shard — so the learned
  // policy is a pure function of that shard's own check sequence and the
  // outcome is identical across thread counts.
  struct RegionArm {
    uint32_t tries = 0;   // checks that attempted the fast path
    uint32_t wins = 0;    // ... that it decided (kSat/kUnsat)
    uint32_t skips = 0;   // checks routed straight to the SAT core
  };
  bool portfolio_ = false;
  bool force_blast_ = false;
  uint64_t region_ = 0;
  std::unordered_map<uint64_t, RegionArm> arms_;
  size_t blast_cache_cap_ = size_t{1} << 20;
};

}  // namespace meissa::smt
