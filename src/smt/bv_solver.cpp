#include "smt/bv_solver.hpp"

#include <chrono>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace meissa::smt {

BvSolver::BvSolver(ir::Context& /*ctx*/) : blaster_(sat_) {
  scopes_.emplace_back();  // base scope
}

void BvSolver::push() {
  ++stats_.pushes;
  scopes_.emplace_back();
  if (obs::metrics_enabled()) {
    // High-water mark of the incremental assertion stack (the DFS depth as
    // the solver sees it). Base scope excluded.
    obs::metrics().gauge("smt.push_depth_max").record_max(scopes_.size() - 1);
  }
}

void BvSolver::pop() {
  ++stats_.pops;
  util::check(scopes_.size() > 1, "pop: no scope to pop");
  Scope& top = scopes_.back();
  if (top.has_selector) {
    // Permanently retire this scope's selector; its guarded clauses become
    // vacuously satisfied and any clauses learned from them stay sound.
    sat_.add_unit(~top.selector);
  }
  scopes_.pop_back();
}

void BvSolver::add(ir::ExprRef bexp) {
  util::check(bexp != nullptr && bexp->is_bool(), "add: boolean required");
  scopes_.back().asserts.push_back(bexp);
}

CheckResult BvSolver::try_fast_path() {
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  std::vector<FieldEquality> equalities;
  for (const Scope& s : scopes_) {
    for (ir::ExprRef a : s.asserts) {
      decompose_conjunction(a, atoms, opaque, &equalities);
    }
  }
  std::unordered_map<ir::FieldId, Domain> domains;
  for (const Atom& at : atoms) {
    if (at.field == ir::kInvalidField) return CheckResult::kUnsat;
    domains.try_emplace(at.field, at.width).first->second.require(at);
  }

  // Equality classes: a union-find over the fields of the f == g
  // conjuncts. Each member's domain folds into its class root's, and the
  // root's witness is every member's.
  std::unordered_map<ir::FieldId, size_t> index;
  std::vector<size_t> parent;
  std::vector<std::pair<ir::FieldId, int>> members;  // field, width
  auto node = [&](ir::FieldId f, int width) {
    auto [it, fresh] = index.try_emplace(f, parent.size());
    if (fresh) {
      parent.push_back(parent.size());
      members.emplace_back(f, width);
    }
    return it->second;
  };
  auto root = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (const FieldEquality& e : equalities) {
    const size_t ra = root(node(e.a, e.width));
    const size_t rb = root(node(e.b, e.width));
    parent[ra] = rb;
  }
  for (size_t i = 0; i < parent.size(); ++i) {
    const auto& [root_field, width] = members[root(i)];
    Domain& d = domains.try_emplace(root_field, width).first->second;
    if (root(i) == i) continue;
    auto it = domains.find(members[i].first);
    if (it != domains.end()) {
      d.intersect(it->second);
      domains.erase(it);
    }
  }

  Model candidate;
  for (auto& [fid, d] : domains) {
    bool decided = true;
    std::optional<uint64_t> v = d.pick_value(decided);
    if (!decided) return CheckResult::kUnknown;
    if (!v) return CheckResult::kUnsat;  // sound even for partial decompose
    candidate.emplace(fid, *v);
  }
  if (!opaque.empty()) return CheckResult::kUnknown;
  for (size_t i = 0; i < parent.size(); ++i) {
    const uint64_t v = candidate.at(members[root(i)].first);
    candidate.emplace(members[i].first, v);
  }
  model_ = std::move(candidate);
  model_from_fast_path_ = true;
  return CheckResult::kSat;
}

bool BvSolver::should_try_fast_path() {
  if (force_blast_) return false;
  if (!portfolio_) return true;
  // Under a limited budget the fast path is always attempted: skipping it
  // could turn a cheap definite verdict into a budget-dependent kUnknown
  // and grow the degraded-coverage set relative to a portfolio-off run.
  if (!budget_.unlimited()) return true;
  RegionArm& arm = arms_[region_];
  // Warm-up: measure before judging the region.
  if (arm.tries < 16) return true;
  // Skip once the fast path wins less than 1 in 8 of its attempts here,
  // but probe on every 32nd skip so a region whose constraint mix drifts
  // back into the decidable fragment can re-earn its fast path.
  if (arm.wins * 8 < arm.tries) {
    if (arm.skips % 32 == 31) return true;
    return false;
  }
  return true;
}

uint64_t BvSolver::portfolio_fast_wins() const {
  uint64_t n = 0;
  for (const auto& [r, a] : arms_) n += a.wins;
  return n;
}

uint64_t BvSolver::portfolio_sat_wins() const {
  uint64_t n = 0;
  for (const auto& [r, a] : arms_) n += a.tries - a.wins;
  return n;
}

void BvSolver::blast_pending() {
  // Between-blast boundary: safe point to epoch-clear the memoization
  // caches (never mid-recursion — see BitBlaster::maybe_epoch_clear).
  blaster_.maybe_epoch_clear(blast_cache_cap_);
  for (size_t i = 0; i < scopes_.size(); ++i) {
    Scope& s = scopes_[i];
    if (s.next_unblasted < s.asserts.size() && i > 0 && !s.has_selector) {
      s.selector = Lit::make(sat_.new_var(), false);
      s.has_selector = true;
    }
    for (; s.next_unblasted < s.asserts.size(); ++s.next_unblasted) {
      Lit l = blaster_.blast_bool(s.asserts[s.next_unblasted]);
      if (i == 0) {
        sat_.add_unit(l);
      } else {
        sat_.add_binary(~s.selector, l);
      }
    }
  }
}

CheckResult BvSolver::check() {
  if (!obs::metrics_enabled()) return check_impl();
  // Per-check CDCL effort: delta of the cumulative SAT-core counters
  // around one check. Fast-path checks record zeros, which keeps the
  // histogram an honest per-check distribution.
  const SatSolver::Stats before = sat_.stats();
  CheckResult r = check_impl();
  const SatSolver::Stats& after = sat_.stats();
  obs::metrics()
      .histogram("smt.conflicts_per_check")
      .observe(after.conflicts - before.conflicts);
  obs::metrics()
      .histogram("smt.propagations_per_check")
      .observe(after.propagations - before.propagations);
  // Memory-shape gauges: translation-cache population (bounded by
  // set_blast_cache_cap) and the learned-clause database high-water mark.
  obs::metrics()
      .gauge("smt.bitblast.cache_entries")
      .record_max(blaster_.cache_entries());
  obs::metrics().gauge("smt.sat.learned_db").record_max(sat_.num_learned());
  return r;
}

CheckResult BvSolver::check_impl() {
  ++stats_.checks;
  model_.clear();
  model_from_fast_path_ = false;

  // Race the two backends bandit-style: attempt the interval/equality fast
  // path unless this CFG region has taught us it rarely decides here. The
  // verdict is backend-independent, so routing only moves *time*, never
  // results (templates stay byte-identical with the portfolio on or off).
  if (should_try_fast_path()) {
    CheckResult fp = try_fast_path();
    if (portfolio_ && budget_.unlimited() && !force_blast_) {
      RegionArm& arm = arms_[region_];
      ++arm.tries;
      if (fp != CheckResult::kUnknown) ++arm.wins;
    }
    if (fp != CheckResult::kUnknown) {
      ++stats_.fast_path_hits;
      if (obs::metrics_enabled()) {
        obs::metrics().counter("smt.portfolio.fast_wins").add(1);
      }
      return fp;
    }
    if (obs::metrics_enabled()) {
      obs::metrics().counter("smt.portfolio.sat_wins").add(1);
    }
  } else {
    ++stats_.fast_path_skipped;
    if (portfolio_) ++arms_[region_].skips;
    if (obs::metrics_enabled()) {
      obs::metrics().counter("smt.portfolio.fast_skips").add(1);
    }
  }

  ++stats_.sat_calls;
  blast_pending();
  std::vector<Lit> assumptions;
  for (size_t i = 1; i < scopes_.size(); ++i) {
    if (scopes_[i].has_selector) assumptions.push_back(scopes_[i].selector);
  }
  const uint64_t decisions_before = sat_.stats().decisions;
  const CheckResult r = solve_core(assumptions);
  stats_.sat_decisions += sat_.stats().decisions - decisions_before;
  return r;
}

CheckResult BvSolver::solve_core(const std::vector<Lit>& assumptions) {
  if (budget_.unlimited()) {
    bool sat = sat_.solve(assumptions);
    return sat ? CheckResult::kSat : CheckResult::kUnsat;
  }
  ResourceLimits limits;
  limits.max_conflicts = budget_.max_conflicts;
  limits.max_propagations = budget_.max_propagations;
  if (budget_.max_wall_ms > 0) {
    limits.has_deadline = true;
    limits.deadline = budget_.deadline_after(std::chrono::steady_clock::now());
  }
  switch (sat_.solve_limited(assumptions, limits)) {
    case SolveStatus::kSat:
      return CheckResult::kSat;
    case SolveStatus::kUnsat:
      return CheckResult::kUnsat;
    case SolveStatus::kUnknown:
      ++stats_.unknowns;
      return CheckResult::kUnknown;
  }
  util::check(false, "solve_limited: bad status");
  return CheckResult::kUnknown;
}

Model BvSolver::model() {
  if (model_from_fast_path_) return model_;
  // SAT-core model: read back every field the blaster knows about.
  // Iterate the blaster's own field map — scanning the context-global
  // field table here cost ~5ms per call on gw-4 (the table holds every
  // field of every pipeline; the blaster knows a few dozen).
  Model m;
  blaster_.for_each_known_field(
      [&](ir::FieldId f) { m.emplace(f, blaster_.model_value(f)); });
  return m;
}

std::unique_ptr<Solver> make_bv_solver(ir::Context& ctx) {
  return std::make_unique<BvSolver>(ctx);
}

}  // namespace meissa::smt
