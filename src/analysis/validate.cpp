#include "analysis/validate.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p4/program.hpp"
#include "sym/state.hpp"
#include "util/strings.hpp"

namespace meissa::analysis {

const char* obligation_kind_name(ObligationKind k) noexcept {
  switch (k) {
    case ObligationKind::kElimination: return "elimination";
    case ObligationKind::kGuardCover: return "guard-cover";
    case ObligationKind::kGuardPrecision: return "guard-precision";
    case ObligationKind::kEffect: return "effect";
    case ObligationKind::kCoverage: return "coverage";
    case ObligationKind::kStructure: return "structure";
  }
  return "?";
}

const char* obligation_verdict_name(ObligationVerdict v) noexcept {
  switch (v) {
    case ObligationVerdict::kUnsat: return "unsat";
    case ObligationVerdict::kUnproven: return "unproven";
    case ObligationVerdict::kRefuted: return "refuted";
  }
  return "?";
}

const Obligation* ValidationResult::first_refuted() const noexcept {
  for (const PipelineValidation& p : pipelines) {
    for (const Obligation& o : p.obligations) {
      if (o.verdict == ObligationVerdict::kRefuted) return &o;
    }
  }
  return nullptr;
}

namespace {

// One re-derived valid internal path, in pipeline-entry terms (seeded
// fields appear as their "@field@inst" snapshot variables, exactly the
// summarizer's vocabulary, so sound summaries compare pointer-equal).
struct WalkPath {
  std::vector<cfg::NodeId> nodes;  // entry .. exit, inclusive
  std::vector<ir::ExprRef> conds;
  sym::Values values;
  bool tainted = false;  // a budget-exhausted check lies on the prefix
};

// One parsed summarized branch chain, substituted into the same
// vocabulary as the walk.
struct Branch {
  cfg::NodeId head = cfg::kNoNode;
  cfg::NodeId guard_node = cfg::kNoNode;
  ir::ExprRef guard = nullptr;
  sym::Values effects;  // FieldId-sorted, like WalkPath::values
  std::string structure_error;
};

uint64_t edge_key(cfg::NodeId from, cfg::NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

// Validates one pipeline: re-derives its pre-condition and valid internal
// paths on the original subgraph, parses the summarized branch chains, and
// discharges the obligation set described in validate.hpp.
class PipelineValidator {
 public:
  PipelineValidator(ir::Context& ctx, const cfg::Cfg& original,
                    const cfg::Cfg& summarized, size_t k,
                    const ValidateOptions& opts)
      : ctx_(ctx), orig_(original), summ_(summarized),
        info_(summarized.instances()[k]), opts_(opts), state_(ctx) {}

  PipelineValidation run() {
    obs::Span span("validate " + info_.name, "validate");
    const auto t0 = std::chrono::steady_clock::now();
    pv_.instance = info_.name;

    compute_precondition();
    walk();
    std::vector<Branch> branches = parse_branches();
    pv_.surviving_paths = surviving_.size();
    pv_.summary_branches = branches.size();

    bool structure_ok = true;
    for (const Branch& b : branches) {
      if (b.structure_error.empty()) continue;
      structure_ok = false;
      Obligation o;
      o.kind = ObligationKind::kStructure;
      o.verdict = ObligationVerdict::kRefuted;
      o.pipeline = info_.name;
      o.summary_node = b.head;
      o.detail = b.structure_error;
      record(std::move(o));
    }
    if (structure_ok) align(branches);

    build_ledger();

    pv_.smt_checks += walk_solver_ ? walk_solver_->stats().checks : 0;
    pv_.smt_checks += check_solver_ ? check_solver_->stats().checks : 0;
    pv_.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    span.arg("obligations", pv_.obligations.size());
    span.arg("refuted", pv_.refuted);
    span.arg("smt_checks", pv_.smt_checks);
    if (obs::metrics_enabled()) {
      obs::metrics().counter("validate.obligations").add(
          pv_.obligations.size());
      obs::metrics().counter("validate.unsat").add(pv_.unsat);
      obs::metrics().counter("validate.unproven").add(pv_.unproven);
      obs::metrics().counter("validate.refuted").add(pv_.refuted);
      obs::metrics()
          .histogram("validate.pipeline_us")
          .observe(static_cast<uint64_t>(pv_.seconds * 1e6));
    }
    return std::move(pv_);
  }

 private:
  std::unique_ptr<smt::Solver> make_solver() const {
    if (opts_.use_z3) {
      auto s = smt::make_z3_solver(ctx_);
      if (s != nullptr) return s;
    }
    return smt::make_bv_solver(ctx_);
  }

  void record(Obligation o) {
    switch (o.verdict) {
      case ObligationVerdict::kUnsat: ++pv_.unsat; break;
      case ObligationVerdict::kUnproven: ++pv_.unproven; break;
      case ObligationVerdict::kRefuted: ++pv_.refuted; break;
    }
    pv_.obligations.push_back(std::move(o));
  }

  std::string node_desc(const cfg::Cfg& g, cfg::NodeId id) const {
    const std::string& label = g.label(id);
    std::string d = "node " + std::to_string(id);
    if (!label.empty()) d += " (" + label + ")";
    return d;
  }

  // --- Pre-condition ----------------------------------------------------

  void compute_precondition() {
    summary::PreCondition pc;
    if (opts_.summary.precondition_filtering) {
      // The region reaching this entry consists of earlier-wave pipelines
      // only (instance_deps orders the waves), so the final summarized
      // graph shows exactly what the summarizer's own enumeration saw.
      summary::PreconditionOptions po;
      po.fresh_ns = "pre." + info_.name;
      po.static_pruning = opts_.summary.static_pruning;
      pc = summary::compute_precondition(ctx_, summ_, info_.entry, po);
      pv_.smt_checks += pc.smt_checks;
    }
    summary::EntryState es = summary::entry_state(ctx_, pc, info_.name);
    base_ = std::move(es.constraints);
    for (const auto& [at, f] : es.snapshots) {
      seeds_.emplace(f, ctx_.arena.field(at, ctx_.fields.width(at)));
    }
  }

  ir::ExprRef entry_value(ir::FieldId f) const {
    auto it = seeds_.find(f);
    return it != seeds_.end() ? it->second : ctx_.var(f);
  }

  // --- Hash handling shared by walk and branch parse ---------------------

  // Deterministic symbol for an unpinned hash: keyed by (algo, width,
  // substituted key expressions), so the same hash on the walk side and the
  // branch side resolves to the same variable (hash results are functions
  // of their keys).
  ir::FieldId hash_symbol(p4::HashAlgo algo,
                          const std::vector<ir::ExprRef>& keys, int width) {
    auto key = std::make_tuple(static_cast<int>(algo), width, keys);
    auto it = hash_syms_.find(key);
    if (it != hash_syms_.end()) return it->second;
    const ir::FieldId f = ctx_.fields.intern(
        "$vhash." + info_.name + "." + std::to_string(hash_syms_.size()),
        width);
    hash_syms_.emplace(std::move(key), f);
    return f;
  }

  // Engine-equivalent hash evaluation (sym::concrete_hash): concrete when
  // every key is pinned, a shared symbol otherwise.
  ir::ExprRef eval_hash(const cfg::Node& n, std::vector<ir::ExprRef> keys,
                        const std::vector<ir::ExprRef>& path_conds) {
    const int dest_w = ctx_.fields.width(n.hash.dest);
    if (ir::ExprRef h = sym::concrete_hash(ctx_, n.hash.algo, keys, dest_w,
                                           path_conds, base_)) {
      return h;
    }
    return ctx_.var(hash_symbol(n.hash.algo, keys, dest_w));
  }

  // --- Independent re-derivation of the valid internal path set ----------

  void walk() {
    // Region that can still reach the pipeline exit (the engine's
    // reaches_stop_ cut, restricted to what the walk can see).
    reaches_exit_.assign(orig_.size(), false);
    {
      std::unordered_map<cfg::NodeId, std::vector<cfg::NodeId>> preds;
      for (cfg::NodeId id = 0; id < orig_.size(); ++id) {
        for (cfg::NodeId s : orig_.node(id).succ) preds[s].push_back(id);
      }
      std::vector<cfg::NodeId> work{info_.exit};
      reaches_exit_[info_.exit] = true;
      while (!work.empty()) {
        const cfg::NodeId cur = work.back();
        work.pop_back();
        for (cfg::NodeId p : preds[cur]) {
          if (!reaches_exit_[p]) {
            reaches_exit_[p] = true;
            work.push_back(p);
          }
        }
      }
    }

    walk_solver_ = make_solver();
    walk_solver_->set_budget(opts_.budget);
    for (ir::ExprRef c : base_) walk_solver_->add(c);
    bool base_tainted = false;
    if (!base_.empty()) {
      switch (walk_solver_->check()) {
        case smt::CheckResult::kUnsat:
          return;  // unreachable pipeline: no valid internal path at all
        case smt::CheckResult::kUnknown:
          base_tainted = true;
          break;
        case smt::CheckResult::kSat:
          break;
      }
    }
    for (const auto& [f, v] : seeds_) state_.assign(f, v);
    std::vector<cfg::NodeId> path;
    dfs(info_.entry, cfg::kNoNode, base_tainted, path);
  }

  void dfs(cfg::NodeId id, cfg::NodeId from, bool tainted,
           std::vector<cfg::NodeId>& path) {
    if (exploded_ || !reaches_exit_[id]) return;
    const cfg::Node& n = orig_.node(id);

    if (id == info_.exit) {
      if (surviving_.size() >= opts_.max_walk_paths) {
        exploded_ = true;
        return;
      }
      WalkPath p;
      p.nodes = path;
      p.nodes.push_back(id);
      p.conds = state_.conds();
      p.values = state_.values();
      p.tainted = tainted;
      surviving_.push_back(std::move(p));
      return;
    }

    const sym::SymState::Mark mark = state_.mark();
    bool feasible = true;
    bool pushed = false;
    if (n.is_hash) {
      std::vector<ir::ExprRef> keys;
      if (!n.hash.key_exprs.empty()) {
        for (ir::ExprRef e : n.hash.key_exprs) keys.push_back(state_.subst(e));
      } else {
        for (ir::FieldId k : n.hash.keys) keys.push_back(state_.value_of(k));
      }
      state_.assign(n.hash.dest, eval_hash(n, std::move(keys), state_.conds()));
    } else if (n.stmt.kind == ir::StmtKind::kAssign) {
      state_.assign(n.stmt.target, state_.subst(n.stmt.expr));
    } else if (n.stmt.kind == ir::StmtKind::kAssume) {
      ir::ExprRef c = state_.subst(n.stmt.expr);
      if (c->is_true()) {
        // no information
      } else if (c->is_false()) {
        feasible = false;
        eliminate(from, id, ObligationVerdict::kUnsat,
                  "path condition is constant-false at " +
                      node_desc(orig_, id),
                  0);
      } else {
        state_.add_cond(c);
        walk_solver_->push();
        walk_solver_->add(c);
        pushed = true;
        switch (walk_solver_->check()) {
          case smt::CheckResult::kSat:
            break;
          case smt::CheckResult::kUnsat:
            feasible = false;
            eliminate(from, id, ObligationVerdict::kUnsat,
                      "path condition unsatisfiable under the public "
                      "pre-condition at " +
                          node_desc(orig_, id),
                      1);
            break;
          case smt::CheckResult::kUnknown:
            // Budget exhausted: the elimination (if the summarizer made
            // one) stays open, and everything below is explored but marked
            // degraded so a divergence cannot be reported as refuted.
            tainted = true;
            eliminate(from, id, ObligationVerdict::kUnproven,
                      "solver budget exhausted deciding the branch at " +
                          node_desc(orig_, id),
                      1);
            break;
        }
      }
    }

    if (feasible) {
      path.push_back(id);
      for (cfg::NodeId s : n.succ) {
        dfs(s, id, tainted, path);
        if (exploded_) break;
      }
      path.pop_back();
    }
    if (pushed) walk_solver_->pop();
    state_.rollback(mark);
  }

  void eliminate(cfg::NodeId from, cfg::NodeId node, ObligationVerdict v,
                 std::string detail, uint64_t checks) {
    const uint64_t key = edge_key(from, node);
    if (v == ObligationVerdict::kUnproven) any_walk_unknown_ = true;
    Obligation o;
    o.kind = ObligationKind::kElimination;
    o.verdict = v;
    o.pipeline = info_.name;
    o.orig_from = from;
    o.orig_node = node;
    o.detail = std::move(detail);
    o.smt_checks = checks;
    if (v != ObligationVerdict::kUnproven && !eliminated_.count(key)) {
      eliminated_.emplace(key, static_cast<int>(pv_.obligations.size()));
    }
    record(std::move(o));
  }

  // --- Summarized branch chains, substituted into walk vocabulary --------

  std::vector<Branch> parse_branches() {
    std::vector<Branch> out;
    for (cfg::NodeId head : summ_.node(info_.entry).succ) {
      Branch b;
      b.head = head;
      std::unordered_map<ir::FieldId, ir::ExprRef> bind;
      std::unordered_set<ir::FieldId> non_effect;  // snapshots + hash dests
      auto subst_bind = [&](ir::ExprRef e) {
        return ir::substitute(
            e, ctx_.arena,
            [&](ir::FieldId f, int) -> ir::ExprRef {
              auto it = bind.find(f);
              if (it != bind.end()) return it->second;
              auto s = seeds_.find(f);
              if (s != seeds_.end()) return s->second;
              return nullptr;
            },
            memo_);
      };
      cfg::NodeId cur = head;
      size_t steps = 0;
      while (cur != info_.exit) {
        if (++steps > summ_.size()) {
          b.structure_error = "branch chain never reaches the pipeline exit";
          break;
        }
        const cfg::Node& n = summ_.node(cur);
        if (n.is_hash) {
          std::vector<ir::ExprRef> keys;
          if (!n.hash.key_exprs.empty()) {
            for (ir::ExprRef e : n.hash.key_exprs) {
              keys.push_back(subst_bind(e));
            }
          } else {
            for (ir::FieldId k : n.hash.keys) {
              keys.push_back(subst_bind(ctx_.var(k)));
            }
          }
          // The chain's guard has not executed yet, so only the public
          // pre-condition can pin keys here — matching the summarizer,
          // whose encoder only emits hash nodes for unpinned hashes.
          bind[n.hash.dest] = eval_hash(n, std::move(keys), {});
          non_effect.insert(n.hash.dest);
        } else if (n.stmt.kind == ir::StmtKind::kAssign) {
          bind[n.stmt.target] = subst_bind(n.stmt.expr);
          const std::string& tname = ctx_.fields.name(n.stmt.target);
          if (!tname.empty() && tname[0] == '@') {
            non_effect.insert(n.stmt.target);
          }
        } else if (n.stmt.kind == ir::StmtKind::kAssume) {
          if (b.guard != nullptr) {
            b.structure_error = "branch chain carries more than one guard";
            break;
          }
          b.guard = subst_bind(n.stmt.expr);
          b.guard_node = cur;
        }
        if (n.succ.size() != 1) {
          b.structure_error =
              "branch chain " + node_desc(summ_, cur) + " has " +
              std::to_string(n.succ.size()) + " successors (expected 1)";
          break;
        }
        cur = n.succ[0];
      }
      if (b.structure_error.empty() && b.guard == nullptr) {
        b.structure_error = "branch chain has no guard node";
      }
      for (const auto& [f, v] : bind) {
        if (!non_effect.count(f)) b.effects.emplace_back(f, v);
      }
      std::sort(b.effects.begin(), b.effects.end());
      out.push_back(std::move(b));
    }
    return out;
  }

  // --- Obligation discharge ----------------------------------------------

  ObligationVerdict discharge(const std::vector<ir::ExprRef>& extra,
                              uint64_t& checks) {
    if (check_solver_ == nullptr) {
      check_solver_ = make_solver();
      check_solver_->set_budget(opts_.budget);
      for (ir::ExprRef c : base_) check_solver_->add(c);
    }
    check_solver_->push();
    for (ir::ExprRef e : extra) check_solver_->add(e);
    const smt::CheckResult r = check_solver_->check();
    check_solver_->pop();
    ++checks;
    switch (r) {
      case smt::CheckResult::kUnsat: return ObligationVerdict::kUnsat;
      case smt::CheckResult::kSat: return ObligationVerdict::kRefuted;
      case smt::CheckResult::kUnknown: return ObligationVerdict::kUnproven;
    }
    return ObligationVerdict::kUnproven;
  }

  // A refutation observed through a degraded walk path is not a proof of
  // divergence (the path itself may be infeasible): downgrade it.
  static ObligationVerdict soften(ObligationVerdict v, bool tainted) {
    if (tainted && v == ObligationVerdict::kRefuted) {
      return ObligationVerdict::kUnproven;
    }
    return v;
  }

  void align(const std::vector<Branch>& branches) {
    const size_t n = surviving_.size();
    const size_t m = branches.size();

    if (exploded_) {
      Obligation o;
      o.kind = ObligationKind::kCoverage;
      o.verdict = ObligationVerdict::kUnproven;
      o.pipeline = info_.name;
      o.detail = util::format(
          "walk aborted after %llu paths (max_walk_paths); branch alignment "
          "not established",
          static_cast<unsigned long long>(opts_.max_walk_paths));
      record(std::move(o));
      return;
    }

    const size_t pairs = std::min(n, m);
    for (size_t i = 0; i < pairs; ++i) {
      check_pair(surviving_[i], branches[i]);
    }

    // Unmatched surviving paths: coverage the summary lost.
    for (size_t i = pairs; i < n; ++i) {
      const WalkPath& p = surviving_[i];
      Obligation o;
      o.kind = ObligationKind::kCoverage;
      o.verdict = soften(ObligationVerdict::kRefuted,
                         p.tainted || any_walk_unknown_);
      o.pipeline = info_.name;
      o.orig_from = p.nodes.size() >= 2 ? p.nodes[p.nodes.size() - 2]
                                        : info_.entry;
      o.orig_node = p.nodes.back();
      o.detail = util::format(
          "original pipeline keeps %llu valid paths but the summary has "
          "only %llu branches; eliminated edge %llu->%llu has no proof",
          static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(m),
          static_cast<unsigned long long>(o.orig_from),
          static_cast<unsigned long long>(o.orig_node));
      record(std::move(o));
    }

    // Unmatched branches: must be vacuous (guard unsatisfiable under the
    // pre-condition), as the summarizer's dead-pipeline chain is.
    for (size_t j = pairs; j < m; ++j) {
      const Branch& b = branches[j];
      Obligation o;
      o.kind = ObligationKind::kCoverage;
      o.pipeline = info_.name;
      o.summary_node = b.guard_node;
      if (b.guard->is_false()) {
        o.verdict = ObligationVerdict::kUnsat;
        o.detail = "surplus branch is vacuous (guard is constant false)";
      } else {
        o.verdict = soften(discharge({b.guard}, o.smt_checks),
                           any_walk_unknown_);
        o.detail =
            o.verdict == ObligationVerdict::kUnsat
                ? "surplus branch is vacuous (guard unsatisfiable under the "
                  "pre-condition)"
                : "summary branch admits packets but no original valid path "
                  "remains unmatched";
      }
      record(std::move(o));
    }
  }

  void check_pair(const WalkPath& p, const Branch& b) {
    const ir::ExprRef cond = ctx_.arena.all_of(p.conds);
    const cfg::NodeId tail =
        p.nodes.size() >= 2 ? p.nodes[p.nodes.size() - 2] : info_.entry;

    // Guard equivalence, both directions. The common case is pointer
    // equality (the walk reproduces the summarizer's substitutions on the
    // same hash-consing arena), which is a structural proof.
    Obligation cover;
    cover.kind = ObligationKind::kGuardCover;
    cover.pipeline = info_.name;
    cover.orig_from = tail;
    cover.orig_node = p.nodes.back();
    cover.summary_node = b.guard_node;
    Obligation precision = cover;
    precision.kind = ObligationKind::kGuardPrecision;
    if (cond == b.guard) {
      cover.verdict = ObligationVerdict::kUnsat;
      cover.detail = "guard is structurally identical to the path condition";
      precision.verdict = ObligationVerdict::kUnsat;
      precision.detail = cover.detail;
    } else {
      cover.verdict = soften(
          discharge({cond, ctx_.arena.bnot(b.guard)}, cover.smt_checks),
          p.tainted);
      cover.detail =
          cover.verdict == ObligationVerdict::kRefuted
              ? "an original valid path escapes its summarized guard"
              : "path condition implies the summarized guard";
      precision.verdict = soften(
          discharge({b.guard, ctx_.arena.bnot(cond)}, precision.smt_checks),
          p.tainted);
      precision.detail =
          precision.verdict == ObligationVerdict::kRefuted
              ? "summarized guard admits packets outside the original path "
                "condition"
              : "summarized guard implies the path condition";
    }
    record(std::move(cover));
    record(std::move(precision));

    // Effects: final field values must agree under the shared condition (a
    // side that leaves a field unassigned keeps its entry value there).
    std::vector<std::tuple<std::string, ir::ExprRef, ir::ExprRef>> diffs;
    sym::merge_values(
        p.values, b.effects, [&](ir::FieldId f) { return entry_value(f); },
        [&](ir::FieldId f, ir::ExprRef wv, ir::ExprRef bv, bool) {
          if (wv != bv) diffs.emplace_back(ctx_.fields.name(f), wv, bv);
        });
    std::sort(diffs.begin(), diffs.end());  // names are unique
    for (const auto& [field, wv, bv] : diffs) {
      Obligation o;
      o.kind = ObligationKind::kEffect;
      o.pipeline = info_.name;
      o.orig_from = tail;
      o.orig_node = p.nodes.back();
      o.summary_node = b.guard_node;
      o.field = field;
      if (wv->width != bv->width) {
        o.verdict = ObligationVerdict::kRefuted;
        o.detail = "summarized effect has a different width than the "
                   "original value";
      } else {
        o.verdict = soften(
            discharge({cond, ctx_.arena.cmp(ir::CmpOp::kNe, wv, bv)},
                      o.smt_checks),
            p.tainted);
        o.detail = o.verdict == ObligationVerdict::kRefuted
                       ? "summarized final value diverges from the original"
                       : "summarized and original final values agree";
      }
      record(std::move(o));
    }
  }

  // --- Per-edge elimination ledger ---------------------------------------

  void build_ledger() {
    std::unordered_set<uint64_t> retained;
    for (const WalkPath& p : surviving_) {
      for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
        retained.insert(edge_key(p.nodes[i], p.nodes[i + 1]));
      }
    }
    // Forward sweep from the entry, restricted to the exit-reaching region.
    std::vector<bool> seen(orig_.size(), false);
    std::vector<cfg::NodeId> order;
    std::vector<cfg::NodeId> work{info_.entry};
    seen[info_.entry] = true;
    while (!work.empty()) {
      const cfg::NodeId cur = work.back();
      work.pop_back();
      order.push_back(cur);
      if (cur == info_.exit) continue;
      for (cfg::NodeId s : orig_.node(cur).succ) {
        if (reaches_exit_[s] && !seen[s]) {
          seen[s] = true;
          work.push_back(s);
        }
      }
    }
    std::sort(order.begin(), order.end());
    for (cfg::NodeId u : order) {
      if (u == info_.exit) continue;
      for (cfg::NodeId v : orig_.node(u).succ) {
        EdgeLedgerEntry e;
        e.from = u;
        e.to = v;
        if (!reaches_exit_[v]) {
          e.status = EdgeStatus::kOfftarget;
        } else if (retained.count(edge_key(u, v))) {
          e.status = EdgeStatus::kRetained;
        } else {
          auto it = eliminated_.find(edge_key(u, v));
          if (it != eliminated_.end()) {
            e.status = EdgeStatus::kEliminated;
            e.obligation = it->second;
          } else {
            e.status = EdgeStatus::kSubsumed;
          }
        }
        pv_.ledger.push_back(e);
      }
    }
  }

  ir::Context& ctx_;
  const cfg::Cfg& orig_;
  const cfg::Cfg& summ_;
  const cfg::InstanceInfo& info_;
  const ValidateOptions& opts_;

  PipelineValidation pv_;
  std::vector<ir::ExprRef> base_;  // pre-condition assertions (walk vocab)
  std::unordered_map<ir::FieldId, ir::ExprRef> seeds_;  // f -> @f@inst
  sym::SymState state_;
  ir::SubstMemo memo_;  // scratch of parse_branches()' rewriting
  std::unique_ptr<smt::Solver> walk_solver_;
  std::unique_ptr<smt::Solver> check_solver_;
  std::vector<bool> reaches_exit_;
  std::vector<WalkPath> surviving_;
  std::unordered_map<uint64_t, int> eliminated_;  // edge -> obligation idx
  std::map<std::tuple<int, int, std::vector<ir::ExprRef>>, ir::FieldId>
      hash_syms_;
  bool exploded_ = false;
  bool any_walk_unknown_ = false;
};

}  // namespace

ValidationResult validate_summary(ir::Context& ctx, const cfg::Cfg& original,
                                  const cfg::Cfg& summarized,
                                  const ValidateOptions& opts) {
  ValidationResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t k = 0; k < summarized.instances().size(); ++k) {
    PipelineValidator v(ctx, original, summarized, k, opts);
    PipelineValidation pv = v.run();
    res.obligations += pv.obligations.size();
    res.unsat += pv.unsat;
    res.unproven += pv.unproven;
    res.refuted += pv.refuted;
    res.smt_checks += pv.smt_checks;
    res.pipelines.push_back(std::move(pv));
  }
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

// --- Rendering ------------------------------------------------------------

namespace {

std::string obligation_line(const Obligation& o) {
  std::string out = "  ";
  out += obligation_verdict_name(o.verdict);
  out += " [";
  out += obligation_kind_name(o.kind);
  out += "] ";
  if (o.orig_from != cfg::kNoNode || o.orig_node != cfg::kNoNode) {
    out += "edge " + std::to_string(o.orig_from) + "->" +
           std::to_string(o.orig_node) + ": ";
  } else if (o.summary_node != cfg::kNoNode) {
    out += "branch at node " + std::to_string(o.summary_node) + ": ";
  }
  if (!o.field.empty()) out += "field '" + o.field + "': ";
  out += o.detail;
  out += '\n';
  return out;
}

void ledger_counts(const PipelineValidation& p, uint64_t& retained,
                   uint64_t& eliminated, uint64_t& subsumed,
                   uint64_t& offtarget) {
  retained = eliminated = subsumed = offtarget = 0;
  for (const EdgeLedgerEntry& e : p.ledger) {
    switch (e.status) {
      case EdgeStatus::kRetained: ++retained; break;
      case EdgeStatus::kEliminated: ++eliminated; break;
      case EdgeStatus::kSubsumed: ++subsumed; break;
      case EdgeStatus::kOfftarget: ++offtarget; break;
    }
  }
}

std::string json_obligation(const Obligation& o) {
  std::string out = "{\"kind\": \"";
  out += obligation_kind_name(o.kind);
  out += "\", \"verdict\": \"";
  out += obligation_verdict_name(o.verdict);
  out += "\", \"pipeline\": \"";
  out += util::json_escape(o.pipeline);
  out += "\"";
  if (o.orig_from != cfg::kNoNode) {
    out += ", \"from\": " + std::to_string(o.orig_from);
  }
  if (o.orig_node != cfg::kNoNode) {
    out += ", \"node\": " + std::to_string(o.orig_node);
  }
  if (o.summary_node != cfg::kNoNode) {
    out += ", \"summary_node\": " + std::to_string(o.summary_node);
  }
  if (!o.field.empty()) {
    out += ", \"field\": \"" + util::json_escape(o.field) + "\"";
  }
  out += ", \"detail\": \"" + util::json_escape(o.detail) + "\"}";
  return out;
}

}  // namespace

std::string validate_render_text(const ValidationResult& r,
                                 bool obligations_dump) {
  std::string out;
  for (const PipelineValidation& p : r.pipelines) {
    uint64_t ret = 0, elim = 0, sub = 0, off = 0;
    ledger_counts(p, ret, elim, sub, off);
    out += util::format(
        "pipeline %s: %llu paths / %llu branches, %llu obligations "
        "(%llu unsat, %llu unproven, %llu refuted), edges: %llu retained, "
        "%llu eliminated, %llu subsumed\n",
        p.instance.c_str(),
        static_cast<unsigned long long>(p.surviving_paths),
        static_cast<unsigned long long>(p.summary_branches),
        static_cast<unsigned long long>(p.obligations.size()),
        static_cast<unsigned long long>(p.unsat),
        static_cast<unsigned long long>(p.unproven),
        static_cast<unsigned long long>(p.refuted),
        static_cast<unsigned long long>(ret),
        static_cast<unsigned long long>(elim),
        static_cast<unsigned long long>(sub));
    for (const Obligation& o : p.obligations) {
      if (obligations_dump || o.verdict != ObligationVerdict::kUnsat) {
        out += obligation_line(o);
      }
    }
  }
  const char* verdict = r.proven() ? "PROVEN"
                        : r.sound() ? "SOUND (unproven obligations remain)"
                                    : "REFUTED";
  out += util::format(
      "summary validation: %s — %llu obligations (%llu unsat, %llu "
      "unproven, %llu refuted), %llu SMT checks\n",
      verdict, static_cast<unsigned long long>(r.obligations),
      static_cast<unsigned long long>(r.unsat),
      static_cast<unsigned long long>(r.unproven),
      static_cast<unsigned long long>(r.refuted),
      static_cast<unsigned long long>(r.smt_checks));
  return out;
}

std::string validate_render_json(const ValidationResult& r,
                                 bool obligations_dump) {
  std::string out = "{\n  \"pipelines\": [";
  bool first = true;
  for (const PipelineValidation& p : r.pipelines) {
    uint64_t ret = 0, elim = 0, sub = 0, off = 0;
    ledger_counts(p, ret, elim, sub, off);
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"instance\": \"" + util::json_escape(p.instance) + "\"";
    out += ", \"paths\": " + std::to_string(p.surviving_paths);
    out += ", \"branches\": " + std::to_string(p.summary_branches);
    out += ", \"obligations\": " + std::to_string(p.obligations.size());
    out += ", \"unsat\": " + std::to_string(p.unsat);
    out += ", \"unproven\": " + std::to_string(p.unproven);
    out += ", \"refuted\": " + std::to_string(p.refuted);
    out += ", \"smt_checks\": " + std::to_string(p.smt_checks);
    out += ", \"edges\": {\"retained\": " + std::to_string(ret);
    out += ", \"eliminated\": " + std::to_string(elim);
    out += ", \"subsumed\": " + std::to_string(sub);
    out += ", \"offtarget\": " + std::to_string(off) + "}";
    out += ", \"findings\": [";
    bool f1 = true;
    for (const Obligation& o : p.obligations) {
      if (!obligations_dump && o.verdict == ObligationVerdict::kUnsat) {
        continue;
      }
      out += f1 ? "" : ", ";
      f1 = false;
      out += json_obligation(o);
    }
    out += "]}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"obligations\": " + std::to_string(r.obligations) + ",\n";
  out += "  \"unsat\": " + std::to_string(r.unsat) + ",\n";
  out += "  \"unproven\": " + std::to_string(r.unproven) + ",\n";
  out += "  \"refuted\": " + std::to_string(r.refuted) + ",\n";
  out += "  \"smt_checks\": " + std::to_string(r.smt_checks) + ",\n";
  out += std::string("  \"sound\": ") + (r.sound() ? "true" : "false") +
         ",\n";
  out += std::string("  \"proven\": ") + (r.proven() ? "true" : "false") +
         "\n}\n";
  return out;
}

// --- Summary miscompilation injector --------------------------------------

const char* summary_fault_name(SummaryFaultKind k) noexcept {
  switch (k) {
    case SummaryFaultKind::kDropBranch: return "drop-branch";
    case SummaryFaultKind::kWidenGuard: return "widen-guard";
    case SummaryFaultKind::kDropEffect: return "drop-effect";
  }
  return "?";
}

std::optional<SummaryFaultKind> parse_summary_fault(const std::string& name) {
  if (name == "drop-branch") return SummaryFaultKind::kDropBranch;
  if (name == "widen-guard") return SummaryFaultKind::kWidenGuard;
  if (name == "drop-effect") return SummaryFaultKind::kDropEffect;
  return std::nullopt;
}

std::optional<std::string> inject_summary_fault(ir::Context& ctx, cfg::Cfg& g,
                                                SummaryFaultKind kind) {
  for (const cfg::InstanceInfo& info : g.instances()) {
    cfg::Node& entry = g.node(info.entry);
    switch (kind) {
      case SummaryFaultKind::kDropBranch: {
        // Dropping one of several branches loses real coverage; a
        // single-branch pipeline is skipped (dropping it would also kill
        // every downstream pipeline's pre-condition region).
        if (entry.succ.size() < 2) break;
        const cfg::NodeId dropped = entry.succ.front();
        entry.succ.erase(entry.succ.begin());
        return "dropped summarized branch at node " +
               std::to_string(dropped) + " of pipeline '" + info.name + "'";
      }
      case SummaryFaultKind::kWidenGuard: {
        if (entry.succ.size() < 2) break;  // widening needs a sibling branch
        cfg::NodeId cur = entry.succ.front();
        while (cur != info.exit) {
          cfg::Node& n = g.node(cur);
          if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume &&
              !n.stmt.expr->is_true()) {
            n.stmt.expr = ctx.arena.bool_const(true);
            return "widened guard to `true` at node " + std::to_string(cur) +
                   " of pipeline '" + info.name + "'";
          }
          if (n.succ.size() != 1) break;
          cur = n.succ[0];
        }
        break;
      }
      case SummaryFaultKind::kDropEffect: {
        for (cfg::NodeId head : entry.succ) {
          cfg::NodeId prev = info.entry;
          cfg::NodeId cur = head;
          bool after_guard = false;
          while (cur != info.exit) {
            cfg::Node& n = g.node(cur);
            if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume) {
              after_guard = true;
            } else if (after_guard && !n.is_hash &&
                       n.stmt.kind == ir::StmtKind::kAssign &&
                       n.succ.size() == 1) {
              const cfg::NodeId next = n.succ[0];
              cfg::Node& p = g.node(prev);
              std::replace(p.succ.begin(), p.succ.end(), cur, next);
              return "spliced out effect assign to '" +
                     ctx.fields.name(n.stmt.target) + "' at node " +
                     std::to_string(cur) + " of pipeline '" + info.name + "'";
            }
            if (n.succ.size() != 1) break;
            prev = cur;
            cur = n.succ[0];
          }
        }
        break;
      }
    }
  }
  return std::nullopt;
}

}  // namespace meissa::analysis
