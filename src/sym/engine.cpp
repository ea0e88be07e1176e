#include "sym/engine.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meissa::sym {

namespace {

// Collects `expr == const` conjuncts: the "constrained with one value"
// test of paper §4 that lets hash results be computed concretely even
// when the keys were pinned by match conditions rather than assignments.
void collect_eq_pins(ir::ExprRef c,
                     std::unordered_map<ir::ExprRef, uint64_t>& pins) {
  if (c->kind == ir::ExprKind::kBool &&
      c->bool_op() == ir::BoolOp::kAnd) {
    collect_eq_pins(c->lhs, pins);
    collect_eq_pins(c->rhs, pins);
    return;
  }
  if (c->kind == ir::ExprKind::kCmp && c->cmp_op() == ir::CmpOp::kEq &&
      c->rhs->kind == ir::ExprKind::kConst) {
    pins.emplace(c->lhs, c->rhs->value);
  }
}

// How many prefix shards run_parallel aims for. Fixed (not derived from the
// thread count) so the shard decomposition — and with it every fresh-symbol
// namespace and the merge order — is identical for any number of workers.
constexpr size_t kTargetShards = 32;

}  // namespace

ir::ExprRef concrete_hash(ir::Context& ctx, p4::HashAlgo algo,
                          std::vector<ir::ExprRef>& keys, int dest_width,
                          const std::vector<ir::ExprRef>& conds,
                          const std::vector<ir::ExprRef>& preconds) {
  auto is_const = [](ir::ExprRef k) { return k->is_const(); };
  if (!std::all_of(keys.begin(), keys.end(), is_const)) {
    std::unordered_map<ir::ExprRef, uint64_t> pins;
    for (ir::ExprRef c : conds) collect_eq_pins(c, pins);
    for (ir::ExprRef c : preconds) collect_eq_pins(c, pins);
    for (ir::ExprRef& k : keys) {
      auto it = k->is_const() ? pins.end() : pins.find(k);
      if (it != pins.end()) k = ctx.arena.constant(it->second, k->width);
    }
    if (!std::all_of(keys.begin(), keys.end(), is_const)) return nullptr;
  }
  std::vector<uint64_t> kv;
  std::vector<int> kw;
  for (ir::ExprRef k : keys) {
    kv.push_back(k->value);
    kw.push_back(k->width);
  }
  return ctx.arena.constant(p4::compute_hash(algo, kv, kw, dest_width),
                            dest_width);
}

// One exploration's mutable state: the paper's V and C stacks, the
// incremental solver, the node path, and counters. The owning Engine holds
// only immutable configuration (graph, options, preconditions, seeds), so
// several contexts can explore concurrently.
struct Engine::ExplorationContext {
  Engine& eng;
  SymState state;
  std::unique_ptr<smt::Solver> solver;  // incremental mode
  // Static-pruning gate: per-path abstract environment (solver-equivalent
  // verdicts only, so the emitted path set matches the ungated run).
  std::optional<analysis::PathEnv> env;
  cfg::Path cur_path;
  EngineStats stats;
  bool aborted = false;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  // Supervision (run_parallel): heartbeat sink + per-shard cancel token.
  util::Supervisor::Task* watch = nullptr;
  // Resume replay (run_parallel with ParallelHooks::resume): while
  // `replaying`, dfs() re-executes the checkpointed frontier path —
  // rebuilding V/C, the solver stack, the abstract env and the minted
  // fresh symbols — without satisfiability checks, stat counts, or
  // re-emission (the path is a known-feasible, already-emitted result).
  // Exploration resumes with the frontier's unvisited siblings at depths
  // >= replay_fanout_from (the shard prefix length; earlier siblings
  // belong to other shards).
  const cfg::Path* replay = nullptr;
  size_t replay_fanout_from = 0;
  bool replaying = false;
  uint64_t saved_fresh = 0;         // frontier fresh-symbol counter
  smt::SolverStats saved_solver;    // frontier cumulative solver counters
  smt::SolverStats solver_base;     // rebasing offset (see end_replay)
  // Sat-model reuse (pc_cache on, incremental mode): the model of this
  // shard's last SAT-core-reaching kSat check, verified against
  // conds[0..last_model_conds). The DFS conds form a stack, so after a
  // rollback the verified prefix shrinks but never changes content —
  // dfs() clamps last_model_conds to the stack size — and a later check
  // only needs the model evaluated on its *new* conjuncts to conclude
  // kSat without any backend call.
  smt::Model last_model;
  size_t last_model_conds = 0;
  // The reuse tier is not free: every cache miss with a model in hand
  // pays an eval() tree walk per new conjunct, and each capture pays a
  // model() walk over every blaster-known field — together those cost
  // about as much per event as the SAT-core check a reuse win saves (on
  // gw-4, keeping the model armed unconditionally cost ~0.5s to save 32
  // of 1824 checks). Mirror the portfolio's arm policy: attempt freely
  // during warmup, then keep the model armed only while wins keep pace
  // with attempts — a losing arm *drops* the model, which stops both the
  // per-miss evals and the per-kSat captures — and periodically probe so
  // a shard whose tail turns reuse-friendly recovers. Counters are
  // per-shard, so the policy is deterministic for a given shard
  // decomposition.
  uint64_t model_attempts = 0;
  uint64_t model_capture_skips = 0;
  static constexpr uint64_t kModelWarmup = 16;
  static constexpr uint64_t kModelPayoff = 2;
  static constexpr uint64_t kModelCaptureProbe = 32;

  bool model_arm_losing() const {
    return model_attempts >= kModelWarmup &&
           stats.pc_model_reuse * kModelPayoff < model_attempts;
  }
  // Cache key of the conds stack, maintained incrementally (pc_cache on):
  // folded mirrors the conds prefix already folded into sig, and on_stack
  // counts occurrences so sig tracks the *distinct* conjunct set (a
  // re-asserted conjunct doesn't change the formula). Lazily extended at
  // each check, unwound at rollback (same discipline as last_model_conds).
  std::vector<ir::ExprRef> folded;
  std::unordered_map<ir::ExprRef, uint32_t> on_stack;
  smt::PathSig sig;

  ExplorationContext(Engine& e, const std::string& fresh_ns)
      : eng(e), state(e.ctx_) {
    // Start from the precondition signature: keys then cover the full
    // asserted formula, making verdicts portable across engines and runs
    // (retracts only ever unwind conds folded on top of this base).
    sig = e.precond_sig_;
    if (!fresh_ns.empty()) state.set_fresh_ns(fresh_ns);
    for (const auto& [f, v] : e.seeds_) state.assign(f, v);
    if (e.opts_.incremental) {
      solver = e.make_solver();
      solver->set_budget(e.opts_.budget);
      if (e.opts_.solver_portfolio) solver->set_portfolio(true);
      for (ir::ExprRef c : e.preconds_) solver->add(c);
    }
    if (e.gates_) {
      env.emplace(e.ctx_);
      for (ir::ExprRef c : e.preconds_) env->add_precondition(c);
    }
  }

  void set_deadline(double budget_seconds) {
    if (budget_seconds <= 0) return;
    has_deadline = true;
    deadline = util::steady_deadline_after(std::chrono::steady_clock::now(),
                                           budget_seconds);
  }

  // Arms the context to resume from `prior` (a mid-flight snapshot with a
  // non-empty frontier). The frontier's minted fresh symbols are pinned to
  // their original names: mints happen only at unpinned-hash nodes and
  // each pushes one HashObligation, so the last result's obligation stack
  // is exactly the current path's mint sequence, in order.
  void arm_resume(const ShardProgress& prior, size_t prefix_len) {
    stats = prior.stats;
    saved_fresh = prior.fresh_counter;
    saved_solver = prior.stats.solver;
    replay = &prior.frontier;
    replay_fanout_from = prefix_len;
    replaying = true;
    std::vector<std::pair<std::string, int>> pins;
    for (const HashObligation& o : prior.results.back().obligations) {
      pins.emplace_back(eng.ctx_.fields.name(o.placeholder),
                        eng.ctx_.fields.width(o.placeholder));
    }
    state.pin_fresh(std::move(pins));
  }

  // Closes the replay at the frontier leaf: restore the fresh-symbol
  // cursor and rebase the fresh solver's cumulative counters onto the
  // snapshot's, so every later fold reports uninterrupted-run values.
  void end_replay() {
    replaying = false;
    state.set_fresh_counter(saved_fresh);
    if (eng.opts_.incremental) {
      solver_base = saved_solver;
      solver_base -= solver->stats();
    }
  }

  // The incremental solver's cumulative counters, rebased for resume.
  smt::SolverStats folded_solver() const {
    smt::SolverStats s = solver_base;
    s += solver->stats();
    return s;
  }

  // Folds the incremental solver's counters into `stats` (done once, at the
  // end, because Solver::stats() is cumulative).
  void finish() {
    if (eng.opts_.incremental) stats.solver = folded_solver();
  }

  // A consistent mid-flight snapshot, taken right after emitting the
  // result whose full path is `frontier`.
  ShardProgress snapshot(const std::vector<PathResult>& buffered,
                         const cfg::Path& frontier) const {
    ShardProgress p;
    p.results = buffered;
    p.frontier = frontier;
    p.fresh_counter = state.fresh_counter();
    p.stats = stats;
    if (eng.opts_.incremental) p.stats.solver = folded_solver();
    return p;
  }

  // Loads one frontier state over the current one (see run_from): values
  // and obligations onto the stacks, conds into the env, the stack and one
  // solver scope, without checks. Returns whether it pushed that scope.
  bool load(const PathResult& s) {
    for (const auto& [f, v] : s.values) state.assign(f, v);
    for (const HashObligation& o : s.obligations) state.add_obligation(o);
    for (ir::ExprRef c : s.conds) {
      if (env) env->assume(c);
      state.add_cond(c);
    }
    if (!eng.opts_.incremental || s.conds.empty()) return false;
    solver->push();
    for (ir::ExprRef c : s.conds) solver->add(c);
    return true;
  }

  // Rolls the stacks and the env back to the marks. The conds stack shrinks
  // with them; the last-model verified prefix and the folded signature
  // prefix unwind too (their surviving entries are untouched by the
  // rollback). A conjunct leaves the signature only when its last stack
  // occurrence pops — the mirror image of the fold in check_current_impl.
  void unwind(const SymState::Mark& mark, analysis::PathEnv::Mark env_mark) {
    if (env) env->rollback(env_mark);
    state.rollback(mark);
    last_model_conds = std::min(last_model_conds, state.conds().size());
    while (folded.size() > state.conds().size()) {
      ir::ExprRef c = folded.back();
      auto it = on_stack.find(c);
      if (--it->second == 0) {
        sig = smt::PathCondCache::retract(sig, c);
        on_stack.erase(it);
      }
      folded.pop_back();
    }
  }

  smt::CheckResult check_current();
  smt::CheckResult check_current_impl();
  // DFS from `id`. While `force` is set and `depth + 1 < force->size()`,
  // recursion is pinned to the forced prefix instead of fanning out over
  // all successors — this replays a shard's prefix, rebuilding V/C and the
  // solver stack exactly as the sequential DFS would have them on arrival.
  void dfs(cfg::NodeId id, const Sink& sink, const cfg::Path* force,
           size_t depth);
};

Engine::Engine(ir::Context& ctx, const cfg::Cfg& g, EngineOptions opts)
    : ctx_(ctx), g_(g), opts_(std::move(opts)) {
  gates_ = opts_.static_pruning && !opts_.check_every_predicate;
  // The cache is only sound to consult under an unlimited per-check budget
  // (a cached definite verdict would otherwise mask a budget-dependent
  // kUnknown and make the degraded split scheduling-dependent).
  if (opts_.pc_cache && opts_.budget.unlimited()) {
    if (opts_.shared_pc_cache == nullptr) {
      pc_cache_ = std::make_unique<smt::PathCondCache>();
    }
  } else {
    // Gating failed: a caller-provided shared cache may not be consulted
    // either (same budget-soundness argument).
    opts_.shared_pc_cache = nullptr;
  }
  use_facts_ = gates_ && opts_.facts != nullptr &&
               opts_.facts->refuted.size() == g_.size();
  if (opts_.stop != cfg::kNoNode) {
    // Stop-mode exploration never needs nodes from which the stop node is
    // unreachable; precompute the reverse-reachable region.
    reaches_stop_.assign(g_.size(), false);
    std::vector<std::vector<cfg::NodeId>> preds(g_.size());
    for (cfg::NodeId id = 0; id < g_.size(); ++id) {
      for (cfg::NodeId s : g_.node(id).succ) preds[s].push_back(id);
    }
    std::vector<cfg::NodeId> work{opts_.stop};
    reaches_stop_[opts_.stop] = true;
    while (!work.empty()) {
      cfg::NodeId cur = work.back();
      work.pop_back();
      for (cfg::NodeId p : preds[cur]) {
        if (!reaches_stop_[p]) {
          reaches_stop_[p] = true;
          work.push_back(p);
        }
      }
    }
  }
}

std::unique_ptr<smt::Solver> Engine::make_solver() const {
  if (opts_.use_z3) {
    auto s = smt::make_z3_solver(ctx_);
    util::check(s != nullptr, "engine: Z3 backend requested but unavailable");
    return s;
  }
  return smt::make_bv_solver(ctx_);
}

void Engine::add_precondition(ir::ExprRef c) {
  util::check(c != nullptr && c->is_bool(), "precondition must be boolean");
  preconds_.push_back(c);
  // Fold the precondition into the signature base: cache keys cover the
  // full asserted conjunct set, so entries recorded under the old
  // precondition set stay valid (their keys are simply never produced
  // again) and nothing needs to be discarded — not even a cache shared
  // with engines holding different preconditions.
  precond_sig_ = smt::PathCondCache::extend(precond_sig_, c);
}

void Engine::seed_value(ir::FieldId f, ir::ExprRef value) {
  seeds_.emplace_back(f, value);
}

smt::CheckResult Engine::ExplorationContext::check_current() {
  // Observability wrapper: per-check latency histograms keyed by verdict,
  // and a budget-exhaustion marker on kUnknown. Clocks are read only when
  // metrics are on; the disabled path is one relaxed load plus the check.
  if (!obs::metrics_enabled()) {
    smt::CheckResult r = check_current_impl();
    if (r == smt::CheckResult::kUnknown) {
      obs::instant("solver budget exhausted", "dfs");
    }
    return r;
  }
  auto t0 = std::chrono::steady_clock::now();
  smt::CheckResult r = check_current_impl();
  const uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  switch (r) {
    case smt::CheckResult::kSat:
      obs::metrics().histogram("dfs.check_us.sat").observe(us);
      break;
    case smt::CheckResult::kUnsat:
      obs::metrics().histogram("dfs.check_us.unsat").observe(us);
      break;
    case smt::CheckResult::kUnknown:
      obs::metrics().histogram("dfs.check_us.unknown").observe(us);
      obs::metrics().counter("dfs.budget_exhausted").add();
      obs::instant("solver budget exhausted", "dfs");
      break;
  }
  return r;
}

smt::CheckResult Engine::ExplorationContext::check_current_impl() {
  // Path-condition cache (created only under an unlimited budget — see
  // EngineOptions::pc_cache). Consulted before any backend runs: the
  // verdict is a semantic property of the conjunct set, so a hit returns
  // exactly what the backend would have concluded. The signature extends
  // in O(1) per conjunct pushed since the last check — no copy or sort of
  // the condition vector — and only over conjuncts *entering* the set:
  // re-asserting a guard the path already carries leaves the formula (and
  // therefore the key) unchanged, which is where most repeats come from.
  smt::PathCondCache* cache = eng.opts_.shared_pc_cache != nullptr
                                  ? eng.opts_.shared_pc_cache
                                  : eng.pc_cache_.get();
  if (cache != nullptr) {
    const std::vector<ir::ExprRef>& conds = state.conds();
    while (folded.size() < conds.size()) {
      ir::ExprRef c = conds[folded.size()];
      if (++on_stack[c] == 1) sig = smt::PathCondCache::extend(sig, c);
      folded.push_back(c);
    }
    smt::CheckResult cached = smt::CheckResult::kUnknown;
    if (cache->lookup(sig, &cached)) {
      ++stats.pc_cache_hits;
      if (obs::metrics_enabled()) obs::metrics().counter("smt.cache.hits").add();
      return cached;
    }
    ++stats.pc_cache_misses;
    if (obs::metrics_enabled()) obs::metrics().counter("smt.cache.misses").add();
    // Second tier: this shard's last sat model, already verified against
    // conds[0..last_model_conds), witnesses kSat if it also satisfies the
    // new conjuncts — a handful of concrete evaluations vs. a solver call.
    // eval() returning nullopt (model misses a field) falls to the backend.
    if (!last_model.empty() && last_model_conds < state.conds().size()) {
      ++model_attempts;
      bool sat = true;
      for (size_t i = last_model_conds; sat && i < state.conds().size(); ++i) {
        std::optional<uint64_t> v = ir::eval(state.conds()[i], last_model);
        sat = v.has_value() && *v != 0;
      }
      if (!sat && model_arm_losing()) last_model.clear();
      if (sat) {
        ++stats.pc_model_reuse;
        last_model_conds = state.conds().size();
        cache->insert(sig, smt::CheckResult::kSat);
        if (obs::metrics_enabled()) {
          obs::metrics().counter("smt.cache.model_reuse").add();
        }
        return smt::CheckResult::kSat;
      }
    }
  }
  smt::CheckResult r;
  if (eng.opts_.incremental) {
    // Capture a reusable model only when the verdict was kSat and the
    // check reached the SAT core — model() walks every blaster-known
    // field, which is worth paying to amortize an expensive check but not
    // after every cheap fast-path hit — and only while the adaptive
    // policy says the reuse tier is earning its keep (see the
    // kModelCapture* constants).
    const uint64_t sat_calls_before = solver->stats().sat_calls;
    r = solver->check();
    stats.solver = folded_solver();
    if (cache != nullptr && r == smt::CheckResult::kSat &&
        solver->stats().sat_calls != sat_calls_before) {
      bool capture = !model_arm_losing();
      if (!capture && ++model_capture_skips % kModelCaptureProbe == 0) {
        capture = true;  // probe: re-arm a dropped model to re-sample
      }
      if (capture) {
        last_model = solver->model();
        last_model_conds = state.conds().size();
      }
    }
  } else {
    // Non-incremental: fresh solver, re-assert everything (p4pktgen-style).
    auto s = eng.make_solver();
    s->set_budget(eng.opts_.budget);
    for (ir::ExprRef c : eng.preconds_) s->add(c);
    for (ir::ExprRef c : state.conds()) s->add(c);
    r = s->check();
    stats.solver.checks += s->stats().checks;
    stats.solver.fast_path_hits += s->stats().fast_path_hits;
    stats.solver.sat_calls += s->stats().sat_calls;
    stats.solver.unknowns += s->stats().unknowns;
    stats.solver.sat_decisions += s->stats().sat_decisions;
  }
  if (cache != nullptr) cache->insert(sig, r);  // kUnknown is ignored
  return r;
}

void Engine::run(const Sink& sink) {
  Frontier start;
  start.node = opts_.start == cfg::kNoNode ? g_.entry() : opts_.start;
  start.states.emplace_back();
  run_from(start, sink);
}

void Engine::run_from(const Frontier& from, const Sink& sink) {
  ExplorationContext ec(*this, opts_.fresh_ns);
  // An unsatisfiable precondition set prunes the whole exploration; check
  // it once up front (otherwise predicate-free paths would never be
  // validated against it in incremental mode).
  if (!preconds_.empty() && opts_.incremental) {
    if (ec.check_current() == smt::CheckResult::kUnsat) {
      ++ec.stats.pruned_paths;
      ec.finish();
      stats_ = ec.stats;
      return;
    }
  }
  ec.set_deadline(opts_.time_budget_seconds);
  for (const PathResult& s : from.states) {
    const SymState::Mark mark = ec.state.mark();
    const analysis::PathEnv::Mark env_mark = ec.env ? ec.env->mark() : 0;
    const bool pushed = ec.load(s);
    ec.dfs(from.node, sink, nullptr, 0);
    if (pushed) ec.solver->pop();
    ec.unwind(mark, env_mark);
    if (ec.aborted) break;
  }
  ec.finish();
  stats_ = ec.stats;
}

std::vector<cfg::Path> Engine::compute_shards(size_t target) const {
  cfg::NodeId start = opts_.start == cfg::kNoNode ? g_.entry() : opts_.start;
  if (!reaches_stop_.empty() && !reaches_stop_[start]) return {};
  std::vector<cfg::Path> shards{{start}};
  bool grew = true;
  while (shards.size() < target && grew) {
    grew = false;
    std::vector<cfg::Path> next;
    next.reserve(shards.size() * 2);
    for (cfg::Path& p : shards) {
      const cfg::Node& n = g_.node(p.back());
      const bool at_stop = opts_.stop != cfg::kNoNode && p.back() == opts_.stop;
      if (at_stop || n.succ.empty()) {
        next.push_back(std::move(p));  // complete path: a closed shard
        continue;
      }
      for (cfg::NodeId s : n.succ) {
        // Off-target successors (stop mode) contribute no results; the
        // sequential DFS abandons them on entry, so skip them here too.
        if (!reaches_stop_.empty() && !reaches_stop_[s]) continue;
        cfg::Path q = p;
        q.push_back(s);
        next.push_back(std::move(q));
        grew = true;
      }
    }
    shards = std::move(next);
  }
  return shards;
}

void Engine::run_parallel(const Sink& sink, int threads) {
  run_parallel(sink, threads, ParallelHooks{});
}

void Engine::run_parallel(const Sink& sink, int threads,
                          const ParallelHooks& hooks) {
  threads = util::resolve_threads(threads);
  // Precondition precheck, as in run(). kUnknown (budget exhausted) simply
  // proceeds: only a proven-unsat precondition prunes the exploration.
  if (!preconds_.empty() && opts_.incremental) {
    auto s = make_solver();
    s->set_budget(opts_.budget);
    for (ir::ExprRef c : preconds_) s->add(c);
    if (s->check() == smt::CheckResult::kUnsat) {
      stats_ = EngineStats{};
      ++stats_.pruned_paths;
      stats_.solver = s->stats();
      return;
    }
  }

  const std::vector<cfg::Path> shards = compute_shards(kTargetShards);
  if (hooks.on_shards) hooks.on_shards(shards.size());
  std::vector<std::vector<PathResult>> buffered(shards.size());
  std::vector<EngineStats> shard_stats(shards.size());
  // Resume data is honored only when it matches this graph's shard
  // decomposition (a checkpoint from another program/options combination
  // is already rejected by its content key; this is belt-and-braces).
  const std::vector<ShardProgress>* resume =
      (hooks.resume != nullptr && hooks.resume->size() == shards.size())
          ? hooks.resume
          : nullptr;
  const int max_attempts = std::max(1, hooks.max_attempts);

  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  if (opts_.time_budget_seconds > 0) {
    has_deadline = true;
    deadline = util::steady_deadline_after(std::chrono::steady_clock::now(),
                                           opts_.time_budget_seconds);
  }

  const std::string ns_base =
      opts_.fresh_ns.empty() ? std::string() : opts_.fresh_ns + ".";
  util::ThreadPool pool(threads);
  pool.run(shards.size(), [&](size_t i) {
    obs::Span span("shard " + std::to_string(i), "dfs");
    const ShardProgress* prior = resume != nullptr ? &(*resume)[i] : nullptr;
    if (prior != nullptr && prior->done) {
      // Completed before the snapshot: restore, never re-explore.
      buffered[i] = prior->results;
      shard_stats[i] = prior->stats;
      ++shard_stats[i].resumed_shards;
      if (hooks.progress) hooks.progress(i, *prior);
      span.arg("paths", buffered[i].size());
      span.arg("resumed", uint64_t{1});
      return;
    }
    const bool mid_flight = prior != nullptr && !prior->frontier.empty() &&
                            !prior->results.empty();
    const std::string site = "shard." + std::to_string(i);
    uint64_t requeues = 0;
    for (int attempt = 1;; ++attempt) {
      util::Supervisor::Task* task =
          hooks.supervisor != nullptr ? hooks.supervisor->begin(site) : nullptr;
      bool failed = false;
      buffered[i] = mid_flight ? prior->results : std::vector<PathResult>{};
      try {
        if (hooks.fault != nullptr) {
          hooks.fault->hit(site,
                           task != nullptr ? &task->token() : opts_.cancel);
        }
        ExplorationContext ec(*this, ns_base + "s" + std::to_string(i));
        ec.has_deadline = has_deadline;
        ec.deadline = deadline;
        ec.watch = task;
        const cfg::Path* force = &shards[i];
        if (mid_flight) {
          ec.arm_resume(*prior, shards[i].size());
          force = &prior->frontier;
        }
        uint64_t since_snapshot = 0;
        ec.dfs(force->front(), [&](const PathResult& r) {
          buffered[i].push_back(r);
          if (hooks.progress && hooks.checkpoint_every != 0 &&
              ++since_snapshot >= hooks.checkpoint_every) {
            since_snapshot = 0;
            hooks.progress(i, ec.snapshot(buffered[i], r.path));
          }
        }, force, 0);
        ec.finish();
        if (task != nullptr && task->tripped()) {
          failed = true;  // watchdog broke this attempt: partials are junk
        } else {
          shard_stats[i] = ec.stats;
          if (mid_flight) ++shard_stats[i].resumed_shards;
        }
      } catch (const util::InjectedFaultError&) {
        failed = true;  // an injected crash; anything else propagates
      }
      if (hooks.supervisor != nullptr) hooks.supervisor->end(task);
      if (!failed) {
        shard_stats[i].requeued_shards += requeues;
        // A shard is checkpointed as *done* only when its subtree is
        // actually exhausted. A run-cancel or time-budget abort leaves the
        // last cadence snapshot (a mid-flight frontier) as the resume
        // point; marking it done would persist the partial result list as
        // the shard's final truth and break resume's byte-identity.
        if (hooks.progress && !shard_stats[i].cancelled &&
            !shard_stats[i].timed_out) {
          ShardProgress done_p;
          done_p.done = true;
          done_p.results = buffered[i];
          done_p.stats = shard_stats[i];
          hooks.progress(i, done_p);
        }
        break;
      }
      buffered[i].clear();
      if (attempt >= max_attempts) {
        // Re-queue exhausted: the shard's subtree stays unexplored. That
        // is *degraded* coverage — counted, like budget-degraded paths,
        // never silently dropped (and never marked run-cancelled).
        shard_stats[i] = EngineStats{};
        shard_stats[i].requeued_shards = requeues;
        shard_stats[i].degraded_shards = 1;
        if (obs::metrics_enabled()) {
          obs::metrics().counter("supervise.shard_degraded").add();
        }
        obs::instant("shard degraded", "supervise");
        if (hooks.progress) {
          ShardProgress done_p;
          done_p.done = true;
          done_p.stats = shard_stats[i];
          hooks.progress(i, done_p);
        }
        break;
      }
      // One more chance on a fresh context ("fresh shard"): injected
      // faults are consumed per firing, so a healed environment retries
      // to the exact result set an unfaulted run produces.
      ++requeues;
      if (obs::metrics_enabled()) {
        obs::metrics().counter("supervise.shard_requeues").add();
      }
      obs::instant("shard requeued", "supervise");
    }
    span.arg("paths", buffered[i].size());
    span.arg("nodes_visited", shard_stats[i].nodes_visited);
  });

  // Merge in shard order = sequential DFS pre-order. valid_paths counts
  // what the sink actually saw after the global max_results cut; the other
  // counters sum over shards (prefix replay revisits shared nodes, so
  // nodes_visited/pruned_paths exceed a single sequential run's — but are
  // identical for every thread count).
  EngineStats total;
  for (const EngineStats& s : shard_stats) total += s;
  total.valid_paths = 0;
  auto publish = [this](const EngineStats& st) {
    stats_ = st;
    if (obs::metrics_enabled()) {
      obs::metrics().counter("dfs.nodes_visited").add(st.nodes_visited);
      obs::metrics().counter("dfs.valid_paths").add(st.valid_paths);
      obs::metrics().counter("dfs.pruned_paths").add(st.pruned_paths);
      obs::metrics().counter("dfs.degraded_paths").add(st.degraded_paths);
      obs::metrics().counter("dfs.static_prunes").add(st.static_prunes);
    }
  };
  for (const std::vector<PathResult>& buf : buffered) {
    for (const PathResult& r : buf) {
      if (opts_.max_results != 0 && total.valid_paths >= opts_.max_results) {
        publish(total);
        return;
      }
      sink(r);
      ++total.valid_paths;
    }
  }
  publish(total);
}

void Engine::ExplorationContext::dfs(cfg::NodeId id, const Sink& sink,
                                     const cfg::Path* force, size_t depth) {
  if (aborted) return;
  const cfg::Cfg& g = eng.g_;
  const EngineOptions& opts = eng.opts_;
  if (!eng.reaches_stop_.empty() && !eng.reaches_stop_[id]) return;
  // During resume replay the counters are frozen: the snapshot's stats
  // already cover this re-executed prefix, and counting it again would
  // make a resumed run's stats diverge from an uninterrupted run's.
  if (!replaying) ++stats.nodes_visited;
  if (watch != nullptr) watch->heartbeat();
  if (eng.opts_.cancel != nullptr && eng.opts_.cancel->cancelled()) {
    stats.cancelled = true;
    aborted = true;
    return;
  }
  // Per-shard watchdog token: unwind without marking the *run* cancelled —
  // the supervisor decides whether this attempt is retried or degraded.
  if (watch != nullptr && watch->token().cancelled()) {
    aborted = true;
    return;
  }
  if (has_deadline && (stats.nodes_visited & 0xff) == 0 &&
      std::chrono::steady_clock::now() > deadline) {
    stats.timed_out = true;
    aborted = true;
    return;
  }
  const cfg::Node& n = g.node(id);
  const SymState::Mark mark = state.mark();
  const analysis::PathEnv::Mark env_mark = env ? env->mark() : 0;
  bool pushed = false;

  // Leaves: the stop node (summary mode) or a successor-less terminal.
  const bool is_leaf =
      (opts.stop != cfg::kNoNode && id == opts.stop) || n.succ.empty();

  // --- Execute the node's statement (skipped for the stop node). ---------
  bool feasible = true;
  // Set when a budgeted check answered kUnknown: the branch is abandoned
  // as *degraded* (solver could not decide it), not as proven-infeasible.
  bool degraded = false;
  if (!(opts.stop != cfg::kNoNode && id == opts.stop)) {
    if (n.is_hash) {
      // Paper §4: compute the hash when every key is pinned to a constant;
      // otherwise leave the destination unconstrained and record an
      // obligation for the driver.
      std::vector<ir::ExprRef> keys;
      if (!n.hash.key_exprs.empty()) {
        for (ir::ExprRef e : n.hash.key_exprs) keys.push_back(state.subst(e));
      } else {
        for (ir::FieldId k : n.hash.keys) keys.push_back(state.value_of(k));
      }
      const int dest_w = eng.ctx_.fields.width(n.hash.dest);
      if (ir::ExprRef h = concrete_hash(eng.ctx_, n.hash.algo, keys, dest_w,
                                        state.conds(), eng.preconds_)) {
        state.assign(n.hash.dest, h);
      } else {
        ir::FieldId fresh = state.fresh_symbol(dest_w);
        state.assign(n.hash.dest, eng.ctx_.var(fresh));
        HashObligation o;
        o.placeholder = fresh;
        o.algo = n.hash.algo;
        o.key_exprs = keys;
        for (ir::ExprRef e : keys) o.key_widths.push_back(e->width);
        state.add_obligation(std::move(o));
      }
    } else {
      switch (n.stmt.kind) {
        case ir::StmtKind::kNop:
          break;
        case ir::StmtKind::kAssign:
          state.assign(n.stmt.target, state.subst(n.stmt.expr));
          break;
        case ir::StmtKind::kAssume: {
          // Dataflow facts: a predicate refuted from the start node with a
          // TOP boundary is unsat under every path condition rooted there.
          // (Never taken during replay: the frontier path was feasible.)
          if (!replaying && eng.use_facts_ && eng.opts_.facts->refuted[id]) {
            ++stats.static_prunes;
            feasible = false;
            break;
          }
          ir::ExprRef c = state.subst(n.stmt.expr);
          if (!opts.check_every_predicate && c->is_true()) {
            if (!replaying) ++stats.folded_checks;
          } else if (!opts.check_every_predicate && c->is_false()) {
            ++stats.folded_checks;
            feasible = false;
          } else {
            // Replay still feeds the abstract env and the solver stack —
            // post-frontier siblings depend on both — but takes no
            // verdicts and spends no checks on the known-feasible path.
            analysis::Verdict verdict = analysis::Verdict::kUnknown;
            if (env) verdict = env->assume(c);
            if (!replaying && verdict == analysis::Verdict::kRefuted) {
              ++stats.static_prunes;
              feasible = false;
              break;
            }
            state.add_cond(c);
            if (opts.incremental) {
              solver->push();
              solver->add(c);
              // Key the adaptive portfolio's win counters on the predicate
              // node deciding this region of the CFG (advisory; see
              // Solver::set_region).
              solver->set_region(id);
            }
            pushed = true;
            if (opts.early_termination && !replaying) {
              if (verdict != analysis::Verdict::kUnknown) {
                // Statically certain (implied or field-wise satisfiable):
                // the check's result is known, skip the call.
                ++stats.skipped_checks;
              } else {
                switch (check_current()) {
                  case smt::CheckResult::kSat:
                    break;
                  case smt::CheckResult::kUnsat:
                    feasible = false;
                    break;
                  case smt::CheckResult::kUnknown:
                    feasible = false;
                    degraded = true;
                    break;
                }
              }
            }
          }
          break;
        }
      }
    }
  }

  if (feasible) {
    if (is_leaf && opts.stop != cfg::kNoNode && id != opts.stop) {
      // A terminal that is not the requested stop node: the path never
      // reaches the target and is not a result (it is not pruned either -
      // it simply lies outside the exploration's scope).
      ++stats.offtarget_paths;
    } else if (is_leaf && replaying) {
      // The frontier leaf: this result was emitted (and buffered) before
      // the snapshot was taken. Close the replay without re-checking or
      // re-emitting; exploration continues with the unvisited siblings as
      // the forced recursion unwinds.
      end_replay();
    } else if (is_leaf) {
      // Without early termination nothing has been checked yet; validate
      // the whole path condition once at the leaf.
      bool valid = true;
      if (!opts.early_termination || !opts.incremental) {
        if (opts.incremental) solver->set_region(id);
        smt::CheckResult cr = check_current();
        valid = cr == smt::CheckResult::kSat;
        if (cr == smt::CheckResult::kUnknown) degraded = true;
      }
      if (valid) {
        ++stats.valid_paths;
        PathResult r;
        r.path = cur_path;
        r.path.push_back(id);
        r.conds = state.conds();
        r.values = state.values();
        r.obligations = state.obligations();
        r.exit = n.exit;
        r.emit_instance = n.emit_instance;
        sink(r);
        if (opts.max_results != 0 && stats.valid_paths >= opts.max_results) {
          aborted = true;
        }
      } else if (degraded) {
        ++stats.degraded_paths;
      } else {
        ++stats.pruned_paths;
      }
    } else {
      cur_path.push_back(id);
      if (force != nullptr && depth + 1 < force->size()) {
        dfs((*force)[depth + 1], sink, force, depth + 1);
        // Resume: at fan-out depths (beyond the shard prefix) the forced
        // frontier child is the one the interrupted run visited *last*;
        // its later siblings, in successor order, are exactly the work
        // that run had not reached. (At prefix depths the siblings belong
        // to other shards and stay untouched.)
        if (force == replay && depth + 1 >= replay_fanout_from && !aborted) {
          bool after = false;
          for (cfg::NodeId s : n.succ) {
            if (after) {
              dfs(s, sink, nullptr, 0);
              if (aborted) break;
            } else if (s == (*force)[depth + 1]) {
              after = true;
            }
          }
        }
      } else {
        for (cfg::NodeId s : n.succ) {
          dfs(s, sink, nullptr, 0);
          if (aborted) break;
        }
      }
      cur_path.pop_back();
    }
  } else if (degraded) {
    ++stats.degraded_paths;
  } else {
    ++stats.pruned_paths;
  }

  if (pushed && opts.incremental) solver->pop();
  unwind(mark, env_mark);
}

std::optional<smt::Model> Engine::solve_for_model(const PathResult& r) {
  auto s = make_solver();
  for (ir::ExprRef c : preconds_) s->add(c);
  for (ir::ExprRef c : r.conds) s->add(c);
  if (s->check() != smt::CheckResult::kSat) return std::nullopt;
  return s->model();
}

}  // namespace meissa::sym
