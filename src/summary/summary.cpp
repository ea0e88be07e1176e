#include "summary/summary.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "analysis/dataflow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace meissa::summary {

PreCondition compute_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                  cfg::NodeId target,
                                  const PreconditionOptions& popts) {
  sym::EngineOptions opts;
  opts.stop = target;
  opts.fresh_ns = popts.fresh_ns;
  opts.static_pruning = popts.static_pruning;
  opts.cancel = popts.cancel;
  if (popts.shared_pc_cache != nullptr) {
    opts.pc_cache = true;
    opts.shared_pc_cache = popts.shared_pc_cache;
  }
  sym::Engine eng(ctx, g, opts);
  PreCondition pc;
  std::vector<ir::ExprRef> cond_order;  // first path's conds, in path order
  std::unordered_set<ir::ExprRef> conds;
  sym::Values values, next;  // agreeing values; the merge's scratch
  std::unordered_set<ir::FieldId> tops;
  // Per-field constant sets across paths (for value-set pre-conditions);
  // a field leaves the map when any path gives it a non-constant value or
  // the set grows beyond the merge limit.
  constexpr size_t kMaxValueSet = 96;
  std::unordered_map<ir::FieldId, std::unordered_set<uint64_t>> const_sets;
  uint64_t count = 0;
  auto intersect = [&](const sym::PathResult& r) {
    pc.frontier.states.push_back({{}, r.conds, r.values, r.obligations});
    std::unordered_set<ir::ExprRef> rc(r.conds.begin(), r.conds.end());
    if (count++ == 0) {
      conds = std::move(rc);
      cond_order = r.conds;
      values = r.values;
      for (auto& [f, v] : r.values) {
        if (v->is_const()) const_sets[f].insert(v->value);
      }
      return;
    }
    for (auto it = conds.begin(); it != conds.end();) {
      it = rc.count(*it) ? std::next(it) : conds.erase(it);
    }
    next.clear();
    sym::merge_values(
        values, r.values, [&](ir::FieldId f) { return ctx.var(f); },
        [&](ir::FieldId f, ir::ExprRef va, ir::ExprRef vb, bool in_values) {
          if (va != vb) tops.insert(f);
          else if (in_values) next.emplace_back(f, va);
        });
    values.swap(next);
    for (auto it = const_sets.begin(); it != const_sets.end();) {
      const ir::ExprRef v = sym::find_value(r.values, it->first);
      if (v == nullptr || !v->is_const() ||
          it->second.size() > kMaxValueSet) {
        it = const_sets.erase(it);
      } else {
        it->second.insert(v->value);
        ++it;
      }
    }
  };
  if (popts.from != nullptr) {
    eng.run_from(*popts.from, intersect);
  } else {
    eng.run(intersect);
  }
  pc.frontier.node = target;
  pc.smt_checks = eng.stats().solver.checks;
  pc.pc_cache_hits = eng.stats().pc_cache_hits;
  pc.smt_skipped = eng.stats().static_prunes + eng.stats().skipped_checks;
  pc.prefix_nodes = eng.stats().nodes_visited;
  pc.prefix_paths = count;
  if (count == 0) {
    pc.conds.push_back(ctx.arena.bool_const(false));
    return pc;
  }
  // Surviving conjuncts in first-path order (first occurrence only):
  // deterministic because the enumeration itself is a sequential DFS.
  for (ir::ExprRef c : cond_order) {
    if (conds.erase(c) != 0) pc.conds.push_back(c);
  }
  for (const auto& [f, v] : values) {
    if (v != ctx.var(f)) pc.values.emplace_back(f, v);
  }
  for (ir::FieldId f : tops) {
    auto it = const_sets.find(f);
    if (it != const_sets.end() && !it->second.empty()) {
      std::vector<uint64_t> vals(it->second.begin(), it->second.end());
      std::sort(vals.begin(), vals.end());
      pc.value_sets.emplace(f, std::move(vals));
    }
  }
  pc.tops = std::move(tops);
  return pc;
}

EntryState entry_state(ir::Context& ctx, const PreCondition& pc,
                       const std::string& inst_name) {
  EntryState es;
  es.constraints = pc.conds;
  auto snapshot = [&](ir::FieldId f) {
    const int width = ctx.fields.width(f);
    const ir::FieldId at =
        ctx.fields.intern("@" + ctx.fields.name(f) + "@" + inst_name, width);
    es.snapshots.emplace_back(at, f);
    return ctx.arena.field(at, width);
  };
  std::vector<ir::FieldId> tops(pc.tops.begin(), pc.tops.end());
  // By name: FieldIds follow interning order, which depends on thread
  // scheduling; every order that shapes the summarized graph uses names.
  ctx.fields.sort_by_name(tops);
  for (ir::FieldId f : tops) {
    ir::ExprRef at_var = snapshot(f);
    auto vs = pc.value_sets.find(f);
    if (vs == pc.value_sets.end()) continue;
    // Merged per-packet-type pre-condition: the entry value is one of the
    // constants the predecessor paths produce (paper §7).
    std::vector<ir::ExprRef> eqs;
    for (uint64_t v : vs->second) {
      eqs.push_back(ctx.arena.cmp(ir::CmpOp::kEq, at_var,
                                  ctx.arena.constant(v, ctx.fields.width(f))));
    }
    es.constraints.push_back(ctx.arena.any_of(eqs));
  }
  for (const auto& [f, v] : sym::by_name(pc.values, ctx.fields)) {
    // Known entry value: the binding @f == V_pub(f).
    es.constraints.push_back(ctx.arena.cmp(ir::CmpOp::kEq, snapshot(f), v));
  }
  return es;
}

namespace {

// Encodes one internal valid path as a compact branch (Algorithm 2 lines
// 12–25) and splices it between `entry` and `exit`.
class PathEncoder {
 public:
  // `seed_snaps` are the (@field, field) entry snapshots the body engine
  // was seeded with (EntryState::snapshots).
  PathEncoder(
      ir::Context& ctx, cfg::Cfg& g, int instance, const std::string& inst_name,
      const std::vector<std::pair<ir::FieldId, ir::FieldId>>& seed_snaps)
      : ctx_(ctx), g_(g), instance_(instance), inst_name_(inst_name) {
    for (const auto& [at, f] : seed_snaps) {
      seeds_.emplace(f, ctx_.arena.field(at, ctx_.fields.width(at)));
      snapshot_of_.emplace(at, f);
      snapshot_for_.emplace(f, at);
    }
  }

  void encode(const sym::PathResult& r, cfg::NodeId entry, cfg::NodeId exit) {
    // Changed fields: assigned inside the pipeline to something other than
    // their seed. Skip snapshot fields themselves.
    sym::Values changed;
    for (const auto& [f, v] : r.values) {
      auto s = seeds_.find(f);
      if (s != seeds_.end() && s->second == v) continue;  // still the seed
      if (s == seeds_.end() && v == ctx_.var(f)) continue;  // identity
      changed.push_back({f, v});
    }
    changed = sym::by_name(changed, ctx_.fields);

    // Substitution for raw reads of fields this path changes: a raw field
    // occurrence means "value at pipeline entry", which Phase A snapshots.
    std::unordered_set<ir::FieldId> changed_unseeded;
    for (const auto& [f, v] : changed) {
      if (!seeds_.count(f)) changed_unseeded.insert(f);
    }
    auto at_entry = [&](ir::ExprRef e) {
      return ir::substitute(
          e, ctx_.arena,
          [&](ir::FieldId f, int w) -> ir::ExprRef {
            if (changed_unseeded.count(f)) {
              return ctx_.arena.field(snapshot_fid(f), w);
            }
            return nullptr;
          },
          memo_);
    };

    std::vector<ir::ExprRef> conds;
    conds.reserve(r.conds.size());
    for (ir::ExprRef c : r.conds) conds.push_back(at_entry(c));
    std::vector<std::pair<ir::FieldId, ir::ExprRef>> assigns;
    for (const auto& [f, v] : changed) assigns.push_back({f, at_entry(v)});
    std::vector<sym::HashObligation> obligations = r.obligations;
    for (sym::HashObligation& o : obligations) {
      for (ir::ExprRef& k : o.key_exprs) k = at_entry(k);
    }

    // Phase A: snapshot every @field the encoded expressions mention.
    std::unordered_set<ir::FieldId> mentioned;
    for (ir::ExprRef c : conds) ir::collect_fields(c, mentioned);
    for (auto& [f, v] : assigns) ir::collect_fields(v, mentioned);
    for (auto& o : obligations) {
      for (ir::ExprRef k : o.key_exprs) ir::collect_fields(k, mentioned);
    }
    cfg::NodeId cur = entry;
    auto link_next = [&](cfg::NodeId n) {
      g_.node(n).instance = instance_;
      g_.link(cur, n);
      cur = n;
    };
    std::vector<ir::FieldId> snaps;
    for (ir::FieldId f : mentioned) {
      auto it = snapshot_of_.find(f);
      if (it != snapshot_of_.end()) snaps.push_back(f);
    }
    ctx_.fields.sort_by_name(snaps);
    for (ir::FieldId at : snaps) {
      ir::FieldId orig = snapshot_of_.at(at);
      link_next(g_.add(ir::Stmt::assign(at, ctx_.var(orig))));
    }

    // Phase B: hash definitions (into their fresh placeholders).
    for (const sym::HashObligation& o : obligations) {
      cfg::HashStmt h;
      h.dest = o.placeholder;
      h.algo = o.algo;
      h.key_exprs = o.key_exprs;
      link_next(g_.add_hash(std::move(h)));
    }

    // Guard: one predicate node with the whole path condition.
    link_next(g_.add(ir::Stmt::assume(ctx_.arena.all_of(conds))));

    // Phase C: the path's overall effects (order-independent: right-hand
    // sides only mention snapshots, placeholders and untouched inputs).
    for (const auto& [f, v] : assigns) {
      link_next(g_.add(ir::Stmt::assign(f, v)));
    }
    g_.link(cur, exit);
  }

  // Snapshot field ("@<name>@<inst>") for `f`, record reverse mapping.
  ir::FieldId snapshot_fid(ir::FieldId f) {
    auto it = snapshot_for_.find(f);
    if (it != snapshot_for_.end()) return it->second;
    int w = ctx_.fields.width(f);
    ir::FieldId at =
        ctx_.fields.intern("@" + ctx_.fields.name(f) + "@" + inst_name_, w);
    snapshot_for_.emplace(f, at);
    snapshot_of_.emplace(at, f);
    return at;
  }

 private:
  ir::Context& ctx_;
  cfg::Cfg& g_;
  int instance_;
  const std::string& inst_name_;
  std::unordered_map<ir::FieldId, ir::ExprRef> seeds_;  // f -> @f (seeded)
  std::unordered_map<ir::FieldId, ir::FieldId> snapshot_for_;  // f -> @f
  std::unordered_map<ir::FieldId, ir::FieldId> snapshot_of_;   // @f -> f
  ir::SubstMemo memo_;
};

}  // namespace

namespace {

// Everything the explore phase of one pipeline produces, kept until the
// (sequential) encode phase splices it into the graph.
struct InstanceWork {
  PipelineSummary ps;
  std::vector<sym::PathResult> internal;
  // (@field, field) pairs, in seeding order, replayed into the encoder.
  std::vector<std::pair<ir::FieldId, ir::FieldId>> seed_snaps;
  bool resumed = false;  // restored from SummaryHooks::resume
};

// Pipeline dependency: k depends on j when j's exit reaches k's entry in
// the original graph (then j's summarized branches lie inside k's
// pre-condition region and must exist before k's explore phase).
std::vector<std::vector<size_t>> instance_deps(const cfg::Cfg& g) {
  const size_t n = g.instances().size();
  std::vector<std::vector<size_t>> deps(n);
  for (size_t j = 0; j < n; ++j) {
    // Forward reachability from j's exit.
    std::vector<bool> seen(g.size(), false);
    std::vector<cfg::NodeId> work{g.instances()[j].exit};
    seen[g.instances()[j].exit] = true;
    while (!work.empty()) {
      cfg::NodeId cur = work.back();
      work.pop_back();
      for (cfg::NodeId s : g.node(cur).succ) {
        if (!seen[s]) {
          seen[s] = true;
          work.push_back(s);
        }
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (k != j && seen[g.instances()[k].entry]) deps[k].push_back(j);
    }
  }
  return deps;
}

}  // namespace

std::vector<int> nearest_dominators(const cfg::Cfg& g) {
  const size_t n = g.instances().size();
  // Nodes reachable from the CFG entry without entering `avoid`.
  auto reach = [&](cfg::NodeId avoid) {
    std::vector<bool> seen(g.size(), false);
    if (g.entry() == avoid) return seen;
    std::vector<cfg::NodeId> work{g.entry()};
    seen[g.entry()] = true;
    while (!work.empty()) {
      cfg::NodeId cur = work.back();
      work.pop_back();
      for (cfg::NodeId s : g.node(cur).succ) {
        if (!seen[s] && s != avoid) {
          seen[s] = true;
          work.push_back(s);
        }
      }
    }
    return seen;
  };
  const std::vector<bool> reachable = reach(cfg::kNoNode);
  std::vector<std::vector<size_t>> doms(n);  // instances dominating each
  for (size_t d = 0; d < n; ++d) {
    const std::vector<bool> without = reach(g.instances()[d].entry);
    for (size_t t = 0; t < n; ++t) {
      const cfg::NodeId e = g.instances()[t].entry;
      if (t != d && reachable[e] && !without[e]) doms[t].push_back(d);
    }
  }
  // One node's dominators form a chain; the nearest is the one the others
  // all dominate, i.e. the one with the most dominators of its own.
  std::vector<int> nearest(n, -1);
  for (size_t t = 0; t < n; ++t) {
    for (size_t d : doms[t]) {
      if (nearest[t] < 0 || doms[d].size() > doms[nearest[t]].size()) {
        nearest[t] = static_cast<int>(d);
      }
    }
  }
  return nearest;
}

SummaryResult summarize(ir::Context& ctx, const cfg::Cfg& original,
                        const SummaryOptions& opts) {
  SummaryResult result;
  result.graph = original;  // working copy
  cfg::Cfg& g = result.graph;
  const size_t n = g.instances().size();
  if (n == 0) return result;

  // Public pre-conditions extend frontiers (see compute_precondition): a
  // pipeline t with a nearest dominating instance d = dom[t] continues d's
  // prefix paths, F_d, instead of re-enumerating them from the CFG entry.
  // d's exit reaches t's entry, so d is summarized in an earlier wave and
  // the region before d no longer changes. F_d is kept while a pending
  // pipeline extends it.
  const std::vector<int> dom = opts.precondition_filtering
                                   ? nearest_dominators(g)
                                   : std::vector<int>(n, -1);
  std::vector<std::optional<sym::Frontier>> frontiers(n);
  auto precondition_options = [&](size_t k) {
    PreconditionOptions po;
    if (dom[k] >= 0) po.from = &*frontiers[dom[k]];
    po.fresh_ns = "pre." + g.instances()[k].name;
    po.static_pruning = opts.static_pruning;
    po.cancel = opts.cancel;
    po.shared_pc_cache = opts.shared_pc_cache;
    return po;
  };
  auto count_precondition = [](const PreCondition& pc) {
    if (!obs::metrics_enabled()) return;
    obs::metrics().counter("summary.precondition_paths").add(pc.prefix_paths);
    obs::metrics().counter("summary.precondition_nodes").add(pc.prefix_nodes);
  };

  // Explore one pipeline: pre-condition, seeding, body exploration. Reads
  // the graph and interns fields/expressions, but never mutates the graph —
  // safe to run concurrently for independent pipelines.
  auto explore = [&](size_t k, InstanceWork& w) {
    const cfg::InstanceInfo& info = g.instances()[k];
    obs::Span span("summary " + info.name, "summary");
    auto t0 = std::chrono::steady_clock::now();
    w.ps.instance = info.name;
    w.ps.paths_before = g.count_instance_paths(static_cast<int>(k));

    // Checkpoint resume: a prior run already explored this pipeline under
    // an identical graph (content-key guarded by the checkpoint layer);
    // restore its paths and seeds and let the sequential encode phase
    // splice them as usual. paths_before is recomputed — it is a pure
    // function of the graph and cheaper than serializing a BigCount.
    if (opts.hooks != nullptr && opts.hooks->resume != nullptr) {
      auto it = opts.hooks->resume->find(info.name);
      if (it != opts.hooks->resume->end()) {
        const SummaryUnit& u = it->second;
        w.resumed = true;
        w.ps.paths_after = u.paths_after;
        w.ps.smt_checks = u.smt_checks;
        w.ps.smt_skipped = u.smt_skipped;
        w.ps.seconds = u.seconds;
        w.internal = u.internal;
        for (const SummaryUnit::SeedSnap& s : u.seed_snaps) {
          ir::FieldId at = ctx.fields.intern(s.at, s.width);
          w.seed_snaps.emplace_back(at, ctx.fields.intern(s.orig, s.width));
        }
        span.arg("resumed", uint64_t{1});
        return;
      }
    }

    // 1. Public pre-condition (Algorithm 2 lines 4–7).
    PreCondition pc;
    if (opts.precondition_filtering) {
      pc = compute_precondition(ctx, g, info.entry, precondition_options(k));
      w.ps.smt_checks = pc.smt_checks;
      w.ps.pc_cache_hits = pc.pc_cache_hits;
      w.ps.smt_skipped = pc.smt_skipped;
      w.ps.prefix_paths = pc.prefix_paths;
      w.ps.prefix_nodes = pc.prefix_nodes;
      frontiers[k] = std::move(pc.frontier);
    }

    // 2. Symbolic execution within the pipeline (line 9), seeded so that
    // every expression it produces is in pipeline-entry terms.
    sym::EngineOptions eopts;
    eopts.start = info.entry;
    eopts.stop = info.exit;
    eopts.use_z3 = opts.use_z3;
    eopts.check_every_predicate = opts.check_every_predicate;
    eopts.fresh_ns = info.name;
    eopts.static_pruning = opts.static_pruning;
    eopts.cancel = opts.cancel;
    if (opts.shared_pc_cache != nullptr) {
      eopts.pc_cache = true;
      eopts.shared_pc_cache = opts.shared_pc_cache;
    }
    // Per-instance dataflow facts, computed from the pipeline's entry with a
    // TOP boundary — valid for any seeds/pre-conditions rooted there — over
    // the region that ends at the pipeline's exit, where the engine stops.
    analysis::Facts facts;
    if (opts.static_pruning && !opts.check_every_predicate) {
      facts = analysis::compute_facts(ctx, g, info.entry, info.exit);
      eopts.facts = &facts;
    }
    sym::Engine eng(ctx, g, eopts);
    EntryState es = entry_state(ctx, pc, info.name);
    for (ir::ExprRef c : es.constraints) eng.add_precondition(c);
    for (const auto& [at, f] : es.snapshots) {
      eng.seed_value(f, ctx.arena.field(at, ctx.fields.width(at)));
    }
    w.seed_snaps = std::move(es.snapshots);

    eng.run([&](const sym::PathResult& r) { w.internal.push_back(r); });

    w.ps.paths_after = w.internal.size();
    w.ps.smt_checks += eng.stats().solver.checks;
    w.ps.pc_cache_hits += eng.stats().pc_cache_hits;
    w.ps.smt_skipped += eng.stats().static_prunes + eng.stats().skipped_checks;
    w.ps.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    span.arg("paths_after", w.ps.paths_after);
    span.arg("smt_checks", w.ps.smt_checks);
    span.arg("prefix_paths", pc.prefix_paths);
    span.arg("prefix_nodes", pc.prefix_nodes);
    count_precondition(pc);
    if (obs::metrics_enabled()) {
      obs::metrics().counter("summary.pipelines").add();
      obs::metrics().counter("summary.smt_checks").add(w.ps.smt_checks);
      obs::metrics()
          .histogram("summary.pipeline_us")
          .observe(static_cast<uint64_t>(w.ps.seconds * 1e6));
      // "Paths eliminated" per pipeline: original subgraph paths minus the
      // surviving summarized branches. The original count can exceed any
      // fixed-width integer (that is the point of summarization), so clamp
      // the eliminated count into a saturating uint64.
      if (w.ps.paths_before.is_exact() &&
          w.ps.paths_before.exact() >= w.ps.paths_after) {
        obs::metrics()
            .counter("summary.paths_eliminated")
            .add(w.ps.paths_before.exact() - w.ps.paths_after);
      } else {
        obs::metrics().counter("summary.paths_eliminated_saturated").add();
      }
    }
  };

  // Encode one explored pipeline: replace the subgraph with the summarized
  // branches (lines 11–25). Mutates the graph — runs sequentially, in
  // instance order, so node ids are thread-count-independent.
  auto encode = [&](size_t k, InstanceWork& w) {
    const cfg::InstanceInfo& info = g.instances()[k];
    PathEncoder encoder(ctx, g, static_cast<int>(k), info.name, w.seed_snaps);
    g.node(info.entry).succ.clear();
    if (w.internal.empty()) {
      // No packet can traverse this pipeline: a false guard keeps the
      // subgraph single-entry single-exit while pruning all paths.
      cfg::NodeId dead = g.add(ir::Stmt::assume(ctx.arena.bool_const(false)));
      g.node(dead).instance = static_cast<int>(k);
      g.link(info.entry, dead);
      g.link(dead, info.exit);
    }
    for (const sym::PathResult& r : w.internal) {
      encoder.encode(r, info.entry, info.exit);
    }
  };

  // Builds the checkpointable form of one explored pipeline (names, not
  // FieldIds — numbering is scheduling-dependent).
  auto to_unit = [&](const InstanceWork& w) {
    SummaryUnit u;
    u.instance = w.ps.instance;
    u.paths_after = w.ps.paths_after;
    u.smt_checks = w.ps.smt_checks;
    u.smt_skipped = w.ps.smt_skipped;
    u.seconds = w.ps.seconds;
    u.internal = w.internal;
    for (const auto& [at, f] : w.seed_snaps) {
      SummaryUnit::SeedSnap s;
      s.at = ctx.fields.name(at);
      s.orig = ctx.fields.name(f);
      s.width = ctx.fields.width(at);
      u.seed_snaps.push_back(std::move(s));
    }
    return u;
  };

  // F_d for a dominator d whose own explore left none: restored from
  // SummaryHooks::resume, or released. Rebuilt by the same recursion,
  // sequentially on this thread, so its fresh names — and with them every
  // engine's verdict-cache signature downstream — match an uninterrupted
  // run's. Its solver work counts in the totals, not in d's row.
  uint64_t rebuild_checks = 0;
  uint64_t rebuild_skipped = 0;
  auto ensure_frontier = [&](int d) {
    std::vector<int> chain;  // d, then its missing dominators
    for (int x = d; x >= 0 && !frontiers[x]; x = dom[x]) chain.push_back(x);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const cfg::InstanceInfo& info = g.instances()[*it];
      obs::Span span("summary frontier " + info.name, "summary");
      PreCondition pc =
          compute_precondition(ctx, g, info.entry, precondition_options(*it));
      rebuild_checks += pc.smt_checks;
      rebuild_skipped += pc.smt_skipped;
      span.arg("prefix_paths", pc.prefix_paths);
      span.arg("prefix_nodes", pc.prefix_nodes);
      count_precondition(pc);
      frontiers[*it] = std::move(pc.frontier);
    }
  };
  auto resumed = [&](size_t k) {
    return opts.hooks != nullptr && opts.hooks->resume != nullptr &&
           opts.hooks->resume->count(g.instances()[k].name) != 0;
  };

  // Process in dependency waves: explore a wave's pipelines concurrently
  // (read-only on the graph), then splice their summaries sequentially.
  const std::vector<std::vector<size_t>> deps = instance_deps(g);
  std::vector<InstanceWork> work(n);
  std::vector<bool> done(n, false);
  util::ThreadPool pool(util::resolve_threads(opts.threads));
  size_t completed = 0;
  auto cancelled = [&] {
    return opts.cancel != nullptr && opts.cancel->cancelled();
  };
  while (completed < n && !result.cancelled) {
    std::vector<size_t> wave;
    for (size_t k = 0; k < n; ++k) {
      if (done[k]) continue;
      bool ready = true;
      for (size_t j : deps[k]) ready &= done[j];
      if (ready) wave.push_back(k);
    }
    util::check(!wave.empty(), "summarize: cyclic pipeline dependencies");
    if (cancelled()) {
      result.cancelled = true;
      break;
    }
    for (size_t k : wave) {
      if (dom[k] >= 0 && !resumed(k)) ensure_frontier(dom[k]);
    }
    pool.run(wave.size(), [&](size_t i) { explore(wave[i], work[wave[i]]); });
    // A cancel during the wave leaves *partial* explorations; splicing one
    // would silently shrink the summarized graph, so the whole wave is
    // discarded and the result marked cancelled.
    if (cancelled()) {
      result.cancelled = true;
      break;
    }
    for (size_t k : wave) {
      encode(k, work[k]);
      done[k] = true;
      ++completed;
      if (work[k].resumed) ++result.resumed_pipelines;
      if (opts.hooks != nullptr && opts.hooks->on_unit) {
        opts.hooks->on_unit(k, to_unit(work[k]));
      }
    }
    for (size_t d = 0; d < n; ++d) {
      bool pending = false;
      for (size_t k = 0; k < n; ++k) {
        pending |= !done[k] && dom[k] == static_cast<int>(d);
      }
      if (!pending) frontiers[d].reset();
    }
  }
  result.total_smt_checks = rebuild_checks;
  result.total_smt_skipped = rebuild_skipped;
  for (size_t k = 0; k < n; ++k) {
    if (!done[k]) continue;  // cancelled before completion
    result.total_smt_checks += work[k].ps.smt_checks;
    result.total_smt_skipped += work[k].ps.smt_skipped;
    result.per_pipeline.push_back(std::move(work[k].ps));
  }
  return result;
}

}  // namespace meissa::summary
