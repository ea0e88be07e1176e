// Tests for code summary (Algorithm 2): path preservation (the paper's
// §3.4 theorem), pre-condition computation, and path-count reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "apps/apps.hpp"
#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "testlib.hpp"

namespace meissa::summary {
namespace {

using sym::Engine;
using sym::PathResult;

// Runs the engine on `g` and returns all results.
std::vector<PathResult> explore(ir::Context& ctx, const cfg::Cfg& g) {
  Engine eng(ctx, g);
  std::vector<PathResult> rs;
  eng.run([&](const PathResult& r) { rs.push_back(r); });
  return rs;
}

// Behavioural signature of an input on a CFG: terminal kind plus the final
// values of the given observable fields.
std::string signature(const cfg::Cfg& g, const ir::Context& ctx,
                      ir::ConcreteState in,
                      const std::vector<ir::FieldId>& observed) {
  auto out = testlib::concrete_run(g, std::move(in), ctx);
  if (!out) return "<stuck>";
  std::string sig = out->exit == cfg::ExitKind::kEmit ? "emit" : "drop";
  for (ir::FieldId f : observed) {
    auto it = out->state.find(f);
    sig += "," + (it == out->state.end() ? std::string("?")
                                         : std::to_string(it->second));
  }
  return sig;
}

class Fig8Summary : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig8_plane(ctx);
    rules = testlib::fig8_rules();
    g = cfg::build_cfg(dp, rules, ctx);
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  cfg::Cfg g;
};

TEST_F(Fig8Summary, PreconditionFiltersUdpBranch) {
  SummaryResult sr = summarize(ctx, g);
  ASSERT_EQ(sr.per_pipeline.size(), 2u);
  // Ingress: reject, tcp-hit, udp-miss, other-miss.
  EXPECT_EQ(sr.per_pipeline[0].paths_after, 4u);
  // Egress under "proto == TCP": only the two tcp-mark paths (Fig. 8).
  EXPECT_EQ(sr.per_pipeline[1].paths_after, 2u);
  EXPECT_GT(sr.per_pipeline[1].paths_before.value(), 2.0);
}

TEST_F(Fig8Summary, SummaryPreservesValidPathCount) {
  auto before = explore(ctx, g);
  SummaryResult sr = summarize(ctx, g);
  auto after = explore(ctx, sr.graph);
  EXPECT_EQ(before.size(), after.size());
}

TEST_F(Fig8Summary, SummaryPreservesBehaviourOnModels) {
  SummaryResult sr = summarize(ctx, g);
  std::vector<ir::FieldId> observed = {
      ctx.fields.require("meta.l4_kind"),
      ctx.fields.require(std::string(p4::kEgressSpec)),
      ctx.fields.require("hdr.eth.dst"),
  };
  // For every path of the summarized graph, its model must behave
  // identically on the original graph — and vice versa.
  for (const cfg::Cfg* from : {&g, &sr.graph}) {
    Engine eng(ctx, *from);
    std::vector<PathResult> rs;
    eng.run([&](const PathResult& r) { rs.push_back(r); });
    for (const auto& r : rs) {
      auto model = eng.solve_for_model(r.conds);
      ASSERT_TRUE(model.has_value());
      ir::ConcreteState s;
      for (auto& [f, v] : *model) s[f] = v;
      for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) s.try_emplace(f, 0);
      EXPECT_EQ(signature(g, ctx, s, observed),
                signature(sr.graph, ctx, s, observed));
    }
  }
}

TEST_F(Fig8Summary, SummarizedGraphHasFewerPossiblePaths) {
  SummaryResult sr = summarize(ctx, g);
  EXPECT_LT(sr.graph.count_paths().value(), g.count_paths().value());
}

TEST_F(Fig8Summary, SummaryReducesSmtCallsInFinalGeneration) {
  Engine plain(ctx, g);
  plain.run([](const PathResult&) {});
  SummaryResult sr = summarize(ctx, g);
  Engine summarized(ctx, sr.graph);
  summarized.run([](const PathResult&) {});
  EXPECT_LE(summarized.stats().nodes_visited, plain.stats().nodes_visited);
}

TEST_F(Fig8Summary, FilteringOffStillPreservesPaths) {
  SummaryOptions opts;
  opts.precondition_filtering = false;
  SummaryResult sr = summarize(ctx, g, opts);
  // Without inter-pipeline filtering the egress keeps its UDP branches...
  EXPECT_GT(sr.per_pipeline[1].paths_after, 2u);
  // ...but the final generation prunes them: same valid paths overall.
  EXPECT_EQ(explore(ctx, sr.graph).size(), explore(ctx, g).size());
}

TEST_F(Fig8Summary, EnumeratedPreconditionFindsProtoAndEgSpec) {
  // The (Algorithm 2) enumeration must discover proto == 6 and the
  // eg_spec == 1 binding at the egress entry (Fig. 8).
  cfg::NodeId target = g.instances()[1].entry;
  PreCondition pc = compute_precondition(ctx, g, target);
  ir::ExprRef proto_is_tcp =
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.field_var("hdr.ipv4.proto", 8),
                    ctx.arena.constant(6, 8));
  EXPECT_NE(std::find(pc.conds.begin(), pc.conds.end(), proto_is_tcp),
            pc.conds.end());
  ir::FieldId eg = ctx.fields.require(std::string(p4::kEgressSpec));
  ir::ExprRef v = sym::find_value(pc.values, eg);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_const());
  EXPECT_EQ(v->value, 1u);
}

TEST(SummaryPrecondition, EnumeratesEveryPrefixPathWithNoCap) {
  // 13 independent two-way diamonds (2^13 = 8192 valid prefix paths) ahead
  // of a pipeline. The first diamond sets `port` to 1 or 2, so the entry
  // pre-condition is the two-value set only exact enumeration derives.
  ir::Context ctx;
  cfg::Cfg g;
  cfg::NodeId cur = g.add(ir::Stmt::nop());
  g.set_entry(cur);
  ir::FieldId port = ctx.fields.intern("port", 9);
  auto diamond = [&](ir::Stmt a, ir::Stmt b) {
    cfg::NodeId join = g.add(ir::Stmt::nop());
    for (const ir::Stmt& s : {a, b}) {
      cfg::NodeId n = g.add(s);
      g.link(cur, n);
      g.link(n, join);
    }
    cur = join;
  };
  diamond(ir::Stmt::assign(port, ctx.arena.constant(1, 9)),
          ir::Stmt::assign(port, ctx.arena.constant(2, 9)));
  for (int i = 1; i < 13; ++i) {
    ir::ExprRef bit = ctx.field_var("bit" + std::to_string(i), 1);
    ir::ExprRef one = ctx.arena.constant(1, 1);
    diamond(ir::Stmt::assume(ctx.arena.cmp(ir::CmpOp::kEq, bit, one)),
            ir::Stmt::assume(ctx.arena.cmp(ir::CmpOp::kNe, bit, one)));
  }
  cfg::NodeId pentry = g.add(ir::Stmt::nop());
  g.link(cur, pentry);

  PreCondition pc = compute_precondition(ctx, g, pentry);
  EXPECT_EQ(pc.prefix_paths, 8192u);
  EXPECT_TRUE(pc.conds.empty());
  ASSERT_TRUE(pc.tops.count(port));
  auto it = pc.value_sets.find(port);
  ASSERT_NE(it, pc.value_sets.end());
  EXPECT_EQ(it->second, (std::vector<uint64_t>{1, 2}));
}

TEST(SummaryPrecondition, EntryStateOrdersSeedsAndConstraintsByName) {
  // The summarizer's engine and the validator both seed from entry_state;
  // its constraint order feeds the engine's verdict-cache signature.
  ir::Context ctx;
  ir::FieldId b = ctx.fields.intern("b", 8);  // interned before `a`
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId k = ctx.fields.intern("k", 8);
  auto eq = [&](ir::ExprRef x, uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kEq, x, ctx.arena.constant(v, 8));
  };
  PreCondition pc;
  pc.conds = {eq(ctx.field_var("z", 8), 1)};
  pc.tops = {a, b};
  pc.value_sets[b] = {3, 4};
  pc.values = {{k, ctx.arena.constant(7, 8)}};

  EntryState es = entry_state(ctx, pc, "p1");
  auto at = [&](const char* f) {
    return ctx.fields.require(std::string("@") + f + "@p1");
  };
  using Snaps = std::vector<std::pair<ir::FieldId, ir::FieldId>>;
  EXPECT_EQ(es.snapshots, (Snaps{{at("a"), a}, {at("b"), b}, {at("k"), k}}));
  ir::ExprRef at_b = ctx.arena.field(at("b"), 8);
  EXPECT_EQ(es.constraints,
            (std::vector<ir::ExprRef>{
                pc.conds[0], ctx.arena.any_of({eq(at_b, 3), eq(at_b, 4)}),
                eq(ctx.arena.field(at("k"), 8), 7)}));
}

TEST(SummaryAtomicity, SwapEncodingUsesEntrySnapshots) {
  // The §3.3 atomicity example: a pipeline that sets srcPort <- 10000 and
  // dstPort <- srcPort + 1 *simultaneously* (sequentially it reads the old
  // srcPort). Summarization must encode via @srcPort.
  ir::Context ctx;
  cfg::Cfg g;
  ir::FieldId sp = ctx.fields.intern("srcPort", 16);
  ir::FieldId dp = ctx.fields.intern("dstPort", 16);
  cfg::NodeId entry = g.add(ir::Stmt::nop());
  g.set_entry(entry);
  cfg::NodeId pentry = g.add(ir::Stmt::nop());
  g.link(entry, pentry);
  // dstPort <- srcPort + 1 BEFORE srcPort <- 10000.
  cfg::NodeId a1 = g.add(ir::Stmt::assign(
      dp, ctx.arena.arith(ir::ArithOp::kAdd, ctx.var(sp),
                          ctx.arena.constant(1, 16))));
  g.link(pentry, a1);
  cfg::NodeId a2 = g.add(ir::Stmt::assign(sp, ctx.arena.constant(10000, 16)));
  g.link(a1, a2);
  cfg::NodeId pexit = g.add(ir::Stmt::nop());
  g.link(a2, pexit);
  cfg::InstanceInfo info;
  info.name = "p0";
  info.pipeline = "p0";
  info.entry = pentry;
  info.exit = pexit;
  g.instances().push_back(info);
  cfg::NodeId leaf = g.add(ir::Stmt::nop());
  g.node(leaf).exit = cfg::ExitKind::kEmit;
  g.link(pexit, leaf);

  SummaryResult sr = summarize(ctx, g);
  EXPECT_EQ(sr.per_pipeline[0].paths_after, 1u);
  ir::ConcreteState in{{sp, 777}, {dp, 1}};
  auto orig = testlib::concrete_run(g, in, ctx);
  auto summ = testlib::concrete_run(sr.graph, in, ctx);
  ASSERT_TRUE(orig && summ);
  EXPECT_EQ(orig->state.at(dp), 778u);
  EXPECT_EQ(summ->state.at(dp), 778u);
  EXPECT_EQ(summ->state.at(sp), 10000u);
}

// ------------------------------------- frontier-extended pre-conditions

// `$free.*` symbols renamed $0, $1, ... by first occurrence: a fresh name
// carries the namespace of the enumeration that minted it, and extending a
// frontier mints the prefix's symbols in the dominator's namespace.
std::string canonical_free_names(const std::string& s) {
  static const std::regex kFree(R"(\$free\.[A-Za-z0-9_.]+)");
  std::unordered_map<std::string, std::string> names;
  std::string out;
  auto rest = s.cbegin();
  for (std::sregex_iterator m(s.begin(), s.end(), kFree), end; m != end; ++m) {
    out.append(rest, (*m)[0].first);
    out += names.try_emplace(m->str(), "$" + std::to_string(names.size()))
               .first->second;
    rest = (*m)[0].second;
  }
  out.append(rest, s.cend());
  return out;
}

// A pre-condition as text: conds in order; values, tops and value sets by
// field name; then its frontier's states in order.
std::string render(const ir::Context& ctx, const PreCondition& pc) {
  auto str = [&](ir::ExprRef e) { return ir::to_string(e, ctx.fields); };
  auto values = [&](const sym::Values& vs) {
    std::map<std::string, std::string> sorted;
    for (const auto& [f, v] : vs) sorted[ctx.fields.name(f)] = str(v);
    std::string out;
    for (const auto& [f, v] : sorted) out += " " + f + "=" + v;
    return out;
  };
  std::ostringstream os;
  os << "conds:";
  for (ir::ExprRef c : pc.conds) os << " " << str(c);
  os << "\nvalues:" << values(pc.values) << "\ntops:";
  std::set<std::string> tops;
  for (ir::FieldId f : pc.tops) tops.insert(ctx.fields.name(f));
  for (const std::string& f : tops) os << " " << f;
  os << "\nvalue sets:";
  std::map<std::string, std::vector<uint64_t>> sets;
  for (const auto& [f, vs] : pc.value_sets) sets[ctx.fields.name(f)] = vs;
  for (const auto& [f, vs] : sets) {
    os << " " << f << "={";
    for (uint64_t v : vs) os << v << ",";
    os << "}";
  }
  for (const PathResult& st : pc.frontier.states) {
    os << "\nstate:";
    for (ir::ExprRef c : st.conds) os << " " << str(c);
    os << " |" << values(st.values) << " |";
    for (const sym::HashObligation& o : st.obligations) {
      os << " " << ctx.fields.name(o.placeholder) << "=hash(";
      for (ir::ExprRef k : o.key_exprs) os << str(k) << ",";
      os << ")";
    }
  }
  return canonical_free_names(os.str());
}

// Algorithm 2's value intersection recomputed from `pc`'s frontier states
// with hash maps and per-field probes, independently of the sorted-list
// merge compute_precondition uses: the reference it must match. A field a
// state leaves unassigned reads as its input symbol, and the value-set cap
// is checked before each insert.
void expect_values_match_map_oracle(ir::Context& ctx, const PreCondition& pc,
                                    const std::string& where) {
  constexpr size_t kMaxValueSet = 96;  // compute_precondition's cap
  using Map = std::unordered_map<ir::FieldId, ir::ExprRef>;
  Map values;
  std::unordered_set<ir::FieldId> tops;
  std::unordered_map<ir::FieldId, std::unordered_set<uint64_t>> const_sets;
  for (size_t i = 0; i < pc.frontier.states.size(); ++i) {
    const Map r(pc.frontier.states[i].values.begin(),
                pc.frontier.states[i].values.end());
    if (i == 0) {
      values = r;
      for (const auto& [f, v] : r) {
        if (v->is_const()) const_sets[f].insert(v->value);
      }
      continue;
    }
    std::vector<ir::FieldId> interesting;
    for (const auto& [f, v] : values) interesting.push_back(f);
    for (const auto& [f, v] : r) interesting.push_back(f);
    for (ir::FieldId f : interesting) {
      if (tops.count(f)) continue;
      auto a = values.find(f);
      auto b = r.find(f);
      if ((a != values.end() ? a->second : ctx.var(f)) !=
          (b != r.end() ? b->second : ctx.var(f))) {
        tops.insert(f);
        values.erase(f);
      }
    }
    for (auto it = const_sets.begin(); it != const_sets.end();) {
      auto b = r.find(it->first);
      if (b == r.end() || !b->second->is_const() ||
          it->second.size() > kMaxValueSet) {
        it = const_sets.erase(it);
      } else {
        it->second.insert(b->second->value);
        ++it;
      }
    }
  }
  std::map<ir::FieldId, ir::ExprRef> want_values;
  for (const auto& [f, v] : values) {
    if (v != ctx.var(f)) want_values.emplace(f, v);
  }
  std::map<ir::FieldId, std::vector<uint64_t>> want_sets;
  for (ir::FieldId f : tops) {
    auto it = const_sets.find(f);
    if (it == const_sets.end() || it->second.empty()) continue;
    std::vector<uint64_t> vs(it->second.begin(), it->second.end());
    std::sort(vs.begin(), vs.end());
    want_sets.emplace(f, std::move(vs));
  }
  // A list equal to the std::map's entries is FieldId-sorted, too.
  EXPECT_EQ(pc.values, sym::Values(want_values.begin(), want_values.end()))
      << where;
  EXPECT_EQ(pc.tops, tops) << where;
  const decltype(want_sets) got_sets(pc.value_sets.begin(),
                                     pc.value_sets.end());
  EXPECT_EQ(got_sets, want_sets) << where;
}

// For every instance t of `original` with a nearest dominating instance d:
// extending F_d on the summarized graph must reproduce the enumeration
// from the CFG entry — pre-condition, prefix paths and t's own frontier,
// in DFS order — and each of the three pre-conditions must match the map
// oracle. Returns how many instances it checked.
int expect_extension_matches_entry(ir::Context& ctx, const cfg::Cfg& original,
                                   const cfg::Cfg& summarized) {
  const std::vector<int> dom = nearest_dominators(original);
  int checked = 0;
  for (size_t t = 0; t < dom.size(); ++t) {
    if (dom[t] < 0) continue;
    const cfg::InstanceInfo& info = original.instances()[t];
    PreconditionOptions po;
    po.fresh_ns = "pre.d";
    const PreCondition pd = compute_precondition(
        ctx, summarized, original.instances()[dom[t]].entry, po);
    po.fresh_ns = "pre.t";
    const PreCondition entry =
        compute_precondition(ctx, summarized, info.entry, po);
    po.from = &pd.frontier;
    const PreCondition extended =
        compute_precondition(ctx, summarized, info.entry, po);
    EXPECT_EQ(extended.prefix_paths, entry.prefix_paths) << info.name;
    EXPECT_EQ(render(ctx, extended), render(ctx, entry)) << info.name;
    expect_values_match_map_oracle(ctx, pd, info.name + " dominator");
    expect_values_match_map_oracle(ctx, entry, info.name);
    expect_values_match_map_oracle(ctx, extended, info.name + " extended");
    // The entry DFS is d's enumeration plus the extension; d's entry is
    // visited once per prefix path in each (d's stop, the extension's
    // start).
    EXPECT_EQ(entry.prefix_nodes,
              pd.prefix_nodes + extended.prefix_nodes - pd.prefix_paths)
        << info.name;
    ++checked;
  }
  return checked;
}

TEST(SummaryPrecondition, ValueSetCapMatchesMapOracleAtItsBoundary) {
  // n one-node branches set `f` to 0..n-1 ahead of a pipeline entry. The
  // cap is checked before each insert, so 97 constants still merge into a
  // value set and a 98th path drops it.
  for (uint64_t n : {97u, 98u}) {
    ir::Context ctx;
    cfg::Cfg g;
    const cfg::NodeId fork = g.add(ir::Stmt::nop());
    g.set_entry(fork);
    const cfg::NodeId pentry = g.add(ir::Stmt::nop());
    const ir::FieldId f = ctx.fields.intern("f", 8);
    for (uint64_t i = 0; i < n; ++i) {
      const cfg::NodeId set =
          g.add(ir::Stmt::assign(f, ctx.arena.constant(i, 8)));
      g.link(fork, set);
      g.link(set, pentry);
    }
    const PreCondition pc = compute_precondition(ctx, g, pentry);
    ASSERT_EQ(pc.prefix_paths, n);
    EXPECT_TRUE(pc.tops.count(f)) << n;
    EXPECT_EQ(pc.value_sets.count(f), n == 97 ? 1u : 0u) << n;
    expect_values_match_map_oracle(ctx, pc, std::to_string(n) + " paths");
  }
}

apps::AppBundle gw4(ir::Context& ctx) {
  // 8 pipelines across 2 switches (gw-4, Fig. 1)
  return apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2});
}

TEST(SummaryFrontier, ExtensionMatchesEntryEnumerationOnGw4) {
  ir::Context ctx;
  apps::AppBundle app = gw4(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  SummaryResult sr = summarize(ctx, g);
  // Every pipeline but sw0.gig, the one the CFG entry leads to.
  EXPECT_EQ(expect_extension_matches_entry(ctx, g, sr.graph), 7);
}

// Every node of `g` as text: statement or hash, successors and metadata.
std::string graph_text(const ir::Context& ctx, const cfg::Cfg& g) {
  std::ostringstream os;
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    const cfg::Node& n = g.node(id);
    os << id << " inst " << n.instance << " exit "
       << static_cast<int>(n.exit) << "/" << n.emit_instance << " label "
       << n.label << ":";
    if (n.is_hash) {
      os << " hash " << ctx.fields.name(n.hash.dest) << " algo "
         << static_cast<int>(n.hash.algo);
      for (ir::FieldId k : n.hash.keys) os << " " << ctx.fields.name(k);
      for (ir::ExprRef k : n.hash.key_exprs) {
        os << " " << ir::to_string(k, ctx.fields);
      }
    } else {
      os << " stmt " << static_cast<int>(n.stmt.kind);
      if (n.stmt.target != ir::kInvalidField) {
        os << " " << ctx.fields.name(n.stmt.target);
      }
      if (n.stmt.expr != nullptr) {
        os << " " << ir::to_string(n.stmt.expr, ctx.fields);
      }
    }
    os << " ->";
    for (cfg::NodeId s : n.succ) os << " " << s;
    os << "\n";
  }
  return os.str();
}

TEST(SummaryFrontier, ResumedDominatorsLeaveDominatedPipelinesUnchanged) {
  // sw0.* and sw1.gig restored from a full run's units: sw1.seg, sw1.sig
  // and sw1.geg are explored again, extending frontiers rebuilt on demand.
  ir::Context ctx;
  apps::AppBundle app = gw4(ctx);
  const cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  smt::PathCondCache cache;
  std::unordered_map<std::string, SummaryUnit> units;
  SummaryHooks capture;
  capture.on_unit = [&](size_t, const SummaryUnit& u) {
    units[u.instance] = u;
  };
  SummaryOptions opts;
  opts.shared_pc_cache = &cache;
  opts.hooks = &capture;
  const SummaryResult full = summarize(ctx, g, opts);

  std::unordered_map<std::string, SummaryUnit> restored;
  for (const char* name :
       {"sw0.gig", "sw0.seg", "sw0.sig", "sw0.geg", "sw1.gig"}) {
    restored.emplace(name, units.at(name));
  }
  SummaryHooks resume;
  resume.resume = &restored;
  opts.hooks = &resume;
  const SummaryResult resumed = summarize(ctx, g, opts);
  ASSERT_EQ(resumed.resumed_pipelines, 5u);
  EXPECT_EQ(graph_text(ctx, resumed.graph), graph_text(ctx, full.graph));

  // Fresh names reach a pipeline only through its entry constraints, and
  // those key the shared verdict cache (Engine::precond_sig_). So the
  // re-explored pipelines find every verdict of the full run in the cache,
  // spending no solver check, only if their pre-conditions — constraint
  // strings, fresh names included — are the full run's.
  uint64_t full_checks = 0;
  for (size_t k = 5; k < 8; ++k) {
    ASSERT_EQ(resumed.per_pipeline[k].instance, g.instances()[k].name);
    full_checks += full.per_pipeline[k].smt_checks;
    EXPECT_EQ(resumed.per_pipeline[k].smt_checks, 0u)
        << resumed.per_pipeline[k].instance;
  }
  EXPECT_GT(full_checks, 0u);
}

// ------------------------- randomized property test ----------------------

// Summary must preserve (1) the number of valid paths and (2) concrete
// behaviour for models of every path, on random multi-pipeline CFGs.
class SummaryProperty : public ::testing::TestWithParam<int> {};

TEST_P(SummaryProperty, PreservesValidPathsOnRandomCfgs) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 6; ++round) {
    ir::Context ctx;
    int pipes = static_cast<int>(rng.range(1, 3));
    int diamonds = static_cast<int>(rng.range(1, 3));
    cfg::Cfg g = testlib::random_pipeline_cfg(ctx, rng, pipes, diamonds);
    auto before = explore(ctx, g);
    SummaryResult sr = summarize(ctx, g);
    auto after = explore(ctx, sr.graph);
    ASSERT_EQ(before.size(), after.size())
        << "seed " << GetParam() << " round " << round;
    expect_extension_matches_entry(ctx, g, sr.graph);

    std::vector<ir::FieldId> observed = testlib::random_cfg_fields(ctx);
    Engine eng(ctx, sr.graph);
    std::vector<PathResult> rs;
    eng.run([&](const PathResult& r) { rs.push_back(r); });
    for (const auto& r : rs) {
      auto model = eng.solve_for_model(r.conds);
      ASSERT_TRUE(model.has_value());
      ir::ConcreteState s;
      for (auto& [f, v] : *model) s[f] = v;
      for (ir::FieldId f : observed) s.try_emplace(f, 0);
      ASSERT_EQ(signature(g, ctx, s, observed),
                signature(sr.graph, ctx, s, observed))
          << "seed " << GetParam() << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace meissa::summary
