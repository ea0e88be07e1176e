// Tests for code summary (Algorithm 2): path preservation (the paper's
// §3.4 theorem), pre-condition computation, and path-count reduction.
#include <gtest/gtest.h>

#include <algorithm>

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
      auto model = eng.solve_for_model(r);
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
  ASSERT_TRUE(pc.values.count(eg));
  EXPECT_TRUE(pc.values.at(eg)->is_const());
  EXPECT_EQ(pc.values.at(eg)->value, 1u);
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
  pc.values[k] = ctx.arena.constant(7, 8);

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

    std::vector<ir::FieldId> observed = testlib::random_cfg_fields(ctx);
    Engine eng(ctx, sr.graph);
    std::vector<PathResult> rs;
    eng.run([&](const PathResult& r) { rs.push_back(r); });
    for (const auto& r : rs) {
      auto model = eng.solve_for_model(r);
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
