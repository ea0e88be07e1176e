// Additional engine & summary tests: the paper-faithful
// check-every-predicate mode, stop-region restriction, value-set
// pre-conditions, and time budgets.
#include <gtest/gtest.h>

#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "testlib.hpp"

namespace meissa::sym {
namespace {

TEST(FaithfulMode, SameResultsMoreChecks) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig8_plane(ctx);
  p4::RuleSet rules = testlib::fig8_rules();
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);

  Engine fast(ctx, g, {});
  EngineOptions faithful_opts;
  faithful_opts.check_every_predicate = true;
  Engine faithful(ctx, g, faithful_opts);
  std::vector<cfg::Path> p1, p2;
  fast.run([&](const PathResult& r) { p1.push_back(r.path); });
  faithful.run([&](const PathResult& r) { p2.push_back(r.path); });
  EXPECT_EQ(p1, p2);
  // Folding decides some predicates without the solver; the faithful mode
  // pays a solver call for each of them (Fig. 6's Sym.Predicate rule).
  EXPECT_GT(faithful.stats().solver.checks, fast.stats().solver.checks);
  EXPECT_GT(fast.stats().folded_checks, 0u);
  EXPECT_EQ(faithful.stats().folded_checks, 0u);
}

TEST(FaithfulMode, SummaryStillPreservesPaths) {
  util::Rng rng(4242);
  for (int round = 0; round < 5; ++round) {
    ir::Context ctx;
    cfg::Cfg g = testlib::random_pipeline_cfg(ctx, rng, 2, 2);
    summary::SummaryOptions sopts;
    sopts.check_every_predicate = true;
    summary::SummaryResult sr = summary::summarize(ctx, g, sopts);
    EngineOptions eopts;
    eopts.check_every_predicate = true;
    Engine before(ctx, g, eopts);
    Engine after(ctx, sr.graph, eopts);
    size_t n1 = 0, n2 = 0;
    before.run([&](const PathResult&) { ++n1; });
    after.run([&](const PathResult&) { ++n2; });
    EXPECT_EQ(n1, n2) << "round " << round;
  }
}

TEST(StopRegion, ExplorationIsRestrictedToReachingPaths) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig8_plane(ctx);
  p4::RuleSet rules = testlib::fig8_rules();
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
  cfg::NodeId egress_entry = g.instances()[1].entry;

  EngineOptions opts;
  opts.stop = egress_entry;
  Engine eng(ctx, g, opts);
  size_t prefixes = 0;
  eng.run([&](const PathResult& r) {
    ++prefixes;
    EXPECT_EQ(r.path.back(), egress_entry);
  });
  EXPECT_GT(prefixes, 0u);
  // The whole-graph engine visits strictly more nodes than the region-
  // restricted one.
  Engine full(ctx, g, {});
  full.run([](const PathResult&) {});
  EXPECT_LT(eng.stats().nodes_visited, full.stats().nodes_visited);
}

TEST(ValueSets, PreconditionCarriesMergedConstants) {
  // Fig. 7-style: egressPort takes one of n constants across prefix
  // paths; the pre-condition at a downstream pipe records the merged set
  // for fields whose per-path values disagree but are all constants.
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig8_plane(ctx);
  p4::RuleSet rules = testlib::fig8_rules();
  // Route UDP to the egress pipe as well, on a different port.
  p4::TableEntry udp;
  udp.table = "l4_route";
  udp.matches = {p4::KeyMatch::exact(17)};
  udp.action = "set_port";
  udp.args = {2};
  rules.add(udp);
  dp.topology.edges.push_back(
      {"sw0.ig", "sw0.eg",
       ctx.arena.cmp(ir::CmpOp::kEq, ctx.field_var(p4::kEgressSpec, 9),
                     ctx.arena.constant(2, 9))});
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
  summary::PreCondition pc =
      summary::compute_precondition(ctx, g, g.instances()[1].entry);
  ir::FieldId eg = ctx.fields.require(std::string(p4::kEgressSpec));
  ASSERT_TRUE(pc.tops.count(eg));  // 1 on TCP paths, 2 on UDP paths
  auto it = pc.value_sets.find(eg);
  ASSERT_NE(it, pc.value_sets.end());
  std::vector<uint64_t> vs = it->second;
  std::sort(vs.begin(), vs.end());
  EXPECT_EQ(vs, (std::vector<uint64_t>{1, 2}));
}

TEST(TimeBudget, AbortsAndMarksTimeout) {
  ir::Context ctx;
  util::Rng rng(9);
  cfg::Cfg g = testlib::random_pipeline_cfg(ctx, rng, 4, 3);
  EngineOptions opts;
  opts.time_budget_seconds = 1e-9;
  Engine eng(ctx, g, opts);
  eng.run([](const PathResult&) {});
  EXPECT_TRUE(eng.stats().timed_out);
}

}  // namespace
}  // namespace meissa::sym
