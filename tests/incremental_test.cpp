// driver::IncrementalSession: summary-unit reuse + shared verdict cache
// across rule updates. The soundness bar is byte-identity — an incremental
// update's templates must equal a from-scratch regeneration of the updated
// program — and the conservative dependency edges are load-bearing for it:
// deleting them (via the mutate_model test hook) must make some update
// produce different output than full regeneration.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/impact.hpp"
#include "apps/apps.hpp"
#include "driver/incremental.hpp"
#include "gtest/gtest.h"

namespace meissa::driver {
namespace {

apps::AppBundle gateway(ir::Context& ctx, int level = 2) {
  return apps::demo_app(ctx, "gw-" + std::to_string(level));
}

// Sorted strict signatures of a from-scratch generation of `rules`.
std::vector<std::string> full_regen_sigs(const p4::DataPlane& dp,
                                         const p4::RuleSet& rules,
                                         ir::Context& ctx,
                                         uint64_t* checks = nullptr) {
  Generator gen(ctx, dp, rules, GenOptions{});
  std::vector<sym::TestCaseTemplate> ts = gen.generate();
  std::vector<std::string> sigs;
  for (const sym::TestCaseTemplate& t : ts) {
    sigs.push_back(IncrementalSession::full_signature(ctx, gen.graph(), t));
  }
  std::sort(sigs.begin(), sigs.end());
  if (checks != nullptr) *checks = gen.stats().smt_checks;
  return sigs;
}

// IncrementalSession::run renders each template's coverage signature once
// and appends the path to it; the result must equal full_signature, which
// m4delta and the benches call.
TEST(Incremental, ReportedSignaturesEqualFullSignatures) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  IncrementalSession session(ctx, app.dp);
  p4::RuleSet rules = app.rules;
  for (int update = 0; update < 3; ++update) {
    if (update > 0) {
      ASSERT_TRUE(rules.remove_last_entry(rules.entries.back().table));
    }
    UpdateReport rep = session.run(rules);
    ASSERT_FALSE(rep.templates.empty());
    // A generator of the same rules carries the same instance table.
    Generator gen(ctx, app.dp, rules, GenOptions{});
    std::vector<std::string> want;
    for (const sym::TestCaseTemplate& t : rep.templates) {
      want.push_back(IncrementalSession::full_signature(ctx, gen.graph(), t));
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(rep.full_sigs, want) << "update " << update;
  }
}

TEST(Incremental, GatewayUpdateIsByteIdenticalAndReusesCleanRegions) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  IncrementalSession session(ctx, app.dp);

  p4::RuleSet rules = app.rules;
  UpdateReport base = session.run(rules);
  EXPECT_EQ(base.run, 0);
  EXPECT_FALSE(base.templates.empty());

  const std::string table = rules.entries.back().table;
  ASSERT_TRUE(rules.remove_last_entry(table));
  UpdateReport up = session.run(rules);
  EXPECT_EQ(up.run, 1);
  EXPECT_FALSE(up.impact.full);
  EXPECT_EQ(up.impact.changed_tables, std::vector<std::string>{table});
  EXPECT_FALSE(up.impact.clean.empty()) << "tail update dirtied everything";
  EXPECT_GT(up.summaries_reused, 0u);
  // Delta coverage is an exact partition of the update's template set.
  EXPECT_EQ(up.added + up.unchanged, up.templates.size());

  // Byte-identity against a from-scratch regeneration in a fresh context.
  ir::Context ctx2;
  apps::AppBundle app2 = gateway(ctx2);
  p4::RuleSet rules2 = app2.rules;
  ASSERT_TRUE(rules2.remove_last_entry(table));
  uint64_t full_checks = 0;
  std::vector<std::string> fresh =
      full_regen_sigs(app2.dp, rules2, ctx2, &full_checks);
  EXPECT_EQ(up.full_sigs, fresh);
  // The point of the machinery: the update pays fewer backend checks than
  // regenerating from scratch.
  EXPECT_LT(up.smt_checks, full_checks);
}

TEST(Incremental, DependencyEdgesAreLoadBearing) {
  // With the def-use edges deleted from the impact model, clean-region
  // replay becomes unsound: for some table update the incremental output
  // must differ from full regeneration. The sharpest case is gw-3's
  // switch pipes — sw_route (applied in sw.sig) writes the egress port
  // that sw_dmac (sw.seg) keys on and the topology guards branch on, so
  // dropping an sw_l3 route changes what sw.seg must be explored under
  // while leaving sw.seg's own fingerprint untouched. Probe a few tables
  // in case app tweaks move the sensitivity.
  const std::vector<std::string> candidates = {"sw_l3", "sw_dmac",
                                               "elastic_ip", "gw_acl"};
  bool diverged = false;
  for (const std::string& table : candidates) {
    ir::Context ctx;
    apps::AppBundle app = gateway(ctx, 3);
    IncrementalOptions opts;
    opts.mutate_model = [](analysis::ImpactModel& m) { m.deps.edges.clear(); };
    IncrementalSession session(ctx, app.dp, opts);
    p4::RuleSet rules = app.rules;
    session.run(rules);
    if (!rules.remove_last_entry(table)) continue;
    UpdateReport up = session.run(rules);

    ir::Context ctx2;
    apps::AppBundle app2 = gateway(ctx2, 3);
    p4::RuleSet rules2 = app2.rules;
    ASSERT_TRUE(rules2.remove_last_entry(table));
    std::vector<std::string> fresh = full_regen_sigs(app2.dp, rules2, ctx2);
    if (up.full_sigs != fresh) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged)
      << "deleting every dependency edge changed nothing — the edges (and "
         "the soundness argument resting on them) would be dead weight";
}

TEST(Incremental, CacheHitsOfTheSummaryEnginesAreReported) {
  // On gw-4 the cross-run cache answers the summary engines' checks of
  // the regions an update re-explores; the update's hit count must carry
  // them, not only the final DFS's.
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 4);
  IncrementalSession session(ctx, app.dp);
  p4::RuleSet rules = app.rules;
  session.run(rules);
  ASSERT_TRUE(rules.remove_last_entry(rules.entries.back().table));
  UpdateReport up = session.run(rules);
  uint64_t summary_hits = 0;
  for (const summary::PipelineSummary& p : up.stats.pipelines) {
    summary_hits += p.pc_cache_hits;
  }
  EXPECT_GT(summary_hits, 0u);
  EXPECT_EQ(up.pc_cache_hits, summary_hits + up.stats.engine.pc_cache_hits);
}

TEST(Incremental, SecondIdenticalRunIsAllClean) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 1);
  IncrementalSession session(ctx, app.dp);
  UpdateReport base = session.run(app.rules);
  UpdateReport again = session.run(app.rules);
  EXPECT_TRUE(again.impact.dirty.empty());
  EXPECT_EQ(again.impact.clean.size(), base.impact.clean.size() +
                                           base.impact.dirty.size());
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(again.removed, 0u);
  EXPECT_EQ(again.unchanged, again.templates.size());
  EXPECT_EQ(again.full_sigs, base.full_sigs);
}

}  // namespace
}  // namespace meissa::driver
