// Static change-impact analysis (analysis/impact): region fingerprints,
// the def-use dependency graph, and the invalidation engine. The suite's
// load-bearing property is interning-order independence — fingerprints
// hash field *names* and region-local discovery indices, never FieldId or
// NodeId, so two contexts that interned the same program differently must
// agree on every hash.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analysis/impact.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "gtest/gtest.h"

namespace meissa::analysis {
namespace {

apps::AppBundle gateway(ir::Context& ctx, int level = 2) {
  return apps::demo_app(ctx, "gw-" + std::to_string(level));
}

// Builds the gateway and fingerprints it, optionally pre-interning the
// reference context's field inventory in a shuffled order first, so the
// program's FieldIds (and the expressions hash-consed over them) come out
// permuted relative to the reference build.
struct Build {
  ir::Context ctx;
  apps::AppBundle app;
  cfg::Cfg g;
  ImpactModel model;
};

void make_build(Build& b, const ir::Context* shuffle_from, uint64_t seed) {
  if (shuffle_from != nullptr) {
    std::vector<ir::FieldId> order(shuffle_from->fields.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<ir::FieldId>(i);
    }
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    for (ir::FieldId f : order) {
      b.ctx.fields.intern(shuffle_from->fields.name(f),
                          shuffle_from->fields.width(f));
    }
  }
  b.app = gateway(b.ctx);
  b.g = cfg::build_cfg(b.app.dp, b.app.rules, b.ctx);
  b.model = build_impact_model(b.ctx, b.g, b.app.rules);
}

TEST(Fingerprints, IndependentOfInterningOrder) {
  Build ref;
  make_build(ref, nullptr, 0);
  ASSERT_GT(ref.ctx.fields.size(), 0u);
  for (uint64_t seed : {1u, 7u}) {
    Build sh;
    make_build(sh, &ref.ctx, seed);
    // Sanity: the shuffle actually permuted at least one field id.
    bool permuted = false;
    for (ir::FieldId f = 0; f < ref.ctx.fields.size(); ++f) {
      permuted = permuted || sh.ctx.fields.name(f) != ref.ctx.fields.name(f);
    }
    EXPECT_TRUE(permuted) << "seed " << seed << " left the interner as-is";

    const RegionFingerprints& a = ref.model.fps;
    const RegionFingerprints& b = sh.model.fps;
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.region_code, b.region_code);
    EXPECT_EQ(a.table_expansion, b.table_expansion);
    EXPECT_EQ(a.upstream, b.upstream);
    EXPECT_EQ(a.glue, b.glue);
    // `whole` hashes absolute node ids, which the same builder produces
    // identically regardless of interning order.
    EXPECT_EQ(a.whole, b.whole);
    EXPECT_EQ(ref.model.tables, sh.model.tables);
  }
}

TEST(Fingerprints, DepGraphIndependentOfInterningOrder) {
  Build ref, sh;
  make_build(ref, nullptr, 0);
  make_build(sh, &ref.ctx, 3);
  const RegionDeps& a = ref.model.deps;
  const RegionDeps& b = sh.model.deps;
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].name, b.regions[i].name);
    EXPECT_EQ(a.regions[i].reads, b.regions[i].reads);
    EXPECT_EQ(a.regions[i].writes, b.regions[i].writes);
    EXPECT_EQ(a.regions[i].tables, b.regions[i].tables);
    EXPECT_EQ(a.regions[i].entry_reads, b.regions[i].entry_reads);
    EXPECT_EQ(a.regions[i].table_fields, b.regions[i].table_fields);
    EXPECT_EQ(a.regions[i].flow, b.regions[i].flow);
    EXPECT_EQ(a.regions[i].conservative, b.regions[i].conservative);
  }
  EXPECT_EQ(a.edges, b.edges);
  ASSERT_EQ(a.glue.size(), b.glue.size());
  for (size_t i = 0; i < a.glue.size(); ++i) {
    EXPECT_EQ(a.glue[i].reads, b.glue[i].reads);
    EXPECT_EQ(a.glue[i].writes, b.glue[i].writes);
  }
}

TEST(Fingerprints, TableHashIsolatesTheEditedTable) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  auto base = fingerprint_tables(app.rules);
  ASSERT_GT(base.count("qos"), 0u);

  p4::RuleSet edited = app.rules;
  for (auto it = edited.entries.rbegin(); it != edited.entries.rend(); ++it) {
    if (it->table == "qos") {
      edited.entries.erase(std::next(it).base());
      break;
    }
  }
  auto after = fingerprint_tables(edited);
  EXPECT_NE(base.at("qos"), after.count("qos") ? after.at("qos") : 0u);
  for (const auto& [table, fp] : base) {
    if (table == "qos") continue;
    ASSERT_GT(after.count(table), 0u) << table;
    EXPECT_EQ(fp, after.at(table)) << table;
  }
}

TEST(Impact, NoChangeLeavesEveryRegionClean) {
  Build a, b;
  make_build(a, nullptr, 0);
  make_build(b, nullptr, 0);
  ImpactDiff d = compute_impact(a.model, b.model);
  EXPECT_FALSE(d.full);
  EXPECT_TRUE(d.dirty.empty());
  EXPECT_TRUE(d.changed_tables.empty());
  EXPECT_EQ(d.clean.size(), a.model.fps.instances.size());
}

TEST(Impact, TableUpdateKeepsUpstreamRegionsClean) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  cfg::Cfg g0 = cfg::build_cfg(app.dp, app.rules, ctx);
  ImpactModel base = build_impact_model(ctx, g0, app.rules);

  // Remove the last installed rule — by construction a late-pipeline
  // table, so some upstream region must survive untouched.
  p4::RuleSet edited = app.rules;
  const std::string table = edited.entries.back().table;
  edited.entries.pop_back();
  cfg::Cfg g1 = cfg::build_cfg(app.dp, edited, ctx);
  ImpactModel cur = build_impact_model(ctx, g1, edited);

  ImpactDiff d = compute_impact(base, cur);
  EXPECT_FALSE(d.full);
  EXPECT_EQ(d.changed_tables, std::vector<std::string>{table});
  EXPECT_FALSE(d.dirty.empty());
  EXPECT_FALSE(d.clean.empty()) << "a qos-tail update dirtied everything";
  // The region expanding the table must be in the dirty set.
  bool expander_dirty = false;
  for (const RegionDeps::Region& r : cur.deps.regions) {
    if (std::find(r.tables.begin(), r.tables.end(), table) != r.tables.end()) {
      expander_dirty =
          expander_dirty || std::find(d.dirty.begin(), d.dirty.end(),
                                      r.name) != d.dirty.end();
    }
  }
  EXPECT_TRUE(expander_dirty);
  // Dirty + clean partition the inventory.
  EXPECT_EQ(d.dirty.size() + d.clean.size(), cur.fps.instances.size());
}

TEST(Impact, StructuralChangeInvalidatesEverything) {
  ir::Context ctx;
  apps::AppBundle a2 = gateway(ctx, 2);
  cfg::Cfg g2 = cfg::build_cfg(a2.dp, a2.rules, ctx);
  ImpactModel m2 = build_impact_model(ctx, g2, a2.rules);

  ir::Context ctx3;
  apps::AppBundle a3 = gateway(ctx3, 3);
  cfg::Cfg g3 = cfg::build_cfg(a3.dp, a3.rules, ctx3);
  ImpactModel m3 = build_impact_model(ctx3, g3, a3.rules);

  ImpactDiff d = compute_impact(m2, m3);
  EXPECT_TRUE(d.full);
  EXPECT_TRUE(d.clean.empty());
  EXPECT_EQ(d.dirty.size(), m3.fps.instances.size());
}

}  // namespace
}  // namespace meissa::analysis
