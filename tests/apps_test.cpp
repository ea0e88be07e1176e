// Tests for the application corpus: every program must pass its own
// end-to-end Meissa run on a clean compile (no false positives), with and
// without code summary, and the gateway family must exercise its
// multi-pipe topologies.
#include <gtest/gtest.h>

#include <string>

#include "apps/apps.hpp"
#include "sim/toolchain.hpp"
#include "util/error.hpp"

namespace meissa::apps {
namespace {

driver::TestReport clean_run(ir::Context& ctx, const AppBundle& app,
                             bool code_summary = true) {
  sim::DeviceProgram compiled = sim::compile(app.dp, app.rules, ctx);
  sim::Device device(compiled, ctx);
  driver::TestRunOptions opts;
  opts.gen.code_summary = code_summary;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  return meissa.test(device, app.intents);
}

TEST(Apps, RouterCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_router(ctx, 8);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.cases, 8u);
  EXPECT_TRUE(r.all_passed()) << r.str();
  EXPECT_EQ(r.gen.diagnostics, 0u);
}

TEST(Apps, RouterWithoutSummaryAgrees) {
  ir::Context ctx;
  AppBundle app = make_router(ctx, 6);
  driver::TestReport with = clean_run(ctx, app, true);
  ir::Context ctx2;
  AppBundle app2 = make_router(ctx2, 6);
  driver::TestReport without = clean_run(ctx2, app2, false);
  EXPECT_EQ(with.templates, without.templates);
  EXPECT_TRUE(with.all_passed()) << with.str();
  EXPECT_TRUE(without.all_passed()) << without.str();
}

TEST(Apps, MtagCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_mtag(ctx, 6);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

TEST(Apps, AclCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_acl(ctx, 6, 6);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

TEST(Apps, SwitchP4CleanRunPasses) {
  ir::Context ctx;
  SwitchP4Config cfg;
  cfg.l2_hosts = 4;
  cfg.routes = 4;
  cfg.ecmp_ways = 2;
  cfg.acls = 3;
  cfg.mpls_labels = 3;
  AppBundle app = make_switchp4(ctx, cfg);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.templates, 10u);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

class GatewayLevels : public ::testing::TestWithParam<int> {};

TEST_P(GatewayLevels, CleanRunPasses) {
  ir::Context ctx;
  const int level = GetParam();
  AppBundle app = demo_app(ctx, "gw-" + std::to_string(level));
  EXPECT_EQ(app.dp.topology.instances.size(),
            static_cast<size_t>(level == 1   ? 1
                                : level == 2 ? 2
                                : level == 3 ? 4
                                             : 8));
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.cases, 4u);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

INSTANTIATE_TEST_SUITE_P(Levels, GatewayLevels, ::testing::Values(1, 2, 3, 4));

TEST(Apps, Gw4CoversBothSwitches) {
  ir::Context ctx;
  AppBundle app = demo_app(ctx, "gw-4");
  driver::TestRunOptions opts;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  auto templates = meissa.generate();
  // Some templates must leave via switch 1 (flow B) and some via switch 0.
  bool sw0 = false, sw1 = false;
  for (const auto& t : templates) {
    if (t.exit != cfg::ExitKind::kEmit) continue;
    int sw = meissa.graph()
                 .instances()[static_cast<size_t>(t.emit_instance)]
                 .switch_id;
    sw0 |= sw == 0;
    sw1 |= sw == 1;
  }
  EXPECT_TRUE(sw0);
  EXPECT_TRUE(sw1);
}

TEST(Apps, RuleSetScalingDoublesElasticIps) {
  EXPECT_EQ(elastic_ips_for_set(1), 8);
  EXPECT_EQ(elastic_ips_for_set(2), 16);
  EXPECT_EQ(elastic_ips_for_set(3), 32);
  EXPECT_EQ(elastic_ips_for_set(4), 64);
  ir::Context a, b2;
  GwConfig c1{1, elastic_ips_for_set(1), 5};
  GwConfig c2{1, elastic_ips_for_set(2), 5};
  AppBundle s1 = make_gateway(a, c1);
  AppBundle s2 = make_gateway(b2, c2);
  EXPECT_GT(s2.rules.loc(), s1.rules.loc());
}

TEST(Apps, ProgramLocGrowsWithLevel) {
  ir::Context ctx;
  size_t prev = 0;
  size_t prev_pipes = 0;
  for (int level = 1; level <= 4; ++level) {
    ir::Context c;
    AppBundle app = demo_app(c, "gw-" + std::to_string(level));
    size_t loc = app.dp.program.loc();
    // gw-4 reuses gw-3's program over twice the pipes/switches.
    EXPECT_GE(loc, prev) << "level " << level;
    EXPECT_GT(app.dp.topology.instances.size(), prev_pipes);
    prev = loc;
    prev_pipes = app.dp.topology.instances.size();
  }
}

// The demo-app table the m4* tools and the tests share: every name it
// lists builds at its pinned size (rule lines and intents), so a size
// change shows here before it moves a tool's output or a pin test.
TEST(DemoApp, EveryListedNameBuildsAtItsPinnedSize) {
  struct Pin {
    std::string_view name;
    size_t rule_loc;
    size_t intents;
  };
  const Pin pins[] = {
      {"router", 12, 2}, {"mtag", 8, 2},  {"acl", 12, 2},  {"switchp4", 29, 1},
      {"gw-1", 19, 2},   {"gw-2", 20, 2}, {"gw-3", 32, 2}, {"gw-4", 32, 2},
  };
  ASSERT_EQ(std::size(pins), kDemoApps.size());
  for (size_t i = 0; i < kDemoApps.size(); ++i) {
    ir::Context ctx;
    EXPECT_EQ(kDemoApps[i], pins[i].name);
    AppBundle app = demo_app(ctx, kDemoApps[i]);
    EXPECT_EQ(app.rules.loc(), pins[i].rule_loc) << kDemoApps[i];
    EXPECT_EQ(app.intents.size(), pins[i].intents) << kDemoApps[i];
  }
}

TEST(DemoApp, UnknownNameThrowsNamingIt) {
  for (std::string_view name : {"gw-5", "legacy", "", "gw-0", "router "}) {
    ir::Context ctx;
    try {
      demo_app(ctx, name);
      ADD_FAILURE() << "'" << name << "' built";
    } catch (const util::ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown app '" +
                                           std::string(name) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace meissa::apps
