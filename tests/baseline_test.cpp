// Tests for the baseline reimplementations: feature gates, verification
// verdicts, unit-test execution, and the p4pktgen action-coverage mode.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "apps/demos.hpp"
#include "baselines/baseline.hpp"
#include "sim/toolchain.hpp"

namespace meissa::baselines {
namespace {

TEST(Gates, P4pktgenRejectsMultiPipeAndProductionFeatures) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig8_plane(ctx);  // two pipes
  BaselineResult r = run_p4pktgen(ctx, dp, {}, nullptr);
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.unsupported_reason.find("multi-pipeline"), std::string::npos);

  ir::Context ctx2;
  apps::GwConfig cfg;
  cfg.level = 1;
  cfg.elastic_ips = 2;
  apps::AppBundle gw = apps::make_gateway(ctx2, cfg);
  BaselineResult r2 = run_p4pktgen(ctx2, gw.dp, gw.rules, nullptr);
  EXPECT_FALSE(r2.supported);
}

TEST(Gates, GauntletRejectsProductionPrograms) {
  ir::Context ctx;
  apps::GwConfig cfg;
  cfg.level = 2;
  cfg.elastic_ips = 2;
  apps::AppBundle gw = apps::make_gateway(ctx, cfg);
  BaselineResult r = run_gauntlet(ctx, gw.dp, gw.rules, nullptr);
  EXPECT_FALSE(r.supported);
}

TEST(P4pktgen, ActionCoverExploresActionSpace) {
  ir::Context rules_ctx;
  apps::AppBundle app = apps::make_router(rules_ctx, 8);
  P4pktgenOptions defaults;
  BaselineResult plain =
      run_p4pktgen(rules_ctx, app.dp, app.rules, nullptr, defaults);
  ASSERT_TRUE(plain.supported);

  ir::Context cover_ctx;
  apps::AppBundle app2 = apps::make_router(cover_ctx, 8);
  P4pktgenOptions cover;
  cover.action_cover = true;
  BaselineResult covered =
      run_p4pktgen(cover_ctx, app2.dp, app2.rules, nullptr, cover);
  ASSERT_TRUE(covered.supported);
  // Action coverage explores per-action branches (with symbolic args),
  // strictly more than default-behaviour-only exploration.
  EXPECT_GT(covered.templates, plain.templates);
}

TEST(Gauntlet, IdenticalRunsSpendIdenticalChecks) {
  // The modelled tool is single-threaded: its generator runs on one
  // thread, so its solver-cache hits, and with them the checks it pays,
  // repeat run for run.
  auto checks = [] {
    ir::Context ctx;
    apps::SwitchP4Config cfg;
    cfg.routes = 24;
    apps::AppBundle app = apps::make_switchp4(ctx, cfg);
    BaselineResult r = run_gauntlet(ctx, app.dp, app.rules, nullptr);
    EXPECT_TRUE(r.supported);
    EXPECT_FALSE(r.timed_out);
    return r.smt_checks;
  };
  const uint64_t first = checks();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(checks(), first);
}

spec::Intent strict_ttl_intent(ir::Context& ctx, const p4::Program& prog) {
  // Delivered routed traffic MUST have a decremented TTL (strict form).
  spec::IntentBuilder ib(ctx, prog, "strict-ttl");
  ib.assume(ctx.arena.cmp(ir::CmpOp::kEq, ib.in("hdr.eth.type"),
                          ib.num(0x0800, 16)));
  ib.assume(ctx.arena.cmp(ir::CmpOp::kGt, ib.in("hdr.ipv4.ttl"),
                          ib.num(1, 8)));
  ib.expect(ctx.arena.cmp(
      ir::CmpOp::kEq, ib.out("hdr.ipv4.ttl"),
      ctx.arena.arith(ir::ArithOp::kSub, ib.in("hdr.ipv4.ttl"),
                      ib.num(1, 8))));
  return ib.build();
}

TEST(Aquila, VerifiesCleanRouterAndFlagsWrongRule) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  BaselineResult clean = run_aquila(ctx, app.dp, app.rules,
                                    {strict_ttl_intent(ctx, app.dp.program)});
  EXPECT_TRUE(clean.supported);
  EXPECT_EQ(clean.failures, 0u) << "false positive on a clean program";

  // Break the TTL contract in the program: skip the decrement.
  ir::Context ctx2;
  apps::AppBundle buggy = apps::make_router(ctx2, 4);
  for (p4::ActionDef& a : buggy.dp.program.actions) {
    if (a.name == "set_nexthop") a.ops.pop_back();  // drop the ttl update
  }
  BaselineResult r = run_aquila(
      ctx2, buggy.dp, buggy.rules, {strict_ttl_intent(ctx2, buggy.dp.program)});
  EXPECT_GT(r.failures, 0u);
}

TEST(Aquila, CountsItsSmtQueries) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  BaselineResult r = run_aquila(ctx, app.dp, app.rules, app.intents);
  EXPECT_GT(r.smt_checks, 0u);
  EXPECT_GT(r.templates, 0u);
}

TEST(Pta, RunsHandwrittenCasesAndRespectsDialect) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig7_plane(ctx);
  p4::RuleSet rules = apps::demos::fig7_rules(2);
  sim::Device device(sim::compile(dp, rules, ctx), ctx);

  // Build one passing case from the device itself.
  packet::Packet in;
  packet::HeaderValues eth{"eth", {1, 2, 0x0800}};
  packet::HeaderValues ipv4;
  const p4::HeaderDef* def = dp.program.find_header("ipv4");
  ipv4.header = "ipv4";
  ipv4.values.assign(def->fields.size(), 0);
  in.headers = {eth, ipv4};
  in.find("ipv4")->set_field(*def, "dst", 0x0a000001);
  sim::DeviceInput input{0, packet::serialize(dp.program, in)};
  sim::DeviceOutput expected = device.inject(input);

  PtaCase ok;
  ok.input = input;
  ok.expect_drop = expected.dropped;
  ok.expect_port = expected.port;
  ok.expect_bytes = expected.bytes;
  BaselineResult pass = run_pta({ok}, /*p4_14=*/true, &device);
  EXPECT_TRUE(pass.supported);
  EXPECT_EQ(pass.failures, 0u);

  PtaCase bad = ok;
  bad.expect_port = expected.port + 1;
  BaselineResult fail = run_pta({ok, bad}, /*p4_14=*/true, &device);
  EXPECT_EQ(fail.failures, 1u);

  BaselineResult unsupported = run_pta({ok}, /*p4_14=*/false, &device);
  EXPECT_FALSE(unsupported.supported);
}

TEST(Timeouts, EngineBudgetProducesTimeoutMark) {
  ir::Context ctx;
  apps::SwitchP4Config cfg;
  cfg.routes = 24;
  apps::AppBundle app = apps::make_switchp4(ctx, cfg);
  GauntletOptions opts;
  opts.time_budget_seconds = 0.001;  // absurdly small
  BaselineResult r = run_gauntlet(ctx, app.dp, app.rules, nullptr, opts);
  EXPECT_TRUE(r.supported);
  EXPECT_TRUE(r.timed_out);
}

}  // namespace
}  // namespace meissa::baselines
