// Stress the driver's fault tolerance end to end: under a realistically
// lossy tester<->device link (drops + duplicates + reordering, several
// seeds) every demo app must converge to exactly the verdicts of the
// fault-free run — the retry/dedup layer absorbs the flakiness instead of
// surfacing it as spurious failures. This is the suite the CI fault job
// runs (--gtest_filter=FaultStress.*).
#include <gtest/gtest.h>

#include <functional>

#include "apps/apps.hpp"
#include "driver/tester.hpp"
#include "sim/toolchain.hpp"

namespace meissa {
namespace {

using AppMaker = std::function<apps::AppBundle(ir::Context&)>;

apps::AppBundle router_app(ir::Context& ctx) {
  return apps::make_router(ctx, 6);
}

apps::AppBundle nat_gateway_app(ir::Context& ctx) {
  return apps::demo_app(ctx, "gw-2");  // ingress + egress NAT gateway
}

apps::AppBundle multi_switch_app(ir::Context& ctx) {
  // 8 pipelines across 2 switches (gw-4, Fig. 1)
  return apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2});
}

driver::TestReport run_app(const AppMaker& make,
                           const sim::LinkFaultSpec& link) {
  ir::Context ctx;
  apps::AppBundle app = make(ctx);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::TestRunOptions opts;
  opts.link = link;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  return meissa.test(device, app.intents);
}

// The ISSUE's acceptance profile: 5% drop, 2% duplication, reordering.
sim::LinkFaultSpec lossy_spec(uint64_t seed) {
  sim::LinkFaultSpec spec;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.02;
  spec.reorder_rate = 0.05;
  spec.seed = seed;
  return spec;
}

void expect_lossy_run_converges(const AppMaker& make) {
  const driver::TestReport base = run_app(make, sim::LinkFaultSpec{});
  ASSERT_GT(base.cases, 0u);
  uint64_t total_retries = 0;
  for (uint64_t seed : {3u, 17u, 99u, 1234u, 777777u}) {
    const driver::TestReport got = run_app(make, lossy_spec(seed));
    // Same verdicts as the fault-free run, case for case.
    EXPECT_EQ(got.cases, base.cases) << "seed " << seed;
    EXPECT_EQ(got.passed, base.passed) << "seed " << seed;
    EXPECT_EQ(got.failed, base.failed) << "seed " << seed;
    // Nothing gave up: retries absorbed every fault.
    EXPECT_TRUE(got.quarantined.empty())
        << "seed " << seed << ": " << got.quarantined.size() << " quarantined";
    // The link really was lossy (the test is not vacuous).
    EXPECT_GT(got.link.dropped + got.link.duplicated + got.link.reordered, 0u)
        << "seed " << seed;
    total_retries += got.send_retries;
  }
  // Across five seeds at 5% loss some sends must have been retried.
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultStress, RouterConvergesOnLossyLink) {
  expect_lossy_run_converges(router_app);
}

TEST(FaultStress, NatGatewayConvergesOnLossyLink) {
  expect_lossy_run_converges(nat_gateway_app);
}

TEST(FaultStress, MultiSwitchConvergesOnLossyLink) {
  expect_lossy_run_converges(multi_switch_app);
}

TEST(FaultStress, CorruptionIsDetectedNotMisjudged) {
  // A corrupting link damages verdict payloads; the stamp check must
  // discard them (and retry) rather than let a flipped bit fail a case.
  const driver::TestReport base = run_app(router_app, sim::LinkFaultSpec{});
  sim::LinkFaultSpec spec;
  spec.corrupt_rate = 0.10;
  spec.seed = 5;
  const driver::TestReport got = run_app(router_app, spec);
  EXPECT_EQ(got.passed, base.passed);
  EXPECT_EQ(got.failed, base.failed);
  EXPECT_TRUE(got.quarantined.empty());
  EXPECT_GT(got.corruption_detected, 0u);
  EXPECT_EQ(got.corruption_detected, got.link.corrupted);
}

TEST(FaultStress, EverythingAtOnceStillConverges) {
  // All five fault classes simultaneously on the hardest app.
  const driver::TestReport base =
      run_app(multi_switch_app, sim::LinkFaultSpec{});
  sim::LinkFaultSpec spec = lossy_spec(42);
  spec.corrupt_rate = 0.02;
  spec.install_fail_rate = 0.02;
  const driver::TestReport got = run_app(multi_switch_app, spec);
  EXPECT_EQ(got.cases, base.cases);
  EXPECT_EQ(got.passed, base.passed);
  EXPECT_EQ(got.failed, base.failed);
  EXPECT_TRUE(got.quarantined.empty());
}

TEST(FaultStress, TinySmtBudgetRunsEndToEndWithoutThrowing) {
  // The CI fault job's budget leg: a starvation SMT budget must degrade
  // coverage, not correctness — every case that is generated still passes.
  // ACL: its final DFS still reaches the SAT core, which the budget limits
  // (the gateways' checks are decided without it).
  ir::Context ctx;
  apps::AppBundle app = apps::make_acl(ctx, 4, 4);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::TestRunOptions opts;
  opts.gen.smt_budget.max_conflicts = 1;
  opts.gen.smt_budget.max_propagations = 1;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  driver::TestReport report = meissa.test(device, app.intents);
  EXPECT_EQ(report.failed, 0u) << report.str();
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.gen.engine.valid_paths, report.templates);
  EXPECT_GT(report.gen.engine.degraded_paths, 0u);  // the budget did bite
}

}  // namespace
}  // namespace meissa
