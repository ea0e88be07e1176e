// Batch-equivalence and arena-semantics suite for the batched execution
// core: run_batch must produce byte-identical DeviceOutputs (including
// stringified traces) to per-packet inject() across the demo apps and the
// seeded-bug corpus, for several batch sizes; plus register semantics,
// eval-fallback accounting, and trace gating.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "fuzz/mutator.hpp"
#include "obs/metrics.hpp"
#include "sim/toolchain.hpp"
#include "testlib.hpp"

namespace meissa::sim {
namespace {

// Deterministic structurally-valid inputs for a data plane.
std::vector<DeviceInput> make_inputs(const p4::DataPlane& dp,
                                     const p4::RuleSet& rules, size_t n,
                                     uint64_t seed) {
  fuzz::Mutator mut(dp, rules);
  util::Rng rng(seed);
  std::vector<DeviceInput> ins;
  for (size_t i = 0; i < n; ++i) {
    DeviceInput in = mut.random_packet(rng);
    if (i % 2 == 1) mut.mutate(in, rng);  // half mutated, half well-formed
    ins.push_back(std::move(in));
  }
  return ins;
}

// Asserts run_batch == inject for every input, at the given batch size.
void expect_equivalent(Device& device, const std::vector<DeviceInput>& ins,
                       size_t batch_size) {
  std::vector<DeviceOutput> expected;
  for (const DeviceInput& in : ins) expected.push_back(device.inject(in));

  ExecArena arena;
  std::vector<DeviceOutput> got(ins.size());
  for (size_t base = 0; base < ins.size(); base += batch_size) {
    size_t n = std::min(batch_size, ins.size() - base);
    device.run_batch({ins.data() + base, n}, {got.data() + base, n}, arena);
  }

  for (size_t i = 0; i < ins.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i) + " batch " +
                 std::to_string(batch_size));
    EXPECT_EQ(expected[i].accepted, got[i].accepted);
    EXPECT_EQ(expected[i].dropped, got[i].dropped);
    EXPECT_EQ(expected[i].port, got[i].port);
    EXPECT_EQ(expected[i].bytes, got[i].bytes);
    EXPECT_EQ(device.render_trace(expected[i].trace),
              device.render_trace(got[i].trace));
  }
}

void check_app(ir::Context& ctx, const p4::DataPlane& dp,
               const p4::RuleSet& rules, const FaultSpec& fault = {}) {
  Device device(compile(dp, rules, ctx, fault), ctx);
  std::vector<DeviceInput> ins = make_inputs(dp, rules, 24, 0xba7u);
  for (size_t b : {size_t{1}, size_t{7}, size_t{64}}) {
    expect_equivalent(device, ins, b);
  }
}

class BatchEquivalenceApp : public testing::TestWithParam<std::string_view> {};

TEST_P(BatchEquivalenceApp, MatchesInject) {
  ir::Context ctx;
  apps::AppBundle app = apps::demo_app(ctx, GetParam());
  check_app(ctx, app.dp, app.rules);
}

INSTANTIATE_TEST_SUITE_P(Apps, BatchEquivalenceApp,
                         testing::ValuesIn(apps::kDemoApps),
                         [](const auto& info) {
                           std::string n(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

class BatchEquivalenceBug : public testing::TestWithParam<int> {};

TEST_P(BatchEquivalenceBug, MatchesInject) {
  ir::Context ctx;
  apps::BugScenario s = apps::make_bug(ctx, GetParam());
  check_app(ctx, s.bundle.dp, s.bundle.rules, s.fault);
}

INSTANTIATE_TEST_SUITE_P(Bugs, BatchEquivalenceBug, testing::Range(1, 17));

// ------------------------------------------------------ register semantics

Device gw1_device(ir::Context& ctx) {
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  return Device(compile(app.dp, app.rules, ctx), ctx);
}

TEST(Registers, SetRegisterOverwriteOrdering) {
  ir::Context ctx;
  Device device = gw1_device(ctx);
  device.set_register("gw_stats", 0, 41);
  device.set_register("gw_stats", 0, 7);  // last write wins
  EXPECT_EQ(device.get_register("gw_stats", 0), 7u);
}

TEST(Registers, SetRegistersMergesOverInstalled) {
  ir::Context ctx;
  Device device = gw1_device(ctx);
  device.set_register("gw_stats", 0, 1);
  ir::ConcreteState regs;
  regs[ctx.fields.intern(p4::register_field("gw_stats", 1), 32)] = 2;
  device.set_registers(regs);
  EXPECT_EQ(device.get_register("gw_stats", 0), 1u);  // untouched cell kept
  EXPECT_EQ(device.get_register("gw_stats", 1), 2u);
}

TEST(Registers, UnknownRegisterNameThrows) {
  ir::Context ctx;
  Device device = gw1_device(ctx);
  EXPECT_THROW(device.set_register("no_such_reg", 0, 1), util::Error);
  EXPECT_THROW(device.set_register("gw_stats", 99, 1), util::Error);
  EXPECT_EQ(device.get_register("no_such_reg", 0), std::nullopt);
}

TEST(Registers, SnapshotSemanticsAcrossBatch) {
  // Every packet starts from the installed register snapshot: in-exec
  // register writes (gw-1's stats bump) must not leak into later packets
  // of the same batch, so a batch of identical inputs yields identical
  // outputs and the installed value survives unchanged.
  ir::Context ctx;
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  Device device(compile(app.dp, app.rules, ctx), ctx);
  device.set_register("gw_stats", 0, 41);

  std::vector<DeviceInput> ins(3, make_inputs(app.dp, app.rules, 1, 9)[0]);
  std::vector<DeviceOutput> outs(3);
  ExecArena arena;
  device.run_batch(ins, outs, arena);
  EXPECT_EQ(outs[0].dropped, outs[2].dropped);
  EXPECT_EQ(outs[0].port, outs[2].port);
  EXPECT_EQ(outs[0].bytes, outs[2].bytes);
  EXPECT_EQ(device.get_register("gw_stats", 0), 41u);
}

// ---------------------------------------------------- eval-fallback audit

TEST(EvalFallback, CountedAndTraced) {
  // Bug 3's program reads hdr.ipv4.ttl without a validity guard while its
  // typo'd parser never extracts ipv4: the read falls back to 0, which
  // must be counted and leave an attributable trace event.
  ir::Context ctx;
  apps::BugScenario s = apps::make_bug(ctx, 3);
  Device device(compile(s.bundle.dp, s.bundle.rules, ctx), ctx);
  ASSERT_FALSE(s.pta_inputs.empty());

  obs::MetricsRegistry::set_enabled(true);
  obs::metrics().counter("sim.eval_fallbacks").reset();
  DeviceOutput out = device.inject(s.pta_inputs[0].first);
  uint64_t fallbacks = obs::metrics().counter("sim.eval_fallbacks").value();
  obs::MetricsRegistry::set_enabled(false);

  EXPECT_GT(fallbacks, 0u);
  bool traced = false;
  for (const std::string& line : device.render_trace(out.trace)) {
    traced |= line.find("eval fallback -> 0") != std::string::npos;
  }
  EXPECT_TRUE(traced);
}

// --------------------------------------------------------- trace gating

TEST(TraceGating, CollectTraceFlagControlsRecording) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 2);
  Device device(compile(app.dp, app.rules, ctx), ctx);
  std::vector<DeviceInput> ins = make_inputs(app.dp, app.rules, 1, 3);
  DeviceOutput out;

  ExecArena off;
  off.collect_trace = false;
  device.run_batch({ins.data(), 1}, {&out, 1}, off);
  EXPECT_TRUE(out.trace.empty());

  ExecArena on;  // default: on (the driver's checker path)
  device.run_batch({ins.data(), 1}, {&out, 1}, on);
  EXPECT_FALSE(out.trace.empty());
}

}  // namespace
}  // namespace meissa::sim
