// Unit tests for the driver layer: sender concretization, expected-output
// computation, hash-obligation filtering, reports, and traces.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hpp"
#include "driver/tester.hpp"
#include "sim/toolchain.hpp"
#include "testlib.hpp"

namespace meissa::driver {
namespace {

class SenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig7_plane(ctx);
    rules = testlib::fig7_rules(2);
    gen = std::make_unique<Generator>(ctx, dp, rules, GenOptions{});
    templates = gen->generate();
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  std::unique_ptr<Generator> gen;
  std::vector<sym::TestCaseTemplate> templates;
};

TEST_F(SenderTest, ConcretizesEveryTemplate) {
  Sender sender(ctx, dp, gen->graph());
  size_t made = 0;
  for (const auto& t : templates) {
    auto tc = sender.concretize(t, gen->engine());
    ASSERT_TRUE(tc.has_value()) << "template " << t.id;
    ++made;
    // Input packets are well-formed wire bytes with the unique-id payload.
    EXPECT_GE(tc->input.bytes.size(), 14u);
    EXPECT_GE(tc->input_packet.payload.size(), 16u);
    // Case ids are unique and embedded in the payload.
    uint64_t id = 0;
    for (int i = 0; i < 8; ++i) {
      id = (id << 8) | tc->input_packet.payload[static_cast<size_t>(i)];
    }
    EXPECT_EQ(id, tc->case_id);
  }
  EXPECT_EQ(made, templates.size());
  EXPECT_EQ(sender.removed_by_hash(), 0u);
}

// FNV-1a over everything a concretized case hands to the device and the
// checker, in template order.
struct CaseDigest {
  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t removed_by_hash = 0;
  uint64_t hash_repair_attempts = 0;

  void byte(uint8_t b) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::vector<uint8_t>& bs) {
    u64(bs.size());
    for (uint8_t b : bs) byte(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<uint8_t>(c));
  }
};

CaseDigest concretize_digest(ir::Context& ctx, const apps::AppBundle& app,
                             const GenOptions& opts) {
  Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  Sender sender(ctx, app.dp, gen.graph());
  CaseDigest d;
  for (const sym::TestCaseTemplate& t : templates) {
    std::optional<TestCase> tc = sender.concretize(t, gen.engine());
    if (!tc) continue;
    d.u64(tc->case_id);
    d.u64(tc->input.port);
    d.bytes(tc->input.bytes);
    std::vector<std::pair<std::string, uint64_t>> regs;
    for (const auto& [f, v] : tc->registers) {
      regs.emplace_back(ctx.fields.name(f), v);
    }
    std::sort(regs.begin(), regs.end());
    d.u64(regs.size());
    for (const auto& [name, v] : regs) {
      d.str(name);
      d.u64(v);
    }
    d.byte(tc->expect_drop ? 1 : 0);
    d.u64(tc->expect_port);
    d.bytes(tc->expect_bytes);
  }
  d.removed_by_hash = sender.removed_by_hash();
  d.hash_repair_attempts = sender.hash_repair_attempts();
  return d;
}

struct PinnedDigest {
  uint64_t hash;
  uint64_t removed_by_hash;
  uint64_t hash_repair_attempts;
};

void expect_digest(const CaseDigest& d, const PinnedDigest& want,
                   const std::string& what) {
  EXPECT_EQ(d.hash, want.hash) << what;
  EXPECT_EQ(d.removed_by_hash, want.removed_by_hash) << what;
  EXPECT_EQ(d.hash_repair_attempts, want.hash_repair_attempts) << what;
}

// Pins every concretized case of gw-1..gw-4 (m4test's rule sets), so a
// change to how the sender builds its concrete state cannot silently
// change a packet, a register install or an expected output.
TEST(SenderDigest, GatewayCasesArePinned) {
  const PinnedDigest want[4] = {
      {0xded2801a7584316bull, 0, 306},
      {0x56f6f7f5d5be84c5ull, 0, 170},
      {0x1b9032777f721719ull, 0, 170},
      {0xaf52f82b8b8ea895ull, 0, 170},
  };
  for (int level = 1; level <= 4; ++level) {
    ir::Context ctx;
    apps::AppBundle app = apps::demo_app(ctx, "gw-" + std::to_string(level));
    expect_digest(concretize_digest(ctx, app, {}), want[level - 1],
                  "gw-" + std::to_string(level));
  }
}

// Every concretized gw-1..gw-4 case at the pinned digests' rule sets, run
// on the device: it must emit the expected port and bytes (or drop). This
// backs the pins above with the device, not only with a hash.
TEST(SenderDigest, GatewayCasesMatchTheDevice) {
  for (int level = 1; level <= 4; ++level) {
    SCOPED_TRACE("gw-" + std::to_string(level));
    ir::Context ctx;
    apps::AppBundle app = apps::demo_app(ctx, "gw-" + std::to_string(level));
    Generator gen(ctx, app.dp, app.rules, {});
    std::vector<sym::TestCaseTemplate> templates = gen.generate();
    Sender sender(ctx, app.dp, gen.graph());
    sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
    size_t ran = 0;
    for (const sym::TestCaseTemplate& t : templates) {
      std::optional<TestCase> tc = sender.concretize(t, gen.engine());
      ASSERT_TRUE(tc.has_value()) << "template " << t.id;
      device.set_registers(tc->registers);
      sim::DeviceOutput out = device.inject(tc->input);
      if (tc->expect_drop) {
        EXPECT_TRUE(out.dropped) << "template " << t.id;
      } else {
        ASSERT_FALSE(out.dropped) << "template " << t.id;
        EXPECT_EQ(out.port, tc->expect_port) << "template " << t.id;
        EXPECT_EQ(out.bytes, tc->expect_bytes) << "template " << t.id;
      }
      ++ran;
    }
    EXPECT_EQ(ran, templates.size());
    EXPECT_EQ(sender.removed_by_hash(), 0u);
  }
}

// Table-2 scenario 6 with its gateway's statistics register pinned by a
// generation-time assume: every model then assigns the register cell, so
// every case carries a register install.
TEST(SenderDigest, RegisterInstallingBugCasesArePinned) {
  ir::Context ctx;
  apps::BugScenario bug = apps::make_bug(ctx, 6);
  ir::FieldId reg = ctx.fields.require(p4::register_field("gw_stats", 0));
  GenOptions opts;
  opts.assumes.push_back(ctx.arena.cmp(ir::CmpOp::kEq,
                                       ctx.arena.field(reg, 32),
                                       ctx.arena.constant(7, 32)));
  expect_digest(concretize_digest(ctx, bug.bundle, opts),
                {0x344ccfa07e717ab6ull, 0, 170}, "bug-6");
}

TEST_F(SenderTest, ExpectedOutputsMatchTheDevice) {
  Sender sender(ctx, dp, gen->graph());
  sim::Device device(sim::compile(dp, rules, ctx), ctx);
  for (const auto& t : templates) {
    auto tc = sender.concretize(t, gen->engine());
    ASSERT_TRUE(tc.has_value());
    device.set_registers(tc->registers);
    sim::DeviceOutput out = device.inject(tc->input);
    if (tc->expect_drop) {
      EXPECT_TRUE(out.dropped);
    } else {
      ASSERT_FALSE(out.dropped);
      EXPECT_EQ(out.port, tc->expect_port);
      EXPECT_EQ(out.bytes, tc->expect_bytes);
    }
  }
}

TEST_F(SenderTest, DistinctTemplatesGetDistinctInputs) {
  Sender sender(ctx, dp, gen->graph());
  std::vector<std::vector<uint8_t>> inputs;
  for (const auto& t : templates) {
    auto tc = sender.concretize(t, gen->engine());
    ASSERT_TRUE(tc.has_value());
    // Strip the unique-id payload before comparing path-driving content.
    std::vector<uint8_t> content(
        tc->input.bytes.begin(),
        tc->input.bytes.end() - static_cast<long>(tc->input_packet.payload.size()));
    inputs.push_back(std::move(content));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t j = i + 1; j < inputs.size(); ++j) {
      EXPECT_NE(inputs[i], inputs[j])
          << "templates " << i << " and " << j
          << " generated identical driving content";
    }
  }
}

TEST(ReportTest, SummaryStringIsInformative) {
  TestReport r;
  r.templates = 3;
  r.cases = 3;
  r.passed = 2;
  r.failed = 1;
  r.removed_by_hash = 1;
  CaseRecord rec;
  rec.template_id = 7;
  rec.case_id = 9;
  rec.model_problems = {"wrong egress port: expected 1, got 2"};
  rec.intent_problems = {"[x] violated: expect y"};
  r.failures.push_back(rec);
  std::string s = r.str();
  EXPECT_NE(s.find("2/3"), std::string::npos);
  EXPECT_NE(s.find("removed by hash"), std::string::npos);
  EXPECT_NE(s.find("FAIL template #7"), std::string::npos);
  EXPECT_NE(s.find("[model]"), std::string::npos);
  EXPECT_NE(s.find("[intent]"), std::string::npos);
  EXPECT_FALSE(r.all_passed());
}

TEST(TraceTest, SymbolicTraceShowsValuesAndVerdicts) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(1);
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
  ir::ConcreteState in;
  in[ctx.fields.require("hdr.eth.type")] = 0x0800;
  in[ctx.fields.require("hdr.ipv4.dst")] = 0x0a000000;
  for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) in.try_emplace(f, 0);
  auto out = testlib::concrete_run(g, in, ctx);
  ASSERT_TRUE(out.has_value());
  std::string trace = symbolic_trace(ctx, g, out->path, in, 500);
  EXPECT_NE(trace.find("assume"), std::string::npos);
  EXPECT_NE(trace.find("[= "), std::string::npos);
  EXPECT_NE(trace.find("=> true"), std::string::npos);
  // Truncation guard.
  std::string truncated = symbolic_trace(ctx, g, out->path, in, 2);
  EXPECT_NE(truncated.find("truncated"), std::string::npos);
}

// A case's input_state holds only its model; symbolic_trace completes it
// with zeros, so a failure report renders exactly as it would from the
// fully completed state the sender replayed. Scenarios 1 and 4 read
// fields their models leave unset, so their traces depend on that
// completion.
class SparseTrace : public ::testing::TestWithParam<int> {};

TEST_P(SparseTrace, RendersLikeTheZeroCompletedState) {
  ir::Context ctx;
  apps::BugScenario bug = apps::make_bug(ctx, GetParam());
  Generator gen(ctx, bug.bundle.dp, bug.bundle.rules, GenOptions{});
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  Sender sender(ctx, bug.bundle.dp, gen.graph());
  sim::Device device(
      sim::compile(bug.bundle.dp, bug.bundle.rules, ctx, bug.fault), ctx);
  size_t failing = 0;
  for (const sym::TestCaseTemplate& t : templates) {
    std::optional<TestCase> tc = sender.concretize(t, gen.engine());
    ASSERT_TRUE(tc.has_value());
    device.set_registers(tc->registers);
    sim::DeviceOutput out = device.inject(tc->input);
    if (check_case(ctx, bug.bundle.dp.program, *tc, out, bug.bundle.intents)
            .pass) {
      continue;
    }
    ++failing;
    EXPECT_LT(tc->input_state.size(), ctx.fields.size());
    ir::ConcreteState complete = tc->input_state;
    for (ir::FieldId f = 0; f < ctx.fields.size(); ++f) {
      complete.try_emplace(f, 0);
    }
    std::string sparse = symbolic_trace(ctx, gen.graph(), t.path,
                                        tc->input_state, 200);
    EXPECT_FALSE(sparse.empty());
    EXPECT_EQ(sparse, symbolic_trace(ctx, gen.graph(), t.path, complete, 200));
  }
  EXPECT_GT(failing, 0u) << "the scenario should fail at least one case";
}

INSTANTIATE_TEST_SUITE_P(Bugs, SparseTrace, ::testing::Values(1, 3, 4));

TEST(GeneratorTest, MaxTemplatesAndAssumesCompose) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(3);
  GenOptions opts;
  opts.max_templates = 2;
  Generator g(ctx, dp, rules, opts);
  EXPECT_EQ(g.generate().size(), 2u);
  EXPECT_EQ(g.stats().templates, 2u);
  EXPECT_GT(g.stats().paths_original.value(), 0.0);
}

TEST(GeneratorTest, ActionCoverModeBuildsSymbolicArgs) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(3);
  GenOptions opts;
  opts.code_summary = false;
  opts.build.table_mode = cfg::BuildOptions::TableMode::kActionCover;
  Generator g(ctx, dp, rules, opts);
  auto templates = g.generate();
  // Branch structure is per-action, independent of the 3 installed rules:
  // the ipv4 path explores |actions|+1 per table.
  EXPECT_GT(templates.size(), 4u);
  // Some template constrains an action parameter symbolically.
  bool saw_arg = false;
  for (const auto& t : templates) {
    for (const auto& [f, v] : t.values) {
      saw_arg |= ctx.fields.name(f).rfind("ig.eg_spec", 0) == 0 &&
                 !v->is_const();
    }
  }
  EXPECT_TRUE(saw_arg) << "action-cover mode should leave args symbolic";
}

}  // namespace
}  // namespace meissa::driver
