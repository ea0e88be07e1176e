// Unit tests for the intent layer: applicability, each expectation kind,
// the in./out. namespaces, and assume-to-precondition conversion.
#include <gtest/gtest.h>

#include "apps/demos.hpp"
#include "spec/intent.hpp"

namespace meissa::spec {
namespace {

class SpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = apps::demos::make_fig7_plane(ctx);
    const p4::HeaderDef* eth = dp.program.find_header("eth");
    const p4::HeaderDef* ipv4 = dp.program.find_header("ipv4");
    packet::HeaderValues e;
    e.header = "eth";
    e.values = {0x1111, 0x2222, 0x0800};
    packet::HeaderValues i;
    i.header = "ipv4";
    i.values.assign(ipv4->fields.size(), 0);
    obs.prog = &dp.program;
    obs.input.headers = {e, i};
    obs.input.find("ipv4")->set_field(*ipv4, "dst", 0x0a000001);
    obs.in_port = 3;
    obs.delivered = true;
    obs.output = obs.input;
    obs.output.find("eth")->set_field(*eth, "dst", 0xaa01);
    obs.out_port = 7;
  }

  // Each call builds the observation's evaluation state, as the checker
  // does once per case.
  bool applies(const Intent& intent, const Observation& o) {
    return applicable(intent, observation_state(o, ctx));
  }
  std::vector<std::string> problems(const Intent& intent,
                                    const Observation& o) {
    return check(intent, o, observation_state(o, ctx), ctx);
  }

  ir::Context ctx;
  p4::DataPlane dp;
  Observation obs;
};

TEST_F(SpecTest, ApplicabilityFollowsAssumes) {
  IntentBuilder match(ctx, dp.program, "m");
  match.assume(ctx.arena.cmp(ir::CmpOp::kEq, match.in("hdr.ipv4.dst"),
                             match.num(0x0a000001, 32)));
  Intent match_intent = match.build();  // build() moves the intent out
  EXPECT_TRUE(applies(match_intent, obs));

  IntentBuilder mismatch(ctx, dp.program, "n");
  mismatch.assume(ctx.arena.cmp(ir::CmpOp::kEq, mismatch.in("hdr.ipv4.dst"),
                                mismatch.num(0x0a000002, 32)));
  EXPECT_FALSE(applies(mismatch.build(), obs));

  // An assume over a header absent from the input is not applicable.
  Observation eth_only = obs;
  eth_only.input.headers.resize(1);
  EXPECT_FALSE(applies(match_intent, eth_only));
}

TEST_F(SpecTest, FieldExpectationsRelateInputAndOutput) {
  IntentBuilder ib(ctx, dp.program, "rewrite");
  ib.expect(ctx.arena.cmp(ir::CmpOp::kEq, ib.out("hdr.eth.dst"),
                          ib.num(0xaa01, 48)));
  ib.expect(ctx.arena.cmp(ir::CmpOp::kEq, ib.out("hdr.ipv4.dst"),
                          ib.in("hdr.ipv4.dst")));
  EXPECT_TRUE(problems(ib.build(), obs).empty());

  IntentBuilder bad(ctx, dp.program, "bad");
  bad.expect(ctx.arena.cmp(ir::CmpOp::kEq, bad.out("hdr.eth.dst"),
                           bad.num(0xbb02, 48)));
  auto failures = problems(bad.build(), obs);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("violated"), std::string::npos);
}

TEST_F(SpecTest, PortExpectations) {
  IntentBuilder ib(ctx, dp.program, "port");
  ib.expect(ctx.arena.cmp(ir::CmpOp::kEq, ib.out_port(), ib.num(7, 9)));
  ib.expect(ctx.arena.cmp(ir::CmpOp::kEq, ib.in_port(), ib.num(3, 9)));
  EXPECT_TRUE(problems(ib.build(), obs).empty());
}

TEST_F(SpecTest, DeliveryExpectations) {
  IntentBuilder want_drop(ctx, dp.program, "d");
  want_drop.expect_dropped();
  EXPECT_FALSE(problems(want_drop.build(), obs).empty());

  Observation dropped = obs;
  dropped.delivered = false;
  EXPECT_TRUE(problems(want_drop.build(), dropped).empty());

  IntentBuilder want_del(ctx, dp.program, "e");
  want_del.expect_delivered();
  EXPECT_FALSE(problems(want_del.build(), dropped).empty());
  // Output-relating expectations are delivery-gated: no double report.
  IntentBuilder gated(ctx, dp.program, "g");
  gated.expect(ctx.arena.cmp(ir::CmpOp::kEq, gated.out("hdr.eth.dst"),
                             gated.num(1, 48)));
  EXPECT_TRUE(problems(gated.build(), dropped).empty());
}

TEST_F(SpecTest, HeaderPresenceExpectations) {
  IntentBuilder ib(ctx, dp.program, "h");
  ib.expect_header("ipv4", true);
  EXPECT_TRUE(problems(ib.build(), obs).empty());
  IntentBuilder absent(ctx, dp.program, "a");
  absent.expect_header("ipv4", false);
  EXPECT_FALSE(problems(absent.build(), obs).empty());
}

TEST_F(SpecTest, ChecksumExpectationRecomputes) {
  IntentBuilder ib(ctx, dp.program, "c");
  ib.expect_checksum("hdr.ipv4.csum", {"hdr.ipv4.src", "hdr.ipv4.dst"});
  // Wrong (zero) checksum in the output -> flagged.
  auto failures = problems(ib.build(), obs);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("checksum error"), std::string::npos);
  // Fix it up and re-check.
  const p4::HeaderDef* ipv4 = dp.program.find_header("ipv4");
  uint64_t want = p4::compute_hash(
      p4::HashAlgo::kCsum16,
      {obs.output.find("ipv4")->field(*ipv4, "src"),
       obs.output.find("ipv4")->field(*ipv4, "dst")},
      {32, 32}, 16);
  obs.output.find("ipv4")->set_field(*ipv4, "csum", want);
  EXPECT_TRUE(problems(ib.build(), obs).empty());
}

TEST_F(SpecTest, AssumeToPreconditionRenamesFields) {
  IntentBuilder ib(ctx, dp.program, "r");
  ir::ExprRef a = ctx.arena.band(
      ctx.arena.cmp(ir::CmpOp::kEq, ib.in("hdr.ipv4.dst"),
                    ib.num(0x0a000001, 32)),
      ctx.arena.cmp(ir::CmpOp::kLt, ib.in_port(), ib.num(8, 9)));
  ir::ExprRef pre = assume_to_precondition(a, ctx);
  std::unordered_set<ir::FieldId> fs;
  ir::collect_fields(pre, fs);
  EXPECT_TRUE(fs.count(ctx.fields.require("hdr.ipv4.dst")));
  EXPECT_TRUE(fs.count(ctx.fields.require(std::string(p4::kIngressPort))));
  for (ir::FieldId f : fs) {
    EXPECT_EQ(ctx.fields.name(f).rfind("in.", 0), std::string::npos)
        << "unrenamed intent field in precondition";
  }
}

TEST_F(SpecTest, BuilderRejectsUnknownFields) {
  IntentBuilder ib(ctx, dp.program, "x");
  EXPECT_THROW(ib.in("hdr.nope.field"), util::ValidationError);
  EXPECT_THROW(ib.expect_header("nope", true), util::InternalError);
}

}  // namespace
}  // namespace meissa::spec
