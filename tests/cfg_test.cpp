// Tests for CFG construction and concrete path evaluation.
#include <gtest/gtest.h>

#include "testlib.hpp"

namespace meissa::cfg {
namespace {

using testlib::concrete_run;
using testlib::ConcreteOutcome;

class Fig7Cfg : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig7_plane(ctx);
    rules = testlib::fig7_rules(3);
    g = build_cfg(dp, rules, ctx);
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  Cfg g;

  ir::ConcreteState base_input(uint64_t dst_ip) {
    ir::ConcreteState s;
    s[ctx.fields.require("hdr.eth.dst")] = 0x111111111111;
    s[ctx.fields.require("hdr.eth.src")] = 0x222222222222;
    s[ctx.fields.require("hdr.eth.type")] = 0x0800;
    s[ctx.fields.require("hdr.ipv4.dst")] = dst_ip;
    for (const char* f : {"ver_ihl", "tos", "len", "id", "frag", "ttl",
                          "proto", "csum", "src"}) {
      s[ctx.fields.require(std::string("hdr.ipv4.") + f)] = 0;
    }
    s[ctx.fields.require(std::string(p4::kIngressPort))] = 0;
    return s;
  }
};

TEST_F(Fig7Cfg, StructureIsWellFormedWithOneInstance) {
  ASSERT_EQ(g.instances().size(), 1u);
  EXPECT_EQ(g.instances()[0].name, "sw0.p0");
  EXPECT_EQ(g.instances()[0].emit_order,
            (std::vector<std::string>{"eth", "ipv4"}));
  EXPECT_GT(g.size(), 20u);
}

TEST_F(Fig7Cfg, PossiblePathCountMatchesTableProduct) {
  // Parser: {eth-only, eth+ipv4}; if-valid fork; tables (3+1)x(3+1).
  // eth-only goes through the else branch; eth+ipv4 through both tables.
  // Each then hits the drop-check fork (x2) at the instance exit.
  // possible = [1 (else) + 16 (then)] x 2 ... for both parse outcomes.
  double n = g.count_paths().value();
  EXPECT_EQ(n, (1 + 16 + 1 + 16) * 2.0);
}

TEST_F(Fig7Cfg, KnownHostIsForwardedWithRewrittenMac) {
  auto out = concrete_run(g, base_input(0x0a000001), ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kEmit);
  EXPECT_EQ(out->state.at(ctx.fields.require(std::string(p4::kEgressSpec))),
            2u);
  EXPECT_EQ(out->state.at(ctx.fields.require("hdr.eth.dst")),
            0xaa0000000001ull);
}

TEST_F(Fig7Cfg, UnknownHostIsDropped) {
  auto out = concrete_run(g, base_input(0x0afffffe), ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kDrop);
}

TEST_F(Fig7Cfg, NonIpPacketSkipsTablesAndEmits) {
  ir::ConcreteState s = base_input(0x0a000001);
  s[ctx.fields.require("hdr.eth.type")] = 0x86dd;
  auto out = concrete_run(g, s, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kEmit);
  // MAC untouched: tables were skipped.
  EXPECT_EQ(out->state.at(ctx.fields.require("hdr.eth.dst")),
            0x111111111111ull);
  // The instance-local validity of ipv4 stayed 0.
  EXPECT_EQ(out->state.at(g.instances()[0].validity.at("ipv4")), 0u);
}

TEST_F(Fig7Cfg, EvalPathRejectsWrongPath) {
  // Take the path driven by host 1 and check host 2's input cannot drive it.
  auto out1 = concrete_run(g, base_input(0x0a000001), ctx);
  ASSERT_TRUE(out1.has_value());
  ir::DenseState replay = testlib::dense(base_input(0x0a000002), ctx);
  EXPECT_FALSE(eval_path(g, out1->path, replay, ctx));
  ir::DenseState ok = testlib::dense(base_input(0x0a000001), ctx);
  EXPECT_TRUE(eval_path(g, out1->path, ok, ctx));
}

TEST_F(Fig7Cfg, InstancePathCountIsolatesThePipeline) {
  double n = g.count_instance_paths(0).value();
  // Within the instance: 2 parse outcomes x (1 + 16) control paths.
  EXPECT_EQ(n, 2 * 17.0);
}

class Fig8Cfg : public ::testing::Test {
 protected:
  void SetUp() override {
    dp = testlib::make_fig8_plane(ctx);
    rules = testlib::fig8_rules();
    g = build_cfg(dp, rules, ctx);
  }
  ir::Context ctx;
  p4::DataPlane dp;
  p4::RuleSet rules;
  Cfg g;

  ir::ConcreteState l4_input(uint64_t proto, uint64_t dport) {
    ir::ConcreteState s;
    s[ctx.fields.require("hdr.eth.dst")] = 1;
    s[ctx.fields.require("hdr.eth.src")] = 2;
    s[ctx.fields.require("hdr.eth.type")] = 0x0800;
    for (const char* f : {"ver_ihl", "tos", "len", "id", "frag", "ttl",
                          "csum", "src", "dst"}) {
      s[ctx.fields.require(std::string("hdr.ipv4.") + f)] = 0;
    }
    s[ctx.fields.require("hdr.ipv4.proto")] = proto;
    s[ctx.fields.require("hdr.tcp.sport")] = 1000;
    s[ctx.fields.require("hdr.tcp.dport")] = dport;
    s[ctx.fields.require("hdr.tcp.rest")] = 0;
    s[ctx.fields.require("hdr.udp.sport")] = 1000;
    s[ctx.fields.require("hdr.udp.dport")] = dport;
    s[ctx.fields.require("hdr.udp.len")] = 8;
    s[ctx.fields.require("hdr.udp.csum")] = 0;
    s[ctx.fields.require(std::string(p4::kIngressPort))] = 0;
    return s;
  }
};

TEST_F(Fig8Cfg, TcpTraversesBothPipelines) {
  auto out = concrete_run(g, l4_input(6, 443), ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kEmit);
  EXPECT_EQ(out->emit_instance, 1);  // left via the egress instance
  EXPECT_EQ(out->state.at(ctx.fields.require("meta.l4_kind")), 6u);
}

TEST_F(Fig8Cfg, UdpIsDroppedAtIngress) {
  auto out = concrete_run(g, l4_input(17, 53), ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kDrop);
}

TEST_F(Fig8Cfg, NonIpIsRejectedByParser) {
  ir::ConcreteState s = l4_input(6, 443);
  s[ctx.fields.require("hdr.eth.type")] = 0x0806;
  auto out = concrete_run(g, s, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->exit, ExitKind::kDrop);
}

TEST_F(Fig8Cfg, ValidityIsPerInstance) {
  auto out = concrete_run(g, l4_input(6, 443), ctx);
  ASSERT_TRUE(out.has_value());
  // TCP parsed in both instances; UDP in neither.
  EXPECT_EQ(out->state.at(g.instances()[0].validity.at("tcp")), 1u);
  EXPECT_EQ(out->state.at(g.instances()[1].validity.at("tcp")), 1u);
  EXPECT_EQ(out->state.at(g.instances()[0].validity.at("udp")), 0u);
  EXPECT_EQ(out->state.at(g.instances()[1].validity.at("udp")), 0u);
}

TEST(CfgValidate, RejectsCyclicTopology) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig8_plane(ctx);
  dp.topology.edges.push_back({"sw0.eg", "sw0.ig", nullptr});
  EXPECT_THROW(p4::validate(dp, ctx), util::ValidationError);
}

TEST(CfgValidate, RejectsUnknownTableInControl) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  dp.program.pipelines[0].control.stmts.push_back(
      p4::ControlStmt::apply("no_such_table"));
  EXPECT_THROW(p4::validate(dp.program, ctx), util::ValidationError);
}

TEST(CfgValidate, RejectsRuleWithWrongArity) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(1);
  rules.entries[0].args = {};  // set_port expects one argument
  EXPECT_THROW(p4::validate_rules(dp.program, rules), util::ValidationError);
}

TEST(CfgValidate, RejectsOversizedExactMatch) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(1);
  rules.entries[1].matches[0] = p4::KeyMatch::exact(0x1ffffffffull);  // > 9 bit
  EXPECT_THROW(p4::validate_rules(dp.program, rules), util::ValidationError);
}

}  // namespace
}  // namespace meissa::cfg
