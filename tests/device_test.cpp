// Tests for the toolchain + behavioral device: parsing, every match kind,
// deparsing with checksum updates, multi-pipe routing, registers, and the
// direct behaviour of each injected fault.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "apps/demos.hpp"
#include "sim/toolchain.hpp"

namespace meissa::sim {
namespace {

packet::Packet fig7_packet(const p4::Program& prog, uint64_t dst) {
  packet::Packet p;
  packet::HeaderValues eth;
  eth.header = "eth";
  eth.values = {0x111111111111, 0x222222222222, 0x0800};
  packet::HeaderValues ipv4;
  ipv4.header = "ipv4";
  const p4::HeaderDef* def = prog.find_header("ipv4");
  ipv4.values.assign(def->fields.size(), 0);
  p.headers = {eth, ipv4};
  p.find("ipv4")->set_field(*def, "dst", dst);
  p.payload = {1, 2, 3, 4};
  return p;
}

TEST(Device, ForwardsKnownHostAndRewritesMac) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig7_plane(ctx);
  p4::RuleSet rules = apps::demos::fig7_rules(3);
  Device device(compile(dp, rules, ctx), ctx);
  packet::Packet in = fig7_packet(dp.program, 0x0a000002);
  DeviceOutput out = device.inject({0, packet::serialize(dp.program, in)});
  ASSERT_FALSE(out.dropped);
  EXPECT_EQ(out.port, 3u);
  auto parsed = packet::parse_as(dp.program, {"eth", "ipv4"}, out.bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->headers[0].values[0], 0xaa0000000002ull);
  EXPECT_EQ(parsed->payload, (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST(Device, DropsUnknownHost) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig7_plane(ctx);
  p4::RuleSet rules = apps::demos::fig7_rules(3);
  Device device(compile(dp, rules, ctx), ctx);
  packet::Packet in = fig7_packet(dp.program, 0x0afffffe);
  DeviceOutput out = device.inject({0, packet::serialize(dp.program, in)});
  EXPECT_TRUE(out.dropped);
}

TEST(Device, ShortPacketIsRejectedByParser) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig8_plane(ctx);
  p4::RuleSet rules = apps::demos::fig8_rules();
  Device device(compile(dp, rules, ctx), ctx);
  // 14-byte ethernet claiming IPv4 follows, but no IPv4 bytes.
  packet::Packet in;
  packet::HeaderValues eth;
  eth.header = "eth";
  eth.values = {1, 2, 0x0800};
  in.headers = {eth};
  DeviceOutput out = device.inject({0, packet::serialize(dp.program, in)});
  EXPECT_TRUE(out.dropped);
  bool saw = false;
  for (const std::string& t : device.render_trace(out.trace)) {
    saw |= t.find("ran out of packet") != std::string::npos;
  }
  EXPECT_TRUE(saw);
}

TEST(Device, MultiPipeTraversalAndTrace) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig8_plane(ctx);
  p4::RuleSet rules = apps::demos::fig8_rules();
  Device device(compile(dp, rules, ctx), ctx);
  packet::Packet in;
  packet::HeaderValues eth{"eth", {1, 2, 0x0800}};
  packet::HeaderValues ipv4;
  ipv4.header = "ipv4";
  const p4::HeaderDef* def = dp.program.find_header("ipv4");
  ipv4.values.assign(def->fields.size(), 0);
  packet::HeaderValues tcp{"tcp", {1000, 443, 0}};
  in.headers = {eth, ipv4, tcp};
  in.find("ipv4")->set_field(*def, "proto", 6);
  DeviceOutput out = device.inject({0, packet::serialize(dp.program, in)});
  ASSERT_FALSE(out.dropped);
  // The trace shows both pipeline instances parsing the packet.
  int parses = 0;
  for (const std::string& t : device.render_trace(out.trace)) {
    parses += t.find(": parsed eth") != std::string::npos;
  }
  EXPECT_EQ(parses, 2);
}

TEST(Device, ChecksumUpdateAppliedOnDeparse) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 2, /*seed=*/123);
  Device device(compile(app.dp, app.rules, ctx), ctx);
  // Route via the first installed prefix.
  const p4::TableEntry& route = app.rules.entries[0];
  packet::Packet in = fig7_packet(app.dp.program, route.matches[0].value);
  const p4::HeaderDef* def = app.dp.program.find_header("ipv4");
  in.find("ipv4")->set_field(*def, "ttl", 9);
  DeviceOutput out = device.inject({0, packet::serialize(app.dp.program, in)});
  ASSERT_FALSE(out.dropped);
  auto parsed = packet::parse_as(app.dp.program, {"eth", "ipv4"}, out.bytes);
  ASSERT_TRUE(parsed.has_value());
  // TTL decremented; checksum recomputed over the program's source list.
  EXPECT_EQ(parsed->find("ipv4")->field(*def, "ttl"), 8u);
  std::vector<uint64_t> kv;
  std::vector<int> kw;
  for (const char* f : {"ver_ihl", "dscp", "ecn", "len", "id", "frag", "ttl",
                        "proto", "src", "dst"}) {
    kv.push_back(parsed->find("ipv4")->field(*def, f));
    kw.push_back(def->find_field(f)->width);
  }
  EXPECT_EQ(parsed->find("ipv4")->field(*def, "csum"),
            p4::compute_hash(p4::HashAlgo::kCsum16, kv, kw, 16));
}

TEST(Device, RegistersPersistAcrossPackets) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  Device device(compile(app.dp, app.rules, ctx), ctx);
  device.set_register("gw_stats", 0, 41);
  // One outbound packet increments gw_stats[0]... observable only through
  // state, so set and read back via the register interface's state by
  // injecting and checking no crash; the register-as-field semantics are
  // covered by the engine tests. Here: the seeded value must not be lost
  // by injection of an unrelated (dropped) packet.
  packet::Packet junk;
  packet::HeaderValues eth{"eth", {1, 2, 0x1234}};
  junk.headers = {eth};
  DeviceOutput out = device.inject({0, packet::serialize(app.dp.program, junk)});
  EXPECT_TRUE(out.dropped);  // non-IP is rejected by the gateway parser
}

// ---- table lookup tie-breaking (the explicit p4::entry_rank rule) --------

// The fig7 plane with ipv4_host's key flipped to `kind` so overlapping
// entries are expressible.
p4::DataPlane fig7_with_key_kind(ir::Context& ctx, p4::MatchKind kind) {
  p4::DataPlane dp = apps::demos::make_fig7_plane(ctx);
  for (p4::TableDef& t : dp.program.tables) {
    if (t.name == "ipv4_host") t.keys[0].kind = kind;
  }
  return dp;
}

uint64_t injected_port(Device& device, const p4::Program& prog, uint64_t dst) {
  DeviceOutput out = device.inject(
      {0, packet::serialize(prog, fig7_packet(prog, dst))});
  EXPECT_FALSE(out.dropped);
  return out.port;
}

TEST(Device, LpmLongestPrefixWinsOverInstallOrder) {
  ir::Context ctx;
  p4::DataPlane dp = fig7_with_key_kind(ctx, p4::MatchKind::kLpm);
  p4::RuleSet rules;
  // Adversarial install order: the broad /16 first, the covering /24 after.
  p4::TableEntry wide;
  wide.table = "ipv4_host";
  wide.matches = {p4::KeyMatch::lpm(0x0a000000, 16)};
  wide.action = "set_port";
  wide.args = {1};
  rules.add(wide);
  p4::TableEntry narrow = wide;
  narrow.matches = {p4::KeyMatch::lpm(0x0a000200, 24)};
  narrow.args = {2};
  rules.add(narrow);
  Device device(compile(dp, rules, ctx), ctx);
  // Inside the /24: the longer prefix wins although it was installed later.
  EXPECT_EQ(injected_port(device, dp.program, 0x0a000205), 2u);
  // Outside the /24 but inside the /16: the wide route still applies.
  EXPECT_EQ(injected_port(device, dp.program, 0x0a00ff05), 1u);
}

TEST(Device, TernaryPriorityThenInstallOrderBreaksTies) {
  ir::Context ctx;
  p4::DataPlane dp = fig7_with_key_kind(ctx, p4::MatchKind::kTernary);
  p4::RuleSet rules;
  p4::TableEntry a;  // matches 0x0a00****, weaker priority, installed first
  a.table = "ipv4_host";
  a.matches = {p4::KeyMatch::ternary(0x0a000000, 0xffff0000)};
  a.action = "set_port";
  a.args = {1};
  a.priority = 5;
  rules.add(a);
  p4::TableEntry b = a;  // matches 0x0a******, stronger priority, second
  b.matches = {p4::KeyMatch::ternary(0x0a000000, 0xff000000)};
  b.args = {2};
  b.priority = 1;
  rules.add(b);
  Device device(compile(dp, rules, ctx), ctx);
  // Both hit; the smaller priority number wins regardless of install order.
  EXPECT_EQ(injected_port(device, dp.program, 0x0a000005), 2u);

  // Full rank tie (same mask shape, same priority): install order decides.
  p4::RuleSet tied;
  p4::TableEntry first = a;
  first.priority = 3;
  first.args = {7};
  tied.add(first);
  p4::TableEntry second = first;
  second.args = {9};
  tied.add(second);
  Device dev2(compile(dp, tied, ctx), ctx);
  EXPECT_EQ(injected_port(dev2, dp.program, 0x0a000005), 7u);
}

// ---- fault behaviours, observed directly on the device -------------------

TEST(Fault, DropSetValidSuppressesVxlan) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  FaultSpec fault;
  fault.kind = FaultKind::kDropSetValid;
  fault.header = "vxlan";
  Device clean(compile(app.dp, app.rules, ctx), ctx);
  Device buggy(compile(app.dp, app.rules, ctx, fault), ctx);

  packet::Packet in;
  packet::HeaderValues eth{"eth", {1, 2, 0x0800}};
  packet::HeaderValues ipv4;
  ipv4.header = "ipv4";
  const p4::HeaderDef* def = app.dp.program.find_header("ipv4");
  ipv4.values.assign(def->fields.size(), 0);
  packet::HeaderValues tcp;
  tcp.header = "tcp";
  tcp.values.assign(app.dp.program.find_header("tcp")->fields.size(), 0);
  in.headers = {eth, ipv4, tcp};
  in.find("ipv4")->set_field(*def, "proto", 6);
  in.find("ipv4")->set_field(*def, "src", 0x0a000000);  // vm 0
  std::vector<uint8_t> bytes = packet::serialize(app.dp.program, in);

  DeviceOutput a = clean.inject({0, bytes});
  DeviceOutput b = buggy.inject({0, bytes});
  ASSERT_FALSE(a.dropped);
  ASSERT_FALSE(b.dropped);
  EXPECT_EQ(a.bytes.size(), b.bytes.size() + 8);  // missing vxlan header
}

TEST(Fault, FieldOverlapClobbersVictim) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  FaultSpec fault;
  fault.kind = FaultKind::kFieldOverlap;
  fault.field_a = "hdr.inner_ipv4.src";
  fault.field_b = "hdr.tcp.ackno";
  Device clean(compile(app.dp, app.rules, ctx), ctx);
  Device buggy(compile(app.dp, app.rules, ctx, fault), ctx);

  packet::Packet in;
  packet::HeaderValues eth{"eth", {1, 2, 0x0800}};
  packet::HeaderValues ipv4;
  ipv4.header = "ipv4";
  const p4::HeaderDef* idef = app.dp.program.find_header("ipv4");
  ipv4.values.assign(idef->fields.size(), 0);
  packet::HeaderValues tcp;
  tcp.header = "tcp";
  const p4::HeaderDef* tdef = app.dp.program.find_header("tcp");
  tcp.values.assign(tdef->fields.size(), 0);
  in.headers = {eth, ipv4, tcp};
  in.find("ipv4")->set_field(*idef, "proto", 6);
  in.find("ipv4")->set_field(*idef, "src", 0x0a000000);
  in.find("tcp")->set_field(*tdef, "ackno", 0x12345678);
  std::vector<uint8_t> bytes = packet::serialize(app.dp.program, in);

  std::vector<std::string> seq = {"eth",  "ipv4",       "udp",
                                  "vxlan", "inner_ipv4", "inner_tcp"};
  auto pa = packet::parse_as(app.dp.program, seq,
                             clean.inject({0, bytes}).bytes);
  auto pb = packet::parse_as(app.dp.program, seq,
                             buggy.inject({0, bytes}).bytes);
  ASSERT_TRUE(pa && pb);
  const p4::HeaderDef* itdef = app.dp.program.find_header("inner_tcp");
  EXPECT_EQ(pa->find("inner_tcp")->field(*itdef, "ackno"), 0x12345678u);
  // The pragma overlap propagated the clobbered ackno (the elastic IP).
  EXPECT_EQ(pb->find("inner_tcp")->field(*itdef, "ackno"), 0xcb007100u);
}

TEST(Fault, SkipMetadataZeroLeavesGarbage) {
  ir::Context ctx;
  p4::DataPlane dp = apps::demos::make_fig8_plane(ctx);
  p4::RuleSet rules = apps::demos::fig8_rules();
  FaultSpec fault;
  fault.kind = FaultKind::kSkipMetadataZero;
  DeviceProgram prog = compile(dp, rules, ctx, fault);
  EXPECT_FALSE(prog.zero_metadata);
  DeviceProgram clean = compile(dp, rules, ctx);
  EXPECT_TRUE(clean.zero_metadata);
}

}  // namespace
}  // namespace meissa::sim
