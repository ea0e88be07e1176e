// Demonstration data planes used by examples, micro benches, and tests:
// the paper's Fig. 7 workload (chained tables) and Fig. 8 shape (two
// pipelines with a public pre-condition between them), and the demo-app
// table of the command-line tools.
#include "apps/demos.hpp"

#include "apps/apps.hpp"
#include "apps/protocols.hpp"
#include "util/error.hpp"

namespace meissa::apps::demos {

using p4::ActionDef;
using p4::ActionOp;
using p4::ControlStmt;
using p4::KeyMatch;
using p4::MatchKind;
using p4::ParserState;
using p4::PipelineDef;
using p4::TableDef;
using p4::TableEntry;



namespace {

std::vector<p4::FieldDef> eth_fields() {
  return {{"dst", 48}, {"src", 48}, {"type", 16}};
}

std::vector<p4::FieldDef> ipv4_fields() {
  return {{"ver_ihl", 8}, {"tos", 8},   {"len", 16},  {"id", 16},
          {"frag", 16},   {"ttl", 8},   {"proto", 8}, {"csum", 16},
          {"src", 32},    {"dst", 32}};
}



}  // namespace

p4::DataPlane make_fig7_plane(ir::Context& ctx) {
  p4::ProgramBuilder b(ctx, "fig7");
  b.header("eth", eth_fields());
  b.header("ipv4", ipv4_fields());

  ActionDef set_port;
  set_port.name = "set_port";
  set_port.params = {{"port", p4::kPortWidth}};
  set_port.ops = {ActionOp::assign(
      std::string(p4::kEgressSpec), b.arg("set_port", "port", p4::kPortWidth))};
  b.action(set_port);

  ActionDef set_dmac;
  set_dmac.name = "set_dmac";
  set_dmac.params = {{"mac", 48}};
  set_dmac.ops = {
      ActionOp::assign("hdr.eth.dst", b.arg("set_dmac", "mac", 48))};
  b.action(set_dmac);

  ActionDef drop;
  drop.name = "drop";
  drop.ops = {ActionOp::assign(std::string(p4::kDropFlag), b.num(1, 1))};
  b.action(drop);

  ActionDef nop;
  nop.name = "nop";
  b.action(nop);

  TableDef ipv4_host;
  ipv4_host.name = "ipv4_host";
  ipv4_host.keys = {{"hdr.ipv4.dst", MatchKind::kExact}};
  ipv4_host.actions = {"set_port", "drop"};
  ipv4_host.default_action = "drop";
  b.table(ipv4_host);

  TableDef mac_agent;
  mac_agent.name = "mac_agent";
  mac_agent.keys = {{std::string(p4::kEgressSpec), MatchKind::kExact}};
  mac_agent.actions = {"set_dmac", "nop"};
  mac_agent.default_action = "nop";
  b.table(mac_agent);

  PipelineDef p;
  p.name = "pipe";
  p.parser.start = "start";
  ParserState start;
  start.name = "start";
  start.extracts = {"eth"};
  start.select_field = "hdr.eth.type";
  start.cases = {{0x0800, 0xffff, "parse_ipv4"}};
  start.default_next = "accept";
  ParserState parse_ipv4;
  parse_ipv4.name = "parse_ipv4";
  parse_ipv4.extracts = {"ipv4"};
  parse_ipv4.default_next = "accept";
  p.parser.states = {start, parse_ipv4};
  p.control.stmts = {ControlStmt::if_else(
      b.is_valid("ipv4"),
      {{ControlStmt::apply("ipv4_host"), ControlStmt::apply("mac_agent")}})};
  p.deparser.emit_order = {"eth", "ipv4"};
  b.pipeline(p);

  p4::DataPlane dp;
  dp.program = b.build();
  dp.topology.instances = {{"sw0.p0", "pipe", 0}};
  dp.topology.entries = {{"sw0.p0", nullptr}};
  return dp;
}

p4::RuleSet fig7_rules(int n_hosts) {
  p4::RuleSet rules;
  rules.name = "fig7-" + std::to_string(n_hosts);
  for (int i = 0; i < n_hosts; ++i) {
    TableEntry host;
    host.table = "ipv4_host";
    host.matches = {KeyMatch::exact(0x0a000000u + static_cast<uint64_t>(i))};
    host.action = "set_port";
    host.args = {static_cast<uint64_t>(i + 1)};
    rules.add(host);
    TableEntry mac;
    mac.table = "mac_agent";
    mac.matches = {KeyMatch::exact(static_cast<uint64_t>(i + 1))};
    mac.action = "set_dmac";
    mac.args = {0xaa0000000000ull + static_cast<uint64_t>(i)};
    rules.add(mac);
  }
  return rules;
}

p4::DataPlane make_fig8_plane(ir::Context& ctx) {
  p4::ProgramBuilder b(ctx, "fig8");
  b.header("eth", eth_fields());
  b.header("ipv4", ipv4_fields());
  b.header("tcp", {{"sport", 16}, {"dport", 16}, {"rest", 32}});
  b.header("udp", {{"sport", 16}, {"dport", 16}, {"len", 16}, {"csum", 16}});
  b.metadata_field("meta.l4_kind", 8);

  ActionDef set_port;
  set_port.name = "set_port";
  set_port.params = {{"port", p4::kPortWidth}};
  set_port.ops = {ActionOp::assign(
      std::string(p4::kEgressSpec), b.arg("set_port", "port", p4::kPortWidth))};
  b.action(set_port);

  ActionDef drop;
  drop.name = "drop";
  drop.ops = {ActionOp::assign(std::string(p4::kDropFlag), b.num(1, 1))};
  b.action(drop);

  ActionDef mark_tcp;
  mark_tcp.name = "mark_tcp";
  mark_tcp.ops = {ActionOp::assign("meta.l4_kind", b.num(6, 8))};
  b.action(mark_tcp);

  ActionDef mark_udp;
  mark_udp.name = "mark_udp";
  mark_udp.ops = {ActionOp::assign("meta.l4_kind", b.num(17, 8))};
  b.action(mark_udp);

  TableDef l4_route;
  l4_route.name = "l4_route";
  l4_route.keys = {{"hdr.ipv4.proto", MatchKind::kExact}};
  l4_route.actions = {"set_port", "drop"};
  l4_route.default_action = "drop";
  b.table(l4_route);

  auto make_parser = [&]() {
    p4::Parser parser;
    parser.start = "start";
    ParserState start;
    start.name = "start";
    start.extracts = {"eth"};
    start.select_field = "hdr.eth.type";
    start.cases = {{0x0800, 0xffff, "parse_ipv4"}};
    start.default_next = "reject";
    ParserState parse_ipv4;
    parse_ipv4.name = "parse_ipv4";
    parse_ipv4.extracts = {"ipv4"};
    parse_ipv4.select_field = "hdr.ipv4.proto";
    parse_ipv4.cases = {{6, 0xff, "parse_tcp"}, {17, 0xff, "parse_udp"}};
    parse_ipv4.default_next = "accept";
    ParserState parse_tcp;
    parse_tcp.name = "parse_tcp";
    parse_tcp.extracts = {"tcp"};
    parse_tcp.default_next = "accept";
    ParserState parse_udp;
    parse_udp.name = "parse_udp";
    parse_udp.extracts = {"udp"};
    parse_udp.default_next = "accept";
    parser.states = {start, parse_ipv4, parse_tcp, parse_udp};
    return parser;
  };

  PipelineDef ig;
  ig.name = "ingress";
  ig.parser = make_parser();
  ig.control.stmts = {ControlStmt::apply("l4_route")};
  ig.deparser.emit_order = {"eth", "ipv4", "tcp", "udp"};
  b.pipeline(ig);

  PipelineDef eg;
  eg.name = "egress";
  eg.parser = make_parser();
  eg.control.stmts = {ControlStmt::if_else(
      b.is_valid("tcp"), {{ControlStmt::apply("tcp_or_udp_mark")}},
      {{ControlStmt::if_else(b.is_valid("udp"),
                             {{ControlStmt::apply("udp_mark")}})}})};
  eg.deparser.emit_order = {"eth", "ipv4", "tcp", "udp"};

  TableDef tcp_mark;
  tcp_mark.name = "tcp_or_udp_mark";
  tcp_mark.keys = {{"hdr.tcp.dport", MatchKind::kExact}};
  tcp_mark.actions = {"mark_tcp"};
  tcp_mark.default_action = "mark_tcp";
  b.table(tcp_mark);

  TableDef udp_mark;
  udp_mark.name = "udp_mark";
  udp_mark.keys = {{"hdr.udp.dport", MatchKind::kExact}};
  udp_mark.actions = {"mark_udp"};
  udp_mark.default_action = "mark_udp";
  b.table(udp_mark);

  b.pipeline(eg);

  p4::DataPlane dp;
  dp.program = b.build();
  dp.topology.instances = {{"sw0.ig", "ingress", 0}, {"sw0.eg", "egress", 0}};
  // TCP traffic (eg_spec == 1) continues to the egress pipeline.
  dp.topology.edges = {{"sw0.ig", "sw0.eg",
                        ctx.arena.cmp(ir::CmpOp::kEq,
                                      ctx.field_var(p4::kEgressSpec, 9),
                                      ctx.arena.constant(1, 9))}};
  dp.topology.entries = {{"sw0.ig", nullptr}};
  return dp;
}

p4::RuleSet fig8_rules() {
  p4::RuleSet rules;
  rules.name = "fig8";
  TableEntry tcp;
  tcp.table = "l4_route";
  tcp.matches = {KeyMatch::exact(6)};
  tcp.action = "set_port";
  tcp.args = {1};
  rules.add(tcp);
  // Port 443 marked specially (one concrete entry in the egress table).
  TableEntry mark;
  mark.table = "tcp_or_udp_mark";
  mark.matches = {KeyMatch::exact(443)};
  mark.action = "mark_tcp";
  mark.args = {};
  rules.add(mark);
  TableEntry umark;
  umark.table = "udp_mark";
  umark.matches = {KeyMatch::exact(53)};
  umark.action = "mark_udp";
  umark.args = {};
  rules.add(umark);
  return rules;
}


}  // namespace meissa::apps::demos

namespace meissa::apps {

AppBundle demo_app(ir::Context& ctx, std::string_view name) {
  if (name == "router") return make_router(ctx, 6);
  if (name == "mtag") return make_mtag(ctx, 4);
  if (name == "acl") return make_acl(ctx, 4, 4);
  if (name == "switchp4") {
    return make_switchp4(ctx, {.l2_hosts = 4, .routes = 4, .ecmp_ways = 2,
                               .acls = 4, .mpls_labels = 4});
  }
  if (name.size() == 4 && name.substr(0, 3) == "gw-" && name[3] >= '1' &&
      name[3] <= '4') {
    return make_gateway(ctx, {.level = name[3] - '0', .elastic_ips = 4});
  }
  throw util::ValidationError("unknown app '" + std::string(name) + "'");
}

}  // namespace meissa::apps
