#include "driver/checker.hpp"

#include "util/strings.hpp"

namespace meissa::driver {

CheckResult check_case(ir::Context& ctx, const p4::Program& prog,
                       const TestCase& tc, const sim::DeviceOutput& out,
                       const std::vector<spec::Intent>& intents) {
  CheckResult r;

  if (!out.accepted) {
    r.pass = false;
    r.model_problems.push_back("device rejected the packet at ingress");
    return r;
  }

  // --- model comparison ----------------------------------------------------
  std::optional<packet::Packet> actual;
  if (tc.expect_drop) {
    if (!out.dropped) {
      r.pass = false;
      r.model_problems.push_back(
          "expected drop, but a packet was emitted on port " +
          std::to_string(out.port));
    }
  } else if (out.dropped) {
    r.pass = false;
    r.model_problems.push_back("expected emission on port " +
                               std::to_string(tc.expect_port) +
                               ", but the packet was dropped (absent)");
  } else {
    if (out.port != tc.expect_port) {
      r.pass = false;
      r.model_problems.push_back(
          "wrong egress port: expected " + std::to_string(tc.expect_port) +
          ", got " + std::to_string(out.port));
    }
    std::vector<std::string> expect_seq;
    for (const packet::HeaderValues& h : tc.expect_packet.headers) {
      expect_seq.push_back(h.header);
    }
    actual = packet::parse_as(prog, expect_seq, out.bytes);
    if (!actual) {
      r.pass = false;
      r.model_problems.push_back(
          "output too short: expected " +
          std::to_string(tc.expect_bytes.size()) + " bytes, got " +
          std::to_string(out.bytes.size()));
    } else {
      packet::PacketDiff d =
          packet::diff_packets(prog, tc.expect_packet, *actual);
      if (!d.equal) {
        r.pass = false;
        for (std::string& diff : d.differences) {
          r.model_problems.push_back(std::move(diff));
        }
      }
    }
  }

  // --- intent checking -------------------------------------------------
  spec::Observation obs;
  obs.prog = &prog;
  obs.input = tc.input_packet;
  obs.in_port = tc.input.port;
  obs.delivered = !out.dropped && out.accepted;
  if (obs.delivered) {
    // Use the device's actual output when parseable; otherwise intents
    // that need the output will report it missing.
    if (actual) {
      obs.output = *actual;
    } else if (!tc.expect_drop) {
      // Try to parse with the expected layout anyway (may be absent).
      std::vector<std::string> expect_seq;
      for (const packet::HeaderValues& h : tc.expect_packet.headers) {
        expect_seq.push_back(h.header);
      }
      auto parsed = packet::parse_as(prog, expect_seq, out.bytes);
      if (parsed) obs.output = *parsed;
    }
    obs.out_port = out.port;
  }
  // One evaluation state for every intent (none to build without intents).
  const ir::ConcreteState state =
      intents.empty() ? ir::ConcreteState{} : spec::observation_state(obs, ctx);
  for (const spec::Intent& intent : intents) {
    if (!spec::applicable(intent, state)) continue;
    for (std::string& problem : spec::check(intent, obs, state, ctx)) {
      r.pass = false;
      r.intent_problems.push_back("[" + intent.name + "] " +
                                  std::move(problem));
    }
  }
  return r;
}

}  // namespace meissa::driver
