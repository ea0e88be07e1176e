// LPI-style intents — Meissa's specification input (paper Fig. 2; LPI is
// the declarative intent language of Aquila that Meissa reuses).
//
// An intent constrains which inputs it covers (`assume`, over `in.*`
// fields) and states what must hold of the observed behaviour (`expect`):
// field relations between input and output packet, delivery/drop, header
// presence, and checksum correctness (the paper's deployment workflow in
// §6 — base constraints plus test-case-specific constraints plus expected
// end-to-end behaviour).
//
// Namespacing: intents intern fields "in.<full-name>" and "out.<full-name>"
// (e.g. "in.hdr.ipv4.dst", "out.hdr.tcp.dport") plus the specials
// "in.$port" / "out.$port". The checker evaluates expects concretely
// against a captured (input, output) packet pair.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/stmt.hpp"
#include "p4/program.hpp"
#include "packet/packet.hpp"

namespace meissa::spec {

struct Expectation {
  enum class Kind : uint8_t {
    kDelivered,      // packet must come out (not dropped)
    kDropped,        // packet must be dropped
    kBool,           // boolean expression over in.*/out.* fields
    kHeaderPresent,  // output contains this header
    kHeaderAbsent,   // output does not contain this header
    kChecksum,       // out.<dest> equals algo over the source fields
  };
  Kind kind = Kind::kBool;
  ir::ExprRef expr = nullptr;  // kBool
  std::string header;          // kHeaderPresent/kHeaderAbsent
  // kChecksum: destination and sources name output-packet fields
  // ("hdr.innerTcp.csum"), recomputed over the captured output.
  std::string csum_dest;
  std::vector<std::string> csum_sources;
  p4::HashAlgo csum_algo = p4::HashAlgo::kCsum16;
  std::string describe(const ir::FieldTable& fields) const;
};

struct Intent {
  std::string name;
  std::vector<ir::ExprRef> assumes;  // over in.* fields only
  std::vector<Expectation> expects;
};

// Helper for building intents in C++ against a program's declarations.
class IntentBuilder {
 public:
  IntentBuilder(ir::Context& ctx, const p4::Program& prog, std::string name);

  // Input/output field variables ("in."/"out." + full field name).
  ir::ExprRef in(std::string_view full_name);
  ir::ExprRef out(std::string_view full_name);
  ir::ExprRef in_port();
  ir::ExprRef out_port();
  ir::ExprRef num(uint64_t v, int width);

  IntentBuilder& assume(ir::ExprRef cond);
  IntentBuilder& expect(ir::ExprRef cond);
  IntentBuilder& expect_delivered();
  IntentBuilder& expect_dropped();
  IntentBuilder& expect_header(std::string header, bool present);
  IntentBuilder& expect_checksum(std::string dest,
                                 std::vector<std::string> sources,
                                 p4::HashAlgo algo = p4::HashAlgo::kCsum16);

  Intent build() { return std::move(intent_); }

 private:
  ir::Context& ctx_;
  const p4::Program& prog_;
  Intent intent_;
};

// Rewrites an `assume` over in.* fields into a predicate over raw program
// fields, usable as an engine precondition.
ir::ExprRef assume_to_precondition(ir::ExprRef assume, ir::Context& ctx);

// Concrete checking ---------------------------------------------------------

struct Observation {
  const p4::Program* prog = nullptr;
  packet::Packet input;
  uint64_t in_port = 0;
  bool delivered = false;  // false: dropped
  packet::Packet output;   // meaningful when delivered
  uint64_t out_port = 0;
};

// The concrete state intent expressions evaluate over: the in.*/out.*
// fields of the observed packets (interned into `ctx`). Built once per
// observation and shared by every intent checked against it.
ir::ConcreteState observation_state(const Observation& obs, ir::Context& ctx);

// Is the intent applicable to the input? (all assumes hold in `state`,
// the observation's state)
bool applicable(const Intent& intent, const ir::ConcreteState& state);

// Checks every expectation; returns failure descriptions (empty = pass).
// `state` is observation_state(obs, ctx).
std::vector<std::string> check(const Intent& intent, const Observation& obs,
                               const ir::ConcreteState& state,
                               ir::Context& ctx);

}  // namespace meissa::spec
