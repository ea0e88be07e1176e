// The sender half of the test driver (paper §4): turns a test-case
// template into a concrete injectable packet (via an SMT model of the path
// condition), computes the expected output by concrete execution of the
// template's path, validates hash obligations (dropping unsatisfiable
// cases, §4), and stamps a unique id into the payload so the checker can
// relate sent and received packets.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "driver/generator.hpp"
#include "ir/dense.hpp"
#include "sim/device.hpp"

namespace meissa::driver {

// Payload stamp protocol (paper §4): the sender appends an 8-byte
// big-endian case id followed by 8 fixed filler bytes (0xA0..0xA7) to
// every frame tail. Everything that relates captured frames back to cases
// — the tester's flaky-link retry loop, the fuzz lane's seeds — shares
// this one definition.
inline constexpr size_t kStampBytes = 16;

// Appends the stamp for `case_id` to `payload`.
void stamp_payload(std::vector<uint8_t>& payload, uint64_t case_id);

// Classification of a captured frame against the stamp.
enum class FrameClass {
  kOurs,     // intact stamp carrying the awaited case id
  kStale,    // intact stamp of an already-settled case (late duplicate)
  kCorrupt,  // stamp damaged or unknown id (payload bit flip on the link)
};

FrameClass classify_frame(const std::vector<uint8_t>& bytes, uint64_t want,
                          const std::unordered_set<uint64_t>& settled);

struct TestCase {
  uint64_t template_id = 0;
  uint64_t case_id = 0;
  sim::DeviceInput input;
  packet::Packet input_packet;
  // The model's assignments; every field it leaves unset is 0 in the
  // replayed initial state (symbolic_trace applies the same completion).
  ir::ConcreteState input_state;
  ir::ConcreteState registers;    // REG:* cells to install on the device
  bool expect_drop = false;
  uint64_t expect_port = 0;
  packet::Packet expect_packet;
  std::vector<uint8_t> expect_bytes;
};

class Sender {
 public:
  // Concretization does not depend on the seed: nothing in it is
  // randomized, and the parameter stays only so existing callers compile.
  Sender(ir::Context& ctx, const p4::DataPlane& dp, const cfg::Cfg& graph,
         uint64_t /*seed*/ = 1);

  // Concretizes a template. Returns nullopt when the case must be removed
  // (hash obligations cannot be satisfied after repair attempts).
  std::optional<TestCase> concretize(const sym::TestCaseTemplate& t,
                                     sym::Engine& engine);

  // Number of cases removed because of hash mismatches (paper §4).
  uint64_t removed_by_hash() const noexcept { return removed_by_hash_; }
  // Number of hash-repair re-solves performed (bounded per case by
  // kMaxHashRepairRounds; reported alongside removed_by_hash).
  uint64_t hash_repair_attempts() const noexcept {
    return hash_repair_attempts_;
  }

  // Explicit bound on the per-case hash-repair loop: a case whose
  // obligations are still inconsistent after this many re-solves is
  // removed (paper §4's "remove the test case" fallback).
  static constexpr int kMaxHashRepairRounds = 3;

 private:
  // Walks the entry pipeline's parser FSM over the concrete field values in
  // `state_` to derive the input packet's header sequence.
  std::vector<std::string> simulate_parse(const std::string& instance) const;
  // Reads header `h`'s content fields from `state_`.
  packet::HeaderValues header_values(const std::string& h) const;

  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  const cfg::Cfg& graph_;
  // Content-field ids of every program header, in declaration order,
  // resolved once instead of per case.
  std::unordered_map<std::string, std::vector<ir::FieldId>> header_fields_;
  ir::FieldId ingress_port_;
  ir::FieldId egress_spec_;
  // The case being concretized: the model over zeros for every other
  // field, then (replayed in place) the path's final state. One store
  // serves every case.
  ir::DenseState state_;
  uint64_t next_case_id_ = 1;
  uint64_t removed_by_hash_ = 0;
  uint64_t hash_repair_attempts_ = 0;
};

}  // namespace meissa::driver
