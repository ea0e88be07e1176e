// The behavioral switch simulator — Meissa's hardware target.
//
// A DeviceProgram is the *compiled* form of a data plane (produced by the
// toolchain in toolchain.hpp, possibly with injected faults); a Device
// executes it on concrete wire packets: per-pipeline byte-level parsing,
// match-action processing, deparsing with checksum updates, traffic-
// manager routing between pipeline instances and across switches.
//
// The device deliberately shares no code with the CFG/symbolic-execution
// side: it is a second, independent interpretation of the program, playing
// the role bmv2/Tofino play for the real system — which is what makes
// end-to-end testing able to catch toolchain bugs.
//
// Execution is batched and allocation-free: all per-packet scratch state
// (a dense epoch-stamped field store, wire/payload buffers, the trace)
// lives in an ExecArena recycled across packets, and run_batch() drives
// any number of packets through one arena. inject() remains as the
// single-packet compatibility path (a fresh arena per call — the baseline
// bench/fuzz_throughput measures the batched path against). The trace is
// a compact typed TraceEvent stream; render_trace() reproduces the legacy
// string lines lazily for bug localization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/dense.hpp"
#include "ir/stmt.hpp"
#include "p4/program.hpp"
#include "p4/rules.hpp"
#include "packet/packet.hpp"
#include "sim/fault.hpp"

namespace meissa::sim {

// One primitive operation with action arguments already bound.
struct DevOp {
  enum class Kind : uint8_t { kAssign, kHash };
  enum class Origin : uint8_t { kGeneric, kSetValid, kSetInvalid };
  Kind kind = Kind::kAssign;
  Origin origin = Origin::kGeneric;
  std::string header;  // for kSetValid/kSetInvalid origins
  ir::FieldId dest = ir::kInvalidField;
  ir::ExprRef value = nullptr;        // kAssign
  p4::HashAlgo algo = p4::HashAlgo::kCrc16;  // kHash
  std::vector<ir::FieldId> keys;             // kHash
};

struct DevKey {
  ir::FieldId field = ir::kInvalidField;
  int width = 0;
  p4::MatchKind kind = p4::MatchKind::kExact;
};

struct DevEntry {
  p4::TableEntry source;  // original entry (for traces)
  std::vector<p4::KeyMatch> matches;
  std::vector<DevOp> ops;
};

struct DevTable {
  std::string name;
  std::vector<DevKey> keys;
  std::vector<DevEntry> entries;  // in match order
  std::vector<DevOp> default_ops;
  std::string default_action;
};

struct DevControlStmt;
struct DevControlBlock {
  std::vector<DevControlStmt> stmts;
};
struct DevControlStmt {
  enum class Kind : uint8_t { kApply, kIf, kOp };
  Kind kind = Kind::kOp;
  size_t table = 0;           // kApply: index into DevInstance::tables
  ir::ExprRef cond = nullptr;  // kIf
  DevControlBlock then_block;
  DevControlBlock else_block;
  DevOp op;  // kOp
};

struct DevTransition {
  uint64_t value = 0;
  uint64_t mask = 0;
  int next = -1;  // state index; kAccept/kReject below
};

struct DevParserState {
  std::string name;
  std::vector<size_t> extracts;  // header indices
  ir::FieldId select = ir::kInvalidField;
  int select_width = 0;
  std::vector<DevTransition> cases;
  int default_next = -2;
};
inline constexpr int kAccept = -1;
inline constexpr int kReject = -2;

struct DevChecksum {
  ir::FieldId dest = ir::kInvalidField;
  std::string guard_header;
  std::vector<ir::FieldId> sources;
  p4::HashAlgo algo = p4::HashAlgo::kCsum16;
};

struct DevInstance {
  std::string name;
  int switch_id = 0;
  int start_state = 0;
  std::vector<DevParserState> parser;
  DevControlBlock control;
  std::vector<DevTable> tables;
  std::vector<std::string> emit_order;
  std::vector<DevChecksum> checksums;
};

struct DevEdge {
  int from = 0;
  int to = 0;
  ir::ExprRef guard = nullptr;
};

struct DevEntryPoint {
  int instance = 0;
  ir::ExprRef guard = nullptr;
};

struct DeviceProgram {
  p4::Program program;  // header/field declarations (for wire layout)
  std::vector<DevInstance> instances;
  std::vector<DevEdge> edges;
  std::vector<DevEntryPoint> entries;
  // Runtime-behavior flags set by fault injection.
  bool zero_metadata = true;
  ir::FieldId overlap_writer = ir::kInvalidField;  // kFieldOverlap
  ir::FieldId overlap_victim = ir::kInvalidField;
  ir::FieldId carry_victim = ir::kInvalidField;    // kAddCarryLeak
  std::string carry_instance;
};

struct DeviceInput {
  uint64_t port = 0;
  std::vector<uint8_t> bytes;
};

// One compact trace event (8 bytes). Rendering to the legacy string lines
// is deferred to Device::render_trace, so the hot path never builds
// strings; what each field means depends on `kind`:
//   kParseHeader  aux = program header index
//   kParserShort  aux = parser state index (within the instance)
//   kTableHit     table = table index, aux = entry index
//   kTableMiss    table = table index
//   kChecksum     aux = checksum index (within the instance)
//   kEmitHeader   aux = emit_order index (within the instance)
//   kEvalFallback aux = FieldId of the first missing field (or -1)
enum class TraceEventKind : uint8_t {
  kParseHeader,
  kParserShort,
  kParserReject,
  kTableHit,
  kTableMiss,
  kChecksum,
  kEmitHeader,
  kDropped,
  kEvalFallback,
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kDropped;
  int16_t instance = -1;  // index into DeviceProgram::instances; -1 = none
  int16_t table = -1;
  int32_t aux = -1;
};

struct DeviceOutput {
  bool accepted = true;  // false: no entry point matched the ingress port
  bool dropped = false;
  uint64_t port = 0;
  std::vector<uint8_t> bytes;
  // Physical trace: one event per parse/table/action step (paper §7 bug
  // localization renders this against the symbolic trace).
  std::vector<TraceEvent> trace;
};

class CoverageMap;

// Per-packet scratch state, recycled across packets so the steady-state
// execution path performs no heap allocation. One arena serves one Device
// at a time (run_batch resizes it to the device's field universe); reuse
// across batches and across devices of the same context is fine.
class ExecArena {
 public:
  // Localization data is recorded only when set (the driver's checker
  // path); the fuzz hot loop runs with it off and discards nothing.
  bool collect_trace = true;
  // Optional coverage sink, fed from the same event stream independently
  // of collect_trace (the fuzz lane wants edges, not strings).
  CoverageMap* coverage = nullptr;

 private:
  friend class Device;

  // Field values of the packet in flight; unset fields are unbound.
  ir::DenseState state_;

  std::vector<uint8_t> wire_;      // current wire bytes (re-written per pipe)
  size_t payload_off_ = 0;         // unparsed tail of the current pipe
                                   // starts at wire_[payload_off_]
  std::vector<uint8_t> emit_buf_;  // recycled deparser output buffer
  std::vector<TraceEvent> trace_;
  std::vector<uint64_t> hash_vals_;  // scratch for hash/checksum keys
  std::vector<int> hash_widths_;
  std::vector<uint64_t> key_vals_;  // scratch for a table's key values
  int16_t cur_instance_ = -1;
  bool dropped_ = false;

  void begin_packet(size_t nfields);
};

class Device {
 public:
  // Takes ownership of the compiled program (it is immutable once loaded,
  // like firmware). `ctx` must be the context it was compiled against.
  Device(DeviceProgram prog, ir::Context& ctx);

  // Sets a register cell ("REG:<name>-POS:<i>") for subsequent packets.
  void set_register(std::string_view reg, uint64_t index, uint64_t value);
  // Installs a full register state (e.g. from a test template's model).
  // Merges: cells not mentioned keep their current value.
  void set_registers(const ir::ConcreteState& regs);
  // Reads back an installed cell; nullopt when never installed.
  std::optional<uint64_t> get_register(std::string_view reg,
                                       uint64_t index) const;

  // Runs each input to completion (drop or emit) through one recycled
  // arena. `in` and `out` must have equal extent; outputs are overwritten
  // in place (their buffers are reused). Register writes performed by a
  // packet do NOT persist — every packet starts from the installed
  // register snapshot, exactly as inject() always behaved.
  void run_batch(std::span<const DeviceInput> in, std::span<DeviceOutput> out,
                 ExecArena& arena);

  // Injects one packet: the per-packet compatibility path (a fresh arena
  // per call). Equivalent to a run_batch of one.
  DeviceOutput inject(const DeviceInput& in);

  // Lazy trace rendering: the exact legacy one-line-per-event strings.
  std::string event_to_string(const TraceEvent& ev) const;
  std::vector<std::string> render_trace(
      const std::vector<TraceEvent>& trace) const;

 private:
  // Precomputed wire layout of one program header: interned content-field
  // ids and widths in declaration order, plus the validity placeholder.
  struct HeaderLayout {
    ir::FieldId validity = ir::kInvalidField;
    std::vector<ir::FieldId> fields;
    std::vector<int> widths;
    size_t total_bits = 0;  // sum of widths: one bounds check per header
  };
  struct EmitSlot {
    ir::FieldId validity = ir::kInvalidField;
    int header = -1;  // index into prog_.program.headers
  };

  void run_one(const DeviceInput& in, DeviceOutput& out, ExecArena& a);
  void run_instance(const DevInstance& inst, ExecArena& a) const;
  bool parse(const DevInstance& inst, ExecArena& a) const;
  void run_block(const DevInstance& inst, const DevControlBlock& b,
                 ExecArena& a) const;
  void run_op(const DevOp& op, ExecArena& a) const;
  void apply_table(const DevInstance& inst, size_t table_idx,
                   ExecArena& a) const;
  void deparse(const DevInstance& inst, ExecArena& a) const;

  // Unevaluable expressions coerce to 0 (the deterministic stand-in for
  // whatever the PHV container holds); the coercion is counted in the
  // `sim.eval_fallbacks` metric and leaves a kEvalFallback trace event
  // naming the missing field, so checker divergences it causes are
  // attributable instead of mysterious.
  uint64_t eval_or_zero(ir::ExprRef e, ExecArena& a) const;
  int32_t first_missing(ir::ExprRef e, const ExecArena& a) const;

  void store(ir::FieldId f, uint64_t v, ExecArena& a) const;
  void note(ExecArena& a, TraceEventKind kind, int16_t table = -1,
            int32_t aux = -1) const;
  int width_of(ir::FieldId f) const {
    return f < widths_.size() ? widths_[f] : ctx_.fields.width(f);
  }

  DeviceProgram prog_;
  ir::Context& ctx_;
  ir::ConcreteState registers_;
  // Flat mirror of registers_, rebuilt on install (rare) and iterated per
  // packet (hot): cache-friendly where the map is pointer-chasing.
  std::vector<std::pair<ir::FieldId, uint64_t>> registers_flat_;

  // Ctor-time layout caches: every field the program can touch is interned
  // once here, so the execution path never builds a name string or takes
  // the field-table lock.
  std::vector<HeaderLayout> headers_;             // parallel to program.headers
  std::vector<std::vector<EmitSlot>> emits_;      // per instance, emit order
  std::vector<std::vector<ir::FieldId>> csum_guards_;  // per instance
  std::vector<std::vector<std::vector<p4::MatchKind>>> key_kinds_;  // [i][t]
  // Precompiled entry matchers, one row of `keys` PreMatch per entry, rows
  // in entry_rank order so the scan exits on first hit. For mask kinds
  // (exact/ternary/lpm) hit is (v & mask) == value with value pre-masked
  // and lpm prefixes expanded; for range, value/mask hold lo/hi.
  struct PreMatch {
    uint64_t mask = 0;
    uint64_t value = 0;
  };
  std::vector<std::vector<std::vector<PreMatch>>> pre_matches_;  // [i][t]
  // Row index -> original entry index (trace aux, action lookup).
  std::vector<std::vector<std::vector<int32_t>>> entry_order_;  // [i][t]
  std::vector<std::pair<ir::FieldId, uint64_t>> metadata_init_;
  ir::FieldId port_fid_ = ir::kInvalidField;
  ir::FieldId drop_fid_ = ir::kInvalidField;
  ir::FieldId egspec_fid_ = ir::kInvalidField;
  std::vector<int> widths_;  // FieldId -> width (ctor-time snapshot)
};

}  // namespace meissa::sim
