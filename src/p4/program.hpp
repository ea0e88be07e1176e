// The data-plane program IR — Meissa's stand-in for the p4c IR (§4).
//
// A Program declares headers, metadata, registers, actions, match-action
// tables, and pipeline definitions (parser + control + deparser). A
// Topology instantiates pipeline definitions as pipeline *instances* laid
// out across one or more switches and wires them together with guarded
// edges (the traffic-manager policy of paper §2.2/Fig. 1).
//
// Expressions inside actions and control conditions are ordinary ir::Expr
// trees built against the shared ir::Context. Three field-name conventions
// give the IR its P4 semantics:
//
//   "hdr.<header>.<field>"          packet content; persists across pipes
//   "hdr.<header>.$valid"           placeholder validity; each pipeline
//                                   instance gets its own copy, qualified
//                                   as "hdr.<h>.$valid@<instance>"
//   "$arg.<action>.<param>"         action parameter; substituted with the
//                                   table entry's argument at expansion
//   "meta.*", "ig.*"                metadata / intrinsic metadata
//   "REG:<name>-POS:<i>"            register cell with constant index (§4)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/stmt.hpp"

namespace meissa::p4 {

// Intrinsic metadata present in every program.
inline constexpr std::string_view kIngressPort = "ig.port";    // 9 bits
inline constexpr std::string_view kEgressSpec = "ig.eg_spec";  // 9 bits
inline constexpr std::string_view kDropFlag = "ig.drop";       // 1 bit
inline constexpr int kPortWidth = 9;

// ---------------------------------------------------------------- Headers

struct FieldDef {
  std::string name;
  int width = 0;
  // Metadata only: the field is mirrored to the control plane (counters,
  // match markers) and the pipeline itself never reads it. Annotating it
  // keeps the lint unused-write detector quiet about the intentional
  // write-only use without widening the detector's blind spot.
  bool telemetry = false;
};

struct HeaderDef {
  std::string name;
  std::vector<FieldDef> fields;

  int bit_size() const;
  const FieldDef* find_field(std::string_view field) const;
};

// Content field name: "hdr.<header>.<field>".
std::string content_field(std::string_view header, std::string_view field);
// Placeholder validity name: "hdr.<header>.$valid".
std::string validity_field(std::string_view header);
// Instance-qualified validity name: "hdr.<header>.$valid@<instance>".
std::string validity_field_at(std::string_view header,
                              std::string_view instance);
// Action parameter field name: "$arg.<action>.<param>".
std::string param_field(std::string_view action, std::string_view param);
// Register cell field name (paper §4): "REG:<reg>-POS:<index>".
std::string register_field(std::string_view reg, uint64_t index);

// ---------------------------------------------------------------- Actions

enum class HashAlgo : uint8_t {
  kCrc16,
  kCrc32,
  kCsum16,  // ones-complement internet checksum over 16-bit words
  kIdentityXor,
};

// Computes a hash over concrete key values (also used by the simulator).
uint64_t compute_hash(HashAlgo algo, const std::vector<uint64_t>& keys,
                      const std::vector<int>& key_widths, int out_width);

struct ActionOp {
  enum class Kind : uint8_t {
    kAssign,     // dest <- expr (expr may reference $arg.* fields)
    kSetValid,   // make header valid (adds it to the packet)
    kSetInvalid  // make header invalid (removes it)
    ,
    kHash,  // dest <- hash(algo, keys...)
  };
  Kind kind = Kind::kAssign;
  std::string dest;             // kAssign/kHash: destination field name
  ir::ExprRef value = nullptr;  // kAssign
  std::string header;           // kSetValid/kSetInvalid
  HashAlgo algo = HashAlgo::kCrc16;      // kHash
  std::vector<std::string> hash_keys;    // kHash

  static ActionOp assign(std::string dest, ir::ExprRef value);
  static ActionOp set_valid(std::string header);
  static ActionOp set_invalid(std::string header);
  static ActionOp hash(std::string dest, HashAlgo algo,
                       std::vector<std::string> keys);
};

struct ActionDef {
  std::string name;
  std::vector<FieldDef> params;  // name + width; bound by table entries
  std::vector<ActionOp> ops;
};

// ----------------------------------------------------------------- Tables

enum class MatchKind : uint8_t { kExact, kTernary, kLpm, kRange };

struct TableKey {
  std::string field;  // full field name, e.g. "hdr.ipv4.dst_addr"
  MatchKind kind = MatchKind::kExact;
};

struct TableDef {
  std::string name;
  std::vector<TableKey> keys;
  std::vector<std::string> actions;  // permitted action names
  std::string default_action;        // applied on miss
  std::vector<uint64_t> default_args;
  size_t max_size = 1024;
};

// ---------------------------------------------------------------- Parsers

struct ParserTransition {
  uint64_t value = 0;
  uint64_t mask = 0;  // select matches when (field & mask) == (value & mask)
  std::string next;   // state name, "accept", or "reject"
};

struct ParserState {
  std::string name;
  std::vector<std::string> extracts;  // header names, in wire order
  std::string select_field;           // empty: unconditional default_next
  std::vector<ParserTransition> cases;
  std::string default_next = "accept";
};

struct Parser {
  std::string start = "start";
  std::vector<ParserState> states;

  const ParserState* find_state(std::string_view name) const;
};

// --------------------------------------------------------------- Controls

struct ControlStmt;

struct ControlBlock {
  std::vector<ControlStmt> stmts;
};

struct ControlStmt {
  enum class Kind : uint8_t { kApply, kIf, kOp };
  Kind kind = Kind::kOp;
  std::string table;            // kApply
  ir::ExprRef cond = nullptr;   // kIf
  ControlBlock then_block;      // kIf
  ControlBlock else_block;      // kIf
  ActionOp op;                  // kOp: a primitive op inlined in control

  static ControlStmt apply(std::string table);
  static ControlStmt if_else(ir::ExprRef cond, ControlBlock then_block,
                             ControlBlock else_block = {});
  static ControlStmt inline_op(ActionOp op);
};

// --------------------------------------------------------------- Deparser

struct ChecksumUpdate {
  std::string dest;                     // field receiving the checksum
  std::string guard_header;             // applied only when this is valid
  std::vector<std::string> sources;     // fields summed
  HashAlgo algo = HashAlgo::kCsum16;
};

struct Deparser {
  // Headers emitted (when valid) in wire order.
  std::vector<std::string> emit_order;
  std::vector<ChecksumUpdate> checksum_updates;
};

// --------------------------------------------------------------- Pipeline

struct PipelineDef {
  std::string name;
  Parser parser;
  ControlBlock control;
  Deparser deparser;
};

// ---------------------------------------------------------------- Program

struct Program {
  std::string name;
  std::vector<HeaderDef> headers;
  std::vector<FieldDef> metadata;   // full names ("meta.x"), zeroed at entry
  std::vector<FieldDef> registers;  // full names ("REG:r-POS:0")
  std::vector<ActionDef> actions;
  std::vector<TableDef> tables;
  std::vector<PipelineDef> pipelines;

  const HeaderDef* find_header(std::string_view name) const;
  const ActionDef* find_action(std::string_view name) const;
  const TableDef* find_table(std::string_view name) const;
  const PipelineDef* find_pipeline(std::string_view name) const;

  // Width of a full field name of any convention, or nullopt if undeclared.
  std::optional<int> field_width(std::string_view full_name) const;

  // Synthetic "lines of code" — what a textual P4 rendering would measure.
  // Used for the Table 1 inventory.
  size_t loc() const;
};

// --------------------------------------------------------------- Topology

// Switch ids are numbered from 0; validation bounds them so a switch count
// derived from them (Topology::num_switches) stays small and exact.
inline constexpr int kMaxSwitchId = 65535;

struct PipeInstance {
  std::string name;      // unique instance name, e.g. "sw0.ig0"
  std::string pipeline;  // PipelineDef name
  int switch_id = 0;     // in [0, kMaxSwitchId]
};

// Directed, guarded edge between pipeline instances. The guard is evaluated
// on the state at `from`'s exit; the first matching edge is taken, and a
// packet matching no edge leaves the data plane (is emitted to the wire).
struct TopoEdge {
  std::string from;
  std::string to;
  ir::ExprRef guard = nullptr;  // nullptr: unconditional
};

struct EntryPoint {
  std::string instance;
  ir::ExprRef guard = nullptr;  // condition on ig.port etc.; nullptr: always
};

struct Topology {
  std::vector<PipeInstance> instances;
  std::vector<TopoEdge> edges;
  std::vector<EntryPoint> entries;

  const PipeInstance* find_instance(std::string_view name) const;
  std::vector<const TopoEdge*> edges_from(std::string_view name) const;
  int num_switches() const;

  // Instances in topological order; throws ValidationError on cycles
  // (recirculation must be pre-unrolled into distinct instances, §4).
  std::vector<std::string> topo_order() const;
};

// A complete unit under test: program + layout.
struct DataPlane {
  Program program;
  Topology topology;
};

// ------------------------------------------------------------ Builder API

// Fluent helpers for constructing programs in C++ (the app corpus uses
// this; the M4 DSL front-end produces the same structures from text).
class ProgramBuilder {
 public:
  ProgramBuilder(ir::Context& ctx, std::string name);

  ir::Context& ctx() { return ctx_; }

  ProgramBuilder& header(std::string name, std::vector<FieldDef> fields);
  ProgramBuilder& metadata_field(std::string full_name, int width,
                                 bool telemetry = false);
  ProgramBuilder& register_array(std::string name, int width, size_t cells);
  ProgramBuilder& action(ActionDef a);
  ProgramBuilder& table(TableDef t);
  ProgramBuilder& pipeline(PipelineDef p);

  // Expression helpers (intern fields against the shared context).
  ir::ExprRef var(std::string_view full_name);
  ir::ExprRef arg(std::string_view action, std::string_view param, int width);
  ir::ExprRef num(uint64_t v, int width) { return ctx_.arena.constant(v, width); }
  // `hdr.<h>.$valid == 1` placeholder predicate.
  ir::ExprRef is_valid(std::string_view header);

  Program build();  // validates and returns the program

 private:
  ir::Context& ctx_;
  Program prog_;
};

// Interns every declared field of `prog` into `ctx` (content fields,
// placeholder validity, metadata, registers, intrinsics) so subsequent
// lookups by name succeed. Instance-qualified validity fields are interned
// lazily by the CFG builder and the toolchain.
void intern_program_fields(const Program& prog, ir::Context& ctx);

// Validates the program against its own declarations; `ctx` must be the
// context the program's expressions were built against. Throws
// util::ValidationError on the first problem found.
void validate(const Program& prog, const ir::Context& ctx);
// Validates a topology against a program.
void validate(const DataPlane& dp, const ir::Context& ctx);

}  // namespace meissa::p4
