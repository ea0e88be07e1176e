// The control-flow graph — Meissa's testing IR (paper §3.1, Fig. 3).
//
// Nodes carry either a predicate (`assume bexp`), an action
// (`field <- aexp`), a hash computation (handled specially per §4, since
// hashes are opaque to the solver), or a structural no-op. The graph is
// acyclic; pipeline instances appear as single-entry single-exit subgraphs
// recorded in `instances`, which is what the code-summary pass (§3.3)
// operates on.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/dense.hpp"
#include "ir/stmt.hpp"
#include "p4/program.hpp"
#include "util/big_count.hpp"

namespace meissa::cfg {

using NodeId = uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

// Hash statement: dest <- algo(keys...). Kept out of ir::Stmt because the
// solver cannot reason about it; the symbolic executor evaluates it
// concretely when all keys are pinned and otherwise leaves the destination
// unconstrained, recording an obligation checked after model generation.
struct HashStmt {
  ir::FieldId dest = ir::kInvalidField;
  p4::HashAlgo algo = p4::HashAlgo::kCrc16;
  std::vector<ir::FieldId> keys;
  // When non-empty, used instead of `keys`: key expressions in terms of
  // pipeline-entry snapshots (emitted by the code-summary encoder).
  std::vector<ir::ExprRef> key_exprs;
};

// How a path ends at a terminal (successor-less) node.
enum class ExitKind : uint8_t {
  kNone,  // not a terminal
  kEmit,  // packet leaves the data plane through a deparser
  kDrop,  // packet dropped (drop flag or parser reject)
};

// What program construct a node was expanded from. Labels are free-form
// diagnostics text; Origin is the machine-readable counterpart the
// injection-point analysis keys on, so it never has to parse labels.
enum class OriginKind : uint8_t {
  kNone = 0,
  kIfGuard,        // ref = pipeline, index = pre-order if ordinal, sub 0/1
                   // for then/else arm
  kTableEntry,     // ref = table name, index = entry index in RuleSet order
  kTableMiss,      // ref = table name, index = -1
  kParserState,    // ref = state name (structural head nop)
  kParserCase,     // ref = state name, index = transition case index
  kParserDefault,  // ref = state name, index = -1
  kTopoGuard,      // ref = destination instance, index = edge index
  kActionOp,       // ref = action name, index = op index within the action
  kChecksum,       // ref = dest field, index = update index, sub 0/1 for
                   // the guard-valid / guard-invalid arm
};

struct Origin {
  OriginKind kind = OriginKind::kNone;
  uint32_t ref = 0;  // interned string id (shares the Cfg label table)
  int32_t index = -1;
  int32_t sub = -1;
};

struct Node {
  ir::Stmt stmt;
  bool is_hash = false;
  HashStmt hash;
  std::vector<NodeId> succ;
  int instance = -1;  // index into Cfg::instances, -1 for glue nodes
  ExitKind exit = ExitKind::kNone;
  int emit_instance = -1;  // kEmit: whose deparser serializes the packet
  uint32_t label = 0;      // index into Cfg's label table, 0 = unlabeled
  // Builder-synthesized exhaustiveness arm (e.g. the "no topology edge
  // matched" skip chain): refuting one is by-construction, not a program
  // bug, so diagnostics skip it (the engine still prunes through it).
  bool synthetic = false;
  Origin origin;
};

// Per-pipeline-instance metadata the generator and driver need.
struct InstanceInfo {
  std::string name;
  std::string pipeline;  // definition name
  int switch_id = 0;
  NodeId entry = kNoNode;  // structural nop opening the subgraph
  NodeId exit = kNoNode;   // structural nop closing the subgraph
  // Deparser emit order (header names) and this instance's validity field
  // for each header.
  std::vector<std::string> emit_order;
  std::unordered_map<std::string, ir::FieldId> validity;
};

class Cfg {
 public:
  NodeId add(ir::Stmt stmt) {
    Node n;
    n.stmt = std::move(stmt);
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
  }
  NodeId add_hash(HashStmt h) {
    Node n;
    n.stmt = ir::Stmt::nop();
    n.is_hash = true;
    n.hash = std::move(h);
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
  }
  void link(NodeId from, NodeId to) { nodes_[from].succ.push_back(to); }

  Node& node(NodeId id) { return nodes_[id]; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  size_t size() const noexcept { return nodes_.size(); }

  NodeId entry() const noexcept { return entry_; }
  void set_entry(NodeId id) { entry_ = id; }

  std::vector<InstanceInfo>& instances() { return instances_; }
  const std::vector<InstanceInfo>& instances() const { return instances_; }

  // Names of metadata fields the program declared write-only telemetry
  // (mirrored to the control plane; never read in the pipeline). Carried
  // from p4::FieldDef so diagnostics like lint's unused-write can tell an
  // annotated counter from a genuinely dead store.
  std::vector<std::string>& telemetry() { return telemetry_; }
  const std::vector<std::string>& telemetry() const { return telemetry_; }

  // Source-location labels for diagnostics ("table acl entry #2 (deny)").
  // Interned so identical labels (shared across expanded branches) cost one
  // string; label 0 is the empty string.
  void set_label(NodeId id, const std::string& text) {
    auto [it, fresh] =
        label_index_.emplace(text, static_cast<uint32_t>(labels_.size()));
    if (fresh) labels_.push_back(text);
    nodes_[id].label = it->second;
  }
  const std::string& label(NodeId id) const {
    return labels_[nodes_[id].label];
  }

  // Machine-readable provenance; `ref` is interned in the label table.
  void set_origin(NodeId id, OriginKind kind, const std::string& ref,
                  int32_t index = -1, int32_t sub = -1) {
    auto [it, fresh] =
        label_index_.emplace(ref, static_cast<uint32_t>(labels_.size()));
    if (fresh) labels_.push_back(ref);
    nodes_[id].origin = Origin{kind, it->second, index, sub};
  }
  const Origin& origin(NodeId id) const { return nodes_[id].origin; }
  const std::string& origin_ref(NodeId id) const {
    return labels_[nodes_[id].origin.ref];
  }

  // Number of possible paths (Def. 1) from `from` to any terminal;
  // memoized DFS over the DAG. With kNoNode, counts from the entry.
  util::BigCount count_paths(NodeId from = kNoNode) const;

  // Number of possible paths within one instance subgraph (entry..exit).
  util::BigCount count_instance_paths(int instance) const;

  // Validates structural invariants (acyclic, links in range, instances
  // single-entry single-exit); throws util::InternalError on violation.
  void check_well_formed() const;

 private:
  std::vector<Node> nodes_;
  NodeId entry_ = kNoNode;
  std::vector<InstanceInfo> instances_;
  std::vector<std::string> telemetry_;
  std::vector<std::string> labels_{std::string()};
  std::unordered_map<std::string, uint32_t> label_index_{{std::string(), 0}};
};

// A possible path: node ids from the entry to a terminal.
using Path = std::vector<NodeId>;

// Concrete evaluation along a path (paper Fig. 4), in place: returns true,
// with `state` holding the final state, when every predicate holds and
// every read is bound; false otherwise (the state does not drive this
// path), leaving `state` with the writes made before the failing node.
// Hash nodes are computed concretely.
bool eval_path(const Cfg& g, const Path& path, ir::DenseState& state,
               const ir::Context& ctx);

// Enumerates every possible path (for tests and brute-force oracles only —
// exponential!). Throws if more than `limit` paths exist.
std::vector<Path> enumerate_paths(const Cfg& g, size_t limit);

}  // namespace meissa::cfg
