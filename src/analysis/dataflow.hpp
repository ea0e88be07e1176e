// Forward-dataflow framework over the CFG plus the concrete analysis
// domains Meissa ships: per-field values (`smt::Domain`, the domain of the
// one atom language), header validity (the 1-bit instantiation of the
// value lattice over the per-instance `$valid` fields), and
// reaching-definition kinds for metadata.
//
// Both solvers walk the region reachable from a start node once, in
// topological order. The domain supplies the boundary state, an in-place
// per-node transfer function (false for statically infeasible outcomes),
// and the join. CFGs are acyclic (`Cfg::check_well_formed` rejects
// cycles), so each node is processed once, after all its predecessors,
// and its IN state is already the fixpoint.
//
// `run_forward` keeps every node's IN state (m4lint and the injection
// analysis query them afterwards). `compute_facts` streams: it keeps a
// state only while some predecessor of a node is processed and the node
// itself is not, and digests the walk into which assume nodes are
// statically refuted and which nodes are unreachable. Its boundary is TOP
// at `start`, so the facts hold for *every* engine exploration rooted
// there (any seeds, any pre-conditions) — the property that keeps static
// pruning solver-equivalent and the template set byte-identical.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cfg/cfg.hpp"
#include "ir/stmt.hpp"
#include "smt/domain.hpp"

namespace meissa::analysis {

using smt::Ternary;

// The region reachable from `start` in topological order (reverse DFS
// post-order). The walk does not expand `stop`'s successors (kNoNode: no
// bound). `in_region` is resized to the graph and marks the region.
std::vector<cfg::NodeId> region_order(const cfg::Cfg& g, cfg::NodeId start,
                                      cfg::NodeId stop,
                                      std::vector<uint8_t>& in_region);

template <class D>
struct ForwardResult {
  // IN state per node; disengaged = not reachable along any feasible path.
  std::vector<std::optional<typename D::State>> in;
  // Structurally reachable from the start node (edges only, no semantics).
  std::vector<uint8_t> reachable;
};

template <class D>
ForwardResult<D> run_forward(const cfg::Cfg& g, cfg::NodeId start, D& dom) {
  ForwardResult<D> r;
  r.in.resize(g.size());
  r.in[start] = dom.boundary();
  for (cfg::NodeId n : region_order(g, start, cfg::kNoNode, r.reachable)) {
    if (!r.in[n]) continue;
    typename D::State out = *r.in[n];
    if (!dom.transfer(n, out)) continue;  // infeasible: no flow onwards
    const std::vector<cfg::NodeId>& succ = g.node(n).succ;
    for (size_t i = 0; i < succ.size(); ++i) {
      std::optional<typename D::State>& to = r.in[succ[i]];
      if (to) {
        dom.join(*to, out);
      } else if (i + 1 == succ.size()) {
        to = std::move(out);
      } else {
        to = out;
      }
    }
  }
  return r;
}

// ------------------------------------------------------------ value domain

// How a metadata field got its current value (reaching-definition kind).
enum class DefKind : uint8_t {
  kImplicit,  // only the program-entry zero-initialization reaches here
  kWritten,   // an explicit program write reaches on every path
  kMixed,     // written on some paths, implicit zero on others
};

// Bounded relational refinement over one instance's header-validity bits.
// The per-field lattice loses correlations at joins (after `extract(a);
// extract(b)` on one arm it only knows each bit is 0-or-1, not that they
// move together), so parser-implied facts like "inner_tcp valid => vxlan
// valid" vanish. Tracking the small set of reachable validity bit-vectors
// keeps them. Inactive = no information (top).
struct ValidityCombos {
  bool active = false;
  int instance = -1;
  std::vector<uint32_t> combos;  // sorted + deduped; bit i = i-th validity field

  bool operator==(const ValidityCombos&) const = default;
};

struct AbsState {
  std::unordered_map<ir::FieldId, smt::Domain> values;  // absent = top
  std::unordered_map<ir::FieldId, DefKind> defs;
  ValidityCombos vcfg;
};

// The shipped product domain over AbsState. Tracks value domains for the
// `relevant` fields (fields appearing in predicate atoms, validity bits,
// and their copy sources) and definition kinds for the `meta` fields.
class ValueDomain {
 public:
  using State = AbsState;

  ValueDomain(const ir::Context& ctx, const cfg::Cfg& g);

  // Restricts value tracking (empty = track nothing); `compute_relevant`
  // builds the default set.
  void set_relevant(std::unordered_map<ir::FieldId, int> relevant) {
    relevant_ = std::move(relevant);
  }
  void set_meta(std::unordered_map<ir::FieldId, int> meta) {
    meta_ = std::move(meta);
  }
  const std::unordered_map<ir::FieldId, int>& relevant() const {
    return relevant_;
  }

  // Fields whose abstract values can matter: every field mentioned by a
  // predicate atom, every per-instance validity bit, plus the transitive
  // sources of plain-copy assignments into the set. Values map field -> width.
  // A non-empty `region` (one mark per node) limits the atom and copy scan
  // to the marked nodes.
  static std::unordered_map<ir::FieldId, int> compute_relevant(
      const ir::Context& ctx, const cfg::Cfg& g,
      std::span<const uint8_t> region = {});

  // Metadata fields: targets of the glue zero-initialization (node
  // instance == -1), minus the drop/egress intrinsics.
  static std::unordered_map<ir::FieldId, int> compute_meta(
      const ir::Context& ctx, const cfg::Cfg& g);

  State boundary() const { return State{}; }
  // Applies node `n` to `s` in place. False = the node is statically
  // infeasible under `s` (only assume nodes); `s` is then unspecified.
  bool transfer(cfg::NodeId n, State& s) const;
  // transfer() on a copy: whether node `n` is feasible under `in`.
  bool feasible(cfg::NodeId n, const State& in) const {
    State s = in;
    return transfer(n, s);
  }
  void join(State& into, const State& from) const;

  // Three-valued truth of the node's predicate under `in` (kFalse =
  // statically refuted). Non-assume nodes are kTrue.
  Ternary eval_assume(cfg::NodeId n, const State& in) const;

  // Three-valued validity of header bit `vf` for `instance` under `in`,
  // consulting the per-field constant first and the combo refinement for
  // join-lost correlations second.
  Ternary validity_of(const State& in, int instance, ir::FieldId vf) const;

 private:
  // Combo sets larger than this degrade to inactive; instances with more
  // headers than a combo word holds are never tracked.
  static constexpr size_t kMaxCombos = 64;
  static constexpr size_t kMaxValidityBits = 32;

  void maybe_activate(State& s, int instance) const;

  const ir::Context& ctx_;
  const cfg::Cfg& g_;
  std::unordered_map<ir::FieldId, int> relevant_;
  std::unordered_map<ir::FieldId, int> meta_;
  // Per instance: validity fields in header-name order (bit = position);
  // empty when the instance is untracked.
  std::vector<std::vector<ir::FieldId>> vfields_;
  std::unordered_map<ir::FieldId, std::pair<int, int>> vbit_;  // -> (inst, bit)
};

// ------------------------------------------------------------------- facts

// Engine-facing digest of one dataflow run.
struct Facts {
  std::vector<uint8_t> refuted;      // assume node statically infeasible
  std::vector<uint8_t> unreachable;  // structurally reachable, dataflow-dead
  uint64_t refuted_count = 0;
  uint64_t unreachable_count = 0;

  bool empty() const noexcept { return refuted_count == 0; }
};

// Runs the value domain from `start` with a TOP boundary over the region
// that ends at `stop` (kNoNode: every node reachable from `start`) and
// collects the refuted/unreachable node sets. Valid for any exploration
// rooted at `start` that goes no further than `stop`, regardless of seeds
// or pre-conditions; nodes outside the region read as neither. Each node
// is processed once and its IN state freed right after, so at most the
// states on the walk's frontier are alive at a time.
Facts compute_facts(const ir::Context& ctx, const cfg::Cfg& g,
                    cfg::NodeId start, cfg::NodeId stop = cfg::kNoNode);

}  // namespace meissa::analysis
