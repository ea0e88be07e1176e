// Concrete execution along a CFG path — the evaluation relation of paper
// Fig. 4. The sender replays each template's path with it, tests use it as
// the ground-truth oracle for path validity, and the bug-localization
// tracer steps through hash nodes with it.
#include "cfg/cfg.hpp"

namespace meissa::cfg {

bool eval_path(const Cfg& g, const Path& path, ir::DenseState& state,
               const ir::Context& ctx) {
  std::vector<uint64_t> keys;
  std::vector<int> widths;
  for (NodeId id : path) {
    const Node& n = g.node(id);
    if (n.is_hash) {
      keys.clear();
      widths.clear();
      if (!n.hash.key_exprs.empty()) {
        // Summarized hash: keys are expressions over entry snapshots.
        for (ir::ExprRef e : n.hash.key_exprs) {
          auto v = ir::eval(e, state);
          if (!v) return false;  // unbound read
          keys.push_back(*v);
          widths.push_back(e->width);
        }
      } else {
        for (ir::FieldId k : n.hash.keys) {
          auto v = state.find(k);
          if (!v) return false;  // unbound read
          keys.push_back(*v);
          widths.push_back(ctx.fields.width(k));
        }
      }
      state.set(n.hash.dest, p4::compute_hash(n.hash.algo, keys, widths,
                                              ctx.fields.width(n.hash.dest)));
      continue;
    }
    switch (n.stmt.kind) {
      case ir::StmtKind::kNop:
        break;
      case ir::StmtKind::kAssign: {
        auto v = ir::eval(n.stmt.expr, state);
        if (!v) return false;
        state.set(n.stmt.target, *v);
        break;
      }
      case ir::StmtKind::kAssume: {
        auto v = ir::eval(n.stmt.expr, state);
        // A false (or undecidable) predicate has no evaluation rule: the
        // state does not drive this path.
        if (!v || *v == 0) return false;
        break;
      }
    }
  }
  return true;
}

}  // namespace meissa::cfg
