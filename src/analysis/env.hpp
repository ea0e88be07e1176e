// Per-path abstract environment the symbolic engine consults before the
// solver. Tracks one exact `smt::Domain` per field, refined from every
// atomic conjunct pushed on the path (pre-conditions included), and
// classifies each new predicate:
//
//   kRefuted     — contradicts the recorded per-field constraints. Since
//                  the domains over-approximate the path condition, the
//                  solver would return unsat: prune without a call.
//   kImplied     — every conjunct follows from the recorded constraints
//                  (its negation empties the field's domain), so
//                  sat(C && c) == sat(C): skip the check.
//   kSatisfiable — every conjunct is a single-field atom, every involved
//                  field's constraints are *complete* in its domain (the
//                  field never appeared in an opaque conjunct), and each
//                  refined domain yields a witness. Any model of C can be
//                  patched field-wise into a model of C && c: skip.
//   kUnknown     — none of the above; ask the solver.
//
// All three decided verdicts agree with what a complete solver would
// conclude, which is what keeps pruned and unpruned runs byte-identical.
// Fields mentioned by opaque (multi-field / non-atomic) conjuncts are
// poisoned: their domains stay sound for refutation and implication, but
// are no longer complete, so kSatisfiable is off for them.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "ir/stmt.hpp"
#include "smt/domain.hpp"

namespace meissa::analysis {

enum class Verdict : uint8_t { kUnknown, kRefuted, kImplied, kSatisfiable };

class PathEnv {
 public:
  explicit PathEnv(const ir::Context& ctx) : ctx_(ctx) {}

  // Absorbs a pre-condition (before any mark; never rolled back).
  void add_precondition(ir::ExprRef c);

  // Classifies `c`, then absorbs it (unless refuted, which leaves the
  // state untouched).
  Verdict assume(ir::ExprRef c);

  using Mark = size_t;
  Mark mark() const noexcept { return undo_.size(); }
  void rollback(Mark m);

 private:
  struct Slot {
    smt::Domain dom;
    uint32_t poison = 0;  // opaque conjuncts currently mentioning the field
    explicit Slot(int width) : dom(width) {}
  };
  struct Undo {
    ir::FieldId field;
    bool poisoned;                   // true: undo a poison increment
    std::optional<smt::Domain> dom;  // false: restore this domain
  };

  smt::Domain domain_copy(ir::FieldId f, int width) const;
  void absorb(const std::vector<smt::Atom>& atoms,
              const std::vector<ir::ExprRef>& opaque, bool undoable);

  const ir::Context& ctx_;
  std::unordered_map<ir::FieldId, Slot> slots_;
  std::vector<Undo> undo_;
  // Pre-conditions already contradictory per field: everything refutes.
  bool base_contradictory_ = false;
};

}  // namespace meissa::analysis
