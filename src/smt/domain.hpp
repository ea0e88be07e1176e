// Single-field atoms and value domains — the one atom language of the
// solver's fast path, the engine's `analysis::PathEnv`, the dataflow
// facts' `analysis::ValueRange` and m4lint.
//
// Path conditions produced by data-plane programs are overwhelmingly
// conjunctions of per-field atoms: exact matches (f == c), ternary matches
// ((f & m) == v), LPM prefixes, range checks (lo <= f <= hi) and negations
// of higher-priority entries (f != c). `decompose_conjunction` lowers a
// boolean expression into that normal form (atoms + opaque residue). A
// Domain tracks, per field, the forced bit pattern, an unsigned interval,
// and small exclusion lists; `Domain::require` conjoins one atom, and the
// domain can decide emptiness and produce a witness without touching the
// SAT core.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/expr.hpp"
#include "util/bits.hpp"

namespace meissa::smt {

// One single-field atomic constraint: cmp((field & mask), value), or a
// value-set membership f IN `set` (the any-of shape of merged
// pre-conditions). A full-width mask means a plain compare. A constraint
// that is constantly false decomposes to an atom with field ==
// ir::kInvalidField.
struct Atom {
  ir::FieldId field = ir::kInvalidField;
  int width = 0;
  ir::CmpOp op = ir::CmpOp::kEq;
  uint64_t mask = ~uint64_t{0};
  uint64_t value = 0;
  std::vector<uint64_t> set;  // non-empty: membership atom; op/mask unused

  bool is_exact_mask() const noexcept;
};

// Lowers `e` into a conjunction: every conjunct that is a single-field
// atom lands in `atoms`, everything else (disjunctions over several
// fields, multi-field compares, arithmetic the domains cannot track) in
// `opaque`. Handles compares in both operand orders, ternary-match masks,
// De Morgan over negated disjunctions, negation chains, and the value-set
// (any-of-equalities) pattern. Only ==/!= take a mask: a masked range
// compare is opaque.
void decompose_conjunction(ir::ExprRef e, std::vector<Atom>& atoms,
                           std::vector<ir::ExprRef>& opaque);

// The negated compare atom (operator flipped). Membership atoms have no
// single-atom negation; callers expand f NOT-IN {s...} into != exclusions
// themselves. Precondition: a.set.empty().
Atom negate_atom(const Atom& a);

// Whether concrete value `v` satisfies the (non-membership) atom.
bool atom_holds(uint64_t v, const Atom& a) noexcept;

class Domain {
 public:
  explicit Domain(int width)
      : width_(width), hi_(util::mask_bits(width)) {}

  int width() const noexcept { return width_; }
  bool contradictory() const noexcept { return contradictory_; }

  // Conjoins one atom of this domain's field, as produced by
  // `decompose_conjunction` (a valid field; a mask only on ==/!=).
  void require(const Atom& a);

  // Finds the smallest value satisfying every recorded constraint, or
  // nullopt when the domain is empty or the search exceeded its attempt
  // budget (callers must then fall back to the SAT core).
  //
  // `decided` is set to false only in the budget-exceeded case.
  std::optional<uint64_t> pick_value(bool& decided) const;

 private:
  // Conjoins (f & mask) == value. An exact match is mask == all-ones.
  void require_masked_eq(uint64_t mask, uint64_t value);
  // Conjoins (f & mask) != value.
  void require_masked_ne(uint64_t mask, uint64_t value);
  // Conjoins f IN {values} (e.g. a merged per-packet-type pre-condition).
  void require_value_set(const std::vector<uint64_t>& values);
  // Conjoins f >= lo / f <= hi / f > v / f < v.
  void require_ge(uint64_t lo);
  void require_le(uint64_t hi);
  void require_gt(uint64_t v);
  void require_lt(uint64_t v);

  // Smallest v >= from with (v & forced_mask_) == forced_val_, or nullopt.
  std::optional<uint64_t> next_forced_match(uint64_t from) const;

  int width_;
  bool contradictory_ = false;
  uint64_t forced_mask_ = 0;
  uint64_t forced_val_ = 0;
  uint64_t lo_ = 0;
  uint64_t hi_;
  bool has_allowed_ = false;
  std::vector<uint64_t> allowed_;  // sorted, deduped
  struct MaskedNe {
    uint64_t mask;
    uint64_t value;
  };
  std::vector<MaskedNe> excluded_;
};

}  // namespace meissa::smt
