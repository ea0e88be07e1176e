// Single-field atoms and the one per-field value domain — the atom
// language and domain of the solver's fast path, the engine's
// `analysis::PathEnv`, the dataflow facts, m4lint and the injection
// analysis.
//
// Path conditions produced by data-plane programs are overwhelmingly
// conjunctions of per-field atoms: exact matches (f == c), ternary matches
// ((f & m) == v), LPM prefixes, range checks (lo <= f <= hi), negations
// of higher-priority entries (f != c) and the miss arms of range entries
// (f < lo || f > hi). `decompose_conjunction` lowers a boolean expression
// into that normal form (atoms + opaque residue). A Domain tracks, per
// field, the forced bit pattern, a list of unsigned intervals and a small
// list of masked exclusions; `Domain::require` conjoins one atom, and the
// domain can decide emptiness and produce a witness without touching the
// SAT core. `Domain::join` is its least upper bound (exact while a side
// admits few values) and `Domain::eval` its three-valued truth of an
// atom, which the dataflow facts use over merging paths.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ir/expr.hpp"
#include "util/bits.hpp"

namespace meissa::smt {

// The closed interval [lo, hi] of unsigned values (lo <= hi).
struct Interval {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const Interval&) const = default;
};

// A set of unsigned values as a sorted list of disjoint, non-adjacent
// closed intervals (so each set has one representation). The first
// interval is held inline: a list of at most one interval owns no heap
// memory, which keeps copying the common single-range domain cheap.
class IntervalList {
 public:
  IntervalList() = default;  // the empty set
  explicit IntervalList(Interval i) : size_(1), first_(i) {}
  IntervalList(const IntervalList&) = default;
  IntervalList& operator=(const IntervalList&) = default;
  // A moved-from list is the empty set (size_ must never outrun rest_).
  IntervalList(IntervalList&& o) noexcept
      : size_(std::exchange(o.size_, 0)),
        first_(o.first_),
        rest_(std::move(o.rest_)) {
    o.rest_.clear();
  }
  IntervalList& operator=(IntervalList&& o) noexcept {
    if (this != &o) {
      size_ = std::exchange(o.size_, 0);
      first_ = o.first_;
      rest_ = std::move(o.rest_);
      o.rest_.clear();
    }
    return *this;
  }
  // Every value of a `width`-bit field.
  static IntervalList full(int width) {
    return IntervalList(Interval{0, util::mask_bits(width)});
  }
  // Sorts and merges arbitrary (overlapping, unordered) intervals.
  static IntervalList from_unsorted(std::vector<Interval>& ivs);

  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  Interval operator[](size_t i) const noexcept {
    return i == 0 ? first_ : rest_[i - 1];
  }
  Interval front() const noexcept { return first_; }
  Interval back() const noexcept { return (*this)[size_ - 1]; }
  bool contains(uint64_t v) const noexcept;
  bool operator==(const IntervalList& o) const noexcept;

  // Appends `i`, which must start above the start of every held
  // interval; an overlapping or adjacent `i` extends the last interval.
  void append(Interval i);

 private:
  size_t size_ = 0;
  Interval first_;
  std::vector<Interval> rest_;  // intervals 1..size_-1
};

IntervalList intersect(const IntervalList& a, const IntervalList& b);
// The values of a `width`-bit field that `a` does not hold.
IntervalList complement(const IntervalList& a, int width);

// One single-field atomic constraint: cmp((field & mask), value), or a
// membership f IN `set` — any and/or/not combination of full-mask
// compares on one field, e.g. the any-of shape of merged pre-conditions or
// the miss arm of a range entry. A full-width mask means a plain compare.
// A constraint that is constantly false decomposes to an atom with field
// == ir::kInvalidField.
struct Atom {
  ir::FieldId field = ir::kInvalidField;
  int width = 0;
  ir::CmpOp op = ir::CmpOp::kEq;
  uint64_t mask = ~uint64_t{0};
  uint64_t value = 0;
  IntervalList set;  // non-empty: membership atom; op/mask/value unused

  bool is_exact_mask() const noexcept;
};

// A conjunct f == g over two distinct fields (of one width, as every
// compare's operands).
struct FieldEquality {
  ir::FieldId a = ir::kInvalidField;
  ir::FieldId b = ir::kInvalidField;
  int width = 0;
};

// Lowers `e` into a conjunction: every conjunct that is a single-field
// atom lands in `atoms`, everything else (disjunctions over several
// fields or with masked leaves, multi-field compares, arithmetic the
// domains cannot track) in `opaque`. Handles compares in both operand
// orders, ternary-match masks, De Morgan over negated disjunctions,
// negation chains, and any and/or/not tree whose leaves are full-mask
// compares on one field (one membership atom). Only ==/!= take a mask: a
// masked range compare is opaque.
//
// With `equalities`, a conjunct f == g over two distinct fields lands
// there instead of in `opaque`.
void decompose_conjunction(ir::ExprRef e, std::vector<Atom>& atoms,
                           std::vector<ir::ExprRef>& opaque,
                           std::vector<FieldEquality>* equalities = nullptr);

// The negated atom: the flipped compare, or the complemented membership
// set.
Atom negate_atom(const Atom& a);

// Whether concrete value `v` satisfies the atom.
bool atom_holds(uint64_t v, const Atom& a) noexcept;

// Three-valued truth of a predicate over a set of values.
enum class Ternary : uint8_t { kFalse, kTrue, kUnknown };

class Domain {
 public:
  explicit Domain(int width)
      : width_(width), values_(IntervalList::full(width)) {}
  // The domain of the one value `v` (truncated to `width` bits).
  static Domain constant(uint64_t v, int width);

  int width() const noexcept { return width_; }
  bool contradictory() const noexcept { return contradictory_; }
  // No value satisfies every recorded constraint: the domain is
  // contradictory, or the witness search decides that no value exists.
  bool empty() const;
  // Nothing recorded: every value of the width.
  bool is_top() const noexcept;
  // Exactly one value satisfies every constraint; it lands in `v`.
  bool is_constant(uint64_t& v) const;

  // Conjoins one atom of this domain's field, as produced by
  // `decompose_conjunction` (a valid field; a mask only on ==/!=).
  void require(const Atom& a);
  // Conjoins every constraint of `o`, a domain of the same width: the
  // values both admit (the domain of a class of equal fields).
  void intersect(const Domain& o);
  // Widens to a sound least upper bound with `o`, a domain of the same
  // width: the interval lists unite, forced bits survive where both sides
  // force the same value, exclusions where both sides carry them. A side
  // with at most kExactValues candidate values counts as its exact
  // interval list, so a join of two such sides loses nothing; a union of
  // more than kMaxJoinIntervals intervals widens to its hull. An empty
  // side adds nothing.
  void join(const Domain& o);
  // Three-valued truth of `a`, an atom of this domain's field, over every
  // admitted value: kFalse when requiring `a` empties the domain, kTrue
  // when requiring its negation does. An empty domain makes no claim
  // (kUnknown).
  Ternary eval(const Atom& a) const;

  // The same recorded constraints (not merely the same value set).
  bool operator==(const Domain&) const = default;

  // Finds the smallest value satisfying every recorded constraint, or
  // nullopt when the domain is empty or the search exceeded its attempt
  // budget (callers must then fall back to the SAT core).
  //
  // `decided` is set to false only in the budget-exceeded case.
  std::optional<uint64_t> pick_value(bool& decided) const;

 private:
  static constexpr uint64_t kExactValues = 256;
  static constexpr size_t kMaxJoinIntervals = 64;

  // The admitted values as an exact interval list, when at most
  // kExactValues values lie in the intervals and match the forced bits;
  // nullopt otherwise.
  std::optional<IntervalList> exact_values() const;
  // Conjoins (f & mask) == value. An exact match is mask == all-ones.
  void require_masked_eq(uint64_t mask, uint64_t value);
  // Conjoins (f & mask) != value.
  void require_masked_ne(uint64_t mask, uint64_t value);
  // Conjoins f IN `s`.
  void require_within(const IntervalList& s);
  // Marks the domain contradictory when every bit is forced and the one
  // forced value lies outside the intervals or is excluded.
  void check_forced_value();
  bool excluded(uint64_t v) const noexcept;

  // Smallest v >= from with (v & forced_mask_) == forced_val_, or nullopt.
  std::optional<uint64_t> next_forced_match(uint64_t from) const;

  int width_;
  bool contradictory_ = false;
  uint64_t forced_mask_ = 0;
  uint64_t forced_val_ = 0;
  IntervalList values_;
  struct MaskedNe {
    uint64_t mask;
    uint64_t value;
    bool operator==(const MaskedNe&) const = default;
  };
  std::vector<MaskedNe> excluded_;
};

}  // namespace meissa::smt
