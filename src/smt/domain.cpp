#include "smt/domain.hpp"

#include <algorithm>
#include <iterator>

namespace meissa::smt {

using ir::CmpOp;
using ir::ExprKind;
using ir::ExprRef;

namespace {

CmpOp mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // kEq/kNe are symmetric
  }
}

CmpOp flipped(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
  }
  return op;
}

// cmp(field-or-masked-field, const) in either operand order.
bool classify_cmp(ExprRef e, Atom& a) {
  ExprRef l = e->lhs;
  ExprRef r = e->rhs;
  CmpOp op = e->cmp_op();
  if (l->kind == ExprKind::kConst && r->kind != ExprKind::kConst) {
    std::swap(l, r);
    op = mirror(op);
  }
  if (r->kind != ExprKind::kConst) return false;
  ExprRef base = l;
  uint64_t mask = ~uint64_t{0};
  if (l->kind == ExprKind::kArith && l->arith_op() == ir::ArithOp::kAnd) {
    if (l->rhs->kind == ExprKind::kConst && l->lhs->kind == ExprKind::kField) {
      mask = l->rhs->value;
      base = l->lhs;
    } else if (l->lhs->kind == ExprKind::kConst &&
               l->rhs->kind == ExprKind::kField) {
      mask = l->lhs->value;
      base = l->rhs;
    } else {
      return false;
    }
    if (op != CmpOp::kEq && op != CmpOp::kNe) return false;
  }
  if (base->kind != ExprKind::kField) return false;
  a.field = base->field;
  a.width = base->width;
  a.op = op;
  a.mask = util::truncate(mask, base->width);
  a.value = util::truncate(r->value, base->width);
  if ((op == CmpOp::kEq || op == CmpOp::kNe) && (a.value & ~a.mask) != 0) {
    // The constant has bits outside the mask: (f & m) == c never holds,
    // (f & m) != c always does. Canonicalize to the trivially-false /
    // trivially-true unsigned range atom so negation stays correct.
    a.op = op == CmpOp::kEq ? CmpOp::kLt : CmpOp::kGe;
    a.mask = util::mask_bits(base->width);
    a.value = 0;
  }
  a.set = IntervalList();
  return true;
}

// The values of a `width`-bit field satisfying the full-mask compare
// `op value`.
IntervalList compare_values(CmpOp op, uint64_t value, int width) {
  const uint64_t max = util::mask_bits(width);
  const uint64_t v = util::truncate(value, width);
  switch (op) {
    case CmpOp::kEq: return IntervalList(Interval{v, v});
    case CmpOp::kNe: return complement(IntervalList(Interval{v, v}), width);
    case CmpOp::kLt:
      return v == 0 ? IntervalList() : IntervalList(Interval{0, v - 1});
    case CmpOp::kLe: return IntervalList(Interval{0, v});
    case CmpOp::kGt:
      return v == max ? IntervalList() : IntervalList(Interval{v + 1, max});
    case CmpOp::kGe: return IntervalList(Interval{v, max});
  }
  return IntervalList();
}

// The values of one field satisfying `e` (its negation when `negated`),
// when `e` is an and/or/not tree whose leaves are full-mask compares on
// that one field. `field` is kInvalidField on entry and names the field
// on success.
bool field_values(ExprRef e, bool negated, ir::FieldId& field, int& width,
                  IntervalList& out) {
  while (e->kind == ExprKind::kNot) {
    e = e->lhs;
    negated = !negated;
  }
  if (e->kind == ExprKind::kCmp) {
    Atom a;
    if (!classify_cmp(e, a) || !a.is_exact_mask()) return false;
    if (field != ir::kInvalidField && field != a.field) return false;
    field = a.field;
    width = a.width;
    out = compare_values(negated ? flipped(a.op) : a.op, a.value, a.width);
    return true;
  }
  if (e->kind != ExprKind::kBool) return false;
  // The operands of the maximal chain of this node's connective: one
  // intersection or one sorted union over all of them.
  const bool conj = (e->bool_op() == ir::BoolOp::kAnd) != negated;
  std::vector<std::pair<ExprRef, bool>> pending{{e->lhs, negated},
                                                {e->rhs, negated}};
  std::vector<std::pair<ExprRef, bool>> operands;
  while (!pending.empty()) {
    auto [x, neg] = pending.back();
    pending.pop_back();
    while (x->kind == ExprKind::kNot) {
      x = x->lhs;
      neg = !neg;
    }
    if (x->kind == ExprKind::kBool &&
        ((x->bool_op() == ir::BoolOp::kAnd) != neg) == conj) {
      pending.emplace_back(x->lhs, neg);
      pending.emplace_back(x->rhs, neg);
    } else {
      operands.emplace_back(x, neg);
    }
  }
  std::vector<Interval> united;
  for (size_t i = 0; i < operands.size(); ++i) {
    IntervalList s;
    if (!field_values(operands[i].first, operands[i].second, field, width,
                      s)) {
      return false;
    }
    if (!conj) {
      for (size_t k = 0; k < s.size(); ++k) united.push_back(s[k]);
    } else {
      out = i == 0 ? std::move(s) : intersect(out, s);
    }
  }
  if (!conj) out = IntervalList::from_unsorted(united);
  return true;
}

using Equalities = std::vector<FieldEquality>;

// `f == g` (or a negated `f != g`) over two distinct fields (compare
// operands always share one width).
bool field_equality(ExprRef e, bool negated, Equalities* equalities) {
  if (equalities == nullptr ||
      e->cmp_op() != (negated ? CmpOp::kNe : CmpOp::kEq) ||
      e->lhs->kind != ExprKind::kField || e->rhs->kind != ExprKind::kField ||
      e->lhs->field == e->rhs->field) {
    return false;
  }
  equalities->push_back({e->lhs->field, e->rhs->field, e->lhs->width});
  return true;
}

void decompose(ExprRef e, bool negated, std::vector<Atom>& atoms,
               std::vector<ir::ExprRef>& opaque, Equalities* equalities) {
  switch (e->kind) {
    case ExprKind::kBoolConst: {
      const bool truth = (e->value == 1) != negated;
      if (!truth) atoms.push_back(Atom{});  // kInvalidField: constant false
      return;
    }
    case ExprKind::kNot:
      decompose(e->lhs, !negated, atoms, opaque, equalities);
      return;
    case ExprKind::kBool: {
      const bool conj = (e->bool_op() == ir::BoolOp::kAnd) != negated;
      if (conj) {
        // a && b, or De Morgan'd !(a || b).
        decompose(e->lhs, negated, atoms, opaque, equalities);
        decompose(e->rhs, negated, atoms, opaque, equalities);
        return;
      }
      // A disjunction: tractable when it constrains one field only.
      Atom a;
      if (!field_values(e, negated, a.field, a.width, a.set)) break;
      if (a.set.empty()) {
        atoms.push_back(Atom{});  // constant false
      } else if (!(a.set == IntervalList::full(a.width))) {
        atoms.push_back(std::move(a));
      }
      return;
    }
    case ExprKind::kCmp: {
      Atom a;
      if (classify_cmp(e, a)) {
        if (negated) a = negate_atom(a);
        atoms.push_back(std::move(a));
        return;
      }
      if (field_equality(e, negated, equalities)) return;
      break;
    }
    default:
      break;
  }
  // Opaque conjunct. Record the expression as seen (negation preserved
  // only structurally; callers treat opaque conjuncts as unknown anyway,
  // they only need the fields involved).
  opaque.push_back(e);
}

}  // namespace

IntervalList IntervalList::from_unsorted(std::vector<Interval>& ivs) {
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  });
  IntervalList out;
  for (const Interval& i : ivs) out.append(i);
  return out;
}

bool IntervalList::contains(uint64_t v) const noexcept {
  if (size_ == 0 || v < first_.lo) return false;
  if (v <= first_.hi) return true;
  auto it = std::upper_bound(
      rest_.begin(), rest_.end(), v,
      [](uint64_t x, const Interval& i) { return x < i.lo; });
  return it != rest_.begin() && v <= std::prev(it)->hi;
}

bool IntervalList::operator==(const IntervalList& o) const noexcept {
  return size_ == o.size_ && (size_ == 0 || first_ == o.first_) &&
         rest_ == o.rest_;
}

void IntervalList::append(Interval i) {
  if (size_ == 0) {
    first_ = i;
    size_ = 1;
    return;
  }
  Interval& last = size_ == 1 ? first_ : rest_.back();
  // Overlapping or adjacent (written to avoid overflow at the maximum).
  if (i.lo <= last.hi || i.lo - last.hi == 1) {
    last.hi = std::max(last.hi, i.hi);
    return;
  }
  rest_.push_back(i);
  ++size_;
}

IntervalList intersect(const IntervalList& a, const IntervalList& b) {
  IntervalList out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Interval x = a[i];
    const Interval y = b[j];
    const uint64_t lo = std::max(x.lo, y.lo);
    const uint64_t hi = std::min(x.hi, y.hi);
    if (lo <= hi) out.append(Interval{lo, hi});
    if (x.hi < y.hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

IntervalList complement(const IntervalList& a, int width) {
  const uint64_t max = util::mask_bits(width);
  IntervalList out;
  uint64_t next = 0;  // smallest value not yet covered
  for (size_t k = 0; k < a.size(); ++k) {
    const Interval i = a[k];
    if (i.lo > next) out.append(Interval{next, i.lo - 1});
    if (i.hi >= max) return out;
    next = i.hi + 1;
  }
  out.append(Interval{next, max});
  return out;
}

bool Atom::is_exact_mask() const noexcept {
  return util::truncate(mask, width) == util::mask_bits(width);
}

void decompose_conjunction(ir::ExprRef e, std::vector<Atom>& atoms,
                           std::vector<ir::ExprRef>& opaque,
                           Equalities* equalities) {
  if (e == nullptr) return;
  decompose(e, false, atoms, opaque, equalities);
}

Atom negate_atom(const Atom& a) {
  Atom n = a;
  if (a.set.empty()) {
    n.op = flipped(a.op);
    return n;
  }
  n.set = complement(a.set, a.width);
  if (n.set.empty()) {
    // `a` held every value: its negation is the constantly false compare.
    n.op = CmpOp::kLt;
    n.mask = util::mask_bits(a.width);
    n.value = 0;
  }
  return n;
}

bool atom_holds(uint64_t v, const Atom& a) noexcept {
  if (!a.set.empty()) return a.set.contains(v);
  const bool eqish = a.op == CmpOp::kEq || a.op == CmpOp::kNe;
  return ir::apply_cmp(a.op, eqish ? (v & a.mask) : v, a.value);
}

// ---------------------------------------------------------------- Domain

namespace {
constexpr int kPickAttempts = 128;

// Mask covering bit positions [0, h] inclusive.
constexpr uint64_t mask_upto(int h) noexcept {
  return h >= 63 ? ~uint64_t{0} : ((uint64_t{1} << (h + 1)) - 1);
}
}  // namespace

void Domain::require(const Atom& a) {
  if (!a.set.empty()) {
    require_within(a.set);
    return;
  }
  switch (a.op) {
    case CmpOp::kEq: require_masked_eq(a.mask, a.value); break;
    case CmpOp::kNe: require_masked_ne(a.mask, a.value); break;
    default: require_within(compare_values(a.op, a.value, width_)); break;
  }
}

void Domain::intersect(const Domain& o) {
  contradictory_ = contradictory_ || o.contradictory_;
  if (contradictory_) return;
  const uint64_t both = forced_mask_ & o.forced_mask_;
  if ((forced_val_ & both) != (o.forced_val_ & both)) {
    contradictory_ = true;
    return;
  }
  forced_mask_ |= o.forced_mask_;
  forced_val_ |= o.forced_val_;
  for (const MaskedNe& ne : o.excluded_) {
    require_masked_ne(ne.mask, ne.value);
    if (contradictory_) return;
  }
  require_within(o.values_);
}

void Domain::require_masked_eq(uint64_t mask, uint64_t value) {
  mask = util::truncate(mask, width_);
  value = util::truncate(value, width_);
  if ((value & ~mask) != 0) {
    // (f & m) always has zero bits outside m; equality is impossible.
    contradictory_ = true;
    return;
  }
  // Bits forced by both the existing pattern and the new one must agree.
  uint64_t both = forced_mask_ & mask;
  if ((forced_val_ & both) != (value & both)) {
    contradictory_ = true;
    return;
  }
  forced_mask_ |= mask;
  forced_val_ |= value;
  check_forced_value();
}

void Domain::require_masked_ne(uint64_t mask, uint64_t value) {
  mask = util::truncate(mask, width_);
  value = util::truncate(value, width_);
  if ((value & ~mask) != 0) return;  // trivially true: f&m never equals value
  if (mask == 0) {
    // (f & 0) != 0 is unsatisfiable.
    contradictory_ = true;
    return;
  }
  if ((forced_mask_ & mask) == mask && (forced_val_ & mask) == value) {
    // Every bit of `mask` is already forced to match `value`: the
    // exclusion empties the domain. Detecting this here (rather than in
    // pick_value's search) lets implication queries conclude without a
    // witness hunt.
    contradictory_ = true;
    return;
  }
  excluded_.push_back({mask, value});
}

void Domain::require_within(const IntervalList& s) {
  values_ = smt::intersect(values_, s);
  if (values_.empty()) {
    contradictory_ = true;
    return;
  }
  check_forced_value();
}

void Domain::check_forced_value() {
  if (forced_mask_ != util::mask_bits(width_)) return;
  if (!values_.contains(forced_val_) || excluded(forced_val_)) {
    contradictory_ = true;
  }
}

bool Domain::excluded(uint64_t v) const noexcept {
  for (const MaskedNe& ne : excluded_) {
    if ((v & ne.mask) == ne.value) return true;
  }
  return false;
}

std::optional<uint64_t> Domain::next_forced_match(uint64_t from) const {
  if (from > util::mask_bits(width_)) return std::nullopt;
  if ((from & forced_mask_) == forced_val_) return from;
  // Highest bit where `from` disagrees with the forced pattern.
  uint64_t diff = (from & forced_mask_) ^ forced_val_;
  int h = 63;
  while (!util::bit_at(diff, h)) --h;
  if (util::bit_at(forced_val_, h)) {
    // The forced bit raises the value at h: adopt the pattern at h and
    // below (free bits cleared), keep the agreeing bits above h.
    uint64_t v = (from & ~mask_upto(h)) | (forced_val_ & mask_upto(h));
    return v;
  }
  // The forced bit lowers the value at h: must strictly increase some free
  // bit above h that is currently 0, then minimize everything below it.
  for (int j = h + 1; j < width_; ++j) {
    if (!util::bit_at(forced_mask_, j) && !util::bit_at(from, j)) {
      uint64_t v = (from & ~mask_upto(j)) | (uint64_t{1} << j) |
                   (forced_val_ & mask_upto(j));
      return v;
    }
  }
  return std::nullopt;  // no matching value above `from`
}

std::optional<uint64_t> Domain::pick_value(bool& decided) const {
  decided = true;
  if (contradictory_) return std::nullopt;
  // Ascending: per interval, the forced-bit matches from its low end.
  // Each match an exclusion rejects costs one attempt of the budget.
  int attempts = 0;
  for (size_t k = 0; k < values_.size(); ++k) {
    const Interval iv = values_[k];
    std::optional<uint64_t> v = next_forced_match(iv.lo);
    while (v && *v <= iv.hi) {
      if (!excluded(*v)) return v;
      if (++attempts == kPickAttempts) {
        decided = false;  // budget exhausted; caller must use the SAT core
        return std::nullopt;
      }
      if (*v == iv.hi) break;
      v = next_forced_match(*v + 1);
    }
  }
  return std::nullopt;
}

}  // namespace meissa::smt
