#include "smt/domain.hpp"

#include <algorithm>

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
  a.set.clear();
  return true;
}

// OR-tree whose leaves are all `field == const` on the same field: the
// merged pre-condition / any-of shape. Produces a membership atom.
bool collect_set_leaves(ExprRef e, ir::FieldId& field, int& width,
                        std::vector<uint64_t>& values) {
  if (e->kind == ExprKind::kBool && e->bool_op() == ir::BoolOp::kOr) {
    return collect_set_leaves(e->lhs, field, width, values) &&
           collect_set_leaves(e->rhs, field, width, values);
  }
  Atom a;
  if (!classify_cmp(e, a) || a.op != CmpOp::kEq || !a.is_exact_mask()) {
    return false;
  }
  if (field != ir::kInvalidField && field != a.field) return false;
  field = a.field;
  width = a.width;
  values.push_back(a.value);
  return true;
}

bool classify_value_set(ExprRef e, Atom& a) {
  ir::FieldId field = ir::kInvalidField;
  int width = 0;
  std::vector<uint64_t> values;
  if (!collect_set_leaves(e, field, width, values)) return false;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  a.field = field;
  a.width = width;
  a.op = CmpOp::kEq;
  a.mask = util::mask_bits(width);
  a.value = 0;
  a.set = std::move(values);
  return true;
}

void decompose(ExprRef e, bool negated, std::vector<Atom>& atoms,
               std::vector<ir::ExprRef>& opaque) {
  switch (e->kind) {
    case ExprKind::kBoolConst: {
      const bool truth = (e->value == 1) != negated;
      if (!truth) atoms.push_back(Atom{});  // kInvalidField: constant false
      return;
    }
    case ExprKind::kNot:
      decompose(e->lhs, !negated, atoms, opaque);
      return;
    case ExprKind::kBool: {
      const bool conj = (e->bool_op() == ir::BoolOp::kAnd) != negated;
      if (conj) {
        // a && b, or De Morgan'd !(a || b).
        decompose(e->lhs, negated, atoms, opaque);
        decompose(e->rhs, negated, atoms, opaque);
        return;
      }
      // A disjunction: only the single-field value-set shape is tractable.
      Atom a;
      if (!classify_value_set(e, a)) break;
      if (!negated) {
        atoms.push_back(std::move(a));
        return;
      }
      // !(f IN S): one exclusion atom per member.
      Atom ne = a;
      ne.set.clear();
      ne.op = CmpOp::kNe;
      for (uint64_t v : a.set) {
        ne.value = v;
        atoms.push_back(ne);
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

bool Atom::is_exact_mask() const noexcept {
  return util::truncate(mask, width) == util::mask_bits(width);
}

void decompose_conjunction(ir::ExprRef e, std::vector<Atom>& atoms,
                           std::vector<ir::ExprRef>& opaque) {
  if (e == nullptr) return;
  decompose(e, false, atoms, opaque);
}

Atom negate_atom(const Atom& a) {
  Atom n = a;
  n.op = flipped(a.op);
  return n;
}

bool atom_holds(uint64_t v, const Atom& a) noexcept {
  if (!a.set.empty()) {
    return std::binary_search(a.set.begin(), a.set.end(), v);
  }
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
    require_value_set(a.set);
    return;
  }
  switch (a.op) {
    case CmpOp::kEq: require_masked_eq(a.mask, a.value); break;
    case CmpOp::kNe: require_masked_ne(a.mask, a.value); break;
    case CmpOp::kLt: require_lt(a.value); break;
    case CmpOp::kLe: require_le(a.value); break;
    case CmpOp::kGt: require_gt(a.value); break;
    case CmpOp::kGe: require_ge(a.value); break;
  }
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

void Domain::require_value_set(const std::vector<uint64_t>& values) {
  std::vector<uint64_t> v;
  for (uint64_t x : values) v.push_back(util::truncate(x, width_));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  if (!has_allowed_) {
    has_allowed_ = true;
    allowed_ = std::move(v);
  } else {
    std::vector<uint64_t> inter;
    std::set_intersection(allowed_.begin(), allowed_.end(), v.begin(), v.end(),
                          std::back_inserter(inter));
    allowed_ = std::move(inter);
  }
  if (allowed_.empty()) contradictory_ = true;
}

void Domain::require_ge(uint64_t lo) {
  lo = util::truncate(lo, width_);
  if (lo > lo_) lo_ = lo;
  if (lo_ > hi_) contradictory_ = true;
}

void Domain::require_le(uint64_t hi) {
  hi = util::truncate(hi, width_);
  if (hi < hi_) hi_ = hi;
  if (lo_ > hi_) contradictory_ = true;
}

void Domain::require_gt(uint64_t v) {
  v = util::truncate(v, width_);
  if (v == util::mask_bits(width_)) {
    contradictory_ = true;
    return;
  }
  require_ge(v + 1);
}

void Domain::require_lt(uint64_t v) {
  v = util::truncate(v, width_);
  if (v == 0) {
    contradictory_ = true;
    return;
  }
  require_le(v - 1);
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
  auto satisfies_rest = [&](uint64_t v) {
    if (v < lo_ || v > hi_) return false;
    if ((v & forced_mask_) != forced_val_) return false;
    for (const MaskedNe& ne : excluded_) {
      if ((v & ne.mask) == ne.value) return false;
    }
    return true;
  };
  if (has_allowed_) {
    for (uint64_t v : allowed_) {
      if (satisfies_rest(v)) return v;
    }
    return std::nullopt;
  }
  std::optional<uint64_t> v = next_forced_match(lo_);
  for (int attempt = 0; attempt < kPickAttempts; ++attempt) {
    if (!v || *v > hi_) return std::nullopt;
    bool ok = true;
    for (const MaskedNe& ne : excluded_) {
      if ((*v & ne.mask) == ne.value) {
        ok = false;
        break;
      }
    }
    if (ok) return v;
    if (*v == util::mask_bits(width_)) return std::nullopt;
    v = next_forced_match(*v + 1);
  }
  decided = false;  // budget exhausted; caller must use the SAT core
  return std::nullopt;
}

}  // namespace meissa::smt
