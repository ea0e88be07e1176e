#include "ir/expr.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace meissa::ir {

uint64_t apply_arith(ArithOp op, uint64_t a, uint64_t b, int width) noexcept {
  a = util::truncate(a, width);
  b = util::truncate(b, width);
  uint64_t r = 0;
  switch (op) {
    case ArithOp::kAdd: r = a + b; break;
    case ArithOp::kSub: r = a - b; break;
    case ArithOp::kMul: r = a * b; break;
    case ArithOp::kAnd: r = a & b; break;
    case ArithOp::kOr:  r = a | b; break;
    case ArithOp::kXor: r = a ^ b; break;
    case ArithOp::kShl: r = b >= static_cast<uint64_t>(width) ? 0 : a << b; break;
    case ArithOp::kShr: r = b >= static_cast<uint64_t>(width) ? 0 : a >> b; break;
  }
  return util::truncate(r, width);
}

bool apply_cmp(CmpOp op, uint64_t a, uint64_t b) noexcept {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

const char* arith_op_name(ArithOp op) noexcept {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kAnd: return "&";
    case ArithOp::kOr:  return "|";
    case ArithOp::kXor: return "^";
    case ArithOp::kShl: return "<<";
    case ArithOp::kShr: return ">>";
  }
  return "?";
}

const char* cmp_op_name(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

namespace {

size_t hash_node(const Expr& e) noexcept {
  size_t h = static_cast<size_t>(e.kind);
  auto mix = [&h](size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(e.op);
  mix(static_cast<size_t>(e.width));
  mix(static_cast<size_t>(e.value));
  mix(static_cast<size_t>(e.field));
  mix(reinterpret_cast<size_t>(e.lhs));
  mix(reinterpret_cast<size_t>(e.rhs));
  return h;
}

bool same_node(const Expr& a, const Expr& b) noexcept {
  return a.kind == b.kind && a.op == b.op && a.width == b.width &&
         a.value == b.value && a.field == b.field && a.lhs == b.lhs &&
         a.rhs == b.rhs;
}

// The hash bits a shard table stores. The shard is picked by the low bits
// of the hash, so the table uses a multiplicative mix of all of them.
uint32_t table_tag(size_t h) noexcept {
  return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

constexpr size_t kInitialSlots = 64;

}  // namespace

ExprArena::ExprArena() {
  Expr t{};
  t.kind = ExprKind::kBoolConst;
  t.value = 1;
  true_ = intern(t);
  Expr f{};
  f.kind = ExprKind::kBoolConst;
  f.value = 0;
  false_ = intern(f);
}

void ExprArena::grow(Shard& s) {
  std::vector<Slot> old(std::max(kInitialSlots, s.table.size() * 2));
  old.swap(s.table);
  const size_t mask = s.table.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index == 0) continue;
    size_t i = slot.tag & mask;
    while (s.table[i].index != 0) i = (i + 1) & mask;
    s.table[i] = slot;
  }
}

ExprRef ExprArena::intern(const Expr& e) {
  const size_t h = hash_node(e);
  const uint32_t tag = table_tag(h);
  Shard& s = shards_[h % kShards];
  std::lock_guard<std::mutex> lk(s.mu);
  if ((s.nodes.size() + 1) * 2 > s.table.size()) grow(s);
  const size_t mask = s.table.size() - 1;
  size_t i = tag & mask;
  for (; s.table[i].index != 0; i = (i + 1) & mask) {
    const Slot& slot = s.table[i];
    if (slot.tag != tag) continue;
    const Expr& node = s.nodes[slot.index - 1];
    if (same_node(node, e)) return &node;
  }
  s.nodes.push_back(e);
  s.table[i] = {tag, static_cast<uint32_t>(s.nodes.size())};
  return &s.nodes.back();
}

size_t ExprArena::node_count() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.nodes.size();
  }
  return n;
}

ExprRef ExprArena::constant(uint64_t v, int width) {
  util::check_width(width);
  Expr e{};
  e.kind = ExprKind::kConst;
  e.width = width;
  e.value = util::truncate(v, width);
  return intern(e);
}

ExprRef ExprArena::field(FieldId f, int width) {
  util::check_width(width);
  Expr e{};
  e.kind = ExprKind::kField;
  e.width = width;
  e.field = f;
  return intern(e);
}

ExprRef ExprArena::arith(ArithOp op, ExprRef a, ExprRef b) {
  util::check(a != nullptr && b != nullptr, "arith: null operand");
  util::check(!a->is_bool() && !b->is_bool() && a->width == b->width,
              "arith: operand width mismatch");
  const int w = a->width;
  if (a->is_const() && b->is_const()) {
    return constant(apply_arith(op, a->value, b->value, w), w);
  }
  // Commutative ops: canonicalize the constant to the right so identity
  // rules below fire, and structurally equal expressions intern together.
  switch (op) {
    case ArithOp::kAdd:
    case ArithOp::kMul:
    case ArithOp::kAnd:
    case ArithOp::kOr:
    case ArithOp::kXor:
      if (a->is_const()) std::swap(a, b);
      break;
    default:
      break;
  }
  if (b->is_const()) {
    const uint64_t c = b->value;
    switch (op) {
      case ArithOp::kAdd:
      case ArithOp::kSub:
      case ArithOp::kXor:
      case ArithOp::kOr:
      case ArithOp::kShl:
      case ArithOp::kShr:
        if (c == 0) return a;
        break;
      case ArithOp::kAnd:
        if (c == 0) return constant(0, w);
        if (c == util::mask_bits(w)) return a;
        break;
      case ArithOp::kMul:
        if (c == 0) return constant(0, w);
        if (c == 1) return a;
        break;
    }
  }
  if (op == ArithOp::kXor && a == b) return constant(0, w);
  if ((op == ArithOp::kAnd || op == ArithOp::kOr) && a == b) return a;
  if (op == ArithOp::kSub && a == b) return constant(0, w);
  Expr e{};
  e.kind = ExprKind::kArith;
  e.op = static_cast<uint8_t>(op);
  e.width = w;
  e.lhs = a;
  e.rhs = b;
  return intern(e);
}

ExprRef ExprArena::cmp(CmpOp op, ExprRef a, ExprRef b) {
  util::check(a != nullptr && b != nullptr, "cmp: null operand");
  util::check(!a->is_bool() && !b->is_bool() && a->width == b->width,
              "cmp: operand width mismatch");
  if (a->is_const() && b->is_const()) {
    return bool_const(apply_cmp(op, a->value, b->value));
  }
  if (a == b) {
    switch (op) {
      case CmpOp::kEq:
      case CmpOp::kLe:
      case CmpOp::kGe:
        return bool_const(true);
      case CmpOp::kNe:
      case CmpOp::kLt:
      case CmpOp::kGt:
        return bool_const(false);
    }
  }
  // Canonicalize: constant on the right (flipping the comparison).
  if (a->is_const()) {
    std::swap(a, b);
    switch (op) {
      case CmpOp::kLt: op = CmpOp::kGt; break;
      case CmpOp::kLe: op = CmpOp::kGe; break;
      case CmpOp::kGt: op = CmpOp::kLt; break;
      case CmpOp::kGe: op = CmpOp::kLe; break;
      default: break;
    }
  }
  // Vacuous range comparisons against extremal constants.
  if (b->is_const()) {
    const uint64_t c = b->value;
    const uint64_t top = util::mask_bits(a->width);
    if (op == CmpOp::kLt && c == 0) return bool_const(false);
    if (op == CmpOp::kGe && c == 0) return bool_const(true);
    if (op == CmpOp::kGt && c == top) return bool_const(false);
    if (op == CmpOp::kLe && c == top) return bool_const(true);
  }
  Expr e{};
  e.kind = ExprKind::kCmp;
  e.op = static_cast<uint8_t>(op);
  e.lhs = a;
  e.rhs = b;
  return intern(e);
}

ExprRef ExprArena::band(ExprRef a, ExprRef b) {
  util::check(a != nullptr && b != nullptr && a->is_bool() && b->is_bool(),
              "band: boolean operands required");
  if (a->is_false() || b->is_false()) return bool_const(false);
  if (a->is_true()) return b;
  if (b->is_true()) return a;
  if (a == b) return a;
  Expr e{};
  e.kind = ExprKind::kBool;
  e.op = static_cast<uint8_t>(BoolOp::kAnd);
  e.lhs = a;
  e.rhs = b;
  return intern(e);
}

ExprRef ExprArena::bor(ExprRef a, ExprRef b) {
  util::check(a != nullptr && b != nullptr && a->is_bool() && b->is_bool(),
              "bor: boolean operands required");
  if (a->is_true() || b->is_true()) return bool_const(true);
  if (a->is_false()) return b;
  if (b->is_false()) return a;
  if (a == b) return a;
  Expr e{};
  e.kind = ExprKind::kBool;
  e.op = static_cast<uint8_t>(BoolOp::kOr);
  e.lhs = a;
  e.rhs = b;
  return intern(e);
}

ExprRef ExprArena::bnot(ExprRef a) {
  util::check(a != nullptr && a->is_bool(), "bnot: boolean operand required");
  if (a->is_true()) return bool_const(false);
  if (a->is_false()) return bool_const(true);
  if (a->kind == ExprKind::kNot) return a->lhs;  // double negation
  if (a->kind == ExprKind::kBool) {
    // De Morgan: keeps negations at the atoms, where the solver's domain
    // fast path can digest them.
    if (a->bool_op() == BoolOp::kAnd) return bor(bnot(a->lhs), bnot(a->rhs));
    return band(bnot(a->lhs), bnot(a->rhs));
  }
  if (a->kind == ExprKind::kCmp) {
    // Push negation into the comparison: ¬(x == y) is (x != y), etc.
    CmpOp inv;
    switch (a->cmp_op()) {
      case CmpOp::kEq: inv = CmpOp::kNe; break;
      case CmpOp::kNe: inv = CmpOp::kEq; break;
      case CmpOp::kLt: inv = CmpOp::kGe; break;
      case CmpOp::kLe: inv = CmpOp::kGt; break;
      case CmpOp::kGt: inv = CmpOp::kLe; break;
      case CmpOp::kGe: inv = CmpOp::kLt; break;
      default: inv = CmpOp::kEq; break;
    }
    return cmp(inv, a->lhs, a->rhs);
  }
  Expr e{};
  e.kind = ExprKind::kNot;
  e.lhs = a;
  return intern(e);
}

ExprRef ExprArena::all_of(const std::vector<ExprRef>& xs) {
  ExprRef acc = bool_const(true);
  for (ExprRef x : xs) acc = band(acc, x);
  return acc;
}

ExprRef ExprArena::any_of(const std::vector<ExprRef>& xs) {
  ExprRef acc = bool_const(false);
  for (ExprRef x : xs) acc = bor(acc, x);
  return acc;
}

ExprRef ExprArena::masked_eq(ExprRef f, uint64_t mask, uint64_t value) {
  util::check(f != nullptr && !f->is_bool(), "masked_eq: arith operand");
  const int w = f->width;
  mask = util::truncate(mask, w);
  value = util::truncate(value, w);
  if (mask == 0) return bool_const(true);
  return cmp(CmpOp::kEq, arith(ArithOp::kAnd, f, constant(mask, w)),
             constant(value & mask, w));
}

void collect_fields(ExprRef e, std::unordered_set<FieldId>& out) {
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kBoolConst:
      return;
    case ExprKind::kField:
      out.insert(e->field);
      return;
    case ExprKind::kNot:
      collect_fields(e->lhs, out);
      return;
    default:
      collect_fields(e->lhs, out);
      collect_fields(e->rhs, out);
      return;
  }
}

namespace {

// Appends `e` to `out`. Built by appends rather than chained `+`
// temporaries, which GCC 12's -Wrestrict misreports at -O2.
void append_expr(std::string& out, ExprRef e, const FieldTable& fields) {
  switch (e->kind) {
    case ExprKind::kConst:
      out += e->value > 9 ? util::hex(e->value) : std::to_string(e->value);
      return;
    case ExprKind::kBoolConst:
      out += e->value ? "true" : "false";
      return;
    case ExprKind::kField:
      out += fields.name(e->field);
      return;
    case ExprKind::kNot:
      out += '~';
      append_expr(out, e->lhs, fields);
      return;
    case ExprKind::kArith:
    case ExprKind::kCmp:
    case ExprKind::kBool:
      break;
  }
  const char* op = e->kind == ExprKind::kArith ? arith_op_name(e->arith_op())
                   : e->kind == ExprKind::kCmp ? cmp_op_name(e->cmp_op())
                   : e->bool_op() == BoolOp::kAnd ? "&&"
                                                  : "||";
  out += '(';
  append_expr(out, e->lhs, fields);
  out += ' ';
  out += op;
  out += ' ';
  append_expr(out, e->rhs, fields);
  out += ')';
}

}  // namespace

std::string to_string(ExprRef e, const FieldTable& fields) {
  std::string out;
  append_expr(out, e, fields);
  return out;
}

}  // namespace meissa::ir
