// Bit-vector expressions — the `aexp`/`bexp` syntax of the paper (Fig. 3),
// extended with the operators production P4 programs need (xor, shifts,
// unsigned comparisons, negation).
//
// Expressions are immutable, hash-consed, and arena-owned: an ExprArena
// owns all nodes for one testing "universe" (one program under test), and
// everything else holds non-owning `ExprRef` pointers. Identical
// subexpressions share one node, so structural equality is pointer
// equality — which the symbolic executor and the code-summary pass rely on
// when intersecting path conditions.
//
// Thread safety: interning is safe to call concurrently. The intern table
// is sharded by structural hash, each shard owning its nodes in a deque
// (stable addresses), so parallel engine workers and concurrent
// code-summary passes can share one arena. Hash-consing keeps pointer
// identity canonical regardless of which thread interns a node first.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/field.hpp"
#include "util/bits.hpp"

namespace meissa::ir {

enum class ExprKind : uint8_t {
  kConst,      // width-bit constant
  kField,      // header-field variable
  kArith,      // binary arithmetic op (operands and result share a width)
  kBoolConst,  // true / false
  kCmp,        // unsigned comparison of two same-width arithmetic operands
  kBool,       // && / || of two boolean operands
  kNot,        // boolean negation
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kAnd, kOr, kXor, kShl, kShr };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class BoolOp : uint8_t { kAnd, kOr };

struct Expr;
using ExprRef = const Expr*;

// One immutable expression node. Boolean-valued nodes have width 0.
struct Expr {
  ExprKind kind;
  uint8_t op;  // ArithOp / CmpOp / BoolOp depending on kind
  int width;   // bit width for arithmetic nodes; 0 for boolean nodes
  uint64_t value = 0;             // kConst: the constant; kBoolConst: 0/1
  FieldId field = kInvalidField;  // kField
  ExprRef lhs = nullptr;
  ExprRef rhs = nullptr;

  bool is_bool() const noexcept { return width == 0; }
  bool is_const() const noexcept { return kind == ExprKind::kConst; }
  bool is_true() const noexcept {
    return kind == ExprKind::kBoolConst && value == 1;
  }
  bool is_false() const noexcept {
    return kind == ExprKind::kBoolConst && value == 0;
  }
  ArithOp arith_op() const noexcept { return static_cast<ArithOp>(op); }
  CmpOp cmp_op() const noexcept { return static_cast<CmpOp>(op); }
  BoolOp bool_op() const noexcept { return static_cast<BoolOp>(op); }
};

// Applies `op` to width-truncated operands, returning a truncated result.
uint64_t apply_arith(ArithOp op, uint64_t a, uint64_t b, int width) noexcept;
bool apply_cmp(CmpOp op, uint64_t a, uint64_t b) noexcept;
const char* arith_op_name(ArithOp op) noexcept;
const char* cmp_op_name(CmpOp op) noexcept;

// Owning, hash-consing factory for expression nodes. All `make_*` functions
// perform local constant folding and algebraic identity simplification, so
// the returned node may be structurally smaller than requested (e.g.
// make_arith(kAdd, x, 0) returns x).
class ExprArena {
 public:
  ExprArena();
  ExprArena(const ExprArena&) = delete;
  ExprArena& operator=(const ExprArena&) = delete;

  ExprRef constant(uint64_t v, int width);
  ExprRef field(FieldId f, int width);
  ExprRef arith(ArithOp op, ExprRef a, ExprRef b);
  ExprRef bool_const(bool v) const noexcept { return v ? true_ : false_; }
  ExprRef cmp(CmpOp op, ExprRef a, ExprRef b);
  ExprRef band(ExprRef a, ExprRef b);
  ExprRef bor(ExprRef a, ExprRef b);
  ExprRef bnot(ExprRef a);

  // Conjunction/disjunction over a list (true/false for the empty list).
  ExprRef all_of(const std::vector<ExprRef>& xs);
  ExprRef any_of(const std::vector<ExprRef>& xs);

  // (field & mask) == value — the ternary-match predicate shape.
  ExprRef masked_eq(ExprRef f, uint64_t mask, uint64_t value);

  size_t node_count() const;

 private:
  ExprRef intern(Expr e);

  struct Hash {
    size_t operator()(const Expr& e) const noexcept;
  };
  struct Eq {
    bool operator()(const Expr& a, const Expr& b) const noexcept;
  };

  // One intern shard: a lock, the nodes it owns (deque: stable addresses),
  // and the consing map. Shard choice is a pure function of the node's
  // structural hash, so identical nodes always meet in the same shard.
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::deque<Expr> nodes;
    std::unordered_map<Expr, ExprRef, Hash, Eq> interned;
  };
  std::array<Shard, kShards> shards_;
  ExprRef true_ = nullptr;
  ExprRef false_ = nullptr;
};

// --- Traversal & evaluation helpers (free functions) ----------------------

// Concrete state: a total or partial assignment of fields to values.
using ConcreteState = std::unordered_map<FieldId, uint64_t>;

// The one expression evaluator. `read(f)` returns field `f`'s value, or
// nullopt when it is unbound; the result is nullopt when the expression
// depends on an unbound read. Boolean expressions evaluate to 0/1, and
// && / || short-circuit so partially-bound states still decide when
// possible. Every concrete-state type (ConcreteState, DenseState, the
// device's arena) evaluates through it.
template <class Read>
std::optional<uint64_t> eval_with(ExprRef e, const Read& read) {
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kBoolConst:
      return e->value;
    case ExprKind::kField: {
      std::optional<uint64_t> v = read(e->field);
      if (!v) return std::nullopt;
      return util::truncate(*v, e->width);
    }
    case ExprKind::kArith: {
      auto a = eval_with(e->lhs, read);
      auto b = eval_with(e->rhs, read);
      if (!a || !b) return std::nullopt;
      return apply_arith(e->arith_op(), *a, *b, e->width);
    }
    case ExprKind::kCmp: {
      // Fast path for the dominant guard shape, `field <op> const`
      // (entry/edge guards, if-conditions): skip two recursion levels.
      if (e->lhs->kind == ExprKind::kField &&
          e->rhs->kind == ExprKind::kConst) {
        std::optional<uint64_t> v = read(e->lhs->field);
        if (!v) return std::nullopt;
        return apply_cmp(e->cmp_op(), util::truncate(*v, e->lhs->width),
                         e->rhs->value)
                   ? 1
                   : 0;
      }
      auto a = eval_with(e->lhs, read);
      auto b = eval_with(e->rhs, read);
      if (!a || !b) return std::nullopt;
      return apply_cmp(e->cmp_op(), *a, *b) ? 1 : 0;
    }
    case ExprKind::kBool: {
      auto a = eval_with(e->lhs, read);
      if (e->bool_op() == BoolOp::kAnd) {
        if (a && *a == 0) return 0;
        auto b = eval_with(e->rhs, read);
        if (b && *b == 0) return 0;
        if (a && b) return 1;
        return std::nullopt;
      }
      if (a && *a == 1) return 1;
      auto b = eval_with(e->rhs, read);
      if (b && *b == 1) return 1;
      if (a && b) return 0;
      return std::nullopt;
    }
    case ExprKind::kNot: {
      auto a = eval_with(e->lhs, read);
      if (!a) return std::nullopt;
      return *a ? 0 : 1;
    }
  }
  return std::nullopt;
}

// Evaluates `e` under `state`; fields absent from the state are unbound.
inline std::optional<uint64_t> eval(ExprRef e, const ConcreteState& state) {
  return eval_with(e, [&state](FieldId f) -> std::optional<uint64_t> {
    auto it = state.find(f);
    if (it == state.end()) return std::nullopt;
    return it->second;
  });
}

// Substitutes fields via `lookup` (return nullptr to keep a field symbolic),
// rebuilding — and thereby re-simplifying — the expression in `arena`.
ExprRef substitute(ExprRef e, ExprArena& arena,
                   const std::function<ExprRef(FieldId, int)>& lookup);

// Adds every field referenced by `e` to `out`.
void collect_fields(ExprRef e, std::unordered_set<FieldId>& out);

// Pretty-prints `e` using names from `fields`.
std::string to_string(ExprRef e, const FieldTable& fields);

}  // namespace meissa::ir
