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

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
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
  ExprRef intern(const Expr& e);

  // One intern shard: a lock, the nodes it owns (deque: stable addresses),
  // and the consing table. Shard choice is a pure function of the node's
  // structural hash, so identical nodes always meet in the same shard.
  //
  // The table is open addressing with linear probing over a power-of-two
  // array of 8-byte slots, at most half full (every node of the shard has
  // exactly one slot). A slot holds 32 bits of the node's mixed hash (its
  // low bits are the home slot, so growing rehashes without touching a
  // node) and the node's position in the deque. A probe compares the
  // stored hash bits before the node, so a lookup hashes the node once and
  // reads a node only on a likely match.
  static constexpr size_t kShards = 16;
  struct Slot {
    uint32_t tag = 0;
    uint32_t index = 0;  // 1 + position in `nodes`; 0: empty
  };
  struct Shard {
    mutable std::mutex mu;
    std::deque<Expr> nodes;
    std::vector<Slot> table;
  };
  static void grow(Shard& s);
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

// The memo of one substitute() call: inner node -> rewritten node, so a
// subexpression shared inside the DAG is rewritten once. An
// open-addressing table keyed by node pointer whose slots are
// epoch-stamped like DenseState's cells: begin() forgets every entry with
// one counter bump, so a memo reused across calls allocates only when it
// grows. The caller owns it — one per exploration (SymState) or rewriting
// pass — and it is not thread-safe.
class SubstMemo {
 public:
  // Forgets every entry.
  void begin() noexcept {
    live_ = 0;
    if (++epoch_ == 0) {
      // Epoch wrap: refill once so no stale stamp aliases the fresh epoch.
      for (Slot& s : slots_) s.stamp = 0;
      epoch_ = 1;
    }
  }

  // The rewritten node recorded for `e`, or nullptr.
  ExprRef find(ExprRef e) const noexcept {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = index(e) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.stamp != epoch_) return nullptr;
      if (s.key == e) return s.value;
    }
  }

  // Records `e -> out`; `e` must not be recorded yet.
  void insert(ExprRef e, ExprRef out) {
    if ((live_ + 1) * 2 > slots_.size()) grow();
    const size_t mask = slots_.size() - 1;
    size_t i = index(e) & mask;
    while (slots_[i].stamp == epoch_) i = (i + 1) & mask;
    slots_[i] = {e, out, epoch_};
    ++live_;
  }

 private:
  struct Slot {
    ExprRef key = nullptr;
    ExprRef value = nullptr;
    uint32_t stamp = 0;  // live iff == epoch_
  };

  static size_t index(ExprRef e) noexcept {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(e) * 0x9e3779b97f4a7c15ull) >> 32);
  }

  void grow() {
    std::vector<Slot> old(std::max<size_t>(64, slots_.size() * 2));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.stamp != epoch_) continue;
      size_t i = index(s.key) & mask;
      while (slots_[i].stamp == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half live
  uint32_t epoch_ = 1;       // fresh slots carry stamp 0: never live
  size_t live_ = 0;
};

namespace detail {

template <class Lookup>
ExprRef substitute_node(ExprRef e, ExprArena& arena, const Lookup& lookup,
                        SubstMemo& memo) {
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kBoolConst:
      return e;
    case ExprKind::kField: {
      ExprRef repl = lookup(e->field, e->width);
      return repl != nullptr ? repl : e;
    }
    default:
      break;
  }
  if (ExprRef hit = memo.find(e)) return hit;
  ExprRef out = e;
  ExprRef a = substitute_node(e->lhs, arena, lookup, memo);
  if (e->kind == ExprKind::kNot) {
    if (a != e->lhs) out = arena.bnot(a);
  } else {
    ExprRef b = substitute_node(e->rhs, arena, lookup, memo);
    if (a != e->lhs || b != e->rhs) {
      switch (e->kind) {
        case ExprKind::kArith:
          out = arena.arith(e->arith_op(), a, b);
          break;
        case ExprKind::kCmp:
          out = arena.cmp(e->cmp_op(), a, b);
          break;
        default:
          out = e->bool_op() == BoolOp::kAnd ? arena.band(a, b)
                                             : arena.bor(a, b);
          break;
      }
    }
  }
  memo.insert(e, out);
  return out;
}

}  // namespace detail

// Substitutes fields via `lookup(field, width)` (return nullptr to keep a
// field symbolic), rebuilding — and thereby re-simplifying — the
// expression in `arena`. `memo` is scratch space the call starts by
// clearing; reusing one across calls is what keeps substitution free of
// allocation. Nodes are hash-consed, so the result is pointer-identical to
// a rebuild without the memo.
template <class Lookup>
ExprRef substitute(ExprRef e, ExprArena& arena, const Lookup& lookup,
                   SubstMemo& memo) {
  memo.begin();
  return detail::substitute_node(e, arena, lookup, memo);
}

// Adds every field referenced by `e` to `out`.
void collect_fields(ExprRef e, std::unordered_set<FieldId>& out);

// Pretty-prints `e` using names from `fields`.
std::string to_string(ExprRef e, const FieldTable& fields);

}  // namespace meissa::ir
