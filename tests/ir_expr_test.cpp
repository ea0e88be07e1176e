// Unit tests for the expression arena: hash-consing (also under concurrent
// interning), folding, evaluation, and memoized substitution; and for the
// dense concrete state.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "ir/dense.hpp"
#include "ir/stmt.hpp"
#include "util/rng.hpp"

namespace meissa::ir {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  Context ctx;
};

TEST_F(ExprTest, HashConsingSharesStructurallyEqualNodes) {
  ExprRef a1 = ctx.field_var("hdr.ipv4.ttl", 8);
  ExprRef a2 = ctx.field_var("hdr.ipv4.ttl", 8);
  EXPECT_EQ(a1, a2);
  ExprRef s1 = ctx.arena.arith(ArithOp::kSub, a1, ctx.arena.constant(1, 8));
  ExprRef s2 = ctx.arena.arith(ArithOp::kSub, a2, ctx.arena.constant(1, 8));
  EXPECT_EQ(s1, s2);
}

TEST_F(ExprTest, ConstantFolding) {
  ExprRef c = ctx.arena.arith(ArithOp::kAdd, ctx.arena.constant(250, 8),
                              ctx.arena.constant(10, 8));
  ASSERT_TRUE(c->is_const());
  EXPECT_EQ(c->value, 4u);  // 8-bit wraparound
  ExprRef cmp = ctx.arena.cmp(CmpOp::kLt, ctx.arena.constant(3, 16),
                              ctx.arena.constant(4, 16));
  EXPECT_TRUE(cmp->is_true());
}

TEST_F(ExprTest, IdentitySimplifications) {
  ExprRef x = ctx.field_var("x", 16);
  EXPECT_EQ(ctx.arena.arith(ArithOp::kAdd, x, ctx.arena.constant(0, 16)), x);
  EXPECT_EQ(ctx.arena.arith(ArithOp::kAnd, x, ctx.arena.constant(0xffff, 16)),
            x);
  ExprRef zero = ctx.arena.arith(ArithOp::kAnd, x, ctx.arena.constant(0, 16));
  ASSERT_TRUE(zero->is_const());
  EXPECT_EQ(zero->value, 0u);
  EXPECT_EQ(ctx.arena.arith(ArithOp::kXor, x, x)->value, 0u);
}

TEST_F(ExprTest, CmpAgainstSelfAndExtremes) {
  ExprRef x = ctx.field_var("x", 8);
  EXPECT_TRUE(ctx.arena.cmp(CmpOp::kEq, x, x)->is_true());
  EXPECT_TRUE(ctx.arena.cmp(CmpOp::kLt, x, x)->is_false());
  EXPECT_TRUE(ctx.arena.cmp(CmpOp::kGe, x, ctx.arena.constant(0, 8))->is_true());
  EXPECT_TRUE(
      ctx.arena.cmp(CmpOp::kGt, x, ctx.arena.constant(255, 8))->is_false());
}

TEST_F(ExprTest, BooleanShortCircuitConstruction) {
  ExprRef x = ctx.field_var("x", 8);
  ExprRef p = ctx.arena.cmp(CmpOp::kEq, x, ctx.arena.constant(1, 8));
  EXPECT_EQ(ctx.arena.band(ctx.arena.bool_const(true), p), p);
  EXPECT_TRUE(ctx.arena.band(ctx.arena.bool_const(false), p)->is_false());
  EXPECT_TRUE(ctx.arena.bor(ctx.arena.bool_const(true), p)->is_true());
  EXPECT_EQ(ctx.arena.bor(ctx.arena.bool_const(false), p), p);
  EXPECT_EQ(ctx.arena.band(p, p), p);
}

TEST_F(ExprTest, NegationPushesIntoComparisons) {
  ExprRef x = ctx.field_var("x", 8);
  ExprRef eq = ctx.arena.cmp(CmpOp::kEq, x, ctx.arena.constant(5, 8));
  ExprRef ne = ctx.arena.bnot(eq);
  EXPECT_EQ(ne->kind, ExprKind::kCmp);
  EXPECT_EQ(ne->cmp_op(), CmpOp::kNe);
  EXPECT_EQ(ctx.arena.bnot(ne), eq);
}

TEST_F(ExprTest, EvalComputesModularArithmetic) {
  ExprRef x = ctx.field_var("x", 8);
  ExprRef y = ctx.field_var("y", 8);
  ExprRef e = ctx.arena.arith(ArithOp::kMul, ctx.arena.arith(ArithOp::kAdd, x, y),
                              ctx.arena.constant(3, 8));
  ConcreteState s{{ctx.fields.require("x"), 100}, {ctx.fields.require("y"), 60}};
  // (100 + 60) mod 256 = 160; 160 * 3 mod 256 = 480 mod 256 = 224
  EXPECT_EQ(eval(e, s), std::optional<uint64_t>(224));
}

TEST_F(ExprTest, EvalReturnsNulloptOnUnboundField) {
  ExprRef x = ctx.field_var("x", 8);
  ConcreteState s;
  EXPECT_EQ(eval(x, s), std::nullopt);
  // But short-circuiting can still decide some boolean expressions.
  ExprRef p = ctx.arena.cmp(CmpOp::kEq, x, ctx.arena.constant(1, 8));
  ExprRef decided = ctx.arena.bor(ctx.arena.bool_const(true), p);
  EXPECT_TRUE(decided->is_true());
}

TEST_F(ExprTest, SubstituteRewritesAndSimplifies) {
  ExprRef x = ctx.field_var("x", 8);
  ExprRef y = ctx.field_var("y", 8);
  FieldId fx = ctx.fields.require("x");
  // x + y with x := 7 becomes 7 + y
  ExprRef e = ctx.arena.arith(ArithOp::kAdd, x, y);
  auto x_is_7 = [&](FieldId f, int w) -> ExprRef {
    return f == fx ? ctx.arena.constant(7, w) : nullptr;
  };
  SubstMemo memo;
  ExprRef r = substitute(e, ctx.arena, x_is_7, memo);
  // x == x - substitution makes the comparison decidable
  ExprRef p = ctx.arena.cmp(CmpOp::kEq, e, ctx.arena.arith(ArithOp::kAdd, y, ctx.arena.constant(7, 8)));
  ExprRef pr = substitute(p, ctx.arena, x_is_7, memo);
  EXPECT_TRUE(pr->is_true());
  ConcreteState s{{ctx.fields.require("y"), 9}};
  EXPECT_EQ(eval(r, s), std::optional<uint64_t>(16));
}

// The memo-free rebuild substitute() must agree with, node for node.
ExprRef naive_substitute(ExprRef e, ExprArena& arena,
                         const std::unordered_map<FieldId, ExprRef>& bind) {
  switch (e->kind) {
    case ExprKind::kConst:
    case ExprKind::kBoolConst:
      return e;
    case ExprKind::kField: {
      auto it = bind.find(e->field);
      return it != bind.end() ? it->second : e;
    }
    case ExprKind::kNot: {
      ExprRef a = naive_substitute(e->lhs, arena, bind);
      return a != e->lhs ? arena.bnot(a) : e;
    }
    default:
      break;
  }
  ExprRef a = naive_substitute(e->lhs, arena, bind);
  ExprRef b = naive_substitute(e->rhs, arena, bind);
  if (a == e->lhs && b == e->rhs) return e;
  switch (e->kind) {
    case ExprKind::kArith: return arena.arith(e->arith_op(), a, b);
    case ExprKind::kCmp: return arena.cmp(e->cmp_op(), a, b);
    default:
      return e->bool_op() == BoolOp::kAnd ? arena.band(a, b)
                                          : arena.bor(a, b);
  }
}

TEST_F(ExprTest, PropertyMemoizedSubstituteMatchesNaiveRebuild) {
  // One memo across every call: an entry left from an earlier call (an
  // earlier epoch) must never answer for a later one, where the same node
  // rewrites differently.
  util::Rng rng(20);
  const FieldId fs[] = {ctx.fields.intern("a", 8), ctx.fields.intern("b", 8),
                        ctx.fields.intern("c", 8), ctx.fields.intern("d", 8)};
  const ArithOp aops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kAnd,
                          ArithOp::kOr, ArithOp::kXor, ArithOp::kMul};
  const CmpOp cops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe};
  SubstMemo memo;
  for (int i = 0; i < 1000; ++i) {
    // A random DAG: every new node picks its operands among earlier ones,
    // so subexpressions are shared.
    std::vector<ExprRef> arith = {ctx.var(fs[0]), ctx.var(fs[1]),
                                  ctx.var(fs[2]), ctx.var(fs[3]),
                                  ctx.arena.constant(rng.bits(8), 8)};
    for (int k = 0; k < 8; ++k) {
      arith.push_back(ctx.arena.arith(aops[rng.below(6)],
                                      arith[rng.below(arith.size())],
                                      arith[rng.below(arith.size())]));
    }
    std::vector<ExprRef> preds;
    for (int k = 0; k < 4; ++k) {
      preds.push_back(ctx.arena.cmp(cops[rng.below(4)],
                                    arith[rng.below(arith.size())],
                                    arith[rng.below(arith.size())]));
    }
    for (int k = 0; k < 4; ++k) {
      ExprRef p = preds[rng.below(preds.size())];
      ExprRef q = preds[rng.below(preds.size())];
      preds.push_back(rng.chance(1, 3)   ? ctx.arena.bnot(p)
                      : rng.chance(1, 2) ? ctx.arena.band(p, q)
                                         : ctx.arena.bor(p, q));
    }
    // A random lookup: each field kept, pinned to a constant, or renamed.
    std::unordered_map<FieldId, ExprRef> bind;
    for (FieldId f : fs) {
      switch (rng.below(3)) {
        case 0: break;
        case 1: bind[f] = ctx.arena.constant(rng.bits(8), 8); break;
        default: bind[f] = ctx.var(fs[rng.below(4)]); break;
      }
    }
    auto lookup = [&](FieldId f, int) -> ExprRef {
      auto it = bind.find(f);
      return it != bind.end() ? it->second : nullptr;
    };
    ExprRef e = rng.chance(1, 2) ? preds.back() : arith.back();
    ASSERT_EQ(substitute(e, ctx.arena, lookup, memo),
              naive_substitute(e, ctx.arena, bind))
        << "iteration " << i << ": " << to_string(e, ctx.fields);
  }
}

TEST_F(ExprTest, SubstituteRewritesASharedNodeOnce) {
  // x_{i+1} = x_i + x_i: 64 levels make 2^64 root-to-leaf paths, so only a
  // memoized walk finishes. Each inner node is rewritten once; the field
  // leaf is looked up once per occurrence under x_1 (fields skip the memo).
  // A walk without the memo is cut at the 65th lookup instead of running
  // for ever.
  ExprRef x = ctx.field_var("x", 16);
  const FieldId fx = ctx.fields.require("x");
  ExprRef y = ctx.field_var("y", 16);
  ExprRef e = x;
  for (int i = 0; i < 64; ++i) e = ctx.arena.arith(ArithOp::kAdd, e, e);
  int lookups = 0;
  SubstMemo memo;
  const size_t before = ctx.arena.node_count();
  ExprRef r = nullptr;
  ASSERT_NO_THROW(r = substitute(
                      e, ctx.arena,
                      [&](FieldId f, int) -> ExprRef {
                        if (++lookups > 64) {
                          throw std::runtime_error("substitution walks paths");
                        }
                        return f == fx ? y : nullptr;
                      },
                      memo));
  EXPECT_EQ(lookups, 2);
  EXPECT_EQ(ctx.arena.node_count() - before, 64u);  // y_1 .. y_64
  ExprRef want = y;
  for (int i = 0; i < 64; ++i) want = ctx.arena.arith(ArithOp::kAdd, want, want);
  EXPECT_EQ(r, want);
}

TEST_F(ExprTest, ConcurrentInterningGivesOnePointerPerNode) {
  // Four threads intern overlapping sets (thread t builds nodes
  // [t*k, t*k + 2k)), so every shard's table grows several times while
  // other threads probe it. Equal nodes must meet in one pointer, and the
  // node count must be exact.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 6000;
  constexpr uint64_t kStride = kPerThread / 2;
  ExprRef x = ctx.field_var("x", 32);
  const size_t before = ctx.arena.node_count();
  std::vector<std::vector<ExprRef>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t k = 0; k < kPerThread; ++k) {
        const uint64_t v = t * kStride + k + 1;  // 0 would fold x + 0 to x
        got[t].push_back(
            ctx.arena.arith(ArithOp::kAdd, x, ctx.arena.constant(v, 32)));
      }
    });
  }
  for (std::thread& th : ts) th.join();
  for (int t = 1; t < kThreads; ++t) {
    for (uint64_t k = 0; k < kStride; ++k) {
      // Value t*kStride + k + 1: thread t's k-th, thread t-1's (k+kStride)-th.
      ASSERT_EQ(got[t][k], got[t - 1][k + kStride]);
    }
  }
  std::unordered_set<ExprRef> distinct;
  for (const auto& g : got) distinct.insert(g.begin(), g.end());
  const uint64_t values = (kThreads - 1) * kStride + kPerThread;
  EXPECT_EQ(distinct.size(), values);
  // Each distinct value: one constant node and one sum node.
  EXPECT_EQ(ctx.arena.node_count() - before, 2 * values);
  for (ExprRef e : distinct) {
    EXPECT_EQ(ctx.arena.arith(ArithOp::kAdd, x,
                              ctx.arena.constant(e->rhs->value, 32)),
              e);
  }
}

TEST_F(ExprTest, MaskedEqBuildsTernaryShape) {
  ExprRef ip = ctx.field_var("hdr.ipv4.dst", 32);
  ExprRef m = ctx.arena.masked_eq(ip, 0xffff0000u, 0x7f010000u);
  ConcreteState s{{ctx.fields.require("hdr.ipv4.dst"), 0x7f01fffeu}};
  EXPECT_EQ(eval(m, s), std::optional<uint64_t>(1));
  s[ctx.fields.require("hdr.ipv4.dst")] = 0x7f02fffeu;
  EXPECT_EQ(eval(m, s), std::optional<uint64_t>(0));
  // Zero mask matches everything.
  EXPECT_TRUE(ctx.arena.masked_eq(ip, 0, 0x1234)->is_true());
}

TEST_F(ExprTest, CollectFieldsFindsAllLeaves) {
  ExprRef x = ctx.field_var("x", 8);
  ExprRef y = ctx.field_var("y", 8);
  ExprRef p = ctx.arena.band(
      ctx.arena.cmp(CmpOp::kLt, x, ctx.arena.constant(9, 8)),
      ctx.arena.cmp(CmpOp::kEq, y, ctx.arena.constant(2, 8)));
  std::unordered_set<FieldId> fs;
  collect_fields(p, fs);
  EXPECT_EQ(fs.size(), 2u);
}

TEST_F(ExprTest, ToStringRendersReadableText) {
  ExprRef x = ctx.field_var("pkt.port", 9);
  ExprRef p = ctx.arena.cmp(CmpOp::kEq, x, ctx.arena.constant(5, 9));
  EXPECT_EQ(to_string(p, ctx.fields), "(pkt.port == 5)");
}

// Property: arena folding agrees with direct evaluation on random exprs.
TEST_F(ExprTest, PropertyFoldingMatchesEvaluation) {
  util::Rng rng(42);
  ExprRef x = ctx.field_var("x", 16);
  ExprRef y = ctx.field_var("y", 16);
  FieldId fx = ctx.fields.require("x");
  FieldId fy = ctx.fields.require("y");
  const ArithOp ops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                         ArithOp::kAnd, ArithOp::kOr,  ArithOp::kXor,
                         ArithOp::kShl, ArithOp::kShr};
  for (int i = 0; i < 500; ++i) {
    // Build a random small expression tree over {x, y, consts}.
    std::vector<ExprRef> leaves = {x, y, ctx.arena.constant(rng.bits(16), 16),
                                   ctx.arena.constant(rng.bits(4), 16)};
    ExprRef a = leaves[rng.below(leaves.size())];
    ExprRef b = leaves[rng.below(leaves.size())];
    ExprRef c = ctx.arena.arith(ops[rng.below(8)], a, b);
    ExprRef d = ctx.arena.arith(ops[rng.below(8)], c,
                                leaves[rng.below(leaves.size())]);
    ConcreteState s{{fx, rng.bits(16)}, {fy, rng.bits(16)}};
    auto direct = [&](ExprRef e, auto&& self) -> uint64_t {
      switch (e->kind) {
        case ExprKind::kConst: return e->value;
        case ExprKind::kField: return util::truncate(s.at(e->field), 16);
        case ExprKind::kArith:
          return apply_arith(e->arith_op(), self(e->lhs, self),
                             self(e->rhs, self), e->width);
        default: ADD_FAILURE(); return 0;
      }
    };
    auto ev = eval(d, s);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*ev, direct(d, direct));
  }
}

// ------------------------------------------------------------- DenseState

TEST_F(ExprTest, DenseStateUnsetReadsZeroOnlyBelowTheZeroLimit) {
  FieldId a = ctx.fields.intern("a", 8);
  FieldId b = ctx.fields.intern("b", 8);
  FieldId c = ctx.fields.intern("c", 8);
  DenseState s;
  s.reset(ctx.fields.size(), b + 1);  // a and b read 0; c is unbound
  EXPECT_EQ(s.find(a), std::optional<uint64_t>(0));
  EXPECT_EQ(s.find(b), std::optional<uint64_t>(0));
  EXPECT_TRUE(s.has(b));
  EXPECT_EQ(s.find(c), std::nullopt);
  EXPECT_FALSE(s.has(c));
  EXPECT_EQ(s.get(c), 0u);
  ExprRef sum = ctx.arena.arith(ArithOp::kAdd, ctx.var(a), ctx.var(c));
  EXPECT_EQ(eval(sum, s), std::nullopt);
  s.set(c, 5);
  EXPECT_EQ(eval(sum, s), std::optional<uint64_t>(5));
  // Limit 0: every unset field is unbound.
  s.reset(ctx.fields.size());
  EXPECT_EQ(s.find(a), std::nullopt);
  EXPECT_FALSE(s.has(a));
}

TEST_F(ExprTest, DenseStateResetForgetsEarlierWrites) {
  FieldId a = ctx.fields.intern("a", 8);
  FieldId b = ctx.fields.intern("b", 8);
  DenseState s;
  s.reset(ctx.fields.size());
  s.set(a, 7);
  s.set(b, 9);
  s.reset(ctx.fields.size());
  EXPECT_EQ(s.find(a), std::nullopt);
  s.set(b, 3);
  EXPECT_EQ(s.find(b), std::optional<uint64_t>(3));
  // Below the zero limit a forgotten write reads 0, not its old value.
  s.reset(ctx.fields.size(), ctx.fields.size());
  EXPECT_EQ(s.find(a), std::optional<uint64_t>(0));
  EXPECT_EQ(s.find(b), std::optional<uint64_t>(0));
}

TEST_F(ExprTest, DenseStateGrowsForFieldsInternedAfterAReset) {
  ctx.fields.intern("a", 8);
  DenseState s;
  s.reset(ctx.fields.size(), ctx.fields.size());
  const size_t before = s.size();
  FieldId late = ctx.fields.intern("late", 16);
  FieldId later = ctx.fields.intern("later", 16);
  ASSERT_GE(later, before);
  EXPECT_EQ(s.find(later), std::nullopt);  // above the limit: unbound
  s.set(later, 0xbeef);
  EXPECT_GT(s.size(), before);
  EXPECT_EQ(s.find(later), std::optional<uint64_t>(0xbeef));
  EXPECT_EQ(s.find(late), std::nullopt);  // grown past, never written
}

// Property: the evaluator reads a dense state and a map the same way,
// including the short-circuit rules over partially-bound states.
TEST_F(ExprTest, PropertyDenseAndMapEvaluationAgree) {
  util::Rng rng(7);
  const FieldId fs[] = {ctx.fields.intern("p", 8), ctx.fields.intern("q", 8),
                        ctx.fields.intern("r", 8)};
  DenseState d;
  for (int i = 0; i < 500; ++i) {
    ConcreteState m;
    d.reset(ctx.fields.size());
    for (FieldId f : fs) {
      if (rng.chance(2, 3)) {
        m[f] = rng.bits(8);
        d.set(f, m[f]);
      }
    }
    auto leaf = [&]() -> ExprRef {
      return rng.chance(1, 3) ? ctx.arena.constant(rng.bits(8), 8)
                              : ctx.var(fs[rng.below(3)]);
    };
    const CmpOp cmps[] = {CmpOp::kEq, CmpOp::kLt, CmpOp::kGe};
    auto pred = [&]() -> ExprRef {
      return ctx.arena.cmp(cmps[rng.below(3)],
                           ctx.arena.arith(ArithOp::kXor, leaf(), leaf()),
                           leaf());
    };
    ExprRef e = rng.chance(1, 2) ? ctx.arena.band(pred(), pred())
                                 : ctx.arena.bor(pred(), ctx.arena.bnot(pred()));
    EXPECT_EQ(eval(e, d), eval(e, m));
  }
}

}  // namespace
}  // namespace meissa::ir
