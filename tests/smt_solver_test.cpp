// Tests for the SMT layer: the SAT core, single-field atom decomposition,
// the domain fast path, the bit-blaster, incremental push/pop, and
// cross-checks against brute force and (when available) Z3.
#include <gtest/gtest.h>

#include <bitset>
#include <memory>

#include "analysis/env.hpp"
#include "smt/bv_solver.hpp"
#include "smt/domain.hpp"
#include "smt/sat.hpp"
#include "smt/solver.hpp"
#include "util/rng.hpp"

namespace meissa::smt {
namespace {

using ir::ArithOp;
using ir::CmpOp;
using ir::ExprRef;

// ---------------------------------------------------------------- SAT core

TEST(SatSolver, TrivialSatAndUnsat) {
  SatSolver s;
  Lit a = Lit::make(s.new_var(), false);
  Lit b = Lit::make(s.new_var(), false);
  s.add_binary(a, b);
  EXPECT_TRUE(s.solve({}));
  s.add_unit(~a);
  s.add_unit(~b);
  EXPECT_FALSE(s.solve({}));
}

TEST(SatSolver, AssumptionsDoNotPersist) {
  SatSolver s;
  Lit a = Lit::make(s.new_var(), false);
  Lit b = Lit::make(s.new_var(), false);
  s.add_binary(~a, b);  // a -> b
  EXPECT_TRUE(s.solve({a, ~b}) == false);  // a ∧ ¬b contradicts a -> b
  EXPECT_TRUE(s.solve({a}));
  EXPECT_TRUE(s.model_value(b.var()));
  EXPECT_TRUE(s.solve({~b}));  // earlier assumptions are gone
  EXPECT_FALSE(s.model_value(b.var()));
}

TEST(SatSolver, PigeonholeThreeIntoTwoIsUnsat) {
  // 3 pigeons, 2 holes: forces genuine conflict analysis.
  SatSolver s;
  Lit p[3][2];
  for (auto& row : p)
    for (Lit& l : row) l = Lit::make(s.new_var(), false);
  for (auto& row : p) s.add_binary(row[0], row[1]);
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_binary(~p[i][h], ~p[j][h]);
      }
    }
  }
  EXPECT_FALSE(s.solve({}));
}

TEST(SatSolver, RandomThreeSatAgreesWithBruteForce) {
  util::Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    const int nvars = 8;
    const int nclauses = static_cast<int>(rng.range(10, 38));
    SatSolver s;
    std::vector<uint32_t> vars;
    for (int i = 0; i < nvars; ++i) vars.push_back(s.new_var());
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit::make(vars[rng.below(nvars)], rng.chance(1, 2)));
      }
      clauses.push_back(cl);
      s.add_clause(cl);
    }
    bool brute = false;
    for (uint32_t m = 0; m < (1u << nvars) && !brute; ++m) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (Lit l : cl) {
          // var index = vars[i]; map back by position
          for (int i = 0; i < nvars; ++i) {
            if (vars[static_cast<size_t>(i)] == l.var()) {
              bool v = (m >> i) & 1;
              if (v != l.sign()) any = true;
            }
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      if (all) brute = true;
    }
    EXPECT_EQ(s.solve({}), brute) << "round " << round;
  }
}

// ---------------------------------------------------- Atom decomposition

TEST(Decompose, ConjunctionOfSingleFieldCompares) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  ir::ExprRef e = ctx.arena.band(
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a), ctx.arena.constant(3, 8)),
      ctx.arena.cmp(ir::CmpOp::kLt, ctx.var(b), ctx.arena.constant(7, 8)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(opaque.empty());
  EXPECT_EQ(atoms[0].field, a);
  EXPECT_EQ(atoms[1].field, b);
}

TEST(Decompose, DeMorganOverNegatedDisjunction) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  ir::ExprRef e = ctx.arena.bnot(ctx.arena.bor(
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a), ctx.arena.constant(3, 8)),
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(b), ctx.arena.constant(4, 8))));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(opaque.empty());
  EXPECT_FALSE(atom_holds(3, atoms[0]));
  EXPECT_TRUE(atom_holds(5, atoms[0]));
}

TEST(Decompose, ValueSetPattern) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  auto eq = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a), ctx.arena.constant(v, 8));
  };
  ir::ExprRef e =
      ctx.arena.bor(ctx.arena.bor(eq(1), eq(2)), ctx.arena.bor(eq(3), eq(9)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(opaque.empty());
  // {1, 2, 3, 9}: adjacent members merge into one interval.
  ASSERT_EQ(atoms[0].set.size(), 2u);
  EXPECT_EQ(atoms[0].set[0], (Interval{1, 3}));
  EXPECT_EQ(atoms[0].set[1], (Interval{9, 9}));
}

TEST(Decompose, CrossFieldDisjunctionStaysOpaque) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a), ctx.arena.constant(3, 8)),
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(b), ctx.arena.constant(4, 8)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  EXPECT_TRUE(atoms.empty());
  ASSERT_EQ(opaque.size(), 1u);
}

TEST(Decompose, OutOfMaskEqualityIsAlwaysFalse) {
  // (f & 0x3a) == 0x2f can never hold (0x2f has bits outside the mask).
  // The canonicalized atom must be unsatisfiable and its negation a
  // tautology — getting this wrong once broke solver equivalence.
  ir::Context ctx;
  ir::FieldId f = ctx.fields.intern("f", 8);
  ir::ExprRef e = ctx.arena.cmp(
      ir::CmpOp::kEq,
      ctx.arena.arith(ir::ArithOp::kAnd, ctx.var(f),
                      ctx.arena.constant(0x3a, 8)),
      ctx.arena.constant(0x2f, 8));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(opaque.empty());
  for (uint64_t v : {0ull, 0x2aull, 0x2full, 0xffull}) {
    EXPECT_FALSE(atom_holds(v, atoms[0])) << v;
    EXPECT_TRUE(atom_holds(v, negate_atom(atoms[0]))) << v;
  }
}

TEST(Decompose, RangeMissIsOneMembershipAtom) {
  // The miss arm of a range entry: id < 0x1000 || id > 0x1fff.
  ir::Context ctx;
  ir::FieldId f = ctx.fields.intern("id", 16);
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.cmp(CmpOp::kLt, ctx.var(f), ctx.arena.constant(0x1000, 16)),
      ctx.arena.cmp(CmpOp::kGt, ctx.var(f), ctx.arena.constant(0x1fff, 16)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(opaque.empty());
  EXPECT_EQ(atoms[0].field, f);
  ASSERT_EQ(atoms[0].set.size(), 2u);
  EXPECT_EQ(atoms[0].set[0], (Interval{0, 0xfff}));
  EXPECT_EQ(atoms[0].set[1], (Interval{0x2000, 0xffff}));
  const Atom hit = negate_atom(atoms[0]);
  ASSERT_EQ(hit.set.size(), 1u);
  EXPECT_EQ(hit.set[0], (Interval{0x1000, 0x1fff}));
  for (uint64_t v : {0x0ull, 0xfffull, 0x1000ull, 0x1fffull, 0x2000ull,
                     0xffffull}) {
    const bool miss = v < 0x1000 || v > 0x1fff;
    EXPECT_EQ(atom_holds(v, atoms[0]), miss) << v;
    EXPECT_EQ(atom_holds(v, hit), !miss) << v;
  }
}

TEST(Decompose, OrOfAndsAndNestedNegationsOnOneField) {
  // (f >= 10 && f <= 20) || !(f != 40 && !(f > 250)): [10, 20] u {40}
  // u [251, 255].
  ir::Context ctx;
  ir::FieldId f = ctx.fields.intern("f", 8);
  auto cmp = [&](CmpOp op, uint64_t v) {
    return ctx.arena.cmp(op, ctx.var(f), ctx.arena.constant(v, 8));
  };
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.band(cmp(CmpOp::kGe, 10), cmp(CmpOp::kLe, 20)),
      ctx.arena.bnot(ctx.arena.band(cmp(CmpOp::kNe, 40),
                                    ctx.arena.bnot(cmp(CmpOp::kGt, 250)))));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(opaque.empty());
  ASSERT_EQ(atoms[0].set.size(), 3u);
  EXPECT_EQ(atoms[0].set[0], (Interval{10, 20}));
  EXPECT_EQ(atoms[0].set[1], (Interval{40, 40}));
  EXPECT_EQ(atoms[0].set[2], (Interval{251, 255}));
}

TEST(Decompose, MaskedDisjunctionStaysOpaque) {
  // A ternary leaf is not an interval: the disjunction stays opaque.
  ir::Context ctx;
  ir::FieldId f = ctx.fields.intern("f", 8);
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.masked_eq(ctx.var(f), 0xf0, 0x10),
      ctx.arena.cmp(CmpOp::kLt, ctx.var(f), ctx.arena.constant(3, 8)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  EXPECT_TRUE(atoms.empty());
  ASSERT_EQ(opaque.size(), 1u);
}

TEST(Decompose, CrossFieldRangeDisjunctionStaysOpaque) {
  // a < 3 || (a > 7 && b == 1): the second field makes it opaque.
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.cmp(CmpOp::kLt, ctx.var(a), ctx.arena.constant(3, 8)),
      ctx.arena.band(
          ctx.arena.cmp(CmpOp::kGt, ctx.var(a), ctx.arena.constant(7, 8)),
          ctx.arena.cmp(CmpOp::kEq, ctx.var(b), ctx.arena.constant(1, 8))));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  EXPECT_TRUE(atoms.empty());
  ASSERT_EQ(opaque.size(), 1u);
}

TEST(Decompose, FieldEqualitiesLandInTheirOwnList) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  ir::ExprRef eq = ctx.arena.cmp(CmpOp::kEq, ctx.var(a), ctx.var(b));
  ir::ExprRef not_ne =
      ctx.arena.bnot(ctx.arena.cmp(CmpOp::kNe, ctx.var(b), ctx.var(a)));
  ir::ExprRef ne = ctx.arena.bnot(eq);
  ir::ExprRef arith = ctx.arena.cmp(
      CmpOp::kEq, ctx.var(a),
      ctx.arena.arith(ArithOp::kAdd, ctx.var(b), ctx.arena.constant(1, 8)));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  std::vector<FieldEquality> eqs;
  for (ir::ExprRef e : {eq, not_ne, ne, arith}) {
    decompose_conjunction(e, atoms, opaque, &eqs);
  }
  EXPECT_TRUE(atoms.empty());
  ASSERT_EQ(eqs.size(), 2u);  // a == b and !(b != a)
  EXPECT_EQ(eqs[0].a, a);
  EXPECT_EQ(eqs[0].b, b);
  EXPECT_EQ(eqs[1].a, b);
  EXPECT_EQ(eqs[1].width, 8);
  EXPECT_EQ(opaque.size(), 2u);  // a != b; a == b + 1
  // Without the list an equality is opaque, as PathEnv and m4lint see it.
  opaque.clear();
  decompose_conjunction(eq, atoms, opaque);
  EXPECT_EQ(opaque.size(), 1u);
}

// ------------------------------------------------------ Intervals, Domain

TEST(IntervalList, ComplementIsExactAtBothEdges) {
  const int w = 4;
  EXPECT_EQ(complement(IntervalList(), w), IntervalList::full(w));
  EXPECT_TRUE(complement(IntervalList::full(w), w).empty());
  EXPECT_EQ(complement(IntervalList(Interval{0, 0}), w),
            IntervalList(Interval{1, 15}));
  EXPECT_EQ(complement(IntervalList(Interval{15, 15}), w),
            IntervalList(Interval{0, 14}));
  std::vector<Interval> ivs{{9, 9}, {3, 5}, {4, 4}, {6, 6}};
  const IntervalList s = IntervalList::from_unsorted(ivs);  // [3,6] u {9}
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (Interval{3, 6}));
  const IntervalList c = complement(s, w);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], (Interval{0, 2}));
  EXPECT_EQ(c[1], (Interval{7, 8}));
  EXPECT_EQ(c[2], (Interval{10, 15}));
  EXPECT_EQ(complement(c, w), s);
  for (uint64_t v = 0; v < 16; ++v) EXPECT_NE(s.contains(v), c.contains(v));
  // The 64-bit maximum: no overflow past the last value.
  const uint64_t max = ~uint64_t{0};
  EXPECT_EQ(complement(IntervalList(Interval{max, max}), 64),
            IntervalList(Interval{0, max - 1}));
  EXPECT_EQ(complement(IntervalList(Interval{0, max - 1}), 64),
            IntervalList(Interval{max, max}));
}

TEST(IntervalList, IntersectionKeepsTheCommonValues) {
  std::vector<Interval> a{{0, 4}, {8, 12}, {20, 30}};
  std::vector<Interval> b{{3, 9}, {12, 25}};
  const IntervalList x = intersect(IntervalList::from_unsorted(a),
                                   IntervalList::from_unsorted(b));
  ASSERT_EQ(x.size(), 4u);
  EXPECT_EQ(x[0], (Interval{3, 4}));
  EXPECT_EQ(x[1], (Interval{8, 9}));
  EXPECT_EQ(x[2], (Interval{12, 12}));
  EXPECT_EQ(x[3], (Interval{20, 25}));
  EXPECT_TRUE(intersect(x, IntervalList()).empty());
}

TEST(IntervalList, MovedFromListReadsAsEmpty) {
  std::vector<Interval> ivs{{1, 2}, {5, 6}, {9, 9}};
  IntervalList a = IntervalList::from_unsorted(ivs);
  IntervalList b(std::move(a));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(a.contains(1));
  IntervalList c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.back(), (Interval{9, 9}));
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(b.contains(9));
  b.append(Interval{4, 4});  // a moved-from list is usable again
  EXPECT_EQ(b, IntervalList(Interval{4, 4}));
}

Atom member_atom(ir::FieldId f, int width, IntervalList set) {
  Atom a;
  a.field = f;
  a.width = width;
  a.set = std::move(set);
  return a;
}

Atom compare_atom(ir::FieldId f, int width, CmpOp op, uint64_t value) {
  Atom a;
  a.field = f;
  a.width = width;
  a.op = op;
  a.mask = util::mask_bits(width);
  a.value = value;
  return a;
}

TEST(Domain, OnePointListsAtZeroAndTheWidthsMaximum) {
  bool decided = false;
  Domain zero(8);
  zero.require(member_atom(0, 8, IntervalList(Interval{0, 0})));
  EXPECT_EQ(zero.pick_value(decided), std::optional<uint64_t>(0));
  EXPECT_TRUE(decided);
  Domain top(8);
  top.require(member_atom(0, 8, IntervalList(Interval{255, 255})));
  top.require(compare_atom(0, 8, CmpOp::kGt, 254));
  EXPECT_EQ(top.pick_value(decided), std::optional<uint64_t>(255));
  // Excluding the one point empties each list.
  zero.require(compare_atom(0, 8, CmpOp::kGt, 0));
  EXPECT_TRUE(zero.contradictory());
  top.require(compare_atom(0, 8, CmpOp::kNe, 255));
  EXPECT_EQ(top.pick_value(decided), std::nullopt);
  EXPECT_TRUE(decided);
  // An empty list (f < 0) and a forced value outside the list are
  // contradictions before any witness search.
  Domain none(8);
  none.require(compare_atom(0, 8, CmpOp::kLt, 0));
  EXPECT_TRUE(none.contradictory());
  Domain miss(16);
  miss.require(negate_atom(member_atom(0, 16, IntervalList(Interval{16, 31}))));
  miss.require(compare_atom(0, 16, CmpOp::kEq, 20));
  EXPECT_TRUE(miss.contradictory());
}

TEST(Domain, ComplementedListsPickTheSmallestValueOutside) {
  bool decided = false;
  Domain d(8);
  d.require(negate_atom(member_atom(0, 8, IntervalList(Interval{0, 9}))));
  d.require(compare_atom(0, 8, CmpOp::kNe, 10));
  EXPECT_EQ(d.pick_value(decided), std::optional<uint64_t>(11));
  // Forced bits skip whole intervals: the low nibble 0xf first fits at 15.
  d.require(negate_atom(member_atom(0, 8, IntervalList(Interval{12, 14}))));
  Atom nib;
  nib.field = 0;
  nib.width = 8;
  nib.op = CmpOp::kEq;
  nib.mask = 0x0f;
  nib.value = 0x0f;
  d.require(nib);
  EXPECT_EQ(d.pick_value(decided), std::optional<uint64_t>(15));
}

TEST(Domain, IntersectionConjoinsEveryConstraint) {
  bool decided = false;
  Domain a(8);
  a.require(compare_atom(0, 8, CmpOp::kGe, 10));
  a.require(compare_atom(0, 8, CmpOp::kNe, 10));
  Domain b(8);
  b.require(negate_atom(member_atom(0, 8, IntervalList(Interval{11, 12}))));
  b.require(compare_atom(0, 8, CmpOp::kLe, 20));
  a.intersect(b);
  EXPECT_EQ(a.pick_value(decided), std::optional<uint64_t>(13));
  Domain odd(8);
  Atom low;
  low.field = 0;
  low.width = 8;
  low.op = CmpOp::kEq;
  low.mask = 1;
  low.value = 1;
  odd.require(low);
  a.intersect(odd);
  EXPECT_EQ(a.pick_value(decided), std::optional<uint64_t>(13));
  Domain even(8);
  low.value = 0;
  even.require(low);
  a.intersect(even);  // forced bit 0 both 1 and 0
  EXPECT_TRUE(a.contradictory());
  Domain high(8);
  high.require(compare_atom(0, 8, CmpOp::kGt, 20));
  Domain c(8);
  c.require(compare_atom(0, 8, CmpOp::kLe, 20));
  c.intersect(high);
  EXPECT_TRUE(c.contradictory());
}

// --------------------------------------------------------------- Fast path

class BvSolverTest : public ::testing::Test {
 protected:
  ir::Context ctx;
  BvSolver solver{ctx};

  ExprRef fv(const char* name, int w) { return ctx.field_var(name, w); }
  ExprRef c(uint64_t v, int w) { return ctx.arena.constant(v, w); }
};

TEST_F(BvSolverTest, ExactMatchConflictIsUnsatViaFastPath) {
  ExprRef port = fv("srcPort", 16);
  solver.add(ctx.arena.cmp(CmpOp::kEq, port, c(80, 16)));
  solver.add(ctx.arena.cmp(CmpOp::kEq, port, c(443, 16)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  EXPECT_EQ(solver.stats().fast_path_hits, 1u);
  EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST_F(BvSolverTest, TernaryAndIntervalComposeInFastPath) {
  ExprRef ip = fv("dstIP", 32);
  // dstIP in 127.1.0.0/16, dstIP > 0x7f010050, dstIP != 0x7f010051
  solver.add(ctx.arena.masked_eq(ip, 0xffff0000u, 0x7f010000u));
  solver.add(ctx.arena.cmp(CmpOp::kGt, ip, c(0x7f010050u, 32)));
  solver.add(ctx.arena.cmp(CmpOp::kNe, ip, c(0x7f010051u, 32)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  Model m = solver.model();
  uint64_t v = m.at(ctx.fields.require("dstIP"));
  EXPECT_EQ(v & 0xffff0000u, 0x7f010000u);
  EXPECT_GT(v, 0x7f010050u);
  EXPECT_NE(v, 0x7f010051u);
}

TEST_F(BvSolverTest, EmptyIntervalIsUnsat) {
  ExprRef x = fv("x", 8);
  solver.add(ctx.arena.cmp(CmpOp::kGt, x, c(200, 8)));
  solver.add(ctx.arena.cmp(CmpOp::kLt, x, c(100, 8)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST_F(BvSolverTest, ForcedBitsVsIntervalInteraction) {
  ExprRef x = fv("x", 8);
  // x & 0b1000_0000 == 0 (top bit clear) and x >= 200 -> impossible.
  solver.add(ctx.arena.masked_eq(x, 0x80, 0x00));
  solver.add(ctx.arena.cmp(CmpOp::kGe, x, c(200, 8)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST_F(BvSolverTest, ValueSetDisjunctionsDecideInFastPath) {
  // (port == 8 || port == 72 || port == 200) && port >= 100
  ExprRef port = fv("eg_spec", 9);
  ExprRef set = ctx.arena.any_of({
      ctx.arena.cmp(ir::CmpOp::kEq, port, c(8, 9)),
      ctx.arena.cmp(ir::CmpOp::kEq, port, c(72, 9)),
      ctx.arena.cmp(ir::CmpOp::kEq, port, c(200, 9)),
  });
  solver.add(set);
  solver.push();
  solver.add(ctx.arena.cmp(ir::CmpOp::kGe, port, c(100, 9)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model().at(ctx.fields.require("eg_spec")), 200u);
  EXPECT_EQ(solver.stats().sat_calls, 0u);  // pure fast path
  solver.pop();
  solver.push();
  solver.add(ctx.arena.cmp(ir::CmpOp::kGt, port, c(300, 9)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
}

TEST_F(BvSolverTest, RangeMissDecidesInFastPath) {
  // The miss arm of a range entry, then a bound that leaves its low edge.
  ExprRef id = fv("id", 16);
  solver.add(ctx.arena.bor(ctx.arena.cmp(CmpOp::kLt, id, c(0x1000, 16)),
                           ctx.arena.cmp(CmpOp::kGt, id, c(0x1fff, 16))));
  solver.add(ctx.arena.cmp(CmpOp::kGe, id, c(0xfff, 16)));
  solver.add(ctx.arena.cmp(CmpOp::kNe, id, c(0xfff, 16)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model().at(id->field), 0x2000u);
  solver.add(ctx.arena.cmp(CmpOp::kLe, id, c(0x1fff, 16)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST_F(BvSolverTest, EqualityClassSharesOneWitness) {
  // x == y == z: the class's domain is the intersection of the members'.
  ExprRef x = fv("x", 8);
  ExprRef y = fv("y", 8);
  ExprRef z = fv("z", 8);
  solver.add(ctx.arena.cmp(CmpOp::kEq, x, y));
  solver.add(ctx.arena.cmp(CmpOp::kEq, z, y));
  solver.add(ctx.arena.cmp(CmpOp::kGe, x, c(5, 8)));
  solver.add(ctx.arena.cmp(CmpOp::kLe, y, c(7, 8)));
  solver.add(ctx.arena.cmp(CmpOp::kNe, z, c(5, 8)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  Model m = solver.model();
  EXPECT_EQ(m.at(x->field), 6u);
  EXPECT_EQ(m.at(y->field), 6u);
  EXPECT_EQ(m.at(z->field), 6u);
  solver.push();
  solver.add(ctx.arena.cmp(CmpOp::kGt, z, c(7, 8)));  // disjoint from y
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.stats().sat_calls, 0u);  // pure fast path
}

TEST_F(BvSolverTest, ValueSetIntersectsWithExactMatch) {
  ExprRef f = fv("vni", 24);
  solver.add(ctx.arena.any_of({
      ctx.arena.cmp(ir::CmpOp::kEq, f, c(100, 24)),
      ctx.arena.cmp(ir::CmpOp::kEq, f, c(200, 24)),
  }));
  solver.add(ctx.arena.cmp(ir::CmpOp::kEq, f, c(200, 24)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model().at(ctx.fields.require("vni")), 200u);
  solver.add(ctx.arena.cmp(ir::CmpOp::kNe, f, c(200, 24)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST_F(BvSolverTest, MixedFieldDisjunctionGoesToSatCore) {
  ExprRef a = fv("a", 8);
  ExprRef b = fv("b", 8);
  solver.add(ctx.arena.bor(ctx.arena.cmp(ir::CmpOp::kEq, a, c(1, 8)),
                           ctx.arena.cmp(ir::CmpOp::kEq, b, c(2, 8))));
  solver.add(ctx.arena.cmp(ir::CmpOp::kNe, a, c(1, 8)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.stats().sat_calls, 1u);
  EXPECT_EQ(solver.model().at(ctx.fields.require("b")), 2u);
}

// ------------------------------------------------------------ SAT fallback

TEST_F(BvSolverTest, ArithmeticAcrossFieldsNeedsSatCore) {
  ExprRef a = fv("a", 8);
  ExprRef b = fv("b", 8);
  solver.add(ctx.arena.cmp(CmpOp::kEq, ctx.arena.arith(ArithOp::kAdd, a, b),
                           c(10, 8)));
  solver.add(ctx.arena.cmp(CmpOp::kGt, a, c(200, 8)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_GE(solver.stats().sat_calls, 1u);
  Model m = solver.model();
  uint64_t va = m.at(ctx.fields.require("a"));
  uint64_t vb = m.at(ctx.fields.require("b"));
  EXPECT_EQ((va + vb) & 0xff, 10u);
  EXPECT_GT(va, 200u);
}

TEST_F(BvSolverTest, DisjunctionNeedsSatCore) {
  ExprRef x = fv("x", 8);
  ExprRef p80 = ctx.arena.cmp(CmpOp::kEq, x, c(80, 8));
  ExprRef p443 = ctx.arena.cmp(CmpOp::kEq, x, c(44, 8));
  solver.add(ctx.arena.bor(p80, p443));
  solver.add(ctx.arena.cmp(CmpOp::kNe, x, c(80, 8)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model().at(ctx.fields.require("x")), 44u);
}

TEST_F(BvSolverTest, MultiplicationSemantics) {
  ExprRef x = fv("x", 8);
  // 3 * x == 9 has solution x = 3 (and also wrapped ones); check model.
  solver.add(ctx.arena.cmp(
      CmpOp::kEq, ctx.arena.arith(ArithOp::kMul, x, c(3, 8)), c(9, 8)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  uint64_t v = solver.model().at(ctx.fields.require("x"));
  EXPECT_EQ((v * 3) & 0xff, 9u);
}

TEST_F(BvSolverTest, VariableShiftSemantics) {
  ExprRef x = fv("x", 8);
  ExprRef k = fv("k", 8);
  // (x << k) == 0x80 with x odd forces k == 7.
  solver.add(ctx.arena.cmp(
      CmpOp::kEq, ctx.arena.arith(ArithOp::kShl, x, k), c(0x80, 8)));
  solver.add(ctx.arena.masked_eq(x, 0x01, 0x01));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  Model m = solver.model();
  uint64_t vx = m.at(ctx.fields.require("x"));
  uint64_t vk = m.at(ctx.fields.require("k"));
  uint64_t shifted = vk >= 8 ? 0 : (vx << vk) & 0xff;
  EXPECT_EQ(shifted, 0x80u);
}

TEST_F(BvSolverTest, ShiftBeyondWidthYieldsZero) {
  ExprRef x = fv("x", 8);
  ExprRef k = fv("k", 8);
  solver.add(ctx.arena.cmp(CmpOp::kGe, k, c(8, 8)));
  solver.add(ctx.arena.cmp(
      CmpOp::kNe, ctx.arena.arith(ArithOp::kShl, x, k), c(0, 8)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

// ------------------------------------------------------------- Incremental

TEST_F(BvSolverTest, PushPopRestoresSatisfiability) {
  ExprRef x = fv("x", 16);
  solver.add(ctx.arena.cmp(CmpOp::kEq, x, c(0x800, 16)));
  EXPECT_EQ(solver.check(), CheckResult::kSat);
  solver.push();
  solver.add(ctx.arena.cmp(CmpOp::kNe, x, c(0x800, 16)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.model().at(ctx.fields.require("x")), 0x800u);
}

TEST_F(BvSolverTest, DeepPushPopNesting) {
  ExprRef x = fv("x", 8);
  for (int i = 0; i < 6; ++i) {
    solver.push();
    solver.add(ctx.arena.cmp(CmpOp::kNe, x, c(static_cast<uint64_t>(i), 8)));
    EXPECT_EQ(solver.check(), CheckResult::kSat);
  }
  solver.push();
  // Pin x to a value excluded two levels down.
  solver.add(ctx.arena.cmp(CmpOp::kEq, x, c(3, 8)));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
  solver.pop();
  for (int i = 0; i < 6; ++i) solver.pop();
  solver.add(ctx.arena.cmp(CmpOp::kEq, x, c(3, 8)));
  EXPECT_EQ(solver.check(), CheckResult::kSat);
}

// ----------------------------------------------- Cross-check vs brute force

// Property test: random conjunctions over a few narrow fields, compared
// with exhaustive enumeration. Exercises fast path and SAT core both.
//
// The brute-force space: `vars` of `width` bits each, 12 bits in all, so
// one assignment is one bit of a 4096-bit set (the first field in the
// high bits).
struct Space {
  std::vector<ExprRef> vars;
  int width = 0;

  uint64_t value(size_t assignment, size_t k) const {
    const size_t shift = static_cast<size_t>(width) * (vars.size() - 1 - k);
    return (assignment >> shift) & util::mask_bits(width);
  }
  uint64_t value_of(size_t assignment, ir::FieldId f) const {
    for (size_t k = 0; k < vars.size(); ++k) {
      if (vars[k]->field == f) return value(assignment, k);
    }
    return 0;
  }
};

using Models = std::bitset<4096>;

// A random conjunct over the space's fields. Half the constants come from
// [0, 8) so that bounds, equalities and set members meet at their edges.
// Shapes: a plain, masked, arithmetic or cross-field compare; a
// same-field value-set disjunction (f == a || f == b || ...); a
// same-field range disjunction (f < a || f > b); a negated range
// conjunction !(a <= f && f <= b); an or-of-ands interval union; a
// nested negation over one field; a field equality (f == g). Each is
// negated one time in four.
ExprRef random_conjunct(ir::Context& ctx, util::Rng& rng, const Space& sp) {
  const int w = sp.width;
  auto constant = [&]() {
    return ctx.arena.constant(rng.chance(1, 2) ? rng.below(8) : rng.bits(w),
                              w);
  };
  auto pick = [&]() { return sp.vars[rng.below(sp.vars.size())]; };
  auto range_of = [&](ExprRef f) {  // lo <= f && f <= hi
    return ctx.arena.band(ctx.arena.cmp(CmpOp::kGe, f, constant()),
                          ctx.arena.cmp(CmpOp::kLe, f, constant()));
  };
  ExprRef atom = nullptr;
  switch (rng.below(10)) {
    case 0: {  // value set
      ExprRef f = pick();
      const int members = static_cast<int>(rng.range(2, 4));
      for (int i = 0; i < members; ++i) {
        ExprRef eq = ctx.arena.cmp(CmpOp::kEq, f, constant());
        atom = atom == nullptr ? eq : ctx.arena.bor(atom, eq);
      }
      break;
    }
    case 1: {  // range miss
      ExprRef f = pick();
      atom = ctx.arena.bor(
          ctx.arena.cmp(rng.chance(1, 2) ? CmpOp::kLt : CmpOp::kLe, f,
                        constant()),
          ctx.arena.cmp(rng.chance(1, 2) ? CmpOp::kGt : CmpOp::kGe, f,
                        constant()));
      break;
    }
    case 2:  // negated range conjunction
      atom = ctx.arena.bnot(range_of(pick()));
      break;
    case 3: {  // or-of-ands
      ExprRef f = pick();
      atom = ctx.arena.bor(range_of(f), range_of(f));
      if (rng.chance(1, 2)) {
        atom = ctx.arena.bor(atom, ctx.arena.cmp(CmpOp::kEq, f, constant()));
      }
      break;
    }
    case 4: {  // nested negation
      ExprRef f = pick();
      ExprRef inner = ctx.arena.bor(
          ctx.arena.bnot(ctx.arena.cmp(static_cast<CmpOp>(rng.below(6)), f,
                                       constant())),
          ctx.arena.cmp(CmpOp::kEq, f, constant()));
      atom = ctx.arena.bnot(ctx.arena.band(inner, ctx.arena.bnot(range_of(f))));
      break;
    }
    case 5: {  // field equality
      ExprRef f = pick();
      ExprRef g = pick();
      atom = ctx.arena.cmp(rng.chance(1, 4) ? CmpOp::kNe : CmpOp::kEq, f, g);
      break;
    }
    default: {
      ExprRef lhs;
      switch (rng.below(4)) {
        case 0:
        case 1: lhs = pick(); break;
        case 2: lhs = ctx.arena.arith(ArithOp::kAdd, pick(), pick()); break;
        default: lhs = ctx.arena.arith(ArithOp::kAnd, pick(), constant());
      }
      atom = ctx.arena.cmp(static_cast<CmpOp>(rng.below(6)), lhs, constant());
    }
  }
  if (rng.chance(1, 4)) atom = ctx.arena.bnot(atom);
  return atom;
}

// The assignments of the space satisfying `e`.
Models models_of(ExprRef e, const Space& sp) {
  Models m;
  for (size_t i = 0; i < m.size(); ++i) {
    auto v = ir::eval_with(e, [&](ir::FieldId f) {
      return std::optional<uint64_t>(sp.value_of(i, f));
    });
    if (v && *v) m.set(i);
  }
  return m;
}

// Checks the decomposition of `c` against its models: the atoms and field
// equalities are sound conjuncts, they are exact when nothing was opaque,
// and each atom's negation holds exactly where the atom does not.
void expect_decomposition_exact(ExprRef c, const Models& models,
                                const Space& sp) {
  std::vector<Atom> atoms;
  std::vector<ExprRef> opaque;
  std::vector<FieldEquality> eqs;
  decompose_conjunction(c, atoms, opaque, &eqs);
  for (size_t i = 0; i < models.size(); ++i) {
    bool all = true;
    for (const Atom& a : atoms) {
      if (a.field == ir::kInvalidField) {
        all = false;
        continue;
      }
      const uint64_t v = sp.value_of(i, a.field);
      const bool holds = atom_holds(v, a);
      all = all && holds;
      ASSERT_NE(atom_holds(v, negate_atom(a)), holds);
    }
    for (const FieldEquality& e : eqs) {
      all = all && sp.value_of(i, e.a) == sp.value_of(i, e.b);
    }
    const bool model = models.test(i);
    ASSERT_TRUE(all || !model) << "a conjunct excludes a model";
    ASSERT_TRUE(all == model || !opaque.empty()) << "conjuncts are not exact";
  }
}

// Random push / add / pop sequences against brute force over the live
// scopes. After every check the BvSolver's verdict (and model) must match,
// and a PathEnv fed the same sequence — mark/rollback mirroring push/pop —
// must classify the new conjunct c soundly against the live conjunction C:
// kRefuted => C && c unsat; kImplied => every model of C satisfies c (so
// sat(C && c) == sat(C)); kSatisfiable => sat(C) implies sat(C && c).
// Both consume the one smt::decompose_conjunction + Domain::require atom
// language, whose decomposition of every c is checked against its models.
void expect_agreement_with_brute_force(uint64_t seed, int rounds,
                                       int num_fields) {
  static const char* const kNames[] = {"x", "y", "z"};
  util::Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    ir::Context ctx;
    BvSolver solver(ctx);
    analysis::PathEnv env(ctx);
    Space sp;
    sp.width = 12 / num_fields;
    for (int k = 0; k < num_fields; ++k) {
      sp.vars.push_back(ctx.field_var(kNames[k], sp.width));
    }
    std::vector<Models> live{Models().set()};  // per scope, cumulative
    std::vector<analysis::PathEnv::Mark> marks;
    // Even rounds stay flat (one scope); odd rounds push and pop.
    const bool scoped = round % 2 == 1;
    const int steps = static_cast<int>(rng.range(1, scoped ? 14 : 5));
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round "
                                      << round << " step " << step);
      if (scoped && !marks.empty() && rng.chance(1, 3)) {
        solver.pop();
        env.rollback(marks.back());
        marks.pop_back();
        live.pop_back();
      } else {
        if (scoped && rng.chance(1, 2)) {
          solver.push();
          marks.push_back(env.mark());
          live.push_back(live.back());
        }
        ExprRef c = random_conjunct(ctx, rng, sp);
        const Models before = live.back();
        const analysis::Verdict v = env.assume(c);
        solver.add(c);
        const Models models = models_of(c, sp);
        expect_decomposition_exact(c, models, sp);
        live.back() &= models;
        const bool sat_before = before.any();
        const bool sat_after = live.back().any();
        switch (v) {
          case analysis::Verdict::kRefuted: EXPECT_FALSE(sat_after); break;
          case analysis::Verdict::kImplied:
            EXPECT_EQ(live.back(), before);
            break;
          case analysis::Verdict::kSatisfiable:
            EXPECT_TRUE(!sat_before || sat_after);
            break;
          case analysis::Verdict::kUnknown: break;
        }
      }
      // Check after a random subset of steps, and always after the last,
      // so some checks see several unchecked adds or pops at once.
      if (step + 1 < steps && rng.chance(1, 2)) continue;
      CheckResult r = solver.check();
      ASSERT_NE(r, CheckResult::kUnknown);
      ASSERT_EQ(r == CheckResult::kSat, live.back().any());
      if (r == CheckResult::kSat) {
        // The model must satisfy the live conjunction; fields it leaves
        // unconstrained default to zero.
        Model m = solver.model();
        size_t assignment = 0;
        for (ExprRef f : sp.vars) {
          auto it = m.find(f->field);
          assignment = (assignment << sp.width) |
                       (it == m.end() ? uint64_t{0} : it->second);
        }
        EXPECT_TRUE(live.back().test(assignment))
            << "model violates the live conjunction";
      }
    }
  }
}

TEST(BvSolverProperty, AgreesWithBruteForceOnRandomConjunctions) {
  // Two 6-bit fields; then three 4-bit fields, where field equalities
  // chain into classes (x == y, y == z).
  expect_agreement_with_brute_force(1234, 300, 2);
  expect_agreement_with_brute_force(4321, 300, 3);
}

// ------------------------------------------------------- Cross-check vs Z3

TEST(BvSolverVsZ3, RandomFormulasAgree) {
  if (!have_z3()) GTEST_SKIP() << "built without Z3";
  util::Rng rng(99);
  for (int round = 0; round < 80; ++round) {
    ir::Context ctx;
    auto ours = make_bv_solver(ctx);
    auto z3 = make_z3_solver(ctx);
    ExprRef x = ctx.field_var("x", 12);
    ExprRef y = ctx.field_var("y", 12);
    ExprRef z = ctx.field_var("z", 12);
    const ArithOp aops[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                            ArithOp::kAnd, ArithOp::kOr,  ArithOp::kXor,
                            ArithOp::kShl, ArithOp::kShr};
    auto rand_aexp = [&]() {
      ExprRef leaves[] = {x, y, z, ctx.arena.constant(rng.bits(12), 12)};
      ExprRef a = leaves[rng.below(4)];
      ExprRef b = leaves[rng.below(4)];
      return ctx.arena.arith(aops[rng.below(8)], a, b);
    };
    const int n = static_cast<int>(rng.range(1, 4));
    for (int i = 0; i < n; ++i) {
      ExprRef atom = ctx.arena.cmp(static_cast<CmpOp>(rng.below(6)),
                                   rand_aexp(), rand_aexp());
      if (rng.chance(1, 3)) {
        atom = ctx.arena.bor(atom, ctx.arena.cmp(static_cast<CmpOp>(rng.below(6)),
                                                 rand_aexp(), rand_aexp()));
      }
      ours->add(atom);
      z3->add(atom);
    }
    CheckResult a = ours->check();
    CheckResult b = z3->check();
    ASSERT_NE(a, CheckResult::kUnknown);
    ASSERT_NE(b, CheckResult::kUnknown);
    EXPECT_EQ(a, b) << "round " << round;
  }
}

}  // namespace
}  // namespace meissa::smt
