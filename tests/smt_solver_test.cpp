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
  ir::ExprRef e = ctx.arena.bor(ctx.arena.bor(eq(1), eq(2)), eq(3));
  std::vector<Atom> atoms;
  std::vector<ir::ExprRef> opaque;
  decompose_conjunction(e, atoms, opaque);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_TRUE(opaque.empty());
  EXPECT_EQ(atoms[0].set.size(), 3u);
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

// Property test: random conjunctions over two 6-bit fields, compared with
// exhaustive enumeration. Exercises fast path and SAT core both.
// A random conjunct over two 6-bit fields x and y: a plain, masked or
// cross-field compare, or a same-field value-set disjunction
// (x == a || x == b || ...), each negated one time in four. Half the
// constants come from [0, 8) so that bounds, equalities and set members
// meet at their edges.
ExprRef random_conjunct(ir::Context& ctx, util::Rng& rng, ExprRef x,
                        ExprRef y) {
  auto constant = [&]() {
    return ctx.arena.constant(rng.chance(1, 2) ? rng.below(8) : rng.bits(6),
                              6);
  };
  ExprRef atom = nullptr;
  if (rng.chance(1, 5)) {
    ExprRef f = rng.chance(1, 2) ? x : y;
    const int members = static_cast<int>(rng.range(2, 4));
    for (int i = 0; i < members; ++i) {
      ExprRef eq = ctx.arena.cmp(CmpOp::kEq, f, constant());
      atom = atom == nullptr ? eq : ctx.arena.bor(atom, eq);
    }
  } else {
    ExprRef lhs;
    switch (rng.below(4)) {
      case 0: lhs = x; break;
      case 1: lhs = y; break;
      case 2:
        lhs = ctx.arena.arith(ArithOp::kAdd, x, y);
        break;
      default:
        lhs = ctx.arena.arith(ArithOp::kAnd, x, constant());
        break;
    }
    CmpOp op = static_cast<CmpOp>(rng.below(6));
    atom = ctx.arena.cmp(op, lhs, constant());
  }
  if (rng.chance(1, 4)) atom = ctx.arena.bnot(atom);
  return atom;
}

// The assignments (bit 64 * x + y) of two 6-bit fields satisfying `e`.
using Models = std::bitset<4096>;

Models models_of(ExprRef e, ir::FieldId fx) {
  Models m;
  for (uint64_t vx = 0; vx < 64; ++vx) {
    for (uint64_t vy = 0; vy < 64; ++vy) {
      auto v = ir::eval_with(e, [&](ir::FieldId f) {
        return std::optional<uint64_t>(f == fx ? vx : vy);
      });
      if (v && *v) m.set(vx * 64 + vy);
    }
  }
  return m;
}

// Checks the decomposition of `c` against its models: the atoms are sound
// conjuncts, they are exact when nothing was opaque, and each compare
// atom's negation holds exactly where the atom does not.
void expect_decomposition_exact(ExprRef c, const Models& models,
                                ir::FieldId fx) {
  std::vector<Atom> atoms;
  std::vector<ExprRef> opaque;
  decompose_conjunction(c, atoms, opaque);
  for (uint64_t vx = 0; vx < 64; ++vx) {
    for (uint64_t vy = 0; vy < 64; ++vy) {
      bool all = true;
      for (const Atom& a : atoms) {
        if (a.field == ir::kInvalidField) {
          all = false;
          continue;
        }
        const uint64_t v = a.field == fx ? vx : vy;
        const bool holds = atom_holds(v, a);
        all = all && holds;
        if (a.set.empty()) {
          ASSERT_NE(atom_holds(v, negate_atom(a)), holds);
        }
      }
      const bool model = models.test(vx * 64 + vy);
      ASSERT_TRUE(all || !model) << "an atom excludes a model";
      ASSERT_TRUE(all == model || !opaque.empty()) << "atoms are not exact";
    }
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
TEST(BvSolverProperty, AgreesWithBruteForceOnRandomConjunctions) {
  util::Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    ir::Context ctx;
    BvSolver solver(ctx);
    analysis::PathEnv env(ctx);
    ExprRef x = ctx.field_var("x", 6);
    ExprRef y = ctx.field_var("y", 6);
    std::vector<Models> live{Models().set()};  // per scope, cumulative
    std::vector<analysis::PathEnv::Mark> marks;
    // Even rounds stay flat (one scope); odd rounds push and pop.
    const bool scoped = round % 2 == 1;
    const int steps = static_cast<int>(rng.range(1, scoped ? 14 : 5));
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(testing::Message()
                   << "round " << round << " step " << step);
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
        ExprRef c = random_conjunct(ctx, rng, x, y);
        const Models before = live.back();
        const analysis::Verdict v = env.assume(c);
        solver.add(c);
        const Models models = models_of(c, x->field);
        expect_decomposition_exact(c, models, x->field);
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
        auto value = [&](ExprRef f) {
          auto it = m.find(f->field);
          return it == m.end() ? uint64_t{0} : it->second;
        };
        EXPECT_TRUE(live.back().test(value(x) * 64 + value(y)))
            << "model violates the live conjunction";
      }
    }
  }
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
