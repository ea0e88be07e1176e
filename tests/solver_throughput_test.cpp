// Tests for the solver-throughput layer: the canonicalized path-condition
// cache, the adaptive fast-path/bit-blasting portfolio, learned-clause
// database hygiene (reduce_learnts bookkeeping + level-0 garbage
// collection), the bounded bit-blaster caches, and the SolverStats -=
// rebase.
#include <gtest/gtest.h>

#include <vector>

#include "smt/bv_solver.hpp"
#include "smt/cache.hpp"
#include "smt/sat.hpp"
#include "smt/solver.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace meissa::smt {
namespace {

using ir::CmpOp;
using ir::ExprRef;

// ------------------------------------------------- reduce_learnts hygiene

TEST(SatReduce, LearnedCountStaysExactAcrossReductions) {
  // Regression: reduce_learnts used to halve num_learned_ while actually
  // removing learned.size()/2 clauses, where `learned` excludes reason-
  // pinned (and now binary) clauses — so the counter drifted below the
  // real database size and stretched the reduction cadence. The invariant
  // is exact equality with the database, after every solve.
  util::Rng rng(11);
  SatSolver s;
  s.set_reduce_threshold(4);  // force frequent reductions
  // Near the 3-SAT phase transition (ratio ~4.3) so every round generates
  // real conflicts and learned clauses; sparser batches solve conflict-free
  // and the reduction path never runs.
  const int nvars = 20;
  std::vector<uint32_t> vars;
  for (int i = 0; i < nvars; ++i) vars.push_back(s.new_var());
  for (int round = 0; round < 40; ++round) {
    // One selector-guarded batch per round, retired afterwards — the
    // incremental push/pop pattern that leaves level-0-satisfied garbage.
    Lit sel = Lit::make(s.new_var(), false);
    for (int c = 0; c < 85; ++c) {
      std::vector<Lit> cl{~sel};
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit::make(vars[rng.below(nvars)], rng.chance(1, 2)));
      }
      s.add_clause(std::move(cl));
    }
    s.solve({sel});
    ASSERT_EQ(s.num_learned(), s.learned_in_db()) << "round " << round;
    s.add_unit(~sel);  // retire the batch (what pop() does)
  }
  EXPECT_GT(s.stats().reduces, 0u);
  // The retired selectors' guarded clauses are permanently satisfied at
  // level 0 and must have been collected, not just the low-activity half.
  EXPECT_GT(s.stats().removed_satisfied, 0u);
}

TEST(SatReduce, ThresholdGrowsAfterEachReduction) {
  SatSolver s;
  s.set_reduce_threshold(4);
  util::Rng rng(3);
  const int nvars = 24;
  std::vector<uint32_t> vars;
  for (int i = 0; i < nvars; ++i) vars.push_back(s.new_var());
  while (s.stats().reduces == 0) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(Lit::make(vars[rng.below(nvars)], rng.chance(1, 2)));
    }
    if (!s.add_clause(std::move(cl))) break;  // hit global unsat: done
    if (!s.solve({})) break;
  }
  ASSERT_GT(s.stats().reduces, 0u);
  EXPECT_GT(s.reduce_threshold(), 4u);
}

// ------------------------------------------ fast path vs. full bit-blasting

// Random conjunction over two fields drawn from the masked-compare shapes
// the engine produces. Some land in the fast path's fragment, some don't;
// either way both backends must agree on the verdict.
TEST(BvSolverDifferential, FastPathNeverDisagreesWithBitBlasting) {
  util::Rng rng(23);
  for (int round = 0; round < 60; ++round) {
    ir::Context ctx;
    BvSolver fast(ctx);
    BvSolver blast(ctx);
    blast.set_force_blast(true);
    ExprRef f = ctx.field_var("f", 8);
    ExprRef g = ctx.field_var("g", 16);
    const int n = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n; ++i) {
      ExprRef base = rng.chance(1, 2) ? f : g;
      const int w = base->width;
      const uint64_t mask = rng.bits(w);
      const uint64_t value = rng.bits(w);
      ExprRef e;
      switch (rng.below(4)) {
        case 0: e = ctx.arena.masked_eq(base, mask, value & mask); break;
        case 1:
          e = ctx.arena.cmp(CmpOp::kNe,
                            ctx.arena.arith(ir::ArithOp::kAnd, base,
                                            ctx.arena.constant(mask, w)),
                            ctx.arena.constant(value & mask, w));
          break;
        case 2: e = ctx.arena.cmp(CmpOp::kLt, base,
                                  ctx.arena.constant(value, w)); break;
        default: e = ctx.arena.cmp(CmpOp::kGe, base,
                                   ctx.arena.constant(value, w)); break;
      }
      fast.add(e);
      blast.add(e);
    }
    CheckResult a = fast.check();
    CheckResult b = blast.check();
    ASSERT_NE(a, CheckResult::kUnknown) << "round " << round;
    ASSERT_NE(b, CheckResult::kUnknown) << "round " << round;
    EXPECT_EQ(a, b) << "round " << round;
    EXPECT_EQ(blast.stats().fast_path_hits, 0u);  // really forced to blast
  }
}

// --------------------------------------------------------- bandit portfolio

TEST(BvSolverPortfolio, SkipsLosingFastPathAndKeepsVerdicts) {
  ir::Context ctx;
  BvSolver s(ctx);
  s.set_portfolio(true);
  s.set_region(42);
  ExprRef f = ctx.field_var("f", 16);
  // (f & 0x0f0f) < k is outside the fast path's fragment (masked compare
  // with an order relation): every attempt loses to the SAT core. After
  // the 16-try warm-up the bandit must start routing straight to blasting.
  ExprRef masked = ctx.arena.arith(ir::ArithOp::kAnd, f,
                                   ctx.arena.constant(0x0f0f, 16));
  for (int i = 0; i < 64; ++i) {
    s.push();
    s.add(ctx.arena.cmp(CmpOp::kLt, masked,
                        ctx.arena.constant(1 + (i % 200), 16)));
    EXPECT_EQ(s.check(), CheckResult::kSat) << "check " << i;
    s.pop();
  }
  EXPECT_GT(s.stats().fast_path_skipped, 0u);
  EXPECT_EQ(s.stats().fast_path_hits, 0u);
  EXPECT_GT(s.portfolio_sat_wins(), 0u);
  EXPECT_EQ(s.portfolio_fast_wins(), 0u);
}

TEST(BvSolverPortfolio, WinningFastPathIsNeverSkipped) {
  ir::Context ctx;
  BvSolver s(ctx);
  s.set_portfolio(true);
  s.set_region(7);
  ExprRef f = ctx.field_var("f", 16);
  for (int i = 0; i < 64; ++i) {
    s.push();
    s.add(ctx.arena.cmp(CmpOp::kEq, f, ctx.arena.constant(i, 16)));
    EXPECT_EQ(s.check(), CheckResult::kSat);
    s.pop();
  }
  EXPECT_EQ(s.stats().fast_path_skipped, 0u);
  EXPECT_EQ(s.stats().fast_path_hits, 64u);
}

// ------------------------------------------------ bounded bit-blast caches

TEST(BitBlastCache, TinyCapKeepsVerdictsAndFieldIdentity) {
  // Epoch-clearing the translation caches must never clear field identity:
  // a field constrained before a clear must still be the same SAT
  // variables after it, or contradictions across the clear would be lost.
  ir::Context ctx;
  BvSolver capped(ctx);
  capped.set_force_blast(true);   // every check exercises the blaster
  capped.set_blast_cache_cap(2);  // clear on essentially every blast
  BvSolver plain(ctx);
  plain.set_force_blast(true);
  ExprRef f = ctx.field_var("f", 16);
  ExprRef g = ctx.field_var("g", 16);
  auto both_add = [&](ExprRef e) {
    capped.add(e);
    plain.add(e);
  };
  auto expect_agree = [&](int where) {
    CheckResult a = capped.check();
    CheckResult b = plain.check();
    EXPECT_EQ(a, b) << "step " << where;
    return a;
  };
  both_add(ctx.arena.cmp(CmpOp::kEq, f, ctx.arena.constant(5, 16)));
  EXPECT_EQ(expect_agree(1), CheckResult::kSat);
  both_add(ctx.arena.cmp(CmpOp::kLt, g, ctx.arena.constant(100, 16)));
  EXPECT_EQ(expect_agree(2), CheckResult::kSat);
  // The contradiction spans an epoch clear: f was blasted before, f==6
  // after. Fresh field bits here would silently make this satisfiable.
  both_add(ctx.arena.cmp(CmpOp::kEq, f, ctx.arena.constant(6, 16)));
  EXPECT_EQ(expect_agree(3), CheckResult::kUnsat);
}

// ------------------------------------------------- path-condition cache

TEST(PathCondCache, SignatureIsCommutativeAndInvertible) {
  // Conjunction is commutative: two explorations asserting the same
  // conjunct set in different orders must land on the same key. And
  // retract() must exactly undo extend() so the DFS can unwind the
  // signature at rollback.
  ir::Context ctx;
  ExprRef a = ctx.arena.cmp(CmpOp::kEq, ctx.field_var("a", 8),
                            ctx.arena.constant(1, 8));
  ExprRef b = ctx.arena.cmp(CmpOp::kLt, ctx.field_var("b", 8),
                            ctx.arena.constant(9, 8));
  ExprRef c = ctx.arena.cmp(CmpOp::kNe, ctx.field_var("c", 8),
                            ctx.arena.constant(3, 8));
  const PathSig root;
  PathSig ab = PathCondCache::extend(PathCondCache::extend(root, a), b);
  PathSig ba = PathCondCache::extend(PathCondCache::extend(root, b), a);
  EXPECT_EQ(ab, ba);
  PathSig abc = PathCondCache::extend(ab, c);
  EXPECT_FALSE(abc == ab);  // a different set forks the key
  EXPECT_EQ(PathCondCache::retract(abc, c), ab);
  EXPECT_EQ(PathCondCache::retract(PathCondCache::retract(ab, b), a), root);
  // A verdict recorded under one shard's key hits the other shard's
  // permutation of the same set.
  PathCondCache cache;
  cache.insert(ab, CheckResult::kSat);
  CheckResult out = CheckResult::kUnknown;
  ASSERT_TRUE(cache.lookup(ba, &out));
  EXPECT_EQ(out, CheckResult::kSat);
  EXPECT_FALSE(cache.lookup(abc, &out));  // larger set: its own entry
}

TEST(PathCondCache, StoresDefiniteVerdictsOnly) {
  ir::Context ctx;
  ExprRef a = ctx.arena.cmp(CmpOp::kEq, ctx.field_var("a", 8),
                            ctx.arena.constant(1, 8));
  ExprRef b = ctx.arena.cmp(CmpOp::kEq, ctx.field_var("b", 8),
                            ctx.arena.constant(2, 8));
  PathCondCache cache;
  PathSig ka = PathCondCache::extend(PathSig{}, a);
  PathSig kb = PathCondCache::extend(PathSig{}, b);
  CheckResult out = CheckResult::kUnknown;
  EXPECT_FALSE(cache.lookup(ka, &out));
  cache.insert(ka, CheckResult::kSat);
  cache.insert(kb, CheckResult::kUnknown);  // must be ignored
  ASSERT_TRUE(cache.lookup(ka, &out));
  EXPECT_EQ(out, CheckResult::kSat);
  EXPECT_FALSE(cache.lookup(kb, &out));
  EXPECT_EQ(cache.size(), 1u);
  // Re-inserting the same key (another worker losing the race) is a no-op.
  cache.insert(ka, CheckResult::kSat);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PathCondCache, CapStopsInsertionsNotLookups) {
  ir::Context ctx;
  PathCondCache cache(/*max_entries=*/16);
  std::vector<PathSig> keys;
  for (int i = 0; i < 200; ++i) {
    ExprRef e = ctx.arena.cmp(CmpOp::kEq, ctx.field_var("f", 16),
                              ctx.arena.constant(i, 16));
    keys.push_back(PathCondCache::extend(PathSig{}, e));
    cache.insert(keys.back(), CheckResult::kUnsat);
  }
  // Sharded cap: the table stays near max_entries, never unbounded, and
  // entries recorded before the cap filled still hit.
  EXPECT_LE(cache.size(), 16u + 16u);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_LT(cache.size(), 200u);
  CheckResult out = CheckResult::kSat;
  ASSERT_TRUE(cache.lookup(keys.front(), &out));
  EXPECT_EQ(out, CheckResult::kUnsat);
}

// ------------------------------------------------- SolverStats -= rebase

TEST(SolverStatsRebase, WrappingMinusUnWrapsUnderLaterAccumulate) {
  // The resume path computes base = saved - at_replay_end where the fresh
  // solver may have spent MORE pushes replaying than the snapshot recorded
  // (field-wise wrap-around), then folds base += cumulative later. The sum
  // must land on the uninterrupted-run totals.
  SolverStats saved;
  saved.checks = 5;
  saved.fast_path_hits = 2;
  saved.sat_calls = 3;
  saved.fast_path_skipped = 1;
  saved.pushes = 3;
  saved.pops = 1;
  SolverStats at_replay_end;
  at_replay_end.pushes = 10;  // replay spent more pushes than were saved
  at_replay_end.pops = 4;
  SolverStats base = saved;
  base -= at_replay_end;
  // Intermediate value wraps; it is never reported directly.
  EXPECT_EQ(base.pushes, uint64_t{3} - uint64_t{10});
  SolverStats cumulative = at_replay_end;  // solver keeps counting from here
  cumulative.checks += 7;
  cumulative.sat_calls += 4;
  cumulative.fast_path_skipped += 2;
  cumulative.pushes += 6;
  cumulative.pops += 5;
  SolverStats folded = base;
  folded += cumulative;
  EXPECT_EQ(folded.checks, 12u);
  EXPECT_EQ(folded.fast_path_hits, 2u);
  EXPECT_EQ(folded.sat_calls, 7u);
  EXPECT_EQ(folded.fast_path_skipped, 3u);
  EXPECT_EQ(folded.pushes, 9u);
  EXPECT_EQ(folded.pops, 6u);
}

}  // namespace
}  // namespace meissa::smt
