// Tests for the static-analysis subsystem: per-field value ranges, the
// forward dataflow solver (including the validity-combo refinement), path
// environments, engine-facing facts (streaming and region-bounded, against
// a fixpoint oracle, and sound against an unpruned engine), and the lint
// detectors over the seeded-bug corpus.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "analysis/dataflow.hpp"
#include "analysis/env.hpp"
#include "analysis/lint.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "summary/summary.hpp"
#include "sym/engine.hpp"
#include "testlib.hpp"
#include "util/rng.hpp"

namespace meissa::analysis {
namespace {

smt::Atom cmp_atom(ir::FieldId f, int width, ir::CmpOp op, uint64_t value) {
  smt::Atom a;
  a.field = f;
  a.width = width;
  a.op = op;
  a.mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  a.value = value;
  return a;
}

// ---- the per-field value ranges of the dataflow facts: smt::Domain's
// constants, join and three-valued eval.

TEST(ValueRange, ConstantRoundTrip) {
  smt::Domain r = smt::Domain::constant(5, 8);
  uint64_t v = 0;
  EXPECT_TRUE(r.is_constant(v));
  EXPECT_EQ(v, 5u);
  EXPECT_FALSE(r.empty());
  EXPECT_FALSE(r.is_top());
}

TEST(ValueRange, JoinWidensToInterval) {
  // A union of more than 64 intervals widens to its hull: the 64 odd
  // constants 6k + 1 (1..379) stay an exact list, and joining 401 as well
  // widens them to [1, 401], where 3 can no longer be ruled out.
  ir::FieldId f = 0;
  smt::Domain r = smt::Domain::constant(1, 16);
  for (uint64_t k = 1; k < 64; ++k) {
    r.join(smt::Domain::constant(6 * k + 1, 16));
  }
  EXPECT_EQ(r.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 3)), Ternary::kFalse);
  r.join(smt::Domain::constant(401, 16));
  uint64_t v = 0;
  EXPECT_FALSE(r.is_constant(v));
  EXPECT_EQ(r.eval(cmp_atom(f, 16, ir::CmpOp::kLe, 401)), Ternary::kTrue);
  EXPECT_EQ(r.eval(cmp_atom(f, 16, ir::CmpOp::kGt, 401)), Ternary::kFalse);
  EXPECT_EQ(r.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 3)), Ternary::kUnknown);
  // The forced bit every joined constant shares survives the widening:
  // all of them are odd.
  EXPECT_EQ(r.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 4)), Ternary::kFalse);
}

TEST(ValueRange, NearbyJoinStaysExact) {
  // A join of two constants is their exact two-point list, so equality
  // against a value between them is refuted, not unknown, however far
  // apart they are.
  ir::FieldId f = 0;
  smt::Domain r = smt::Domain::constant(3, 8);
  r.join(smt::Domain::constant(9, 8));
  EXPECT_EQ(r.eval(cmp_atom(f, 8, ir::CmpOp::kEq, 5)), Ternary::kFalse);
  EXPECT_EQ(r.eval(cmp_atom(f, 8, ir::CmpOp::kEq, 9)), Ternary::kUnknown);
  smt::Domain far = smt::Domain::constant(3, 8);
  far.join(smt::Domain::constant(200, 8));
  EXPECT_EQ(far.eval(cmp_atom(f, 8, ir::CmpOp::kLt, 201)), Ternary::kTrue);
  EXPECT_EQ(far.eval(cmp_atom(f, 8, ir::CmpOp::kLt, 3)), Ternary::kFalse);
  EXPECT_EQ(far.eval(cmp_atom(f, 8, ir::CmpOp::kEq, 67)), Ternary::kFalse);
}

TEST(ValueRange, SmallWidthIsExact) {
  // A narrow field admits few values, so its joins are exact: the join
  // of {1} and {9} does not admit 5 the way an interval would.
  smt::Domain r = smt::Domain::constant(1, 4);
  r.join(smt::Domain::constant(9, 4));
  ir::FieldId f = 0;
  EXPECT_EQ(r.eval(cmp_atom(f, 4, ir::CmpOp::kEq, 5)), Ternary::kFalse);
  EXPECT_EQ(r.eval(cmp_atom(f, 4, ir::CmpOp::kEq, 9)), Ternary::kUnknown);
}

TEST(ValueRange, RefineToBottom) {
  smt::Domain r = smt::Domain::constant(5, 8);
  ir::FieldId f = 0;
  r.require(cmp_atom(f, 8, ir::CmpOp::kEq, 6));
  EXPECT_TRUE(r.empty());
}

// ---- width-boundary arithmetic: the primitives the summary validator's
// guard-implication checks lean on must be exact at the edges of the
// representable range.

TEST(ValueRange, WrapAroundAddTruncatesIntoRange) {
  // The shared truncating arithmetic wraps 0xff + 1 to 0 at width 8; the
  // domain built from the wrapped constant must be the wrapped value, not
  // the 9-bit sum.
  const uint64_t wrapped = ir::apply_arith(ir::ArithOp::kAdd, 0xff, 1, 8);
  EXPECT_EQ(wrapped, 0u);
  smt::Domain r = smt::Domain::constant(0xff + 1, 8);  // truncates
  uint64_t v = 1;
  ASSERT_TRUE(r.is_constant(v));
  EXPECT_EQ(v, 0u);
  ir::FieldId f = 0;
  EXPECT_EQ(r.eval(cmp_atom(f, 8, ir::CmpOp::kEq, 0)), Ternary::kTrue);
}

TEST(ValueRange, FullWidth64IsExactAtTheTop) {
  const uint64_t max = ~uint64_t{0};
  smt::Domain r = smt::Domain::constant(max, 64);
  uint64_t v = 0;
  ASSERT_TRUE(r.is_constant(v));
  EXPECT_EQ(v, max);
  ir::FieldId f = 0;
  // Nothing is greater than the all-ones value; Ge against it holds.
  EXPECT_EQ(r.eval(cmp_atom(f, 64, ir::CmpOp::kGt, max)), Ternary::kFalse);
  EXPECT_EQ(r.eval(cmp_atom(f, 64, ir::CmpOp::kGe, max)), Ternary::kTrue);
  // Joining {max-1} gives [max-1, max]: max-2 is provably out, and both
  // endpoints stay possible.
  r.join(smt::Domain::constant(max - 1, 64));
  EXPECT_EQ(r.eval(cmp_atom(f, 64, ir::CmpOp::kEq, max - 2)),
            Ternary::kFalse);
  EXPECT_EQ(r.eval(cmp_atom(f, 64, ir::CmpOp::kGe, max - 1)),
            Ternary::kTrue);
  EXPECT_EQ(r.eval(cmp_atom(f, 64, ir::CmpOp::kEq, max)), Ternary::kUnknown);
  // The 64-bit top: no claim about any value, and joining it stays top.
  smt::Domain top(64);
  EXPECT_TRUE(top.is_top());
  EXPECT_EQ(top.eval(cmp_atom(f, 64, ir::CmpOp::kEq, max)),
            Ternary::kUnknown);
  r.join(top);
  EXPECT_TRUE(r.is_top());
}

TEST(ValueRange, FullWidthMaskIsPlainCompare) {
  // A ternary atom whose mask covers the whole width is an exact compare:
  // requiring it pins the value; a conflicting full-mask compare empties
  // the domain.
  ir::FieldId f = 0;
  smt::Atom a = cmp_atom(f, 32, ir::CmpOp::kEq, 0xdeadbeef);
  EXPECT_TRUE(a.is_exact_mask());
  smt::Domain r(32);
  EXPECT_TRUE(r.is_top());
  r.require(a);
  uint64_t v = 0;
  ASSERT_TRUE(r.is_constant(v));
  EXPECT_EQ(v, 0xdeadbeefu);
  r.require(cmp_atom(f, 32, ir::CmpOp::kEq, 0xdeadbef0));
  EXPECT_TRUE(r.empty());
}

TEST(ValueRange, EmptyMeetAtWidthBoundaries) {
  ir::FieldId f = 0;
  // Nothing is above the width-16 maximum.
  smt::Domain wide(16);
  wide.require(cmp_atom(f, 16, ir::CmpOp::kGt, 0xffff));
  EXPECT_TRUE(wide.empty());
  // Nothing is below zero either.
  smt::Domain low(16);
  low.require(cmp_atom(f, 16, ir::CmpOp::kLt, 0));
  EXPECT_TRUE(low.empty());
  // A narrow field behaves the same at its maximum.
  smt::Domain small6(6);
  small6.require(cmp_atom(f, 6, ir::CmpOp::kGt, 63));
  EXPECT_TRUE(small6.empty());
  // eq then ne of the same value: the classic empty meet.
  smt::Domain r = smt::Domain::constant(63, 6);
  r.require(cmp_atom(f, 6, ir::CmpOp::kNe, 63));
  EXPECT_TRUE(r.empty());
  // An exclusion of the last value a range admits empties it too, though
  // only the witness search can tell.
  smt::Domain last(16);
  last.require(cmp_atom(f, 16, ir::CmpOp::kGe, 0xfffe));
  last.require(cmp_atom(f, 16, ir::CmpOp::kNe, 0xfffe));
  last.require(cmp_atom(f, 16, ir::CmpOp::kNe, 0xffff));
  EXPECT_FALSE(last.contradictory());
  EXPECT_TRUE(last.empty());
}

TEST(ValueRange, JoinWithBottomIsIdentity) {
  ir::FieldId f = 0;
  smt::Domain bottom(8);
  bottom.require(cmp_atom(f, 8, ir::CmpOp::kLt, 0));  // empty
  ASSERT_TRUE(bottom.empty());
  smt::Domain r = smt::Domain::constant(7, 8);
  r.join(bottom);  // no widening from an empty set
  uint64_t v = 0;
  ASSERT_TRUE(r.is_constant(v));
  EXPECT_EQ(v, 7u);
  // And bottom.join(x) adopts x wholesale.
  bottom.join(r);
  ASSERT_TRUE(bottom.is_constant(v));
  EXPECT_EQ(v, 7u);
}

TEST(ValueRange, BottomMakesNoClaim) {
  // eval over an empty set is kUnknown (unreachable state, no claim) —
  // callers prune on reachability, not on vacuous truth.
  ir::FieldId f = 0;
  smt::Domain r = smt::Domain::constant(5, 8);
  r.require(cmp_atom(f, 8, ir::CmpOp::kEq, 6));
  ASSERT_TRUE(r.empty());
  EXPECT_EQ(r.eval(cmp_atom(f, 8, ir::CmpOp::kEq, 5)), Ternary::kUnknown);
}

TEST(ValueRange, JoinIsExactUpTo256Values) {
  // A side that admits at most 256 values joins as its exact interval
  // list, whatever the width; a larger side keeps only the exclusions
  // the other side carries too.
  ir::FieldId f = 0;
  smt::Domain few(16);
  few.require(cmp_atom(f, 16, ir::CmpOp::kLe, 255));
  few.require(cmp_atom(f, 16, ir::CmpOp::kNe, 7));
  few.join(smt::Domain::constant(1000, 16));
  EXPECT_EQ(few.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 7)), Ternary::kFalse);
  EXPECT_EQ(few.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 500)), Ternary::kFalse);
  smt::Domain many(16);
  many.require(cmp_atom(f, 16, ir::CmpOp::kLe, 511));
  many.require(cmp_atom(f, 16, ir::CmpOp::kNe, 7));
  EXPECT_EQ(many.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 7)), Ternary::kFalse);
  many.join(smt::Domain::constant(1000, 16));
  EXPECT_EQ(many.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 7)),
            Ternary::kUnknown);
  EXPECT_EQ(many.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 600)),
            Ternary::kFalse);
  // Two large sides: 7, which both exclude, stays out; 9 and 20, which
  // one side admits, come back.
  smt::Domain other(16);
  other.require(cmp_atom(f, 16, ir::CmpOp::kLe, 1023));
  other.require(cmp_atom(f, 16, ir::CmpOp::kNe, 7));
  other.require(cmp_atom(f, 16, ir::CmpOp::kNe, 20));
  smt::Domain large(16);
  large.require(cmp_atom(f, 16, ir::CmpOp::kLe, 511));
  large.require(cmp_atom(f, 16, ir::CmpOp::kNe, 7));
  large.require(cmp_atom(f, 16, ir::CmpOp::kNe, 9));
  large.join(other);
  EXPECT_EQ(large.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 7)), Ternary::kFalse);
  EXPECT_EQ(large.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 9)),
            Ternary::kUnknown);
  EXPECT_EQ(large.eval(cmp_atom(f, 16, ir::CmpOp::kEq, 20)),
            Ternary::kUnknown);
  EXPECT_EQ(large.eval(cmp_atom(f, 16, ir::CmpOp::kLe, 1023)),
            Ternary::kTrue);
}

// ---------------------------------------------------------------- dataflow

TEST(Dataflow, RefutesContradictoryBranchAndMarksDeadCode) {
  ir::Context ctx;
  ir::FieldId x = ctx.fields.intern("x", 8);
  auto eq = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(x), ctx.arena.constant(v, 8));
  };
  cfg::Cfg g;
  cfg::NodeId n0 = g.add(ir::Stmt::assume(eq(1)));
  g.set_entry(n0);
  cfg::NodeId n1 = g.add(ir::Stmt::assume(eq(2)));  // contradicts upstream
  g.link(n0, n1);
  cfg::NodeId n2 = g.add(ir::Stmt::nop());
  g.node(n2).exit = cfg::ExitKind::kEmit;
  g.link(n1, n2);

  Facts f = compute_facts(ctx, g, n0);
  EXPECT_EQ(f.refuted_count, 1u);
  EXPECT_TRUE(f.refuted[n1]);
  EXPECT_EQ(f.unreachable_count, 1u);
  EXPECT_TRUE(f.unreachable[n2]);
}

TEST(Dataflow, ValidityCombosKeepJoinLostCorrelations) {
  // Two validity bits set together on one arm of a diamond: after the
  // join each bit individually is 0-or-1, but an assume on one bit must
  // recover the other through the combo refinement (the parser-order
  // implication pattern: "inner valid => outer valid").
  ir::Context ctx;
  ir::FieldId va = ctx.fields.intern("hdr.a.$valid@p0", 1);
  ir::FieldId vb = ctx.fields.intern("hdr.b.$valid@p0", 1);
  auto set_to = [&](ir::FieldId f, uint64_t v) {
    return ir::Stmt::assign(f, ctx.arena.constant(v, 1));
  };
  cfg::Cfg g;
  cfg::NodeId entry = g.add(ir::Stmt::nop());
  g.set_entry(entry);
  cfg::NodeId r1 = g.add(set_to(va, 0));
  cfg::NodeId r2 = g.add(set_to(vb, 0));
  cfg::NodeId fork = g.add(ir::Stmt::nop());
  g.link(entry, r1);
  g.link(r1, r2);
  g.link(r2, fork);
  cfg::NodeId e1 = g.add(set_to(va, 1));
  cfg::NodeId e2 = g.add(set_to(vb, 1));
  cfg::NodeId join = g.add(ir::Stmt::nop());
  g.link(fork, e1);
  g.link(e1, e2);
  g.link(e2, join);
  g.link(fork, join);  // skip arm: both bits stay 0
  cfg::NodeId guard = g.add(ir::Stmt::assume(ctx.arena.cmp(
      ir::CmpOp::kEq, ctx.arena.field(vb, 1), ctx.arena.constant(1, 1))));
  cfg::NodeId read = g.add(ir::Stmt::nop());
  cfg::NodeId exit = g.add(ir::Stmt::nop());
  g.node(exit).exit = cfg::ExitKind::kEmit;
  g.link(join, guard);
  g.link(guard, read);
  g.link(read, exit);
  for (cfg::NodeId n = entry; n <= exit; ++n) g.node(n).instance = 0;
  cfg::InstanceInfo info;
  info.name = "p0";
  info.pipeline = "p0";
  info.entry = entry;
  info.exit = exit;
  info.validity = {{"a", va}, {"b", vb}};
  g.instances().push_back(info);

  ValueDomain dom(ctx, g);
  dom.set_relevant(ValueDomain::compute_relevant(ctx, g));
  ForwardResult<ValueDomain> r = run_forward(g, entry, dom);

  // Before the guard: each bit on its own is unknown.
  ASSERT_TRUE(r.in[guard].has_value());
  EXPECT_EQ(dom.validity_of(*r.in[guard], 0, va), Ternary::kUnknown);
  // After assuming b valid, a must be valid too — only the combo set
  // remembers the bits travelled together.
  ASSERT_TRUE(r.in[read].has_value());
  EXPECT_EQ(dom.validity_of(*r.in[read], 0, vb), Ternary::kTrue);
  EXPECT_EQ(dom.validity_of(*r.in[read], 0, va), Ternary::kTrue);
}

// ------------------------------------------------------------------ facts

cfg::Cfg bug_cfg(ir::Context& ctx, int index, apps::BugScenario* out = nullptr) {
  apps::BugScenario bug = apps::make_bug(ctx, index);
  cfg::Cfg g = cfg::build_cfg(bug.bundle.dp, bug.bundle.rules, ctx);
  if (out != nullptr) *out = std::move(bug);
  return g;
}

// The fixpoint oracle for compute_facts: run_forward keeps every node's IN
// state over the whole graph's relevant fields. A node is unreachable when
// it is structurally reachable with no IN state, and refuted when it is an
// assume node whose transfer of its IN state fails.
Facts oracle_facts(const ir::Context& ctx, const cfg::Cfg& g,
                   cfg::NodeId start) {
  Facts f;
  f.refuted.assign(g.size(), 0);
  f.unreachable.assign(g.size(), 0);
  ValueDomain dom(ctx, g);
  dom.set_relevant(ValueDomain::compute_relevant(ctx, g));
  if (dom.relevant().empty()) return f;
  ForwardResult<ValueDomain> r = run_forward(g, start, dom);
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    if (!r.reachable[id]) continue;
    if (!r.in[id]) {
      f.unreachable[id] = 1;
      ++f.unreachable_count;
      continue;
    }
    const cfg::Node& n = g.node(id);
    if (!n.is_hash && n.stmt.kind == ir::StmtKind::kAssume &&
        !dom.feasible(id, *r.in[id])) {
      f.refuted[id] = 1;
      ++f.refuted_count;
    }
  }
  return f;
}

void expect_same_facts(const Facts& got, const Facts& want,
                       const std::string& what) {
  EXPECT_EQ(got.refuted, want.refuted) << what;
  EXPECT_EQ(got.unreachable, want.unreachable) << what;
  EXPECT_EQ(got.refuted_count, want.refuted_count) << what;
  EXPECT_EQ(got.unreachable_count, want.unreachable_count) << what;
}

// A seeded random DAG over assume, assign and hash nodes. Fields are 1-8
// bits wide; one instance owns three validity bits, which a prologue may
// reset so the combo refinement activates. Every node has a predecessor
// with a lower id, so the whole graph is reachable from node 0.
cfg::Cfg random_dag(ir::Context& ctx, util::Rng& rng) {
  std::vector<ir::FieldId> fields;
  const size_t nf = 2 + rng.below(4);
  for (size_t i = 0; i < nf; ++i) {
    fields.push_back(ctx.fields.intern("f" + std::to_string(i),
                                       static_cast<int>(1 + rng.below(8))));
  }
  cfg::InstanceInfo info;
  info.name = "p0";
  info.pipeline = "p0";
  for (const char* h : {"a", "b", "c"}) {
    const ir::FieldId vf =
        ctx.fields.intern(std::string("hdr.") + h + ".$valid@p0", 1);
    info.validity.emplace(h, vf);
    fields.push_back(vf);
  }
  auto pick = [&] { return fields[rng.below(fields.size())]; };
  auto konst = [&](ir::FieldId f) {
    const int w = ctx.fields.width(f);
    return ctx.arena.constant(rng.bits(w), w);
  };
  auto atom = [&]() -> ir::ExprRef {
    const ir::FieldId f = pick();
    ir::ExprRef lhs = ctx.var(f);
    if (rng.chance(1, 5)) {
      lhs = ctx.arena.arith(ir::ArithOp::kAnd, lhs, konst(f));
    }
    const auto op = static_cast<ir::CmpOp>(rng.below(6));
    return ctx.arena.cmp(op, lhs, konst(f));
  };

  cfg::Cfg g;
  const size_t n = 4 + rng.below(37);
  std::vector<cfg::NodeId> ids;
  for (size_t i = 0; i < n; ++i) {
    cfg::NodeId id = 0;
    const uint64_t kind = i == 0 ? 9 : rng.below(10);
    if (i == 0) {
      id = g.add(ir::Stmt::nop());
    } else if (i <= 3 && rng.chance(3, 4)) {
      // Validity-reset prologue.
      id = g.add(ir::Stmt::assign(fields[nf + i - 1],
                                  ctx.arena.constant(0, 1)));
    } else if (kind < 4) {
      ir::ExprRef e = atom();
      if (rng.chance(1, 4)) e = ctx.arena.band(e, atom());
      if (rng.chance(1, 6)) e = ctx.arena.bnot(e);
      id = g.add(ir::Stmt::assume(e));
    } else if (kind < 8) {
      const ir::FieldId t = pick();
      const ir::FieldId src = pick();
      ir::ExprRef e = konst(t);
      if (kind == 5 && ctx.fields.width(src) == ctx.fields.width(t)) {
        e = ctx.var(src);
      } else if (kind == 6) {
        e = ctx.arena.arith(ir::ArithOp::kAdd, ctx.var(t), konst(t));
      }
      id = g.add(ir::Stmt::assign(t, e));
    } else {
      cfg::HashStmt h;
      h.dest = pick();
      h.keys = {pick()};
      id = g.add_hash(h);
    }
    g.node(id).instance = rng.chance(1, 8) ? -1 : 0;
    ids.push_back(id);
  }
  g.set_entry(ids[0]);
  for (size_t i = 1; i < n; ++i) g.link(ids[rng.below(i)], ids[i]);
  for (size_t i = 0; i + 1 < n; ++i) {
    for (uint64_t e = rng.below(3); e > 0; --e) {
      g.link(ids[i], ids[rng.range(i + 1, n - 1)]);
    }
  }
  info.entry = ids[0];
  info.exit = ids[n - 1];
  g.instances().push_back(info);
  return g;
}

// Checks the streaming facts against the oracle from the graph's entry,
// and each pipeline's region-bounded facts against the unbounded ones
// from the same entry on every node of the region.
void check_graph(const ir::Context& ctx, const cfg::Cfg& g,
                 const std::string& what) {
  expect_same_facts(compute_facts(ctx, g, g.entry()),
                    oracle_facts(ctx, g, g.entry()), what);
  for (const cfg::InstanceInfo& info : g.instances()) {
    const Facts bounded = compute_facts(ctx, g, info.entry, info.exit);
    const Facts full = compute_facts(ctx, g, info.entry);
    std::vector<uint8_t> in_region;
    region_order(g, info.entry, info.exit, in_region);
    size_t differ = 0;
    for (cfg::NodeId id = 0; id < g.size(); ++id) {
      if (!in_region[id]) {
        differ += bounded.refuted[id] + bounded.unreachable[id];
      } else if (bounded.refuted[id] != full.refuted[id] ||
                 bounded.unreachable[id] != full.unreachable[id]) {
        ++differ;
      }
    }
    EXPECT_EQ(differ, 0u) << what << " pipeline " << info.name;
  }
}

TEST(Facts, StreamingMatchesFixpointOracle) {
  uint64_t refuted = 0, unreachable = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    ir::Context ctx;
    util::Rng rng(seed);
    cfg::Cfg g = random_dag(ctx, rng);
    const Facts want = oracle_facts(ctx, g, g.entry());
    expect_same_facts(compute_facts(ctx, g, g.entry()), want,
                      "random DAG seed " + std::to_string(seed));
    refuted += want.refuted_count;
    unreachable += want.unreachable_count;
  }
  // The random programs exercise both kinds of fact.
  EXPECT_GT(refuted, 0u);
  EXPECT_GT(unreachable, 0u);

  auto original_and_summarized = [](ir::Context& ctx, const cfg::Cfg& g,
                                    const std::string& what) {
    check_graph(ctx, g, what);
    check_graph(ctx, summary::summarize(ctx, g).graph, what + " summarized");
  };
  for (int level = 1; level <= 4; ++level) {
    ir::Context ctx;
    apps::AppBundle app = apps::make_gateway(ctx, {.level = level});
    original_and_summarized(ctx, cfg::build_cfg(app.dp, app.rules, ctx),
                            "gw-" + std::to_string(level));
  }
  for (int index = 1; index <= 16; ++index) {
    ir::Context ctx;
    original_and_summarized(ctx, bug_cfg(ctx, index),
                            "bug " + std::to_string(index));
  }
}

// The facts from `g`'s entry against an engine run from there with no
// static pruning and no summary, which decides every branch with the
// solver: no node on one of its paths may be refuted or unreachable.
// Returns how many nodes the facts ruled out.
uint64_t expect_facts_sound(ir::Context& ctx, const cfg::Cfg& g,
                            const std::string& what) {
  const Facts facts = compute_facts(ctx, g, g.entry());
  sym::EngineOptions opts;
  opts.static_pruning = false;
  sym::Engine eng(ctx, g, opts);
  std::vector<uint8_t> on_path(g.size(), 0);
  eng.run([&](const sym::PathResult& r) {
    for (cfg::NodeId n : r.path) on_path[n] = 1;
  });
  for (cfg::NodeId n = 0; n < g.size(); ++n) {
    if (!on_path[n]) continue;
    EXPECT_FALSE(facts.refuted[n]) << what << ": refuted node " << n;
    EXPECT_FALSE(facts.unreachable[n]) << what << ": unreachable node " << n;
  }
  return facts.refuted_count + facts.unreachable_count;
}

TEST(Facts, SoundAgainstTheUnprunedEngine) {
  uint64_t ruled_out = 0;
  for (std::string_view name : apps::kDemoApps) {
    ir::Context ctx;
    apps::AppBundle app = apps::demo_app(ctx, name);
    ruled_out += expect_facts_sound(
        ctx, cfg::build_cfg(app.dp, app.rules, ctx), std::string(name));
  }
  for (int index = 1; index <= apps::kNumBugs; ++index) {
    ir::Context ctx;
    ruled_out += expect_facts_sound(ctx, bug_cfg(ctx, index),
                                    "bug " + std::to_string(index));
  }
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    ir::Context ctx;
    util::Rng rng(seed);
    ruled_out += expect_facts_sound(ctx, random_dag(ctx, rng),
                                    "random DAG seed " + std::to_string(seed));
  }
  EXPECT_GT(ruled_out, 0u);
}

// --------------------------------------------------------------- path env

TEST(PathEnv, VerdictsAndRollback) {
  ir::Context ctx;
  ir::FieldId x = ctx.fields.intern("x", 8);
  auto eq = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(x), ctx.arena.constant(v, 8));
  };
  PathEnv env(ctx);
  const PathEnv::Mark m = env.mark();
  // Fresh single-field atom over an unconstrained field: certainly
  // satisfiable without a solver call.
  EXPECT_EQ(env.assume(eq(5)), Verdict::kSatisfiable);
  EXPECT_EQ(env.assume(eq(5)), Verdict::kImplied);
  EXPECT_EQ(env.assume(eq(6)), Verdict::kRefuted);
  env.rollback(m);
  EXPECT_EQ(env.assume(eq(6)), Verdict::kSatisfiable);
}

TEST(PathEnv, PreconditionsConstrainVerdicts) {
  ir::Context ctx;
  ir::FieldId x = ctx.fields.intern("x", 8);
  auto eq = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(x), ctx.arena.constant(v, 8));
  };
  PathEnv env(ctx);
  env.add_precondition(eq(1));
  EXPECT_EQ(env.assume(eq(2)), Verdict::kRefuted);
  EXPECT_EQ(env.assume(eq(1)), Verdict::kImplied);
}

TEST(PathEnv, OpaqueConjunctsPoisonTheVerdict) {
  ir::Context ctx;
  ir::FieldId a = ctx.fields.intern("a", 8);
  ir::FieldId b = ctx.fields.intern("b", 8);
  // A cross-field disjunction cannot be classified without a solver.
  ir::ExprRef e = ctx.arena.bor(
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a), ctx.arena.constant(3, 8)),
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(b), ctx.arena.constant(4, 8)));
  PathEnv env(ctx);
  EXPECT_EQ(env.assume(e), Verdict::kUnknown);
  // Fields mentioned by the opaque conjunct are poisoned: a later atom on
  // them cannot be certainly-satisfiable.
  EXPECT_EQ(env.assume(ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(a),
                                     ctx.arena.constant(7, 8))),
            Verdict::kUnknown);
}

// ------------------------------------------------------------------- lint

bool has_code(const LintResult& r, const std::string& code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(Lint, DetectsSeededStaticBugs) {
  // The statically-detectable rows of the Table 2 corpus, with the
  // diagnostic each must trigger.
  const std::pair<int, const char*> expectations[] = {
      {2, "contradictory-predicate"},     // shadowed ACL entry
      {3, "invalid-header-read"},         // parser case typo
      {4, "invalid-header-read"},         // swapped then/else arms
      {5, "header-never-emitted"},        // header dropped from emit order
      {6, "contradictory-predicate"},     // dead checksum-update guard
      {16, "uninitialized-metadata-read"},  // cross-pipeline read-before-write
  };
  for (const auto& [index, code] : expectations) {
    ir::Context ctx;
    cfg::Cfg g = bug_cfg(ctx, index);
    LintResult r = lint_cfg(ctx, g);
    EXPECT_FALSE(r.clean()) << "bug " << index;
    EXPECT_TRUE(has_code(r, code)) << "bug " << index << " missing " << code;
  }
}

TEST(Lint, CleanOnRouterAndGatewayDemos) {
  {
    ir::Context ctx;
    apps::AppBundle app = apps::make_router(ctx, 6);
    cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
    EXPECT_TRUE(lint_cfg(ctx, g).clean()) << "router";
  }
  for (int level = 1; level <= 4; ++level) {
    ir::Context ctx;
    apps::AppBundle app = apps::demo_app(ctx, "gw-" + std::to_string(level));
    cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
    LintResult r = lint_cfg(ctx, g);
    EXPECT_TRUE(r.clean()) << "gw-" << level << "\n" << render_text(r);
  }
}

TEST(Lint, DiagnosticsAreDeterministic) {
  // Fresh contexts intern fields in genuinely different orders between
  // runs of different programs first; the rendered output must not care.
  auto render_both = [](std::string* text, std::string* json) {
    ir::Context ctx;
    cfg::Cfg g = bug_cfg(ctx, 3);
    LintResult r = lint_cfg(ctx, g);
    *text = render_text(r);
    *json = render_json(r);
  };
  std::string t1, j1, t2, j2;
  render_both(&t1, &j1);
  render_both(&t2, &j2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"diagnostics\""), std::string::npos);
}

// Minimal single-instance CFG: entry → instance entry → [vf := 1 when
// set_valid] → assume reading hdr.h.f → instance exit. The header is in
// the deparser emit order so header-never-emitted stays quiet either way.
LintResult lint_tiny_validity_cfg(bool set_valid) {
  ir::Context ctx;
  const ir::FieldId vf = ctx.fields.intern("hdr.h.$valid@p0", 1);
  const ir::FieldId f = ctx.fields.intern("hdr.h.f", 8);
  cfg::Cfg g;
  const cfg::NodeId entry = g.add(ir::Stmt::nop());
  const cfg::NodeId ientry = g.add(ir::Stmt::nop());
  cfg::NodeId prev = ientry;
  if (set_valid) {
    const cfg::NodeId setter =
        g.add(ir::Stmt::assign(vf, ctx.arena.constant(1, 1)));
    g.node(setter).instance = 0;
    g.link(prev, setter);
    prev = setter;
  }
  const cfg::NodeId read = g.add(ir::Stmt::assume(
      ctx.arena.cmp(ir::CmpOp::kEq, ctx.var(f), ctx.arena.constant(1, 8))));
  const cfg::NodeId iexit = g.add(ir::Stmt::nop());
  g.node(ientry).instance = 0;
  g.node(read).instance = 0;
  g.node(iexit).instance = 0;
  g.node(iexit).exit = cfg::ExitKind::kEmit;
  g.node(iexit).emit_instance = 0;
  g.link(entry, ientry);
  g.link(prev, read);
  g.link(read, iexit);
  g.set_entry(entry);
  cfg::InstanceInfo info;
  info.name = "p0";
  info.pipeline = "p";
  info.entry = ientry;
  info.exit = iexit;
  info.emit_order = {"h"};
  info.validity = {{"h", vf}};
  g.instances().push_back(std::move(info));
  return lint_cfg(ctx, g);
}

TEST(Lint, ReadBeforeValidFiresWithoutAnySetter) {
  LintResult r = lint_tiny_validity_cfg(/*set_valid=*/false);
  EXPECT_TRUE(has_code(r, "read-before-valid")) << render_text(r);
  // The value domain agrees (validity is statically 0), so the plain
  // invalid-header-read error fires too; read-before-valid is the
  // structural claim on top of it.
  EXPECT_TRUE(has_code(r, "invalid-header-read")) << render_text(r);
}

TEST(Lint, ReadBeforeValidQuietWhenASetterReaches) {
  LintResult r = lint_tiny_validity_cfg(/*set_valid=*/true);
  EXPECT_FALSE(has_code(r, "read-before-valid")) << render_text(r);
  EXPECT_FALSE(has_code(r, "invalid-header-read")) << render_text(r);
}

TEST(Lint, DiagnosticsAreDedupedAndOrdered) {
  ir::Context ctx;
  cfg::Cfg g = bug_cfg(ctx, 3);
  LintResult r = lint_cfg(ctx, g);
  ASSERT_FALSE(r.diagnostics.empty());
  // Dedup key: a (detector, node, field) triple appears at most once even
  // when several CFG paths reach the same finding.
  std::set<std::tuple<std::string, cfg::NodeId, std::string>> keys;
  for (const Diagnostic& d : r.diagnostics) {
    EXPECT_TRUE(keys.emplace(d.code, d.node, d.field).second)
        << "duplicate diagnostic: " << d.code << " node " << d.node
        << " field '" << d.field << "'";
  }
  // Deterministic order: sorted by (node, code, field, message).
  for (size_t i = 1; i < r.diagnostics.size(); ++i) {
    const Diagnostic& a = r.diagnostics[i - 1];
    const Diagnostic& b = r.diagnostics[i];
    EXPECT_LE(std::tie(a.node, a.code, a.field, a.message),
              std::tie(b.node, b.code, b.field, b.message));
  }
  // The JSON rendering carries the dedup field.
  EXPECT_NE(render_json(r).find("\"field\""), std::string::npos);
}

// Minimal CFG with a dead store: entry → instance entry → meta.scratch :=
// 1 (never read, metadata so never emitted) → instance exit.
LintResult lint_dead_store_cfg(bool telemetry) {
  ir::Context ctx;
  const ir::FieldId f = ctx.fields.intern("meta.scratch", 8);
  cfg::Cfg g;
  const cfg::NodeId entry = g.add(ir::Stmt::nop());
  const cfg::NodeId ientry = g.add(ir::Stmt::nop());
  const cfg::NodeId wr = g.add(ir::Stmt::assign(f, ctx.arena.constant(1, 8)));
  const cfg::NodeId iexit = g.add(ir::Stmt::nop());
  g.node(ientry).instance = 0;
  g.node(wr).instance = 0;
  g.node(iexit).instance = 0;
  g.node(iexit).exit = cfg::ExitKind::kEmit;
  g.node(iexit).emit_instance = 0;
  g.link(entry, ientry);
  g.link(ientry, wr);
  g.link(wr, iexit);
  g.set_entry(entry);
  cfg::InstanceInfo info;
  info.name = "p0";
  info.pipeline = "p";
  info.entry = ientry;
  info.exit = iexit;
  g.instances().push_back(std::move(info));
  if (telemetry) g.telemetry().push_back("meta.scratch");
  return lint_cfg(ctx, g);
}

TEST(Lint, UnusedWriteFiresOnDeadStore) {
  LintResult r = lint_dead_store_cfg(/*telemetry=*/false);
  EXPECT_TRUE(has_code(r, "unused-write")) << render_text(r);
}

TEST(Lint, UnusedWriteQuietOnTelemetryAnnotation) {
  LintResult r = lint_dead_store_cfg(/*telemetry=*/true);
  EXPECT_FALSE(has_code(r, "unused-write")) << render_text(r);
}

TEST(Lint, SyntheticSkipArmsAreNotReported) {
  // gw-4's exhaustive topology guards make every skip-chain fall-through
  // statically dead; those are builder artifacts, not findings.
  ir::Context ctx;
  apps::AppBundle app = apps::demo_app(ctx, "gw-4");
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  bool has_synthetic = false;
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    has_synthetic = has_synthetic || g.node(id).synthetic;
  }
  EXPECT_TRUE(has_synthetic);
  EXPECT_TRUE(lint_cfg(ctx, g).clean());
}

// FNV-1a of the rendered JSON and text of every demo app and Table-2
// scenario, so a change to the value domain or a detector cannot silently
// change what m4lint reports.
TEST(Lint, CorpusOutputsArePinned) {
  struct Pin {
    std::string program;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"router", 0x38d2d6be443385bdull},
      {"mtag", 0x38d2d6be443385bdull},
      {"acl", 0x38d2d6be443385bdull},
      {"switchp4", 0x25251b6d2d9db9d0ull},
      {"gw-1", 0x38d2d6be443385bdull},
      {"gw-2", 0x38d2d6be443385bdull},
      {"gw-3", 0x38d2d6be443385bdull},
      {"gw-4", 0x38d2d6be443385bdull},
      {"bug 1", 0x38d2d6be443385bdull},
      {"bug 2", 0x928b4ab690a5dc51ull},
      {"bug 3", 0x507606208100dfd1ull},
      {"bug 4", 0x5897150e1e6ad893ull},
      {"bug 5", 0xdd5f69ea9e0b8f0bull},
      {"bug 6", 0x106f000b7b784af7ull},
      {"bug 7", 0xf0bcedc14ccc3068ull},
      {"bug 8", 0xfb3e536808f0cb6full},
      {"bug 9", 0x38d2d6be443385bdull},
      {"bug 10", 0x38d2d6be443385bdull},
      {"bug 11", 0x283485e811724878ull},
      {"bug 12", 0x38d2d6be443385bdull},
      {"bug 13", 0x38d2d6be443385bdull},
      {"bug 14", 0x38d2d6be443385bdull},
      {"bug 15", 0x38d2d6be443385bdull},
      {"bug 16", 0xe84b94b44cbb5f79ull},
  };
  auto digest = [](const LintResult& r) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : render_json(r) + render_text(r)) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  };
  size_t k = 0;
  auto expect_pinned = [&](const ir::Context& ctx, const cfg::Cfg& g,
                           const std::string& program) {
    ASSERT_LT(k, std::size(pins));
    const Pin& pin = pins[k++];
    ASSERT_EQ(pin.program, program);
    EXPECT_EQ(digest(lint_cfg(ctx, g)), pin.digest) << program;
  };
  for (std::string_view name : apps::kDemoApps) {
    ir::Context ctx;
    apps::AppBundle app = apps::demo_app(ctx, name);
    expect_pinned(ctx, cfg::build_cfg(app.dp, app.rules, ctx),
                  std::string(name));
  }
  for (int index = 1; index <= apps::kNumBugs; ++index) {
    ir::Context ctx;
    expect_pinned(ctx, bug_cfg(ctx, index), "bug " + std::to_string(index));
  }
  EXPECT_EQ(k, std::size(pins));
}

}  // namespace
}  // namespace meissa::analysis
