// Robustness of the testing pipeline itself: solver resource budgets and
// graceful degradation (kUnknown as a first-class verdict), cooperative
// cancellation, scope-underflow hardening, the flaky tester<->device link,
// and the retry/quarantine machinery in the driver.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>

#include "apps/apps.hpp"
#include "driver/sender.hpp"
#include "driver/tester.hpp"
#include "sim/link.hpp"
#include "sim/toolchain.hpp"
#include "smt/bv_solver.hpp"
#include "smt/sat.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace meissa {
namespace {

using smt::Lit;
using smt::ResourceLimits;
using smt::SatSolver;
using smt::SolveStatus;

// Pigeonhole n+1 pigeons into n holes: unsat, and proving it requires
// genuine conflict analysis (no root-level refutation), so a tiny conflict
// budget is guaranteed to be exhausted mid-search.
void add_pigeonhole(SatSolver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Lit>> p(static_cast<size_t>(pigeons));
  for (auto& row : p) {
    for (int h = 0; h < holes; ++h) row.push_back(Lit::make(s.new_var(), false));
  }
  for (auto& row : p) s.add_clause(row);  // every pigeon sits somewhere
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_binary(~p[static_cast<size_t>(i)][static_cast<size_t>(h)],
                     ~p[static_cast<size_t>(j)][static_cast<size_t>(h)]);
      }
    }
  }
}

TEST(SatBudget, DefaultLimitsBehaveExactlyLikeSolve) {
  SatSolver s;
  Lit a = Lit::make(s.new_var(), false);
  Lit b = Lit::make(s.new_var(), false);
  s.add_binary(a, b);
  EXPECT_EQ(s.solve_limited({}, ResourceLimits{}), SolveStatus::kSat);
  s.add_unit(~a);
  s.add_unit(~b);
  EXPECT_EQ(s.solve_limited({}, ResourceLimits{}), SolveStatus::kUnsat);
}

TEST(SatBudget, ConflictLimitYieldsUnknownAndSolverStaysUsable) {
  SatSolver s;
  add_pigeonhole(s, 6);
  ResourceLimits tight;
  tight.max_conflicts = 1;
  EXPECT_EQ(s.solve_limited({}, tight), SolveStatus::kUnknown);
  // The same solver, unlimited, still proves unsat: giving up must leave
  // the clause database and trail consistent.
  EXPECT_EQ(s.solve_limited({}, ResourceLimits{}), SolveStatus::kUnsat);
}

TEST(SatBudget, PropagationLimitYieldsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 6);
  ResourceLimits tight;
  tight.max_propagations = 1;
  EXPECT_EQ(s.solve_limited({}, tight), SolveStatus::kUnknown);
}

TEST(SatBudget, ExpiredDeadlineYieldsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 6);
  ResourceLimits tight;
  tight.has_deadline = true;
  tight.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(s.solve_limited({}, tight), SolveStatus::kUnknown);
}

TEST(SatBudget, GenerousLimitsDoNotPerturbTheVerdict) {
  SatSolver s;
  add_pigeonhole(s, 4);
  ResourceLimits roomy;
  roomy.max_conflicts = 1u << 30;
  roomy.max_propagations = uint64_t{1} << 40;
  EXPECT_EQ(s.solve_limited({}, roomy), SolveStatus::kUnsat);
}

// ------------------------------------------------------- BvSolver budgets

// x ^ y == all-ones forces y == ~x, so (x & y) != 0 is unsat — but only
// conflict analysis over the bit-blasted circuit can prove it, which makes
// the formula a reliable budget-exhauster for the SAT core.
void assert_hard_unsat(smt::BvSolver& solver, ir::Context& ctx) {
  ir::ExprRef x = ctx.field_var("x", 32);
  ir::ExprRef y = ctx.field_var("y", 32);
  ir::ExprRef all = ctx.arena.constant(0xffffffffu, 32);
  ir::ExprRef zero = ctx.arena.constant(0, 32);
  solver.add(ctx.arena.cmp(ir::CmpOp::kEq,
                           ctx.arena.arith(ir::ArithOp::kXor, x, y), all));
  solver.add(ctx.arena.cmp(ir::CmpOp::kNe,
                           ctx.arena.arith(ir::ArithOp::kAnd, x, y), zero));
}

TEST(SolverBudget, ExhaustedCheckReturnsUnknownAndCountsIt) {
  ir::Context ctx;
  smt::BvSolver solver(ctx);
  assert_hard_unsat(solver, ctx);
  smt::Budget tiny;
  tiny.max_conflicts = 1;
  solver.set_budget(tiny);
  EXPECT_EQ(solver.check(), smt::CheckResult::kUnknown);
  EXPECT_EQ(solver.stats().unknowns, 1u);
}

TEST(SolverBudget, SolverRecoversWhenBudgetIsLifted) {
  ir::Context ctx;
  smt::BvSolver solver(ctx);
  assert_hard_unsat(solver, ctx);
  smt::Budget tiny;
  tiny.max_conflicts = 1;
  solver.set_budget(tiny);
  ASSERT_EQ(solver.check(), smt::CheckResult::kUnknown);
  // Restoring the unlimited budget on the *same* solver must produce the
  // real verdict: degradation is per-check, never sticky.
  solver.set_budget(smt::Budget{});
  EXPECT_EQ(solver.check(), smt::CheckResult::kUnsat);
}

TEST(SolverBudget, GenerousBudgetLeavesVerdictsUntouched) {
  ir::Context ctx;
  smt::BvSolver solver(ctx);
  assert_hard_unsat(solver, ctx);
  smt::Budget roomy;
  roomy.max_conflicts = 1u << 30;
  roomy.max_wall_ms = 300'000;
  solver.set_budget(roomy);
  EXPECT_EQ(solver.check(), smt::CheckResult::kUnsat);
  EXPECT_EQ(solver.stats().unknowns, 0u);
}

TEST(SolverBudget, MaxWallMsSaturatesInsteadOfOverflowing) {
  // Regression: the deadline used to be now + duration_cast(seconds), which
  // for astronomically large budgets overflowed steady_clock's range and
  // produced a deadline in the past — every check answered kUnknown
  // immediately. A UINT64_MAX budget must behave as "effectively unlimited".
  ir::Context ctx;
  smt::BvSolver solver(ctx);
  assert_hard_unsat(solver, ctx);
  smt::Budget huge;
  huge.max_wall_ms = UINT64_MAX;
  EXPECT_FALSE(huge.unlimited());  // the deadline machinery is exercised
  EXPECT_EQ(huge.deadline_after(std::chrono::steady_clock::now()),
            std::chrono::steady_clock::time_point::max());
  solver.set_budget(huge);
  EXPECT_EQ(solver.check(), smt::CheckResult::kUnsat);
  EXPECT_EQ(solver.stats().unknowns, 0u);
}

// --------------------------------------------------- scope-underflow guard

TEST(ScopeUnderflow, BvSolverPopWithoutPushThrowsInternalError) {
  ir::Context ctx;
  std::unique_ptr<smt::Solver> solver = smt::make_bv_solver(ctx);
  EXPECT_THROW(solver->pop(), util::InternalError);
  // A balanced push/pop works; the *extra* pop is what must throw.
  solver->push();
  solver->pop();
  EXPECT_THROW(solver->pop(), util::InternalError);
}

TEST(ScopeUnderflow, Z3PopWithoutPushThrowsInternalError) {
  if (!smt::have_z3()) GTEST_SKIP() << "built without Z3";
  ir::Context ctx;
  std::unique_ptr<smt::Solver> solver = smt::make_z3_solver(ctx);
  ASSERT_NE(solver, nullptr);
  EXPECT_THROW(solver->pop(), util::InternalError);
  solver->push();
  solver->pop();
  EXPECT_THROW(solver->pop(), util::InternalError);
}

// ------------------------------------------------- degraded generation

apps::AppBundle multi_switch_app(ir::Context& ctx) {
  // 8 pipelines across 2 switches (gw-4, Fig. 1)
  return apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2});
}

TEST(DegradedGeneration, TinyBudgetCompletesWithHonestAccounting) {
  // A starvation budget: generation must complete without throwing, and
  // every branch the DFS abandoned because of the budget must be visible
  // as degraded coverage rather than vanish. The ACL app's final DFS
  // still reaches the SAT core (gw-4's is decided without it, and the
  // budget limits only the SAT core).
  ir::Context ctx;
  apps::AppBundle app = apps::make_acl(ctx, 4, 4);
  driver::GenOptions opts;
  opts.smt_budget.max_conflicts = 1;
  opts.smt_budget.max_propagations = 1;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  const driver::GenStats& st = gen.stats();
  // Exact coverage is exactly the emitted templates.
  EXPECT_EQ(st.engine.valid_paths, templates.size());
  EXPECT_EQ(st.engine.valid_paths, st.templates);
  // The budget actually bit: some checks exhausted it, and the branches
  // they guarded were recorded as degraded instead of silently dropped.
  EXPECT_GT(st.engine.solver.unknowns, 0u);
  EXPECT_GT(st.engine.degraded_paths, 0u);
}

TEST(DegradedGeneration, UnlimitedBudgetReportsNoDegradation) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  driver::Generator gen(ctx, app.dp, app.rules, {});
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  EXPECT_FALSE(templates.empty());
  EXPECT_EQ(gen.stats().engine.degraded_paths, 0u);
  EXPECT_EQ(gen.stats().engine.solver.unknowns, 0u);
  EXPECT_EQ(gen.stats().engine.valid_paths, templates.size());
}

// ---------------------------------------------------------- cancellation

TEST(Cancellation, PreCancelledTokenStopsGenerationEarly) {
  ir::Context ctx;
  apps::AppBundle app = multi_switch_app(ctx);
  util::CancelToken token;
  token.cancel();
  driver::GenOptions opts;
  opts.cancel = &token;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  EXPECT_TRUE(gen.stats().cancelled);
  EXPECT_TRUE(templates.empty());
}

TEST(Cancellation, UncancelledTokenIsTransparent) {
  util::CancelToken token;
  auto run = [&](const util::CancelToken* cancel) {
    ir::Context ctx;
    apps::AppBundle app = apps::make_router(ctx, 4);
    driver::GenOptions opts;
    opts.cancel = cancel;
    driver::Generator gen(ctx, app.dp, app.rules, opts);
    std::vector<sym::TestCaseTemplate> templates = gen.generate();
    EXPECT_FALSE(gen.stats().cancelled);
    return templates.size();
  };
  EXPECT_EQ(run(&token), run(nullptr));
}

TEST(Cancellation, TokenResetsForReuse) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

// ------------------------------------------------------- FlakyLink (unit)

// One concrete injectable case for the small router app, plus the device
// it runs on — the fixture every link test drives frames through.
struct RouterRig {
  ir::Context ctx;
  apps::AppBundle app;
  sim::Device device;
  driver::TestCase tc;
  sim::DeviceOutput clean;  // fault-free verdict for the case

  RouterRig()
      : app(apps::make_router(ctx, 2)),
        device(sim::compile(app.dp, app.rules, ctx), ctx) {
    driver::Generator gen(ctx, app.dp, app.rules, {});
    std::vector<sym::TestCaseTemplate> templates = gen.generate();
    driver::Sender sender(ctx, app.dp, gen.graph(), 1);
    for (const sym::TestCaseTemplate& t : templates) {
      std::optional<driver::TestCase> c = sender.concretize(t, gen.engine());
      if (!c || c->expect_drop) continue;
      tc = std::move(*c);
      device.set_registers(tc.registers);
      clean = device.inject(tc.input);
      if (clean.accepted && !clean.dropped) return;
    }
    ADD_FAILURE() << "router app produced no deliverable test case";
  }
};

TEST(FlakyLink, CertainDropDeliversNothing) {
  RouterRig rig;
  sim::LinkFaultSpec spec;
  spec.drop_rate = 1.0;
  sim::FlakyLink link(rig.device, spec);
  link.send(rig.tc.input);
  EXPECT_TRUE(link.collect().empty());
  EXPECT_EQ(link.stats().frames_sent, 1u);
  EXPECT_EQ(link.stats().dropped, 1u);
}

TEST(FlakyLink, CertainDuplicationDeliversTwice) {
  RouterRig rig;
  sim::LinkFaultSpec spec;
  spec.duplicate_rate = 1.0;
  sim::FlakyLink link(rig.device, spec);
  link.send(rig.tc.input);
  std::vector<sim::DeviceOutput> got = link.collect();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].bytes, rig.clean.bytes);
  EXPECT_EQ(got[1].bytes, rig.clean.bytes);
  EXPECT_EQ(link.stats().duplicated, 1u);
}

TEST(FlakyLink, ReorderedVerdictArrivesAtTheNextCollect) {
  RouterRig rig;
  sim::LinkFaultSpec spec;
  spec.reorder_rate = 1.0;
  sim::FlakyLink link(rig.device, spec);
  link.send(rig.tc.input);
  EXPECT_TRUE(link.collect().empty());  // held back
  std::vector<sim::DeviceOutput> late = link.collect();
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].bytes, rig.clean.bytes);
  EXPECT_EQ(link.stats().reordered, 1u);
}

TEST(FlakyLink, CorruptionFlipsExactlyOneTailBit) {
  RouterRig rig;
  sim::LinkFaultSpec spec;
  spec.corrupt_rate = 1.0;
  sim::FlakyLink link(rig.device, spec);
  link.send(rig.tc.input);
  std::vector<sim::DeviceOutput> got = link.collect();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].bytes.size(), rig.clean.bytes.size());
  int flipped_bits = 0;
  size_t first_diff = rig.clean.bytes.size();
  for (size_t i = 0; i < rig.clean.bytes.size(); ++i) {
    uint8_t x = static_cast<uint8_t>(got[0].bytes[i] ^ rig.clean.bytes[i]);
    if (x == 0) continue;
    if (first_diff == rig.clean.bytes.size()) first_diff = i;
    for (; x != 0; x &= static_cast<uint8_t>(x - 1)) ++flipped_bits;
  }
  EXPECT_EQ(flipped_bits, 1);
  // Corruption is confined to the stamped payload tail (last 16 bytes), so
  // the driver's id+filler check can always detect it.
  EXPECT_GE(first_diff + 16, rig.clean.bytes.size());
  EXPECT_EQ(link.stats().corrupted, 1u);
}

TEST(FlakyLink, CertainInstallFailureReportsAndInstallsNothing) {
  RouterRig rig;
  sim::LinkFaultSpec spec;
  spec.install_fail_rate = 1.0;
  sim::FlakyLink link(rig.device, spec);
  EXPECT_FALSE(link.install_registers(rig.tc.registers));
  EXPECT_FALSE(link.install_registers(rig.tc.registers));
  EXPECT_EQ(link.stats().install_failures, 2u);
}

TEST(FlakyLink, SeededRunsAreReproducible) {
  auto counters = [](uint64_t seed) {
    RouterRig rig;
    sim::LinkFaultSpec spec;
    spec.drop_rate = 0.3;
    spec.duplicate_rate = 0.2;
    spec.seed = seed;
    sim::FlakyLink link(rig.device, spec);
    for (int i = 0; i < 200; ++i) {
      link.send(rig.tc.input);
      (void)link.collect();
    }
    return std::make_pair(link.stats().dropped, link.stats().duplicated);
  };
  EXPECT_EQ(counters(7), counters(7));
  EXPECT_NE(counters(7), counters(8));
}

// --------------------------------------------- driver retry & quarantine

TEST(LossyDriver, TransientInstallFailuresAreRetriedToConvergence) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::TestRunOptions opts;
  opts.link.install_fail_rate = 0.3;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  driver::TestReport report = meissa.test(device, app.intents);
  EXPECT_TRUE(report.all_passed()) << report.str();
  EXPECT_GT(report.install_retries, 0u);
  EXPECT_GT(report.link.install_failures, 0u);
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(LossyDriver, HopelessLinkQuarantinesInsteadOfHanging) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 2);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::TestRunOptions opts;
  opts.link.drop_rate = 1.0;  // nothing ever gets through
  opts.max_send_retries = 3;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  driver::TestReport report = meissa.test(device, app.intents);
  EXPECT_FALSE(report.all_passed());
  EXPECT_EQ(report.passed, 0u);
  EXPECT_EQ(report.failed, 0u);  // quarantine is not failure
  EXPECT_EQ(report.quarantined.size(), report.cases);
  EXPECT_FALSE(report.quarantined.empty());
  // Every case burned its full retry budget with exponential backoff.
  EXPECT_EQ(report.send_retries, 3 * report.cases);
  EXPECT_GT(report.backoff_units, report.send_retries / 2);
}

TEST(LossyDriver, BackoffJitterIsSeedDeterministic) {
  // The retry backoff carries seeded jitter: byte-identical per seed (two
  // runs agree exactly), and actually seed-dependent (across a pool of
  // seeds the schedules differ — a constant "jitter" would be a thundering
  // herd with extra steps).
  auto run = [](uint64_t seed) {
    ir::Context ctx;
    apps::AppBundle app = apps::make_router(ctx, 4);
    sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
    driver::TestRunOptions opts;
    opts.link.drop_rate = 1.0;  // every case burns its full retry budget
    opts.max_send_retries = 6;
    opts.seed = seed;
    driver::Meissa meissa(ctx, app.dp, app.rules, opts);
    return meissa.test(device, app.intents).backoff_units;
  };
  std::set<uint64_t> distinct;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const uint64_t units = run(seed);
    EXPECT_GT(units, 0u);
    EXPECT_EQ(units, run(seed)) << "seed " << seed;  // reproducible
    distinct.insert(units);
  }
  EXPECT_GT(distinct.size(), 1u);
}

// ------------------------------------------------- report bounds & JSON

TEST(Report, HashRepairBoundIsExplicitAndReported) {
  EXPECT_EQ(driver::Sender::kMaxHashRepairRounds, 3);
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::Meissa meissa(ctx, app.dp, app.rules, {});
  driver::TestReport report = meissa.test(device, app.intents);
  // The repair loop is bounded per case, so attempts can never exceed
  // rounds x concretized cases.
  EXPECT_LE(report.hash_repair_attempts,
            static_cast<uint64_t>(driver::Sender::kMaxHashRepairRounds) *
                (report.cases + report.removed_by_hash));
  std::string json = report.to_json();
  EXPECT_NE(json.find("\"hash_repair_attempts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"removed_by_hash\":"), std::string::npos) << json;
}

TEST(Report, JsonCarriesRobustnessCounters) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 2);
  sim::Device device(sim::compile(app.dp, app.rules, ctx), ctx);
  driver::TestRunOptions opts;
  opts.link.drop_rate = 0.2;
  opts.link.seed = 11;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  driver::TestReport report = meissa.test(device, app.intents);
  std::string json = report.to_json();
  for (const char* key :
       {"\"templates\":", "\"cases\":", "\"passed\":", "\"failed\":",
        "\"exact_paths\":", "\"degraded_paths\":", "\"smt_unknowns\":",
        "\"send_retries\":", "\"install_retries\":", "\"dedup_dropped\":",
        "\"corruption_detected\":", "\"backoff_units\":", "\"quarantined\":",
        "\"link\":", "\"frames_sent\":", "\"dropped\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in\n"
                                                 << json;
  }
}

}  // namespace
}  // namespace meissa
