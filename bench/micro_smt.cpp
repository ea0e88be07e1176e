// Micro benchmarks (google-benchmark): the solver fast path vs SAT core,
// incremental vs fresh solving, early termination on/off, and the
// engine-level ablations DESIGN.md lists (predicate folding, disjoint-
// negation elision).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "apps/demos.hpp"
#include "smt/bv_solver.hpp"

namespace {

using namespace meissa;

// --- solver micro ----------------------------------------------------------

// Every row's JSON carries `decisions_per_solve`: SAT-core decisions per
// SAT-core solve (bench::decisions_per_solve; 0 when the fast path decided
// every check).
void BM_FastPathExactMatch(benchmark::State& state) {
  ir::Context ctx;
  ir::ExprRef f = ctx.field_var("f", 32);
  smt::SolverStats st;
  for (auto _ : state) {
    smt::BvSolver s(ctx);
    s.add(ctx.arena.cmp(ir::CmpOp::kEq, f, ctx.arena.constant(42, 32)));
    s.add(ctx.arena.cmp(ir::CmpOp::kNe, f, ctx.arena.constant(7, 32)));
    benchmark::DoNotOptimize(s.check());
    st += s.stats();
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(st);
}
BENCHMARK(BM_FastPathExactMatch);

void BM_SatCoreArithmetic(benchmark::State& state) {
  ir::Context ctx;
  ir::ExprRef a = ctx.field_var("a", 16);
  ir::ExprRef b = ctx.field_var("b", 16);
  smt::SolverStats st;
  for (auto _ : state) {
    smt::BvSolver s(ctx);
    s.add(ctx.arena.cmp(ir::CmpOp::kEq,
                        ctx.arena.arith(ir::ArithOp::kAdd, a, b),
                        ctx.arena.constant(12345, 16)));
    s.add(ctx.arena.cmp(ir::CmpOp::kGt, a, ctx.arena.constant(60000, 16)));
    benchmark::DoNotOptimize(s.check());
    st += s.stats();
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(st);
}
BENCHMARK(BM_SatCoreArithmetic);

void BM_IncrementalPushPop(benchmark::State& state) {
  ir::Context ctx;
  ir::ExprRef f = ctx.field_var("f", 32);
  smt::BvSolver s(ctx);
  s.add(ctx.arena.cmp(ir::CmpOp::kGt, f, ctx.arena.constant(100, 32)));
  uint64_t v = 101;
  for (auto _ : state) {
    s.push();
    s.add(ctx.arena.cmp(ir::CmpOp::kEq, f, ctx.arena.constant(v++, 32)));
    benchmark::DoNotOptimize(s.check());
    s.pop();
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(s.stats());
}
BENCHMARK(BM_IncrementalPushPop);

// --- engine ablations -------------------------------------------------------

template <bool kEarlyTermination, bool kIncremental>
void BM_GenerateFig8(benchmark::State& state) {
  smt::SolverStats st;
  for (auto _ : state) {
    state.PauseTiming();
    ir::Context ctx;
    p4::DataPlane dp = apps::demos::make_fig8_plane(ctx);
    p4::RuleSet rules = apps::demos::fig8_rules();
    cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
    state.ResumeTiming();
    sym::EngineOptions opts;
    opts.early_termination = kEarlyTermination;
    opts.incremental = kIncremental;
    sym::Engine eng(ctx, g, opts);
    size_t n = 0;
    eng.run([&](const sym::PathResult&) { ++n; });
    benchmark::DoNotOptimize(n);
    st += eng.stats().solver;
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(st);
}
BENCHMARK(BM_GenerateFig8<true, true>)->Name("BM_Engine/early+incremental");
BENCHMARK(BM_GenerateFig8<true, false>)->Name("BM_Engine/early+fresh");
BENCHMARK(BM_GenerateFig8<false, true>)->Name("BM_Engine/leafcheck+incremental");

// Predicate folding (this implementation's optimization over Algorithm 1).
template <bool kFold>
void BM_SwitchP4Folding(benchmark::State& state) {
  smt::SolverStats st;
  for (auto _ : state) {
    ir::Context ctx;
    apps::SwitchP4Config cfg;
    cfg.routes = 6;
    apps::AppBundle app = apps::make_switchp4(ctx, cfg);
    driver::GenOptions gen;
    gen.code_summary = false;
    gen.check_every_predicate = !kFold;
    driver::Generator g(ctx, app.dp, app.rules, gen);
    benchmark::DoNotOptimize(g.generate().size());
    st += g.stats().engine.solver;
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(st);
}
BENCHMARK(BM_SwitchP4Folding<true>)->Name("BM_SwitchP4/folded-predicates");
BENCHMARK(BM_SwitchP4Folding<false>)->Name("BM_SwitchP4/check-every-predicate");

// Disjoint-negation elision in the table encoding.
template <bool kElide>
void BM_RouterNegations(benchmark::State& state) {
  smt::SolverStats st;
  for (auto _ : state) {
    ir::Context ctx;
    apps::AppBundle app = apps::make_router(ctx, 24);
    driver::GenOptions gen;
    gen.code_summary = false;
    gen.check_every_predicate = true;
    gen.build.elide_disjoint_negations = kElide;
    driver::Generator g(ctx, app.dp, app.rules, gen);
    benchmark::DoNotOptimize(g.generate().size());
    st += g.stats().engine.solver;
  }
  state.counters["decisions_per_solve"] = bench::decisions_per_solve(st);
}
BENCHMARK(BM_RouterNegations<false>)->Name("BM_Router/standard-negations");
BENCHMARK(BM_RouterNegations<true>)->Name("BM_Router/elided-negations");

}  // namespace

// Expanded BENCHMARK_MAIN with the shared observability session: --metrics
// and --trace work here like on every other bench (the benchmark library
// ignores flags it does not own, so no pre-stripping is needed).
int main(int argc, char** argv) {
  auto obs_session = meissa::bench::observe(argc, argv);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
