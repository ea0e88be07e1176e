// Determinism of the parallel generation architecture: Generator::generate
// must yield identical template sets for every thread count, and full test
// runs must produce identical reports. Each run uses its own Context, so
// field/expression interning order genuinely differs between runs — the
// signatures below are name-based and must not.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

#include "apps/apps.hpp"
#include "driver/incremental.hpp"
#include "driver/tester.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/toolchain.hpp"
#include "sym/template.hpp"
#include "testlib.hpp"

namespace meissa {
namespace {

using AppMaker = std::function<apps::AppBundle(ir::Context&)>;

apps::AppBundle router_app(ir::Context& ctx) {
  return apps::make_router(ctx, 6);
}

apps::AppBundle nat_gateway_app(ir::Context& ctx) {
  return apps::demo_app(ctx, "gw-2");  // ingress + egress NAT gateway
}

apps::AppBundle multi_switch_app(ir::Context& ctx) {
  // 8 pipelines across 2 switches (gw-4, Fig. 1)
  return apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2});
}

// The ACL app's final DFS still sends checks to the SAT core (its
// cross-field disjunctions are opaque to the domain fast path), so a
// conflict budget limits it and its checks reach the path-condition
// cache; the gateways' checks are all decided without the SAT core.
apps::AppBundle acl_app(ir::Context& ctx) {
  return apps::make_acl(ctx, 4, 4);
}

// One name-based line per template: structural identity (node-id path —
// summarized node ids are thread-count-independent because graph splices
// are sequential) plus the rendered path condition (field names).
std::vector<std::string> generate_signature(const AppMaker& make,
                                            driver::GenOptions opts) {
  ir::Context ctx;
  apps::AppBundle app = make(ctx);
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  std::vector<std::string> sig;
  sig.reserve(templates.size());
  for (const sym::TestCaseTemplate& t : templates) {
    std::ostringstream os;
    os << sym::describe(t, ctx, gen.graph()) << "\n  path:";
    for (cfg::NodeId n : t.path) os << " " << n;
    sig.push_back(os.str());
  }
  return sig;
}

void expect_identical_across_threads(const AppMaker& make,
                                     driver::GenOptions opts) {
  opts.threads = 1;
  const std::vector<std::string> base = generate_signature(make, opts);
  EXPECT_FALSE(base.empty());
  for (int threads : {2, 8}) {
    opts.threads = threads;
    const std::vector<std::string> got = generate_signature(make, opts);
    ASSERT_EQ(got.size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i]) << "template " << i << ", " << threads
                                 << " threads";
    }
  }
}

TEST(Determinism, RouterTemplatesIdenticalAcrossThreadCounts) {
  expect_identical_across_threads(router_app, {});
}

TEST(Determinism, NatGatewayTemplatesIdenticalAcrossThreadCounts) {
  expect_identical_across_threads(nat_gateway_app, {});
}

TEST(Determinism, MultiSwitchTemplatesIdenticalAcrossThreadCounts) {
  expect_identical_across_threads(multi_switch_app, {});
}

TEST(Determinism, StopModeMaxTemplatesIdenticalAcrossThreadCounts) {
  // max_templates exercises the deterministic truncation of the shard
  // merge (the first K results in sequential DFS order, whatever ran).
  driver::GenOptions opts;
  opts.max_templates = 3;
  expect_identical_across_threads(nat_gateway_app, opts);
}

TEST(Determinism, GenerousTimeBudgetIdenticalAcrossThreadCounts) {
  // A budget that never triggers must not perturb the result set.
  driver::GenOptions opts;
  opts.time_budget_seconds = 300.0;
  expect_identical_across_threads(router_app, opts);
}

TEST(Determinism, ObservabilityTransparent) {
  // The observability acceptance bar: turning metrics + tracing on may not
  // perturb generation — the emitted templates must be byte-identical to a
  // run with everything off (the default).
  struct ObsOnGuard {  // exception-safe: never leaks "enabled" to other tests
    ObsOnGuard() {
      obs::MetricsRegistry::set_enabled(true);
      obs::trace_start();
    }
    ~ObsOnGuard() {
      obs::trace_stop();
      obs::MetricsRegistry::set_enabled(false);
      obs::metrics().reset_values();
    }
  };
  const std::vector<std::string> base = generate_signature(nat_gateway_app, {});
  std::vector<std::string> instrumented;
  {
    ObsOnGuard on;
    instrumented = generate_signature(nat_gateway_app, {});
    // The instruments did observe the run (this is not a vacuous pass).
    EXPECT_GT(obs::metrics().counter("gen.templates").value(), 0u);
    EXPECT_FALSE(obs::trace_events().empty());
  }
  EXPECT_FALSE(base.empty());
  ASSERT_EQ(instrumented.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(instrumented[i], base[i]) << "template " << i;
  }
}

TEST(Determinism, MetricsOnIdenticalAcrossThreadCounts) {
  // With the registry live, the multi-threaded DFS still merges to the same
  // template set — the atomics add no ordering dependence.
  obs::MetricsRegistry::set_enabled(true);
  expect_identical_across_threads(nat_gateway_app, {});
  obs::MetricsRegistry::set_enabled(false);
  obs::metrics().reset_values();
}

TEST(Determinism, GenerousSmtBudgetTemplatesUnchanged) {
  // A per-check solver budget roomy enough that no check exhausts it must
  // leave the emitted templates byte-identical to the default (unlimited)
  // configuration — the budget machinery may not perturb the search.
  driver::GenOptions budgeted;
  budgeted.smt_budget.max_conflicts = 1u << 30;
  budgeted.smt_budget.max_propagations = uint64_t{1} << 40;
  const std::vector<std::string> base =
      generate_signature(nat_gateway_app, {});
  const std::vector<std::string> got =
      generate_signature(nat_gateway_app, budgeted);
  EXPECT_FALSE(base.empty());
  ASSERT_EQ(got.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(got[i], base[i]) << "template " << i;
  }
}

TEST(Determinism, GenerousSmtBudgetIdenticalAcrossThreadCounts) {
  driver::GenOptions opts;
  opts.smt_budget.max_conflicts = 1u << 30;
  expect_identical_across_threads(nat_gateway_app, opts);
}

TEST(Determinism, DegradedGenerationIdenticalAcrossThreadCounts) {
  // Even a budget tiny enough to force kUnknown degradation must degrade
  // *deterministically*: the shards are fixed, each worker's solver is
  // deterministic, so templates and coverage split match at every thread
  // count. (Deliberately conflict/propagation-based — a wall-clock budget
  // could not promise this.)
  driver::GenOptions opts;
  opts.smt_budget.max_conflicts = 1;
  opts.smt_budget.max_propagations = 1;
  {
    // The budget does degrade this app (else the comparison is vacuous).
    ir::Context ctx;
    apps::AppBundle app = acl_app(ctx);
    driver::Generator gen(ctx, app.dp, app.rules, opts);
    (void)gen.generate();
    ASSERT_GT(gen.stats().engine.degraded_paths, 0u);
  }
  expect_identical_across_threads(acl_app, opts);
}

TEST(Determinism, NoSummaryDfsIdenticalAcrossThreadCounts) {
  driver::GenOptions opts;
  opts.code_summary = false;
  expect_identical_across_threads(nat_gateway_app, opts);
}

TEST(Determinism, EngineParallelMatchesSequentialRun) {
  // The sharded exploration must emit exactly the sequential DFS result
  // stream: same paths, same condition stacks, same order.
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  p4::RuleSet rules = testlib::fig7_rules(3);
  cfg::Cfg g = cfg::build_cfg(dp, rules, ctx);
  auto render = [&](const std::vector<sym::PathResult>& rs) {
    std::vector<std::string> out;
    for (const sym::PathResult& r : rs) {
      std::ostringstream os;
      for (cfg::NodeId n : r.path) os << n << " ";
      os << "| " << ir::to_string(ctx.arena.all_of(r.conds), ctx.fields);
      out.push_back(os.str());
    }
    return out;
  };
  std::vector<sym::PathResult> seq;
  sym::Engine eng_seq(ctx, g);
  eng_seq.run([&](const sym::PathResult& r) { seq.push_back(r); });
  for (int threads : {1, 2, 8}) {
    std::vector<sym::PathResult> par;
    sym::Engine eng(ctx, g);
    eng.run_parallel([&](const sym::PathResult& r) { par.push_back(r); },
                     threads);
    EXPECT_EQ(render(par), render(seq)) << threads << " threads";
    EXPECT_EQ(eng.stats().valid_paths, seq.size());
  }
}

TEST(Determinism, ReportsIdenticalAcrossThreadCounts) {
  // Full end-to-end runs (generate → inject → check) on the NAT gateway:
  // everything the report counts must match between thread counts.
  auto run = [&](int threads) {
    ir::Context ctx;
    apps::AppBundle app = nat_gateway_app(ctx);
    sim::DeviceProgram compiled = sim::compile(app.dp, app.rules, ctx);
    sim::Device device(compiled, ctx);
    driver::TestRunOptions opts;
    opts.gen.threads = threads;
    driver::Meissa meissa(ctx, app.dp, app.rules, opts);
    return meissa.test(device, app.intents);
  };
  const driver::TestReport base = run(1);
  EXPECT_GT(base.templates, 0u);
  for (int threads : {2, 8}) {
    const driver::TestReport got = run(threads);
    EXPECT_EQ(got.templates, base.templates) << threads << " threads";
    EXPECT_EQ(got.cases, base.cases) << threads << " threads";
    EXPECT_EQ(got.passed, base.passed) << threads << " threads";
    EXPECT_EQ(got.failed, base.failed) << threads << " threads";
    EXPECT_EQ(got.removed_by_hash, base.removed_by_hash)
        << threads << " threads";
    EXPECT_EQ(got.failures.size(), base.failures.size())
        << threads << " threads";
  }
}

// --------------------------------------------- checkpoint/resume (crash)

std::string resume_dir(const std::string& name) {
  std::filesystem::path p =
      std::filesystem::temp_directory_path() / ("m4resume_" + name);
  std::filesystem::remove_all(p);
  return p.string();
}

TEST(Resume, ByteIdentical) {
  // The crash-safety acceptance bar: a checkpointed gw-4 generation killed
  // (cooperatively cancelled — the in-process stand-in for SIGKILL, same
  // on-disk state) at several points, then resumed, must emit templates
  // byte-identical to an uninterrupted run — even under a different thread
  // count, since the content key deliberately excludes it.
  driver::GenOptions base;
  base.threads = 4;
  const std::vector<std::string> expect =
      generate_signature(multi_switch_app, base);
  EXPECT_FALSE(expect.empty());

  for (int delay_ms : {0, 5, 25}) {
    const std::string dir = resume_dir(std::to_string(delay_ms));
    {
      util::CancelToken token;
      std::thread killer([&token, delay_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        token.cancel();
      });
      driver::GenOptions opts = base;
      opts.checkpoint_dir = dir;
      opts.checkpoint_every = 1;
      opts.cancel = &token;
      ir::Context ctx;
      apps::AppBundle app = multi_switch_app(ctx);
      driver::Generator gen(ctx, app.dp, app.rules, opts);
      (void)gen.generate();  // partial (or complete, if the cut came late)
      killer.join();
    }
    driver::GenOptions opts = base;
    opts.threads = 2;  // resume under a different thread count
    opts.checkpoint_dir = dir;
    opts.resume = true;
    const std::vector<std::string> got =
        generate_signature(multi_switch_app, opts);
    ASSERT_EQ(got.size(), expect.size()) << "killed at " << delay_ms << "ms";
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i], expect[i])
          << "template " << i << ", killed at " << delay_ms << "ms";
    }
  }
}

TEST(Resume, FullCheckpointSkipsExploreAndDfs) {
  // Resuming from a *complete* checkpoint restores every pipeline's
  // summary unit and every DFS shard — and still emits the same bytes.
  const std::string dir = resume_dir("full");
  driver::GenOptions opts;
  opts.threads = 4;
  opts.checkpoint_dir = dir;
  const std::vector<std::string> expect =
      generate_signature(nat_gateway_app, opts);

  opts.resume = true;
  ir::Context ctx;
  apps::AppBundle app = nat_gateway_app(ctx);
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  EXPECT_TRUE(gen.stats().resumed);
  EXPECT_GT(gen.stats().resumed_pipelines, 0u);
  EXPECT_GT(gen.stats().engine.resumed_shards, 0u);
  EXPECT_GT(gen.stats().checkpoint_writes, 0u);
  EXPECT_EQ(gen.stats().checkpoint_failures, 0u);
  std::vector<std::string> got;
  for (const sym::TestCaseTemplate& t : templates) {
    std::ostringstream os;
    os << sym::describe(t, ctx, gen.graph()) << "\n  path:";
    for (cfg::NodeId n : t.path) os << " " << n;
    got.push_back(os.str());
  }
  EXPECT_EQ(got, expect);
}

TEST(Resume, InjectedShardCrashStillByteIdentical) {
  // Robustness composition: an injected shard crash (re-queued once, heals
  // on the fresh-context retry) in a checkpointing run must not perturb
  // the emitted bytes.
  driver::GenOptions opts;
  opts.threads = 4;
  const std::vector<std::string> expect =
      generate_signature(nat_gateway_app, opts);

  opts.checkpoint_dir = resume_dir("faulted");
  util::FaultInjector inj;
  inj.add(util::parse_fault_spec("shard.1:abort"));
  opts.fault = &inj;
  const std::vector<std::string> got =
      generate_signature(nat_gateway_app, opts);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_EQ(got, expect);
}

// ------------------------------------- solver throughput (cache/portfolio)

// The acceptance bar for the solver-throughput layer: the path-condition
// cache and the adaptive portfolio are on by default and must be output-
// transparent — templates byte-identical to a run with both off, at every
// thread count (the shared cache makes hit/miss *counters* scheduling-
// dependent, but never a verdict).
TEST(Determinism, SolverCachePortfolioTransparentAcrossThreadCounts) {
  driver::GenOptions off;
  off.pc_cache = false;
  off.solver_portfolio = false;
  off.threads = 1;
  const std::vector<std::string> base =
      generate_signature(nat_gateway_app, off);
  EXPECT_FALSE(base.empty());
  for (int threads : {1, 2, 8}) {
    driver::GenOptions on;  // pc_cache + solver_portfolio default on
    on.threads = threads;
    const std::vector<std::string> got = generate_signature(nat_gateway_app, on);
    ASSERT_EQ(got.size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i]) << "template " << i << ", " << threads
                                 << " threads";
    }
  }
}

TEST(Determinism, SolverCacheTransparentOnMultiSwitch) {
  driver::GenOptions off;
  off.pc_cache = false;
  off.solver_portfolio = false;
  const std::vector<std::string> base =
      generate_signature(multi_switch_app, off);
  const std::vector<std::string> got =
      generate_signature(multi_switch_app, {});
  EXPECT_FALSE(base.empty());
  ASSERT_EQ(got.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(got[i], base[i]) << "template " << i;
  }
}

TEST(Determinism, SolverCacheActuallyHits) {
  // Not a vacuous pass: gw-4's shards re-check shared prefix condition
  // sets (a single sequential DFS never repeats a key — the conds stack
  // is unique along the tree — but shard-forced prefixes are re-checked
  // per shard), so a cached run must record hits and strictly fewer
  // backend checks than the cache-off run. Both runs turn static pruning
  // off: PathEnv's verdicts decide every final-DFS check of gw-4, so with
  // it on no check reaches the cache.
  ir::Context ctx;
  apps::AppBundle app = multi_switch_app(ctx);
  driver::GenOptions on;
  on.static_pruning = false;
  driver::Generator gen(ctx, app.dp, app.rules, on);
  (void)gen.generate();
  EXPECT_GT(gen.stats().engine.pc_cache_hits, 0u);
  EXPECT_GT(gen.stats().engine.pc_cache_misses, 0u);

  ir::Context ctx_off;
  apps::AppBundle app_off = multi_switch_app(ctx_off);
  driver::GenOptions off = on;
  off.pc_cache = false;
  off.solver_portfolio = false;
  driver::Generator gen_off(ctx_off, app_off.dp, app_off.rules, off);
  (void)gen_off.generate();
  EXPECT_EQ(gen_off.stats().engine.pc_cache_hits, 0u);
  // Every hit and every model reuse is one backend check the off run paid.
  EXPECT_EQ(gen.stats().engine.solver.checks +
                gen.stats().engine.pc_cache_hits +
                gen.stats().engine.pc_model_reuse,
            gen_off.stats().engine.solver.checks);
  EXPECT_LT(gen.stats().engine.solver.checks,
            gen_off.stats().engine.solver.checks);
}

TEST(Determinism, SolverCacheAutoDisabledUnderLimitedBudget) {
  // With a limited per-check budget a cached verdict could mask a budget-
  // dependent kUnknown and make the degraded-coverage split scheduling-
  // dependent; the engine must not consult the cache at all.
  {
    // Unlimited, this app does consult the cache (else the zeros below
    // would hold without the budget too).
    ir::Context ctx;
    apps::AppBundle app = acl_app(ctx);
    driver::Generator gen(ctx, app.dp, app.rules, {});
    (void)gen.generate();
    ASSERT_GT(gen.stats().engine.pc_cache_misses, 0u);
  }
  ir::Context ctx;
  apps::AppBundle app = acl_app(ctx);
  driver::GenOptions opts;  // pc_cache defaults on...
  opts.smt_budget.max_conflicts = 1;  // ...but the budget disables it
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  (void)gen.generate();
  EXPECT_EQ(gen.stats().engine.pc_cache_hits, 0u);
  EXPECT_EQ(gen.stats().engine.pc_cache_misses, 0u);
}

// ------------------------------------------------- static pruning (m4lint)

// The dataflow facts may only refute branches the (complete) solver would
// also refute, so the emitted template set must be byte-identical with
// pruning on and off — only the number of solver calls may differ.
void expect_pruning_transparent(const AppMaker& make) {
  driver::GenOptions on;   // static_pruning defaults to true
  driver::GenOptions off;
  off.static_pruning = false;
  const std::vector<std::string> with = generate_signature(make, on);
  const std::vector<std::string> without = generate_signature(make, off);
  EXPECT_FALSE(with.empty());
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i], without[i]) << "template " << i;
  }
}

TEST(StaticPruning, RouterTemplatesUnchanged) {
  expect_pruning_transparent(router_app);
}

TEST(StaticPruning, NatGatewayTemplatesUnchanged) {
  expect_pruning_transparent(nat_gateway_app);
}

TEST(StaticPruning, MultiSwitchTemplatesUnchanged) {
  expect_pruning_transparent(multi_switch_app);
}

driver::GenStats run_generator(const AppMaker& make, bool pruning) {
  ir::Context ctx;
  apps::AppBundle app = make(ctx);
  driver::GenOptions opts;
  opts.static_pruning = pruning;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  (void)gen.generate();
  return gen.stats();
}

// The acceptance bar for the subsystem: on the Fig. 9 scalability app (the
// router) and the NAT gateway, pruning must actually reduce solver calls.
void expect_fewer_solver_calls(const AppMaker& make) {
  const driver::GenStats on = run_generator(make, true);
  const driver::GenStats off = run_generator(make, false);
  EXPECT_EQ(on.templates, off.templates);
  EXPECT_LT(on.smt_checks, off.smt_checks);
  EXPECT_GT(on.smt_calls_skipped, 0u);
  EXPECT_EQ(off.smt_calls_skipped, 0u);
}

TEST(StaticPruning, ReducesSolverCallsOnRouter) {
  expect_fewer_solver_calls(router_app);
}

TEST(StaticPruning, ReducesSolverCallsOnNatGateway) {
  expect_fewer_solver_calls(nat_gateway_app);
}

// ------------------------------------------------- incremental re-testing

// An incremental update must emit templates byte-identical to a
// from-scratch run of the updated program, for every thread count — the
// reuse machinery (summary-unit replay + shared verdict cache) may only
// change what the run *costs*, never what it produces.
TEST(Incremental, ByteIdenticalAcrossThreadCounts) {
  auto run_session = [](int threads) {
    ir::Context ctx;
    apps::AppBundle app = nat_gateway_app(ctx);
    driver::IncrementalOptions opts;
    opts.gen.threads = threads;
    driver::IncrementalSession session(ctx, app.dp, opts);
    p4::RuleSet rules = app.rules;
    std::vector<std::vector<std::string>> sigs;
    sigs.push_back(session.run(rules).full_sigs);
    // Drop the last installed rule (a tail-of-pipeline table).
    rules.entries.pop_back();
    sigs.push_back(session.run(rules).full_sigs);
    return sigs;
  };
  const auto base = run_session(1);
  EXPECT_FALSE(base[0].empty());
  EXPECT_FALSE(base[1].empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(run_session(threads), base) << threads << " threads";
  }
}

}  // namespace
}  // namespace meissa
