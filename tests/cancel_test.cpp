// Cooperative cancellation consistency (satellite of the crash-safety
// work): a CancelToken tripped before, between, or during summary waves
// must leave the summary's statistics consistent — completed pipelines
// only, a cancelled wave never spliced — and must never deadlock the
// thread pool (every test returning *is* the no-deadlock evidence, since
// summarize() joins its workers before returning). Same contract one
// level up for the generator, the sequential engine, and the tester.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "apps/apps.hpp"
#include "driver/tester.hpp"
#include "sim/toolchain.hpp"
#include "summary/summary.hpp"
#include "testlib.hpp"

namespace meissa {
namespace {

apps::AppBundle gw4(ir::Context& ctx) {
  // 8 pipelines across 2 switches — several summary waves
  return apps::make_gateway(ctx, {.level = 4, .elastic_ips = 2});
}

TEST(Cancel, PreCancelledSummaryDoesNoWork) {
  ir::Context ctx;
  apps::AppBundle app = gw4(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  util::CancelToken token;
  token.cancel();
  summary::SummaryOptions so;
  so.threads = 4;
  so.cancel = &token;
  summary::SummaryResult r = summary::summarize(ctx, g, so);
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.per_pipeline.empty());
  EXPECT_EQ(r.resumed_pipelines, 0u);
}

TEST(Cancel, BetweenWavesLeavesCompletedPipelinesOnly) {
  // The on_unit hook fires in the sequential encode loop — a wave
  // boundary. Tripping the token there cancels deterministically between
  // waves: the stats must cover exactly the units that completed.
  ir::Context ctx;
  apps::AppBundle app = gw4(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  const size_t instances = g.instances().size();
  ASSERT_GT(instances, 2u);

  util::CancelToken token;
  std::atomic<size_t> units{0};
  summary::SummaryHooks hooks;
  hooks.on_unit = [&](size_t, const summary::SummaryUnit&) {
    if (++units == 2) token.cancel();
  };
  summary::SummaryOptions so;
  so.threads = 4;
  so.cancel = &token;
  so.hooks = &hooks;
  summary::SummaryResult r = summary::summarize(ctx, g, so);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.per_pipeline.size(), units.load());
  EXPECT_LT(r.per_pipeline.size(), instances);
  // Completed pipelines carry real work; the cancelled remainder carries
  // none (a cancelled wave is never spliced, so it never reports paths).
  for (const summary::PipelineSummary& p : r.per_pipeline) {
    EXPECT_GT(p.paths_after, 0u) << p.instance;
  }
}

TEST(Cancel, DuringWavesReturnsWithoutDeadlock) {
  // Trip the token from outside while the waves are running: whichever
  // wave is in flight aborts cooperatively, the pool joins, and the stats
  // stay consistent. Run a few cut points; late cuts may let the summary
  // finish — both outcomes are legal, hanging or crashing is not.
  for (int delay_us : {0, 200, 2000, 20000}) {
    ir::Context ctx;
    apps::AppBundle app = gw4(ctx);
    cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
    util::CancelToken token;
    std::thread killer([&token, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.cancel();
    });
    summary::SummaryOptions so;
    so.threads = 4;
    so.cancel = &token;
    summary::SummaryResult r = summary::summarize(ctx, g, so);
    killer.join();
    EXPECT_LE(r.per_pipeline.size(), g.instances().size());
    if (!r.cancelled) {
      EXPECT_EQ(r.per_pipeline.size(), g.instances().size());
    }
    uint64_t checks = 0;
    for (const summary::PipelineSummary& p : r.per_pipeline) {
      checks += p.smt_checks;
    }
    EXPECT_LE(checks, r.total_smt_checks);
  }
}

TEST(Cancel, GeneratorCancelledSummaryYieldsNoTemplates) {
  // A partially summarized graph must never be explored: the generator
  // reports the cancel and returns nothing.
  ir::Context ctx;
  apps::AppBundle app = gw4(ctx);
  util::CancelToken token;
  token.cancel();
  driver::GenOptions opts;
  opts.threads = 4;
  opts.cancel = &token;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  std::vector<sym::TestCaseTemplate> templates = gen.generate();
  EXPECT_TRUE(templates.empty());
  EXPECT_TRUE(gen.stats().cancelled);
  EXPECT_EQ(gen.stats().templates, 0u);
}

TEST(Cancel, SequentialEngineStopsMidDfs) {
  // Deterministic mid-DFS cut: the sink trips the token after the second
  // result, the engine unwinds at its next poll point and reports the
  // cancel with a partial prefix of the result stream.
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);

  std::vector<sym::PathResult> all;
  sym::Engine full(ctx, g);
  full.run([&](const sym::PathResult& r) { all.push_back(r); });
  ASSERT_GT(all.size(), 2u);

  util::CancelToken token;
  sym::EngineOptions eopts;
  eopts.cancel = &token;
  std::vector<sym::PathResult> partial;
  sym::Engine eng(ctx, g, eopts);
  eng.run([&](const sym::PathResult& r) {
    partial.push_back(r);
    if (partial.size() == 2) token.cancel();
  });
  EXPECT_TRUE(eng.stats().cancelled);
  ASSERT_GE(partial.size(), 2u);
  EXPECT_LT(partial.size(), all.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].path, all[i].path) << "result " << i;
  }
}

TEST(Cancel, TesterStopsBetweenTemplatesAndReportsIt) {
  // A pre-tripped token: generation still runs (its cancel is a separate
  // wire), but the injection loop stops before the first case and the
  // report says so instead of faking a clean zero-failure run.
  ir::Context ctx;
  apps::AppBundle app = apps::demo_app(ctx, "gw-2");
  sim::DeviceProgram compiled = sim::compile(app.dp, app.rules, ctx);
  sim::Device device(compiled, ctx);
  driver::TestRunOptions opts;
  opts.gen.threads = 4;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  util::CancelToken token;
  token.cancel();
  driver::TestReport r = meissa.test(device, app.intents, &token);
  EXPECT_TRUE(r.cancelled);
  EXPECT_GT(r.templates, 0u);
  EXPECT_EQ(r.cases, 0u);
  EXPECT_EQ(r.failed, 0u);
}

}  // namespace
}  // namespace meissa
