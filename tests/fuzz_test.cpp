// Greybox-lane tests: coverage-map bucketing and edge accounting, mutator
// determinism, fuzzer same-seed reproducibility, divergence detection on a
// seeded toolchain bug, and seed-register installation.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "fuzz/fuzz.hpp"
#include "sim/coverage.hpp"
#include "sim/toolchain.hpp"
#include "testlib.hpp"

namespace meissa::fuzz {
namespace {

// ----------------------------------------------------------- coverage map

TEST(Coverage, BucketBitsLadder) {
  EXPECT_EQ(sim::bucket_bits(0), 0);
  EXPECT_EQ(sim::bucket_bits(1), 1);
  EXPECT_EQ(sim::bucket_bits(2), 2);
  EXPECT_EQ(sim::bucket_bits(3), 4);
  EXPECT_EQ(sim::bucket_bits(5), 8);
  EXPECT_EQ(sim::bucket_bits(15), 16);
  EXPECT_EQ(sim::bucket_bits(31), 32);
  EXPECT_EQ(sim::bucket_bits(100), 64);
  EXPECT_EQ(sim::bucket_bits(255), 128);
}

TEST(Coverage, EdgesAndBoundaries) {
  sim::CoverageMap cov;
  cov.hit(1);
  cov.hit(2);
  EXPECT_EQ(cov.nonzero(), 2u);  // edge 0->1 and edge 1->2

  // boundary() breaks the chain: the same two keys after a boundary land
  // on the same two edges as a fresh map would.
  sim::CoverageMap cov2;
  cov2.hit(1);
  cov2.boundary();
  cov2.hit(1);
  cov2.hit(2);
  sim::CoverageMap ref;
  ref.hit(1);
  ref.hit(2);
  // cov2 saw edge 0->1 twice plus 1->2 once; same *edges* as ref.
  size_t shared = 0;
  for (size_t i = 0; i < sim::CoverageMap::kSize; ++i) {
    shared += cov2.bytes()[i] != 0 && ref.bytes()[i] != 0;
  }
  EXPECT_EQ(shared, ref.nonzero());

  cov.reset();
  EXPECT_EQ(cov.nonzero(), 0u);
}

TEST(Coverage, MergeNewCoverage) {
  sim::CoverageMap cov;
  cov.hit(7);
  std::vector<uint8_t> virgin;

  // Probe without commit: fresh, and virgin stays unchanged.
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));

  // Commit: absorbed, then no longer fresh.
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/true));
  EXPECT_FALSE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));

  // A new bucket (more hits on the same edge) is fresh again.
  cov.hit(7);  // second hit: bucket 1 -> bucket 2
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));
}

// --------------------------------------------------------------- mutator

TEST(Mutator, DeterministicForFixedSeed) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  Mutator mut(app.dp, app.rules);

  util::Rng a(123), b(123);
  for (int i = 0; i < 32; ++i) {
    sim::DeviceInput x = mut.random_packet(a);
    sim::DeviceInput y = mut.random_packet(b);
    EXPECT_EQ(x.port, y.port);
    EXPECT_EQ(x.bytes, y.bytes);
    mut.mutate(x, a);
    mut.mutate(y, b);
    EXPECT_EQ(x.port, y.port);
    EXPECT_EQ(x.bytes, y.bytes);
  }
  EXPECT_GT(mut.dictionary_size(), 0u);
  EXPECT_GT(mut.layouts(), 0u);
}

// ---------------------------------------------------------------- fuzzer

FuzzResult fuzz_bug(ir::Context& ctx, int index, uint64_t seed,
                    uint64_t execs) {
  apps::BugScenario s = apps::make_bug(ctx, index);
  apps::AppBundle intended = apps::make_bug_intended(ctx, index);
  sim::Device target(sim::compile(s.bundle.dp, s.bundle.rules, ctx, s.fault),
                     ctx);
  sim::Device reference(sim::compile(intended.dp, intended.rules, ctx), ctx);
  FuzzOptions opts;
  opts.execs = execs;
  opts.seed = seed;
  Fuzzer fuzzer(target, reference, s.bundle.dp, s.bundle.rules, opts);
  return fuzzer.run();
}

TEST(Fuzzer, FindsParserSelectBug) {
  // Bug 7: the toolchain compiles away a parser select; random walks that
  // pin the select constant diverge almost immediately.
  ir::Context ctx;
  FuzzResult r = fuzz_bug(ctx, 7, 1, 2000);
  EXPECT_TRUE(r.found());
  EXPECT_GT(r.coverage_edges, 0u);
  ASSERT_FALSE(r.samples.empty());
  EXPECT_FALSE(r.samples[0].target_trace.empty());
  EXPECT_FALSE(r.samples[0].reference_trace.empty());
}

TEST(Fuzzer, SameSeedReproducesCoverageAndVerdicts) {
  ir::Context ctx1, ctx2;
  FuzzResult a = fuzz_bug(ctx1, 8, 5, 1500);
  FuzzResult b = fuzz_bug(ctx2, 8, 5, 1500);
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.coverage_edges, b.coverage_edges);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.corpus_adds, b.corpus_adds);
  EXPECT_EQ(a.divergences, b.divergences);
}

TEST(Fuzzer, IdenticalDevicesNeverDiverge) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_mtag(ctx, 4);
  sim::Device target(sim::compile(app.dp, app.rules, ctx), ctx);
  sim::Device reference(sim::compile(app.dp, app.rules, ctx), ctx);
  FuzzOptions opts;
  opts.execs = 1000;
  Fuzzer fuzzer(target, reference, app.dp, app.rules, opts);
  FuzzResult r = fuzzer.run();
  EXPECT_EQ(r.divergences, 0u);
  EXPECT_GT(r.coverage_edges, 0u);
}

TEST(Fuzzer, AddSeedInstallsRegistersOnBothDevices) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_gateway(ctx, {.level = 1, .elastic_ips = 2});
  sim::Device target(sim::compile(app.dp, app.rules, ctx), ctx);
  sim::Device reference(sim::compile(app.dp, app.rules, ctx), ctx);
  Fuzzer fuzzer(target, reference, app.dp, app.rules, {});

  ir::ConcreteState regs;
  regs[ctx.fields.intern(p4::register_field("gw_stats", 0), 32)] = 5;
  fuzzer.add_seed(sim::DeviceInput{0, {0xde, 0xad}}, regs);
  EXPECT_EQ(target.get_register("gw_stats", 0), 5u);
  EXPECT_EQ(reference.get_register("gw_stats", 0), 5u);
}

TEST(Fuzzer, ResultJsonRoundTrips) {
  ir::Context ctx;
  FuzzResult r = fuzz_bug(ctx, 7, 2, 500);
  testlib::json::Value v = testlib::json::parse(r.to_json());
  EXPECT_EQ(static_cast<uint64_t>(v.at("execs").as_number()), r.execs);
  EXPECT_EQ(static_cast<size_t>(v.at("coverage_edges").as_number()),
            r.coverage_edges);
  EXPECT_EQ(static_cast<uint64_t>(v.at("divergences").as_number()),
            r.divergences);
  EXPECT_EQ(v.at("samples").array.size(), r.samples.size());
}

}  // namespace
}  // namespace meissa::fuzz
