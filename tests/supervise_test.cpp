// The supervision layer (util/supervise) and the runtime fault injector
// (util/faultinject): spec parsing, arming semantics (after/times, prefix
// sites, execution vs data faults), watchdog stall/deadline trips, and the
// engine-level contract — a stalled or aborted shard is re-queued once and
// then degraded with exact accounting, never hung and never dropped
// silently.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/apps.hpp"
#include "driver/generator.hpp"
#include "obs/metrics.hpp"
#include "testlib.hpp"
#include "util/faultinject.hpp"
#include "util/supervise.hpp"

namespace meissa {
namespace {

using util::FaultInjector;
using util::FaultKind;
using util::FaultSpec;
using util::parse_fault_spec;

TEST(FaultSpecParse, FieldsAndDefaults) {
  FaultSpec s = parse_fault_spec("shard.3:abort");
  EXPECT_EQ(s.site, "shard.3");
  EXPECT_EQ(s.kind, FaultKind::kAbort);
  EXPECT_EQ(s.after, 0u);
  EXPECT_EQ(s.param, 0u);
  EXPECT_EQ(s.times, 1u);

  s = parse_fault_spec("checkpoint.write:corrupt:2:16:5");
  EXPECT_EQ(s.site, "checkpoint.write");
  EXPECT_EQ(s.kind, FaultKind::kCorrupt);
  EXPECT_EQ(s.after, 2u);
  EXPECT_EQ(s.param, 16u);
  EXPECT_EQ(s.times, 5u);

  EXPECT_EQ(parse_fault_spec("s:stall:0:50").kind, FaultKind::kStall);
  EXPECT_EQ(parse_fault_spec("s:alloc-fail").kind, FaultKind::kAllocFail);
  EXPECT_EQ(parse_fault_spec("s:truncate").kind, FaultKind::kTruncate);
  EXPECT_EQ(parse_fault_spec("shard.*:abort").site, "shard.*");

  EXPECT_THROW(parse_fault_spec(""), util::ValidationError);
  EXPECT_THROW(parse_fault_spec("siteonly"), util::ValidationError);
  EXPECT_THROW(parse_fault_spec(":abort"), util::ValidationError);
  EXPECT_THROW(parse_fault_spec("s:frobnicate"), util::ValidationError);
}

TEST(FaultInjector, AfterAndTimesBoundFirings) {
  FaultInjector inj;
  EXPECT_TRUE(inj.empty());
  inj.add(parse_fault_spec("work:abort:2:0:2"));  // skip 2 hits, fire twice
  EXPECT_FALSE(inj.empty());
  EXPECT_FALSE(inj.hit("work"));
  EXPECT_FALSE(inj.hit("work"));
  EXPECT_THROW(inj.hit("work"), util::InjectedFaultError);
  EXPECT_THROW(inj.hit("work"), util::InjectedFaultError);
  EXPECT_FALSE(inj.hit("work"));  // disarmed after `times` firings
  EXPECT_EQ(inj.fired(), 2u);
  EXPECT_FALSE(inj.hit("other.site"));  // never matched
}

TEST(FaultInjector, PrefixSitesMatchEveryShard) {
  FaultInjector inj;
  inj.add(parse_fault_spec("shard.*:abort:0:0:0"));  // times 0 = unlimited
  EXPECT_THROW(inj.hit("shard.0"), util::InjectedFaultError);
  EXPECT_THROW(inj.hit("shard.17"), util::InjectedFaultError);
  EXPECT_FALSE(inj.hit("checkpoint.write"));
  EXPECT_EQ(inj.fired(), 2u);
}

TEST(FaultInjector, AllocFailThrowsBadAlloc) {
  FaultInjector inj;
  inj.add(parse_fault_spec("work:alloc-fail"));
  EXPECT_THROW(inj.hit("work"), std::bad_alloc);
}

TEST(FaultInjector, DataFaultsDamageBuffersNotExecution) {
  FaultInjector inj;
  inj.add(parse_fault_spec("buf:truncate:0:3:1"));
  inj.add(parse_fault_spec("buf:corrupt:0:1:1"));
  inj.add(parse_fault_spec("buf:abort"));
  // One mutate call applies every due data fault (truncate then corrupt,
  // arming order) and leaves the abort untouched.
  std::vector<uint8_t> bytes = {10, 20, 30, 40, 50, 60};
  EXPECT_TRUE(inj.mutate("buf", bytes));
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_NE(bytes[1], 20);
  EXPECT_FALSE(inj.mutate("buf", bytes));  // data specs consumed
  // The abort fires only through the execution hook.
  EXPECT_THROW(inj.hit("buf"), util::InjectedFaultError);
  std::vector<uint8_t> other = {1};
  EXPECT_FALSE(inj.mutate("unmatched", other));
}

TEST(FaultInjector, StallHonorsCancelToken) {
  FaultInjector inj;
  inj.add(parse_fault_spec("slow:stall:0:60000"));  // nominally 60 s
  util::CancelToken token;
  token.cancel();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(inj.hit("slow", &token));  // fired, but broke out immediately
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 5.0);  // a cancelled stall must not serve its full term
}

TEST(Supervisor, WatchdogTripsSilentTask) {
  util::SuperviseOptions so;
  so.stall_timeout_ms = 40;
  so.poll_interval_ms = 5;
  util::Supervisor sup(so);
  util::Supervisor::Task* task = sup.begin("quiet");
  ASSERT_NE(task, nullptr);
  // No heartbeats: the watchdog must cancel the task's token.
  for (int i = 0; i < 400 && !task->tripped(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(task->tripped());
  EXPECT_TRUE(task->token().cancelled());
  EXPECT_TRUE(sup.end(task));
  EXPECT_GE(sup.stats().stalls, 1u);
  EXPECT_EQ(sup.stats().completed, 1u);
}

TEST(Supervisor, HeartbeatsKeepTaskAliveUntilDeadline) {
  util::SuperviseOptions so;
  so.stall_timeout_ms = 200;
  so.deadline_ms = 80;
  so.poll_interval_ms = 5;
  util::Supervisor sup(so);
  util::Supervisor::Task* task = sup.begin("busy");
  // Beating steadily: the stall detector stays quiet, but the wall-clock
  // deadline still fires.
  for (int i = 0; i < 400 && !task->tripped(); ++i) {
    task->heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(task->tripped());
  EXPECT_TRUE(sup.end(task));
  EXPECT_GE(sup.stats().deadline_trips, 1u);
  EXPECT_EQ(sup.stats().stalls, 0u);
}

TEST(Supervisor, CleanCompletionTripsNothing) {
  util::SuperviseOptions so;
  so.stall_timeout_ms = 10000;
  so.deadline_ms = 10000;
  util::Supervisor sup(so);
  EXPECT_TRUE(so.enabled());
  EXPECT_FALSE(util::SuperviseOptions{}.enabled());
  util::Supervisor::Task* a = sup.begin("a");
  util::Supervisor::Task* b = sup.begin("b");
  a->heartbeat();
  EXPECT_FALSE(sup.end(a));
  EXPECT_FALSE(sup.end(b));
  const util::SuperviseStats st = sup.stats();
  EXPECT_EQ(st.tasks, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.trips(), 0u);
}

// ------------------------------------------------ engine-level contract

driver::GenStats generate_with_faults(util::FaultInjector* inj,
                                      util::SuperviseOptions supervise = {}) {
  ir::Context ctx;
  apps::AppBundle app = apps::demo_app(ctx, "gw-2");
  driver::GenOptions opts;
  opts.threads = 4;
  opts.fault = inj;
  opts.supervise = supervise;
  driver::Generator gen(ctx, app.dp, app.rules, opts);
  (void)gen.generate();
  return gen.stats();
}

TEST(ShardFaults, AbortedShardIsRequeuedAndRecovers) {
  // One injected crash: the shard re-runs on a fresh context and the run
  // loses nothing (template count matches the unfaulted run).
  const driver::GenStats clean = generate_with_faults(nullptr);
  util::FaultInjector inj;
  inj.add(parse_fault_spec("shard.0:abort"));
  const driver::GenStats got = generate_with_faults(&inj);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_EQ(got.templates, clean.templates);
  EXPECT_EQ(got.engine.requeued_shards, 1u);
  EXPECT_EQ(got.engine.degraded_shards, 0u);
}

TEST(ShardFaults, PersistentAbortDegradesWithAccounting) {
  // A shard that crashes on every attempt exhausts its retry and is
  // *degraded*: counted, never hung, and the rest of the run completes.
  const driver::GenStats clean = generate_with_faults(nullptr);
  util::FaultInjector inj;
  inj.add(parse_fault_spec("shard.2:abort:0:0:0"));  // unlimited firings
  const driver::GenStats got = generate_with_faults(&inj);
  EXPECT_GE(inj.fired(), 2u);  // both attempts crashed
  EXPECT_EQ(got.engine.requeued_shards, 1u);
  EXPECT_EQ(got.engine.degraded_shards, 1u);
  EXPECT_LE(got.templates, clean.templates);
  EXPECT_FALSE(got.cancelled);  // degraded coverage is not a cancelled run
}

TEST(ShardFaults, StalledShardIsCancelledByWatchdogAndDegrades) {
  // A shard stalled far past the stall timeout on *both* attempts: the
  // watchdog must break each stall (the injector polls the task token), so
  // the whole run finishes in bounded time with the shard degraded.
  util::FaultInjector inj;
  inj.add(parse_fault_spec("shard.1:stall:0:60000:0"));  // 60 s, unlimited
  util::SuperviseOptions so;
  so.stall_timeout_ms = 100;
  so.poll_interval_ms = 5;
  const auto t0 = std::chrono::steady_clock::now();
  const driver::GenStats got = generate_with_faults(&inj, so);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 30.0);  // two broken stalls, not two 60 s sleeps
  EXPECT_EQ(got.engine.requeued_shards, 1u);
  EXPECT_EQ(got.engine.degraded_shards, 1u);
}

TEST(ShardFaults, SupervisedCleanRunEmitsNoTrips) {
  // Generous thresholds on a healthy run: supervision must be transparent.
  const driver::GenStats clean = generate_with_faults(nullptr);
  util::SuperviseOptions so;
  so.stall_timeout_ms = 60000;
  so.deadline_ms = 60000;
  const driver::GenStats got = generate_with_faults(nullptr, so);
  EXPECT_EQ(got.templates, clean.templates);
  EXPECT_EQ(got.engine.requeued_shards, 0u);
  EXPECT_EQ(got.engine.degraded_shards, 0u);
}

TEST(ShardFaults, SuperviseMetricsEmitted) {
  obs::MetricsRegistry::set_enabled(true);
  obs::metrics().reset_values();
  util::FaultInjector inj;
  inj.add(parse_fault_spec("shard.0:abort:0:0:0"));
  (void)generate_with_faults(&inj);
  EXPECT_GE(obs::metrics().counter("supervise.shard_requeues").value(), 1u);
  EXPECT_GE(obs::metrics().counter("supervise.shard_degraded").value(), 1u);
  obs::MetricsRegistry::set_enabled(false);
  obs::metrics().reset_values();
}

}  // namespace
}  // namespace meissa
