// Tests for the stats structs' bookkeeping generated from their member
// lists (util/stats.hpp): every listed member merges by its type's rule,
// SolverStats rebases with -=, and the checkpointed list (EngineStats with
// its nested SolverStats) survives a payload round trip.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/generator.hpp"

namespace meissa {
namespace {

template <class T>
constexpr bool kIsPipelines =
    std::is_same_v<T, std::vector<summary::PipelineSummary>>;

// Gives every member a distinct value: numbers and path counts take the
// next integer, flags alternate, vectors get one element named after it.
struct Fill {
  uint64_t next;
  template <class T>
  void operator()(const char* name, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = next++ % 2 == 1;
    } else if constexpr (std::is_arithmetic_v<T>) {
      v = static_cast<T>(next++);
    } else if constexpr (std::is_same_v<T, util::BigCount>) {
      v = util::BigCount::of(next++);
    } else if constexpr (kIsPipelines<T>) {
      v.push_back({name + std::to_string(next), util::BigCount::of(next),
                   next, next, 0.5});
      ++next;
    } else {
      T::for_each_field(*this, v);
    }
  }
};

template <class Stats>
Stats filled(uint64_t first) {
  Stats s;
  Fill{first}("", s);
  return s;
}

// Expects sum = a + b member by member: counters and times add, flags
// are sticky-OR, pipelines append in order.
struct ExpectMerged {
  template <class T>
  void operator()(const char* name, const T& sum, const T& a,
                  const T& b) const {
    if constexpr (std::is_same_v<T, bool>) {
      EXPECT_EQ(sum, a || b) << name;
    } else if constexpr (std::is_arithmetic_v<T>) {
      EXPECT_EQ(sum, a + b) << name;
    } else if constexpr (std::is_same_v<T, util::BigCount>) {
      EXPECT_EQ(sum.exact(), a.exact() + b.exact()) << name;
    } else if constexpr (kIsPipelines<T>) {
      std::vector<std::string> want, got;
      for (const auto* v : {&a, &b}) {
        for (const summary::PipelineSummary& p : *v) want.push_back(p.instance);
      }
      for (const summary::PipelineSummary& p : sum) got.push_back(p.instance);
      EXPECT_EQ(got, want) << name;
    } else {
      T::for_each_field(*this, sum, a, b);
    }
  }
};

// Expects x == y member by member (SolverStats and EngineStats only).
struct ExpectEqual {
  template <class T>
  void operator()(const char* name, const T& x, const T& y) const {
    if constexpr (std::is_arithmetic_v<T>) {
      EXPECT_EQ(x, y) << name;
    } else {
      T::for_each_field(*this, x, y);
    }
  }
};

// The odd offset between a and b makes every flag differ between them.
template <class Stats>
void expect_merges() {
  const Stats a = filled<Stats>(1);
  const Stats b = filled<Stats>(1002);
  Stats sum = a;
  sum += b;
  ExpectMerged{}("", sum, a, b);
}

TEST(StatsMerge, SolverStatsSumsAllCounters) {
  expect_merges<smt::SolverStats>();
}

TEST(StatsMerge, EngineStatsSumsAndOrsTimeout) {
  expect_merges<sym::EngineStats>();

  // timed_out and cancelled are sticky in both directions.
  sym::EngineStats flags;
  sym::EngineStats raised;
  raised.timed_out = true;
  raised.cancelled = true;
  flags += raised;
  flags += sym::EngineStats{};
  EXPECT_TRUE(flags.timed_out);
  EXPECT_TRUE(flags.cancelled);
}

TEST(StatsMerge, GenStatsSumsTimesCountersAndPipelines) {
  expect_merges<driver::GenStats>();
}

// -= rebases every SolverStats counter, wrapping where the subtrahend is
// larger; a later += of the same counters un-wraps it.
TEST(StatsMerge, SolverStatsRebaseWrapsAndUnwraps) {
  const smt::SolverStats a = filled<smt::SolverStats>(1);
  const smt::SolverStats b = filled<smt::SolverStats>(1000);
  smt::SolverStats diff = a;
  diff -= b;
  smt::SolverStats::for_each_field(
      [](const char* name, uint64_t d, uint64_t x, uint64_t y) {
        EXPECT_EQ(d, x - y) << name;
      },
      diff, a, b);
  diff += b;
  ExpectEqual{}("", diff, a);
}

// The checkpointed list round-trips through a ShardProgress.
TEST(StatsMerge, EngineStatsRoundTripThroughCheckpoint) {
  ir::Context ctx;
  driver::CheckpointData data;
  data.shards.resize(1);
  data.shards[0].stats = filled<sym::EngineStats>(1);
  const driver::CheckpointData back = driver::deserialize_checkpoint(
      ctx, driver::serialize_checkpoint(ctx, data));
  ASSERT_EQ(back.shards.size(), 1u);
  ExpectEqual{}("", back.shards[0].stats, data.shards[0].stats);
}

}  // namespace
}  // namespace meissa
