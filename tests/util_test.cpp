// Tests for the util module: bit helpers, BigCount arithmetic, strings,
// and the deterministic RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/big_count.hpp"
#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace meissa::util {
namespace {

TEST(Bits, MasksAndTruncation) {
  EXPECT_EQ(mask_bits(1), 1u);
  EXPECT_EQ(mask_bits(9), 0x1ffu);
  EXPECT_EQ(mask_bits(64), ~uint64_t{0});
  EXPECT_EQ(truncate(0x1ff, 8), 0xffu);
  EXPECT_TRUE(fits(255, 8));
  EXPECT_FALSE(fits(256, 8));
  EXPECT_TRUE(bit_at(0b100, 2));
  EXPECT_FALSE(bit_at(0b100, 1));
  EXPECT_THROW(check_width(0), InternalError);
  EXPECT_THROW(check_width(65), InternalError);
}

TEST(BigCount, ExactWhileSmallLogBeyond) {
  BigCount c = BigCount::of(68);
  EXPECT_TRUE(c.is_exact());
  EXPECT_EQ(c.value(), 68.0);  // exactly, no pow() round-trip
  EXPECT_EQ(c.str(), "68");

  BigCount big = BigCount::of(1);
  for (int i = 0; i < 100; ++i) big *= BigCount::of(100);  // 10^200
  EXPECT_FALSE(big.is_exact());
  EXPECT_NEAR(big.log10(), 200.0, 0.5);
  EXPECT_EQ(big.str().rfind("10^", 0), 0u);
}

TEST(BigCount, SumAndProductLaws) {
  BigCount a = BigCount::of(1000);
  BigCount b = BigCount::of(24);
  EXPECT_EQ((a + b).value(), 1024.0);
  EXPECT_EQ((a * b).value(), 24000.0);
  EXPECT_TRUE((BigCount::zero() * a).is_zero());
  EXPECT_EQ((BigCount::zero() + a).value(), 1000.0);
  // Log-domain addition stays accurate for large values.
  BigCount big = BigCount::of(1);
  for (int i = 0; i < 30; ++i) big *= BigCount::of(10);
  BigCount twice = big + big;
  EXPECT_NEAR(twice.log10() - big.log10(), std::log10(2.0), 1e-9);
}

TEST(Strings, SplitTrimAffixes) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_TRUE(starts_with("hdr.ipv4.dst", "hdr."));
  EXPECT_TRUE(ends_with("hdr.ipv4.$valid", ".$valid"));
  EXPECT_FALSE(ends_with("x", "longer"));
  EXPECT_EQ(hex(0xbeef), "0xbeef");
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
}

TEST(Cli, ParseNumberAcceptsPlainDecimalsThatFit) {
  EXPECT_EQ(parse_number<uint64_t>("0"), 0u);
  EXPECT_EQ(parse_number<uint64_t>("007"), 7u);
  EXPECT_EQ(parse_number<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<int>("2147483647"), INT_MAX);
  EXPECT_EQ(parse_number<int>("0"), 0);
}

TEST(Cli, ParseNumberRejectsMalformedIntegers) {
  for (const char* bad :
       {"", "abc", "x", "-1", "+1", "-0", " 1", "1 ", "\t1", "1\n", "1x",
        "12abc", "0x10", "1e3", "1.0", "1,000", "--1",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_number<uint64_t>(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parse_number<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<int>("-2147483648").has_value());
}

TEST(Cli, ParseNumberTakesWholeFiniteDoubles) {
  EXPECT_EQ(parse_number<double>("0.9"), 0.9);
  EXPECT_EQ(parse_number<double>("1"), 1.0);
  EXPECT_EQ(parse_number<double>("-1"), -1.0);
  EXPECT_EQ(parse_number<double>("5e-1"), 0.5);
  for (const char* bad : {"", "abc", " 0.5", "0.5 ", "0.5x", "0.9.1", "+0.5",
                          "1e999", "-1e999", "inf", "nan", "0x1p3"}) {
    EXPECT_FALSE(parse_number<double>(bad).has_value()) << "'" << bad << "'";
  }
}

// parse_flag on the command line `dir/tool FLAG VALUE`; it must consume
// the value whether or not it parses.
template <typename T>
bool parse_one(const char* flag, const char* value, T& out) {
  std::string a0 = "dir/tool", a1 = flag, a2 = value;
  char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
  int i = 1;
  const bool ok = parse_flag(argv, i, out);
  EXPECT_EQ(i, 2);
  return ok;
}

TEST(Cli, ParseFlagLeavesTheTargetAloneOnAMalformedValue) {
  int threads = 3;
  EXPECT_FALSE(parse_one("--threads", "abc", threads));
  EXPECT_FALSE(parse_one("--threads", "-1", threads));
  EXPECT_FALSE(parse_one("--threads", "4294967296", threads));
  EXPECT_EQ(threads, 3);
  EXPECT_TRUE(parse_one("--threads", "2", threads));
  EXPECT_EQ(threads, 2);
  uint64_t every = 8;
  EXPECT_FALSE(parse_one("--checkpoint-every", "x", every));
  EXPECT_EQ(every, 8u);
  double ratio = -1;
  EXPECT_FALSE(parse_one("--min-detection", "0.9x", ratio));
  EXPECT_EQ(ratio, -1);
  EXPECT_TRUE(parse_one("--min-detection", "0.9", ratio));
  EXPECT_EQ(ratio, 0.9);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_GE(resolve_threads(0), 1);  // hardware concurrency, at least 1
}

// A pool is never larger than its task count: pure arithmetic, so no
// thread is started here at any requested count.
TEST(ThreadPool, ResolveThreadsCapsAtTheTaskCount) {
  EXPECT_EQ(resolve_threads(64, 32), 32);
  EXPECT_EQ(resolve_threads(1000000, 8), 8);
  EXPECT_EQ(resolve_threads(2, 32), 2);
  EXPECT_EQ(resolve_threads(8, 1), 1);
  EXPECT_EQ(resolve_threads(8, 0), 1);  // no tasks still means one thread
  EXPECT_EQ(resolve_threads(0, 1), 1);
  EXPECT_EQ(resolve_threads(0, 1u << 20), resolve_threads(0));
}

TEST(ThreadPool, RunCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 100;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.run(10, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, RethrowsFirstTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run(8, [](size_t i) {
        if (i == 3) throw std::runtime_error("task failed");
      }),
      std::runtime_error);
  // The pool survives the exception and keeps working.
  std::atomic<int> total{0};
  pool.run(4, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, InlinePathMatchesPooledExceptionSemantics) {
  // threads=1 runs tasks inline; it must still run *every* task and
  // rethrow the first exception afterwards, exactly like the pooled path
  // — otherwise threads=1 would complete fewer tasks than threads=N.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  try {
    pool.run(8, [&](size_t i) {
      ++ran;
      if (i == 2) throw std::runtime_error("first");
      if (i == 5) throw std::logic_error("second");
    });
    FAIL() << "expected the first exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 8);
  // And the pool is still usable afterwards.
  pool.run(3, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 11);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    EXPECT_TRUE(fits(r.bits(9), 9));
  }
}

}  // namespace
}  // namespace meissa::util
