//===- tests/support/MetricsTest.cpp - metrics registry tests -----------------===//
//
// Coverage for support/Metrics.h: histogram bucket boundaries and
// merge, sharded counter arithmetic, gauge last/max tracking, the
// stability taxonomy, and the golden byte-stable text exposition. The
// registry is process-global, so every test uses names under its own
// "test.metrics." prefix and asserts deltas, never absolute registry
// state shared with other tests.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace clgen;
using support::Counter;
using support::Gauge;
using support::Histogram;
using support::MetricsRegistry;
using support::MetricStability;
using support::RenderOptions;

//===----------------------------------------------------------------------===//
// Histogram buckets
//===----------------------------------------------------------------------===//

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly {0}; bucket B >= 1 covers [2^(B-1), 2^B - 1].
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);
  EXPECT_EQ(Histogram::bucketFor(7), 3u);
  EXPECT_EQ(Histogram::bucketFor(8), 4u);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), 64u);
  // Every bucket's lower bound maps back into that bucket, and the
  // value one below it does not — the boundaries are exact.
  for (size_t B = 0; B < Histogram::NumBuckets; ++B) {
    uint64_t Lo = Histogram::bucketLowerBound(B);
    EXPECT_EQ(Histogram::bucketFor(Lo), B) << "bucket " << B;
    if (B >= 2) {
      EXPECT_EQ(Histogram::bucketFor(Lo - 1), B - 1) << "bucket " << B;
    }
  }
}

TEST(MetricsTest, HistogramRecordAndStats) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u) << "empty histogram reports min 0, not UINT64_MAX";
  for (uint64_t V : {0ull, 1ull, 3ull, 100ull, 100ull})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 204u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_EQ(H.bucketCount(0), 1u); // {0}
  EXPECT_EQ(H.bucketCount(1), 1u); // {1}
  EXPECT_EQ(H.bucketCount(2), 1u); // {3}
  EXPECT_EQ(H.bucketCount(7), 2u); // {100, 100} in [64, 127]
}

TEST(MetricsTest, HistogramMerge) {
  Histogram A, B;
  A.record(5);
  A.record(70);
  B.record(2);
  B.record(300);
  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.sum(), 377u);
  EXPECT_EQ(A.min(), 2u);
  EXPECT_EQ(A.max(), 300u);
  EXPECT_EQ(A.bucketCount(2), 1u);
  EXPECT_EQ(A.bucketCount(3), 1u);
  EXPECT_EQ(A.bucketCount(7), 1u);
  EXPECT_EQ(A.bucketCount(9), 1u);
  // Merging an empty histogram is the identity, including min().
  Histogram Empty;
  A.merge(Empty);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.min(), 2u);
}

//===----------------------------------------------------------------------===//
// Counter / gauge
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CounterSumsAcrossShardsAndThreads) {
  Counter C;
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);
  C.inc(5);
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread + 5);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(MetricsTest, GaugeTracksLastAndMax) {
  Gauge G;
  G.set(7);
  G.set(3);
  EXPECT_EQ(G.value(), 3);
  EXPECT_EQ(G.maxValue(), 7);
  EXPECT_EQ(G.add(10), 13);
  EXPECT_EQ(G.maxValue(), 13);
  EXPECT_EQ(G.add(-13), 0);
  EXPECT_EQ(G.maxValue(), 13) << "the max is a high-water mark";
}

//===----------------------------------------------------------------------===//
// Registry + exposition
//===----------------------------------------------------------------------===//

TEST(MetricsTest, RegistryReturnsStableHandles) {
  Counter &A = MetricsRegistry::counter("test.metrics.handle");
  Counter &B = MetricsRegistry::counter("test.metrics.handle");
  EXPECT_EQ(&A, &B) << "same name must yield the same metric";
  uint64_t Before = A.value();
  B.inc();
  EXPECT_EQ(A.value(), Before + 1);
}

TEST(MetricsTest, FindDoesNotRegister) {
  EXPECT_EQ(MetricsRegistry::findCounter("test.metrics.never-registered"),
            nullptr);
  MetricsRegistry::counter("test.metrics.findable");
  EXPECT_NE(MetricsRegistry::findCounter("test.metrics.findable"), nullptr);
}

TEST(MetricsTest, GoldenExposition) {
  // The exposition contract is byte-exact: sorted by name, one line per
  // metric, integers only. Exercise all three kinds plus both
  // stability classes through a shared unique prefix and compare the
  // matching lines verbatim.
  MetricsRegistry::counter("test.metrics.golden.a").inc(42);
  MetricsRegistry::counter("test.metrics.golden.vol",
                           MetricStability::Volatile)
      .inc(7);
  MetricsRegistry::gauge("test.metrics.golden.g").set(-3);
  Histogram &H = MetricsRegistry::histogram("test.metrics.golden.h");
  H.record(0);
  H.record(5);
  H.record(6);
  std::string Text = MetricsRegistry::renderText({});
  EXPECT_NE(Text.find("# clgen metrics v1\n"), std::string::npos);
  EXPECT_NE(Text.find("counter test.metrics.golden.a 42 stable\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("counter test.metrics.golden.vol 7 volatile\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("gauge test.metrics.golden.g last=-3 max=0 volatile\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(
      Text.find("histogram test.metrics.golden.h count=3 sum=11 min=0 "
                "max=6 buckets=0:1,3:2 volatile\n"),
      std::string::npos)
      << Text;
  // Rendering twice with no metric activity in between is byte-stable.
  EXPECT_EQ(Text, MetricsRegistry::renderText({}));
}

TEST(MetricsTest, SkipVolatileDropsVolatileMetrics) {
  MetricsRegistry::counter("test.metrics.skip.stable").inc();
  MetricsRegistry::counter("test.metrics.skip.vol", MetricStability::Volatile)
      .inc();
  MetricsRegistry::gauge("test.metrics.skip.gauge").set(1);
  std::string Text = MetricsRegistry::renderText({.SkipVolatile = true});
  EXPECT_NE(Text.find("test.metrics.skip.stable"), std::string::npos);
  EXPECT_EQ(Text.find("test.metrics.skip.vol"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("test.metrics.skip.gauge"), std::string::npos)
      << "gauges default to volatile";
}

TEST(MetricsTest, EmptyHistogramRendersDash) {
  MetricsRegistry::histogram("test.metrics.emptyhist");
  std::string Text = MetricsRegistry::renderText({});
  EXPECT_NE(Text.find("histogram test.metrics.emptyhist count=0 sum=0 "
                      "min=0 max=0 buckets=- volatile\n"),
            std::string::npos)
      << Text;
}

TEST(MetricsTest, FirstRegistrationStabilityWins) {
  MetricsRegistry::counter("test.metrics.firstwins",
                           MetricStability::Volatile);
  MetricsRegistry::counter("test.metrics.firstwins").inc();
  std::string Text = MetricsRegistry::renderText({.SkipVolatile = true});
  EXPECT_EQ(Text.find("test.metrics.firstwins"), std::string::npos);
}

TEST(MetricsTest, ResetZeroesButKeepsHandles) {
  Counter &C = MetricsRegistry::counter("test.metrics.reset");
  C.inc(9);
  MetricsRegistry::reset();
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  EXPECT_EQ(C.value(), 1u) << "handles must survive reset()";
}

//===----------------------------------------------------------------------===//
// Macros
//===----------------------------------------------------------------------===//

TEST(MetricsTest, MacrosMatchCompiledInState) {
  // A site registers its metric on first use and counts every pass.
  for (int I = 0; I < 3; ++I)
    CLGS_COUNT("test.metrics.macro");
  const Counter *C = MetricsRegistry::findCounter("test.metrics.macro");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), 3u);
}
