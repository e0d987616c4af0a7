//===- tests/support/FailPointTest.cpp - fault-injection framework tests ------===//
//
// The deterministic failpoint registry (support/FailPoint.h): trip
// decisions must be a pure function of (plan seed, site, key,
// evaluation count) — independent of thread scheduling and of which
// other sites fire — and the arm/disarm lifecycle must reset cleanly.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

using namespace clgen;
using support::FailPlan;
using support::FailPoints;
using testutil::ArmedPlan;

namespace {

/// Evaluates (site, key) N times and returns the decision bitmap.
std::vector<bool> decisions(const char *Site, uint64_t Key, size_t N) {
  std::vector<bool> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(FailPoints::trip(Site, Key));
  return Out;
}

TEST(FailPointTest, DisarmedNeverTrips) {
  FailPoints::disarm();
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(FailPoints::trip("store.write", I));
  EXPECT_FALSE(FailPoints::armed());
  EXPECT_EQ(FailPoints::totalFires(), 0u);
  // Disarmed evaluations do not even record hits.
  EXPECT_TRUE(FailPoints::stats().empty());
}

TEST(FailPointTest, ProbabilityOneAlwaysTrips) {
  FailPlan Plan;
  Plan.Seed = 7;
  Plan.Probability = 1.0;
  ArmedPlan Armed(Plan);
  for (int I = 0; I < 20; ++I)
    EXPECT_TRUE(FailPoints::trip("vm.launch", I));
  EXPECT_EQ(FailPoints::totalFires(), 20u);
}

TEST(FailPointTest, ProbabilityZeroNeverTrips) {
  FailPlan Plan;
  Plan.Seed = 7;
  Plan.Probability = 0.0;
  ArmedPlan Armed(Plan);
  for (int I = 0; I < 20; ++I)
    EXPECT_FALSE(FailPoints::trip("vm.launch", I));
  EXPECT_EQ(FailPoints::totalFires(), 0u);
  // But hits ARE recorded: the site was evaluated 20 times.
  auto Stats = FailPoints::stats();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Site, "vm.launch");
  EXPECT_EQ(Stats[0].Hits, 20u);
  EXPECT_EQ(Stats[0].Fires, 0u);
}

TEST(FailPointTest, DecisionsAreReproducibleAcrossRearms) {
  FailPlan Plan;
  Plan.Seed = 0xABCDEF;
  Plan.Probability = 0.35;
  std::vector<bool> First, Second;
  {
    ArmedPlan Armed(Plan);
    First = decisions("pipeline.enqueue", 42, 200);
  }
  {
    ArmedPlan Armed(Plan);
    Second = decisions("pipeline.enqueue", 42, 200);
  }
  EXPECT_EQ(First, Second);
  // And the stream is not degenerate at p=0.35 over 200 draws.
  size_t Fires = 0;
  for (bool B : First)
    Fires += B;
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, First.size());
}

TEST(FailPointTest, StreamsAreIndependentPerSiteAndKey) {
  FailPlan Plan;
  Plan.Seed = 99;
  Plan.Probability = 0.5;
  ArmedPlan Armed(Plan);
  std::vector<bool> SiteA = decisions("store.read", 1, 64);
  std::vector<bool> SiteB = decisions("store.write", 1, 64);
  std::vector<bool> KeyOther = decisions("store.read", 2, 64);
  // Distinct sites and distinct keys draw from distinct split streams;
  // at p=0.5 over 64 draws, collision of the whole bitmap is 2^-64.
  EXPECT_NE(SiteA, SiteB);
  EXPECT_NE(SiteA, KeyOther);
}

TEST(FailPointTest, InterleavingDoesNotPerturbPerKeyStreams) {
  FailPlan Plan;
  Plan.Seed = 1234;
  Plan.Probability = 0.4;
  // Reference: each key evaluated alone.
  std::map<uint64_t, std::vector<bool>> Solo;
  {
    ArmedPlan Armed(Plan);
    for (uint64_t Key = 0; Key < 4; ++Key)
      Solo[Key] = decisions("runtime.payload", Key, 50);
  }
  // Interleaved round-robin over the same keys: every per-key stream
  // must be unchanged, because the decision counter is per (site, key).
  std::map<uint64_t, std::vector<bool>> Mixed;
  {
    ArmedPlan Armed(Plan);
    for (size_t Round = 0; Round < 50; ++Round)
      for (uint64_t Key = 0; Key < 4; ++Key)
        Mixed[Key].push_back(FailPoints::trip("runtime.payload", Key));
  }
  EXPECT_EQ(Solo, Mixed);
}

TEST(FailPointTest, SiteFilterRestrictsInjection) {
  FailPlan Plan;
  Plan.Seed = 5;
  Plan.Probability = 1.0;
  Plan.Sites = {"store.lock"};
  ArmedPlan Armed(Plan);
  EXPECT_TRUE(FailPoints::trip("store.lock", 0));
  EXPECT_FALSE(FailPoints::trip("store.write", 0));
  EXPECT_FALSE(FailPoints::trip("vm.launch", 0));
}

TEST(FailPointTest, MaxFiresPerSiteCapsInjection) {
  FailPlan Plan;
  Plan.Seed = 5;
  Plan.Probability = 1.0;
  Plan.MaxFiresPerSite = 3;
  ArmedPlan Armed(Plan);
  size_t Fires = 0;
  for (int I = 0; I < 10; ++I)
    Fires += FailPoints::trip("ledger.write", I);
  EXPECT_EQ(Fires, 3u);
  auto Stats = FailPoints::stats();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Hits, 10u);
  EXPECT_EQ(Stats[0].Fires, 3u);
}

TEST(FailPointTest, ArmResetsCounters) {
  FailPlan Plan;
  Plan.Seed = 5;
  Plan.Probability = 1.0;
  ArmedPlan Armed(Plan);
  (void)FailPoints::trip("vm.launch", 0);
  EXPECT_EQ(FailPoints::totalFires(), 1u);
  FailPoints::arm(Plan); // Re-arm: counters restart.
  EXPECT_EQ(FailPoints::totalFires(), 0u);
  EXPECT_TRUE(FailPoints::stats().empty());
  FailPoints::disarm();
  EXPECT_FALSE(FailPoints::armed());
}

TEST(FailPointTest, ConcurrentTripsAreSafeAndCounted) {
  FailPlan Plan;
  Plan.Seed = 77;
  Plan.Probability = 0.5;
  ArmedPlan Armed(Plan);
  constexpr size_t ThreadCount = 8, PerThread = 500;
  std::atomic<size_t> Fires{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([T, &Fires] {
      for (size_t I = 0; I < PerThread; ++I)
        Fires += FailPoints::trip("concurrent.site", T);
    });
  for (std::thread &T : Threads)
    T.join();
  auto Stats = FailPoints::stats();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Hits, ThreadCount * PerThread);
  EXPECT_EQ(Stats[0].Fires, Fires.load());
  EXPECT_EQ(FailPoints::totalFires(), Fires.load());
}

TEST(FailPointTest, StallReportsWhetherItStalled) {
  FailPlan Plan;
  Plan.Seed = 3;
  Plan.Probability = 1.0;
  Plan.StallMs = 1; // Keep the test fast.
  ArmedPlan Armed(Plan);
  EXPECT_TRUE(FailPoints::stall("vm.stall", 0));
  FailPoints::disarm();
  EXPECT_FALSE(FailPoints::stall("vm.stall", 0));
}

} // namespace
