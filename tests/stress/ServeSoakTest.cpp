//===- tests/stress/ServeSoakTest.cpp - sweeper-vs-request soak -----------===//
//
// Part of the CLgen reproduction. MIT license.
//
// Races the serve daemon's background sweeper against a stream of
// requests: an aggressive sweep interval with a byte budget small
// enough to evict artifacts while flights are re-creating them. The
// contracts under test, at soak intensity (modest iteration counts —
// this also runs on one core under TSan via -DCLGS_SANITIZE=thread):
//
//  - sweeps never mutate surviving artifact bytes, so every response
//    for one configuration carries the same kernel-set digest whether
//    it was computed cold, coalesced, or warm-loaded — even when the
//    sweeper evicted the artifact between requests;
//  - eviction degrades to recomputation, never to failure;
//  - drain with the sweeper mid-flight shuts down cleanly.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace clgen;
using namespace clgen::serve;
using testutil::ScratchDir;

namespace fs = std::filesystem;

namespace {

} // namespace

TEST(ServeSoakTest, SweeperVersusRequestsStaysDeterministic) {
  ScratchDir Dir("clgen_serve_soak_", "sweep_race");
  ServerConfig Cfg;
  Cfg.SocketPath = Dir.file("serve.sock");
  Cfg.StoreDir = Dir.file("store");
  Cfg.FileCount = 60;
  Cfg.MeasureWorkers = 1;
  Cfg.SweepIntervalMs = 1; // Sweep as fast as the thread can cycle.
  // Small enough that kernel-set artifacts and cache entries get
  // LRU-evicted underneath live requests (the model archive alone is
  // bigger than this, so every sweep evicts something).
  Cfg.SweepBudgetBytes = 16 * 1024;
  Server S(Cfg);
  ASSERT_TRUE(S.start().ok());

  // Two request threads cycling three configurations, racing the
  // sweeper. Every response must succeed, and per-configuration kernel
  // digests must never drift.
  constexpr int Rounds = 8;
  constexpr int ClientThreads = 2;
  std::atomic<int> Failures{0};
  std::mutex DigestMutex;
  std::map<uint64_t, uint64_t> DigestBySeed;

  std::vector<std::thread> Threads;
  for (int T = 0; T < ClientThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R) {
        SynthesizeRequest Req;
        Req.TargetKernels = 2;
        Req.Seed = 1 + ((T + R) % 3);
        auto Conn = Client::connect(Dir.file("serve.sock"));
        if (!Conn.ok()) {
          Failures.fetch_add(1);
          continue;
        }
        auto Resp = Conn.get().synthesize(Req);
        if (!Resp.ok()) {
          Failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> Guard(DigestMutex);
        auto [It, Inserted] = DigestBySeed.emplace(
            Req.Seed, Resp.get().KernelSetDigest);
        if (!Inserted && It->second != Resp.get().KernelSetDigest)
          Failures.fetch_add(1000); // Determinism broke: loud.
      }
    });
  for (auto &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0)
      << "requests failed or drifted while racing the sweeper";
  EXPECT_EQ(DigestBySeed.size(), 3u);
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.SynthRequests,
            static_cast<uint64_t>(Rounds * ClientThreads));
  EXPECT_GT(Stats.Sweeps, 0u) << "the sweeper never ran: vacuous soak";

  // Drain with the sweeper armed and possibly mid-sweep.
  S.requestDrain();
  S.wait();
  EXPECT_FALSE(fs::exists(Dir.file("serve.sock")));
}

TEST(ServeSoakTest, RepeatedDrainCyclesAreClean) {
  // Start/request/drain cycles over one store: each cycle's daemon
  // must come up on the same socket path, serve, and tear down without
  // leaking the socket file or wedging on its threads.
  ScratchDir Dir("clgen_serve_soak_", "cycles");
  uint64_t FirstDigest = 0;
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    ServerConfig Cfg;
    Cfg.SocketPath = Dir.file("serve.sock");
    Cfg.StoreDir = Dir.file("store");
    Cfg.FileCount = 60;
    Cfg.SweepIntervalMs = 5;
    Server S(Cfg);
    ASSERT_TRUE(S.start().ok()) << "cycle " << Cycle;
    auto Conn = Client::connect(Dir.file("serve.sock"));
    ASSERT_TRUE(Conn.ok()) << "cycle " << Cycle;
    SynthesizeRequest Req;
    Req.TargetKernels = 2;
    Req.Seed = 7;
    auto Resp = Conn.get().synthesize(Req);
    ASSERT_TRUE(Resp.ok()) << "cycle " << Cycle << ": "
                           << Resp.errorMessage();
    if (Cycle == 0) {
      FirstDigest = Resp.get().KernelSetDigest;
      EXPECT_FALSE(Resp.get().WarmKernels);
    } else {
      // Later cycles warm-start across daemon restarts: the store is
      // the durable half of the service.
      EXPECT_EQ(Resp.get().KernelSetDigest, FirstDigest);
      EXPECT_TRUE(Resp.get().WarmKernels) << "cycle " << Cycle;
      EXPECT_EQ(Resp.get().SampleAttempts, 0u);
    }
    S.requestDrain();
    S.wait();
    EXPECT_FALSE(fs::exists(Dir.file("serve.sock")));
  }
}
