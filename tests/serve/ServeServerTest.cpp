//===- tests/serve/ServeServerTest.cpp - clgen-serve daemon tests ---------===//
//
// Part of the CLgen reproduction. MIT license.
//
// The serve daemon end to end over its real Unix socket: cold requests
// compute and persist, warm requests load the kernel-set artifact and
// perform ZERO sampling (proved by provenance counters AND the global
// clgen.synthesis.attempts metric), identical concurrent requests —
// thread clients and fork()ed process clients — sample exactly once,
// target-0 is rejected at every layer, malformed frames are answered
// with an error and dropped, and drain lets in-flight requests finish.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "../TestUtil.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace clgen;
using namespace clgen::serve;
using testutil::counterValue;
using testutil::ScratchDir;

namespace fs = std::filesystem;

namespace {

/// A small but real daemon configuration: tiny corpus, tiny requests,
/// so a cold flight (train + sample + measure) stays test-sized. \p Dir
/// lives directly under /tmp so the socket path stays inside sun_path.
ServerConfig testConfig(const ScratchDir &Dir) {
  ServerConfig Cfg;
  Cfg.SocketPath = Dir.file("serve.sock");
  Cfg.StoreDir = Dir.file("store");
  Cfg.FileCount = 60;
  Cfg.MeasureWorkers = 1;
  return Cfg;
}

SynthesizeRequest testRequest(uint64_t Seed = 1) {
  SynthesizeRequest Req;
  Req.TargetKernels = 3;
  Req.Seed = Seed;
  Req.Temperature = 0.5;
  return Req;
}

} // namespace

TEST(ServeServerTest, RequestKeyCoversSemanticFieldsOnly) {
  SynthesizeRequest A = testRequest(1);
  SynthesizeRequest B = testRequest(1);
  EXPECT_EQ(requestKey(A), requestKey(B));
  B.Seed = 2;
  EXPECT_NE(requestKey(A), requestKey(B));
  B = A;
  B.TargetKernels += 1;
  EXPECT_NE(requestKey(A), requestKey(B));
  B = A;
  B.Temperature = 0.75;
  EXPECT_NE(requestKey(A), requestKey(B));
}

TEST(ServeServerTest, ColdThenWarmOverTheSocket) {
  ScratchDir Dir("clgen_serve_", "cold_warm");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  // Cold: trains the model, samples, measures.
  auto C1 = Client::connect(Dir.file("serve.sock"));
  ASSERT_TRUE(C1.ok()) << C1.errorMessage();
  auto Cold = C1.get().synthesize(testRequest());
  ASSERT_TRUE(Cold.ok()) << Cold.errorMessage();
  EXPECT_FALSE(Cold.get().WarmKernels);
  EXPECT_EQ(Cold.get().TrainedModels, 1u);
  EXPECT_GT(Cold.get().SampleAttempts, 0u);
  // Delivery count is corpus- and seed-dependent (the sampler may
  // exhaust its attempt budget short of the target); what the service
  // guarantees is that SOMETHING was synthesized and that warm replays
  // it byte-for-byte.
  ASSERT_GE(Cold.get().Sources.size(), 1u);

  // Warm: the kernel-set artifact replaces the sampler. The provenance
  // contract — zero models trained, zero samples drawn, zero kernels
  // executed — with byte-identical kernel bytes.
  uint64_t AttemptsBefore = counterValue("clgen.synthesis.attempts");
  auto C2 = Client::connect(Dir.file("serve.sock"));
  ASSERT_TRUE(C2.ok());
  auto Warm = C2.get().synthesize(testRequest());
  ASSERT_TRUE(Warm.ok()) << Warm.errorMessage();
  EXPECT_TRUE(Warm.get().WarmKernels);
  EXPECT_EQ(Warm.get().TrainedModels, 0u);
  EXPECT_EQ(Warm.get().SampleAttempts, 0u);
  EXPECT_EQ(Warm.get().MeasuredKernels, 0u)
      << "warm measurements must come from the result cache / ledger";
  EXPECT_EQ(counterValue("clgen.synthesis.attempts"), AttemptsBefore)
      << "the warm path must not construct a synthesis engine at all";
  EXPECT_EQ(Warm.get().KernelSetDigest, Cold.get().KernelSetDigest);
  EXPECT_EQ(Warm.get().Sources, Cold.get().Sources);
  ASSERT_EQ(Warm.get().Measurements.size(), Cold.get().Measurements.size());
  for (size_t I = 0; I < Warm.get().Measurements.size(); ++I) {
    EXPECT_EQ(Warm.get().Measurements[I].Ok, Cold.get().Measurements[I].Ok);
    EXPECT_EQ(Warm.get().Measurements[I].CpuTime,
              Cold.get().Measurements[I].CpuTime);
    EXPECT_EQ(Warm.get().Measurements[I].GpuTime,
              Cold.get().Measurements[I].GpuTime);
  }

  // A different seed is a different configuration: cold again.
  auto Other = C2.get().synthesize(testRequest(/*Seed=*/2));
  ASSERT_TRUE(Other.ok());
  EXPECT_FALSE(Other.get().WarmKernels);
  EXPECT_EQ(Other.get().TrainedModels, 0u) << "the model is shared";

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.SynthRequests, 3u);
  EXPECT_EQ(Stats.ColdComputes, 2u);
  EXPECT_EQ(Stats.WarmLoads, 1u);
  EXPECT_EQ(Stats.TrainedModels, 1u);

  S.requestDrain();
  S.wait();
  EXPECT_FALSE(fs::exists(Dir.file("serve.sock")));
}

TEST(ServeServerTest, ConcurrentThreadClientsSampleExactlyOnce) {
  // K identical concurrent requests against a cold store: whether a
  // request coalesces onto the in-flight leader or arrives late and
  // warm-loads the persisted artifact, the TOTAL work is one cold
  // compute. Proof: the global sampling counter advances by exactly a
  // single run's worth (measured against a solo reference daemon), the
  // model trains once, and every response is byte-identical.
  ScratchDir RefDir("clgen_serve_", "exactly_once_ref");
  uint64_t SoloDelta = 0;
  {
    Server Ref(testConfig(RefDir));
    ASSERT_TRUE(Ref.start().ok());
    uint64_t Before = counterValue("clgen.synthesis.attempts");
    auto R = Ref.synthesize(testRequest());
    ASSERT_TRUE(R.ok());
    SoloDelta = counterValue("clgen.synthesis.attempts") - Before;
    Ref.requestDrain();
    Ref.wait();
  }
  ASSERT_GT(SoloDelta, 0u);

  ScratchDir Dir("clgen_serve_", "exactly_once");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  constexpr int Clients = 4;
  uint64_t Before = counterValue("clgen.synthesis.attempts");
  std::vector<uint64_t> Digests(Clients, 0);
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      auto C = Client::connect(Dir.file("serve.sock"));
      if (!C.ok()) {
        Failures.fetch_add(1);
        return;
      }
      auto R = C.get().synthesize(testRequest());
      if (!R.ok()) {
        Failures.fetch_add(1);
        return;
      }
      Digests[I] = R.get().KernelSetDigest;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(counterValue("clgen.synthesis.attempts") - Before, SoloDelta)
      << "K identical concurrent requests must sample exactly once";
  for (int I = 1; I < Clients; ++I)
    EXPECT_EQ(Digests[I], Digests[0]);

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.TrainedModels, 1u);
  EXPECT_EQ(Stats.ColdComputes + Stats.WarmLoads + Stats.CoalescedRequests,
            static_cast<uint64_t>(Clients));
  EXPECT_EQ(Stats.ColdComputes, 1u)
      << "only one flight may run the cold pipeline";

  S.requestDrain();
  S.wait();
}

TEST(ServeServerTest, ConcurrentForkClientsSampleExactlyOnce) {
  // The same exactly-once contract with PROCESS clients: fork() K
  // children that all fire the identical request at once. Sampling
  // happens inside the daemon process, so the counter proof lives
  // there; children just report success and the response digest.
  ScratchDir Dir("clgen_serve_", "fork_clients");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  constexpr int Racers = 4;
  std::string GoFile = Dir.file("go");
  uint64_t Before = counterValue("clgen.synthesis.attempts");

  std::vector<pid_t> Children;
  for (int C = 0; C < Racers; ++C) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0) << "fork failed";
    if (Pid == 0) {
      // Child: spin until the parent releases every racer at once,
      // round-trip the request, record the digest, and _exit so no
      // gtest/atexit machinery runs twice.
      for (int Spin = 0; Spin < 5000 && !fs::exists(GoFile); ++Spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto Conn = Client::connect(Dir.file("serve.sock"));
      if (!Conn.ok())
        _exit(1);
      auto R = Conn.get().synthesize(testRequest());
      if (!R.ok())
        _exit(2);
      std::ofstream Out(Dir.file("digest-" + std::to_string(C)));
      Out << R.get().KernelSetDigest;
      Out.close();
      _exit(0);
    }
    Children.push_back(Pid);
  }
  { std::ofstream Go(GoFile); }

  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }

  // One cold run's sampling, shared by all four processes.
  EXPECT_GT(counterValue("clgen.synthesis.attempts") - Before, 0u);
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.TrainedModels, 1u);
  EXPECT_EQ(Stats.ColdComputes, 1u);
  EXPECT_EQ(Stats.SynthRequests, static_cast<uint64_t>(Racers));

  uint64_t Digest0 = 0;
  for (int C = 0; C < Racers; ++C) {
    std::ifstream In(Dir.file("digest-" + std::to_string(C)));
    uint64_t D = 0;
    In >> D;
    if (C == 0)
      Digest0 = D;
    EXPECT_EQ(D, Digest0) << "client " << C << " saw a different kernel set";
  }

  S.requestDrain();
  S.wait();
}

TEST(ServeServerTest, ServerRejectsZeroTargetOnTheWire) {
  // Client::synthesize validates locally, so drive the raw socket:
  // the SERVER must also reject target-0, a target above the cap and an
  // infinite temperature (other client implementations exist) — with an
  // error response, not an empty success or a flight that never ends.
  ScratchDir Dir("clgen_serve_", "target0");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = Dir.file("serve.sock");
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  SynthesizeRequest Zero;
  Zero.TargetKernels = 0;
  SynthesizeRequest Huge = testRequest();
  Huge.TargetKernels = uint64_t(1) << 40;
  SynthesizeRequest Hot = testRequest();
  Hot.Temperature = std::numeric_limits<double>::infinity();
  // An invalid request keeps the connection open, so all three share it.
  for (const SynthesizeRequest &Bad : {Zero, Huge, Hot}) {
    ASSERT_TRUE(writeFrame(Fd, encodeSynthesizeRequest(Bad)).ok());
    auto Raw = readFrame(Fd);
    ASSERT_TRUE(Raw.ok()) << Raw.errorMessage();
    auto Parsed = parseFrame(Raw.get());
    ASSERT_TRUE(Parsed.ok()) << Parsed.errorMessage();
    EXPECT_EQ(Parsed.get().Type, MessageType::ErrorResponse);
    EXPECT_NE(Parsed.get().Text.find("usage error"), std::string::npos)
        << Parsed.get().Text;
  }
  ::close(Fd);

  // And the direct in-process entry point agrees.
  auto Direct = S.synthesize(Zero);
  EXPECT_FALSE(Direct.ok());
  EXPECT_GE(S.stats().InvalidRequests, 4u);
  EXPECT_EQ(S.stats().ColdComputes, 0u);

  S.requestDrain();
  S.wait();
}

TEST(ServeServerTest, MalformedFrameGetsErrorResponseAndDrop) {
  ScratchDir Dir("clgen_serve_", "malformed");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = Dir.file("serve.sock");
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  // A correctly-framed request whose payload checksum is wrong: the
  // header reads fine, the parse fails, the server answers with an
  // error and drops the connection.
  std::vector<uint8_t> Frame = encodePingRequest();
  Frame[Frame.size() - 1] ^= 0xFF; // Corrupt the trailer.
  ASSERT_TRUE(writeFrame(Fd, Frame).ok());
  auto Raw = readFrame(Fd);
  ASSERT_TRUE(Raw.ok()) << Raw.errorMessage();
  auto Parsed = parseFrame(Raw.get());
  ASSERT_TRUE(Parsed.ok());
  EXPECT_EQ(Parsed.get().Type, MessageType::ErrorResponse);
  // The server hangs up after a protocol violation: the next read is
  // EOF, not a hang.
  auto Next = readFrame(Fd);
  EXPECT_FALSE(Next.ok());
  ::close(Fd);

  EXPECT_GE(S.stats().InvalidRequests, 1u);
  S.requestDrain();
  S.wait();
}

TEST(ServeServerTest, DrainLetsInFlightRequestsFinish) {
  ScratchDir Dir("clgen_serve_", "drain");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  // Launch a cold request (slow: trains + samples + measures), then
  // drain while it is in flight. The request must complete and be
  // answered; wait() must return.
  std::atomic<bool> GotResponse{false};
  std::atomic<bool> ResponseOk{false};
  std::thread Requester([&] {
    auto C = Client::connect(Dir.file("serve.sock"));
    if (!C.ok())
      return;
    auto R = C.get().synthesize(testRequest());
    ResponseOk.store(R.ok());
    GotResponse.store(true);
  });

  // Give the request a moment to get in flight, then drain.
  for (int Spin = 0; Spin < 1000 && S.stats().ActiveRequests == 0 &&
                     !GotResponse.load();
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  S.requestDrain();
  S.wait();
  Requester.join();

  EXPECT_TRUE(GotResponse.load());
  EXPECT_TRUE(ResponseOk.load())
      << "the in-flight request must be answered, not dropped";
  EXPECT_TRUE(S.stats().Draining);
  EXPECT_EQ(S.stats().ActiveRequests, 0u);
  // The socket is gone: new clients are refused rather than hung.
  EXPECT_FALSE(Client::connect(Dir.file("serve.sock")).ok());
}

TEST(ServeServerTest, ShutdownRequestDrainsTheDaemon) {
  ScratchDir Dir("clgen_serve_", "shutdown_req");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());

  auto C = Client::connect(Dir.file("serve.sock"));
  ASSERT_TRUE(C.ok());
  auto Pong = C.get().ping();
  ASSERT_TRUE(Pong.ok());
  EXPECT_EQ(Pong.get().Version, ProtocolVersion);

  auto Text = C.get().stats();
  ASSERT_TRUE(Text.ok());
  EXPECT_NE(Text.get().find("requests_served"), std::string::npos);

  ASSERT_TRUE(C.get().shutdown().ok());
  S.wait();
  EXPECT_TRUE(S.draining());
  EXPECT_FALSE(fs::exists(Dir.file("serve.sock")));
}

TEST(ServeServerTest, BackgroundSweeperRunsAndReports) {
  ScratchDir Dir("clgen_serve_", "sweeper");
  ServerConfig Cfg = testConfig(Dir);
  Cfg.SweepIntervalMs = 20;
  Cfg.SweepBudgetBytes = 0; // Validate/quarantine only: evict nothing.
  Server S(Cfg);
  ASSERT_TRUE(S.start().ok());

  // A request populates the store; then the sweeper gets a few ticks.
  auto R = S.synthesize(testRequest());
  ASSERT_TRUE(R.ok()) << R.errorMessage();
  for (int Spin = 0; Spin < 2000 && S.stats().Sweeps < 2; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(S.stats().Sweeps, 2u);

  S.requestDrain();
  S.wait();

  // Budget-0 sweeps evict nothing, so the store is still warm.
  ServerConfig Cfg2 = testConfig(Dir);
  Server S2(Cfg2);
  ASSERT_TRUE(S2.start().ok());
  auto Warm = S2.synthesize(testRequest());
  ASSERT_TRUE(Warm.ok());
  EXPECT_TRUE(Warm.get().WarmKernels)
      << "sweeps must never evict within budget / mutate survivors";
  EXPECT_EQ(Warm.get().SampleAttempts, 0u);
  S2.requestDrain();
  S2.wait();
}

TEST(ServeServerTest, RenderStatsIsKeyValueLines) {
  ScratchDir Dir("clgen_serve_", "render");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());
  std::string Text = S.renderStats();
  for (const char *Key :
       {"requests_served", "synth_requests", "invalid_requests",
        "cold_computes", "warm_loads", "coalesced_requests",
        "trained_models", "sweeps", "sweep_evicted_bytes",
        "active_requests", "draining"})
    EXPECT_NE(Text.find(Key), std::string::npos) << Key;
  S.requestDrain();
  S.wait();
}

TEST(ServeServerTest, ConcurrentColdSeedsMatchSoloRuns) {
  // Concurrent cold flights for different seeds sample the daemon's one
  // trained model at the same time. Each must deliver exactly what its
  // seed delivers alone — the same kernel digest and the same
  // measurement rows — so no flight may disturb another's sampling
  // state.
  const uint64_t Seeds[2] = {1, 2};
  auto requestFor = [](uint64_t Seed) {
    SynthesizeRequest Req = testRequest(Seed);
    Req.TargetKernels = 40;
    return Req;
  };

  SynthesizeResponse Solo[2];
  {
    ScratchDir RefDir("clgen_serve_", "solo_seeds");
    Server Ref(testConfig(RefDir));
    ASSERT_TRUE(Ref.start().ok());
    for (int I = 0; I < 2; ++I) {
      auto R = Ref.synthesize(requestFor(Seeds[I]));
      ASSERT_TRUE(R.ok()) << R.errorMessage();
      Solo[I] = R.get();
    }
    Ref.requestDrain();
    Ref.wait();
  }
  ASSERT_NE(Solo[0].KernelSetDigest, Solo[1].KernelSetDigest);

  ScratchDir Dir("clgen_serve_", "concurrent_seeds");
  Server S(testConfig(Dir));
  ASSERT_TRUE(S.start().ok());
  // Train the model first, so both flights below sample it together.
  ASSERT_TRUE(S.synthesize(testRequest(99)).ok());

  Result<SynthesizeResponse> Got[2] = {
      Result<SynthesizeResponse>::error("not run"),
      Result<SynthesizeResponse>::error("not run")};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 2; ++I)
    Threads.emplace_back([&, I] {
      auto C = Client::connect(Dir.file("serve.sock"));
      if (C.ok())
        Got[I] = C.get().synthesize(requestFor(Seeds[I]));
    });
  for (auto &T : Threads)
    T.join();

  for (int I = 0; I < 2; ++I) {
    SCOPED_TRACE("seed " + std::to_string(Seeds[I]));
    ASSERT_TRUE(Got[I].ok()) << Got[I].errorMessage();
    const SynthesizeResponse &R = Got[I].get();
    EXPECT_FALSE(R.WarmKernels);
    EXPECT_EQ(R.KernelSetDigest, Solo[I].KernelSetDigest);
    EXPECT_EQ(R.Sources, Solo[I].Sources);
    ASSERT_EQ(R.Measurements.size(), Solo[I].Measurements.size());
    for (size_t K = 0; K < R.Measurements.size(); ++K) {
      const MeasurementRow &A = R.Measurements[K];
      const MeasurementRow &B = Solo[I].Measurements[K];
      EXPECT_EQ(A.Ok, B.Ok) << "row " << K;
      EXPECT_EQ(A.CpuTime, B.CpuTime) << "row " << K;
      EXPECT_EQ(A.GpuTime, B.GpuTime) << "row " << K;
      EXPECT_EQ(A.Error, B.Error) << "row " << K;
    }
  }
  S.requestDrain();
  S.wait();
}

TEST(ServeCoalescerTest, FollowersShareTheLeadersResult) {
  // The coalescer in isolation, with a compute we can hold open: the
  // leader blocks until the coalescer itself has counted every follower
  // into its flight, so followers MUST take the in-flight path — this
  // is the deterministic exactly-once unit proof (the server-level
  // tests prove it end to end).
  Coalescer<int> Flights;
  std::atomic<int> Computes{0};
  constexpr int Followers = 3;

  std::vector<std::thread> Threads;
  std::vector<int> Values(Followers + 1, -1);
  std::vector<char> WasLeader(Followers + 1, 0);
  for (int I = 0; I < Followers + 1; ++I)
    Threads.emplace_back([&, I] {
      bool Leader = false;
      auto R = Flights.run(
          /*Key=*/42,
          [&]() -> Result<int> {
            Computes.fetch_add(1);
            // Hold the flight open (up to 5 s) until every other
            // thread has joined it as a follower.
            for (int Spin = 0;
                 Spin < 5000 &&
                 Flights.followers() < static_cast<uint64_t>(Followers);
                 ++Spin)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return 1234;
          },
          &Leader);
      Values[I] = R.ok() ? R.get() : -1;
      WasLeader[I] = Leader ? 1 : 0;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Computes.load(), 1) << "exactly one leader computes";
  int Leaders = 0;
  for (int I = 0; I < Followers + 1; ++I) {
    EXPECT_EQ(Values[I], 1234);
    Leaders += WasLeader[I];
  }
  EXPECT_EQ(Leaders, 1);
  EXPECT_EQ(Flights.leaders(), 1u);
  EXPECT_EQ(Flights.followers(), static_cast<uint64_t>(Followers));
  EXPECT_EQ(Flights.inFlight(), 0u);

  // Distinct keys never coalesce; a finished flight's key recomputes.
  auto Again = Flights.run(42, [] { return Result<int>(5678); });
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again.get(), 5678);
  EXPECT_EQ(Flights.leaders(), 2u);
}
