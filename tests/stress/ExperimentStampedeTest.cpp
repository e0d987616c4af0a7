//===- tests/stress/ExperimentStampedeTest.cpp - experiment stampede ----------===//
//
// Concurrency stress for the predictive-experiment warm-start layer
// (ctest label "stress", TSan-clean by the same invocations as
// ChannelSoakTest.cpp): a cold-start stampede of concurrent
// runOrLoadExperiment calls on ONE configuration must do the expensive
// compute (training, synthesis, measurement, cross-validation) exactly
// once — the losers consume the winner's three archives on the
// under-lock re-probe — and every racer must come away with
// byte-identical report strings.
//
//===----------------------------------------------------------------------===//

#include "predict/Experiment.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace clgen;
using namespace clgen::predict;
using testutil::ScratchDir;

namespace fs = std::filesystem;

namespace {

/// Start barrier: racers block until every thread is staged, so the
/// cold fast-path probes genuinely overlap.
class StartGate {
public:
  void waitAt(size_t Expected) {
    std::unique_lock<std::mutex> Lock(M);
    if (++Arrived >= Expected) {
      Open = true;
      Cv.notify_all();
      return;
    }
    Cv.wait(Lock, [this] { return Open; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  size_t Arrived = 0;
  bool Open = false;
};

/// Small experiment: contention is the point, not model quality. Each
/// racer stays single-threaded inside so the stampede itself provides
/// the parallelism.
ExperimentOptions stampedeOptions() {
  ExperimentOptions O;
  O.CorpusFiles = 400;
  O.NGramOrder = 16;
  O.Streaming.Synthesis.TargetKernels = 3;
  O.Streaming.Synthesis.MaxAttempts = 1800;
  O.Streaming.Synthesis.Sampling.Temperature = 0.55;
  O.Streaming.Driver.GlobalSize = 2048;
  O.Streaming.Driver.MaxSimulatedGroups = 4;
  O.Streaming.Driver.RunDynamicCheck = true;
  O.Streaming.RefillFailures = true;
  O.Suites = {"Parboil"};
  O.Runner.MaxSimulatedGroups = 4;
  O.KFold.Folds = 3;
  return O;
}

} // namespace

TEST(ExperimentStampedeTest, ColdStampedeComputesExactlyOnce) {
  ScratchDir Dir("clgen_experiment_stampede_", "cold");
  ExperimentOptions Opts = stampedeOptions();
  constexpr size_t Racers = 4;

  StartGate Gate;
  std::atomic<size_t> ColdRuns{0}, WarmLoads{0}, Failures{0};
  std::vector<std::string> Reports(Racers);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Racers; ++T)
    Threads.emplace_back([&, T] {
      Gate.waitAt(Racers);
      auto R = runOrLoadExperiment(Dir.str(), Opts);
      if (!R.ok()) {
        Failures.fetch_add(1);
        return;
      }
      (R.get().Provenance.Warm ? WarmLoads : ColdRuns).fetch_add(1);
      if (R.get().Provenance.Warm) {
        // A warm racer must have been handed the result without doing
        // any training or measurement of its own.
        EXPECT_EQ(R.get().Provenance.TrainedModels, 0u);
        EXPECT_EQ(R.get().Provenance.MeasuredKernels, 0u);
      }
      Reports[T] = R.get().Table1 + R.get().Fig9;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(ColdRuns.load(), 1u)
      << "stampede control must dedupe the cold experiment compute";
  EXPECT_EQ(WarmLoads.load(), Racers - 1);
  for (size_t T = 1; T < Racers; ++T)
    EXPECT_EQ(Reports[T], Reports[0])
        << "every racer must observe byte-identical reports";

  // One more probe: the published archives serve a warm, work-free run.
  auto Warm = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.errorMessage();
  EXPECT_TRUE(Warm.get().Provenance.Warm);
}

TEST(ExperimentStampedeTest, WarmStampedeNeverTouchesLocksOrRecomputes) {
  ScratchDir Dir("clgen_experiment_stampede_", "warm");
  ExperimentOptions Opts = stampedeOptions();
  auto Prime = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Prime.ok()) << Prime.errorMessage();
  ASSERT_FALSE(Prime.get().Provenance.Warm);

  constexpr size_t Racers = 6;
  StartGate Gate;
  std::atomic<size_t> ColdRuns{0}, Mismatches{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Racers; ++T)
    Threads.emplace_back([&] {
      Gate.waitAt(Racers);
      auto R = runOrLoadExperiment(Dir.str(), Opts);
      if (!R.ok() || !R.get().Provenance.Warm)
        ColdRuns.fetch_add(1);
      else if (R.get().Table1 != Prime.get().Table1 ||
               R.get().Fig9 != Prime.get().Fig9)
        Mismatches.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(ColdRuns.load(), 0u) << "a warm store must serve every racer";
  EXPECT_EQ(Mismatches.load(), 0u);
}
