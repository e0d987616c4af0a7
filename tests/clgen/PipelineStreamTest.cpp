//===- tests/clgen/PipelineStreamTest.cpp - streaming pipeline golden tests ---===//
//
// The determinism contract of the async synthesis→measurement pipeline:
// core::synthesizeAndMeasure must produce BYTE-identical output to the
// phased path (synthesizeKernels, then runBenchmarkBatch) for every
// combination of synthesis workers, wave sizes, measurement workers and
// queue capacities — with no cache, with a cold cache, and with a
// pre-warmed ResultCache. Identity is checked on a canonical
// serialization of the whole result (sources + bytecode + stats +
// measurements), not field spot-checks.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "../TestUtil.h"
#include "githubsim/GithubSim.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

using namespace clgen;
using namespace clgen::core;
using testutil::ScratchDir;

namespace {

/// Canonical byte image of a (kernels, stats, measurements) outcome.
/// Two outcomes are "the same result" iff these bytes are equal.
std::vector<uint8_t>
resultBytes(const std::vector<SynthesizedKernel> &Kernels,
            const SynthesisStats &Stats,
            const std::vector<Result<runtime::Measurement>> &Measurements) {
  store::ArchiveWriter W(store::ArchiveKind::Synthesis);
  W.writeU64(Stats.Attempts);
  W.writeU64(Stats.IncompleteSamples);
  W.writeU64(Stats.RejectedByFilter);
  W.writeU64(Stats.Duplicates);
  W.writeU64(Stats.Accepted);
  W.writeU64(Kernels.size());
  for (const SynthesizedKernel &K : Kernels) {
    W.writeString(K.Source);
    store::serializeCompiledKernel(W, K.Kernel);
  }
  W.writeU64(Measurements.size());
  for (const auto &M : Measurements) {
    W.writeBool(M.ok());
    if (M.ok())
      store::serializeMeasurement(W, M.get());
    else
      W.writeString(M.errorMessage());
  }
  return W.finalize();
}

struct Workload {
  std::unique_ptr<ClgenPipeline> Pipeline;
  SynthesisOptions Synthesis;
  runtime::DriverOptions Driver;
  runtime::Platform P = runtime::amdPlatform();
  /// The storeless phased reference the streaming engine must
  /// reproduce byte for byte: full synthesis, then a batched
  /// measurement pass.
  std::vector<SynthesizedKernel> RefKernels;
  SynthesisStats RefStats;
  std::vector<Result<runtime::Measurement>> RefMeasurements;
  std::vector<uint8_t> RefBytes;
};

Workload makeWorkload(size_t TargetKernels) {
  Workload W;
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  W.Pipeline = std::make_unique<ClgenPipeline>(
      ClgenPipeline::train(Files, POpts));

  W.Synthesis.TargetKernels = TargetKernels;
  W.Synthesis.MaxAttempts = 6000;
  W.Driver.GlobalSize = 2048;

  SynthesisResult SR = W.Pipeline->synthesize(W.Synthesis);
  std::vector<vm::CompiledKernel> Kernels;
  for (auto &K : SR.Kernels)
    Kernels.push_back(K.Kernel);
  W.RefMeasurements = runtime::runBenchmarkBatch(Kernels, W.P, W.Driver, 1);
  W.RefKernels = std::move(SR.Kernels);
  W.RefStats = SR.Stats;
  W.RefBytes = resultBytes(W.RefKernels, W.RefStats, W.RefMeasurements);
  return W;
}

void expectMatchesReference(const Workload &W, const StreamingResult &Out,
                            const std::string &Config) {
  EXPECT_EQ(resultBytes(Out.Kernels, Out.Stats, Out.Measurements),
            W.RefBytes)
      << "streaming output diverged from the phased path [" << Config
      << "]";
}

unsigned hardwareWorkers() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}

uint64_t attemptsCounter() {
  const support::Counter *C =
      support::MetricsRegistry::findCounter("clgen.synthesis.attempts");
  return C ? C->value() : 0;
}

} // namespace

TEST(PipelineStreamTest, GoldenAcrossWorkerCountsAndWaveSizes) {
  Workload W = makeWorkload(/*TargetKernels=*/5);
  ASSERT_EQ(W.RefKernels.size(), 5u)
      << "workload regressed; golden comparison would be vacuous";

  // {1, 2, hardware} for both sides of the pipe, crossed with wave
  // sizes and bounded queue capacities (1 = maximal back-pressure).
  for (unsigned SynthWorkers : {1u, 2u, hardwareWorkers()}) {
    for (unsigned MeasureWorkers : {1u, 2u, hardwareWorkers()}) {
      for (size_t WaveSize : {size_t(0), size_t(4)}) {
        StreamingOptions Opts;
        Opts.Synthesis = W.Synthesis;
        Opts.Synthesis.Workers = SynthWorkers;
        Opts.Synthesis.WaveSize = WaveSize;
        Opts.Driver = W.Driver;
        Opts.MeasureWorkers = MeasureWorkers;
        Opts.QueueCapacity = 1 + (WaveSize % 3);
        auto Out = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
        expectMatchesReference(
            W, Out,
            "synth=" + std::to_string(SynthWorkers) +
                " measure=" + std::to_string(MeasureWorkers) +
                " wave=" + std::to_string(WaveSize));
      }
    }
  }
}

TEST(PipelineStreamTest, GoldenWithColdAndPrewarmedCache) {
  Workload W = makeWorkload(/*TargetKernels=*/4);
  ScratchDir Dir("clgen_stream_test_", "golden_cache");

  // Cold cache: everything misses at enqueue time, results match, and
  // the cache comes out populated.
  store::ResultCache Cache(Dir.str());
  StreamingOptions Opts;
  Opts.Synthesis = W.Synthesis;
  Opts.Driver = W.Driver;
  Opts.MeasureWorkers = 2;
  Opts.Cache = &Cache;
  auto Cold = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  expectMatchesReference(W, Cold, "cold cache");
  EXPECT_EQ(Cold.CacheStats.Hits, 0u);
  EXPECT_EQ(Cold.CacheStats.Misses, W.RefKernels.size());

  // Pre-warmed cache (fresh instance, so hits come off disk): every
  // successful measurement is resolved at enqueue time — zero
  // measurement slots occupied — and output is still byte-identical.
  size_t Successes = 0;
  for (const auto &M : W.RefMeasurements)
    Successes += M.ok() ? 1 : 0;
  store::ResultCache Warmed(Dir.str());
  Opts.Cache = &Warmed;
  auto Warm = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  expectMatchesReference(W, Warm, "pre-warmed cache");
  EXPECT_EQ(Warm.CacheStats.Hits, Successes)
      << "every cached measurement must be served at enqueue time";
  EXPECT_EQ(Warm.CacheStats.Misses, W.RefKernels.size() - Successes)
      << "only uncached (failed-last-time) kernels may reach a slot";
}

TEST(PipelineStreamTest, TargetShortfallTrimsResultSlots) {
  // When MaxAttempts exhausts before the target, the streaming result
  // must trim to the accepted count and still match the phased path.
  Workload W = makeWorkload(/*TargetKernels=*/3);
  StreamingOptions Opts;
  Opts.Synthesis = W.Synthesis;
  Opts.Synthesis.TargetKernels = W.RefKernels.size() + 50;
  Opts.Synthesis.MaxAttempts = W.RefStats.Attempts; // Stop exactly there.
  Opts.Driver = W.Driver;
  Opts.MeasureWorkers = 2;
  auto Out = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  EXPECT_EQ(Out.Kernels.size(), Out.Measurements.size());
  ASSERT_EQ(Out.Kernels.size(), W.RefKernels.size());
  expectMatchesReference(W, Out, "target shortfall");
}

TEST(PipelineStreamTest, WarmStartLoadsPersistedKernelSetWithZeroSampling) {
  // The streaming-warm-start fix: a second request for the same
  // configuration must load the persisted kernel-set artifact instead
  // of re-sampling — byte-identical output, ZERO sampling performed.
  Workload W = makeWorkload(/*TargetKernels=*/3);
  ScratchDir Dir("clgen_stream_test_", "warm_start");
  StreamingOptions Opts;
  Opts.Synthesis = W.Synthesis;
  Opts.Driver = W.Driver;

  StreamingWarmInfo ColdInfo;
  auto Cold =
      W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &ColdInfo);
  expectMatchesReference(W, Cold, "cold or-load");
  EXPECT_FALSE(ColdInfo.Warm);
  EXPECT_TRUE(ColdInfo.Persisted);
  EXPECT_EQ(ColdInfo.LoadedKernels, 0u);
  EXPECT_NE(ColdInfo.KeyDigest, 0u);
  ASSERT_FALSE(ColdInfo.ArtifactPath.empty());
  EXPECT_TRUE(std::filesystem::exists(ColdInfo.ArtifactPath));

  // Warm: the counter proof that no sampling happened — the synthesis
  // engine is never constructed, so clgen.synthesis.attempts must not
  // move at all.
  uint64_t Before = attemptsCounter();
  StreamingWarmInfo WarmInfo;
  auto Warm =
      W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &WarmInfo);
  EXPECT_EQ(attemptsCounter(), Before)
      << "warm start drew samples; the fix regressed";
  expectMatchesReference(W, Warm, "warm or-load");
  EXPECT_TRUE(WarmInfo.Warm);
  EXPECT_FALSE(WarmInfo.Persisted);
  EXPECT_EQ(WarmInfo.LoadedKernels, W.RefKernels.size());
  EXPECT_EQ(WarmInfo.KeyDigest, ColdInfo.KeyDigest);
  EXPECT_EQ(WarmInfo.ArtifactPath, ColdInfo.ArtifactPath);
  // Stats replay the archived synthesis statistics (already covered by
  // the byte comparison; spelled out for the reader).
  EXPECT_EQ(Warm.Stats.Attempts, W.RefStats.Attempts);
}

TEST(PipelineStreamTest, WarmStartInteroperatesWithSynthesizeOrLoad) {
  // The two memoizing entry points share one key and one artifact file:
  // a set persisted by synthesizeOrLoad warm-starts the streaming path,
  // and a set persisted by the streaming path is a synthesizeOrLoad hit.
  Workload W = makeWorkload(/*TargetKernels=*/3);
  StreamingOptions Opts;
  Opts.Synthesis = W.Synthesis;
  Opts.Driver = W.Driver;

  {
    ScratchDir Dir("clgen_stream_test_", "interop_fwd");
    bool Loaded = true;
    auto SR = W.Pipeline->synthesizeOrLoad(Dir.str(), W.Synthesis, &Loaded);
    ASSERT_FALSE(Loaded);
    StreamingWarmInfo Info;
    auto Out =
        W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &Info);
    EXPECT_TRUE(Info.Warm) << "synthesizeOrLoad's artifact was not reused";
    EXPECT_EQ(Info.LoadedKernels, SR.Kernels.size());
    expectMatchesReference(W, Out, "warm off synthesizeOrLoad artifact");
  }
  {
    ScratchDir Dir("clgen_stream_test_", "interop_rev");
    StreamingWarmInfo Info;
    auto Out =
        W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &Info);
    ASSERT_TRUE(Info.Persisted);
    expectMatchesReference(W, Out, "cold streaming persist");
    bool Loaded = false;
    auto SR = W.Pipeline->synthesizeOrLoad(Dir.str(), W.Synthesis, &Loaded);
    EXPECT_TRUE(Loaded) << "streaming artifact was not a synthesizeOrLoad hit";
    EXPECT_EQ(resultBytes(SR.Kernels, SR.Stats, W.RefMeasurements),
              W.RefBytes);
  }
}

TEST(PipelineStreamTest, RefillRequestsNeverLoadOrPersist) {
  // RefillFailures makes the delivered set a function of measurement
  // outcomes, not synthesis options alone — incompatible with the
  // kernel-set artifact. Such requests must always sample: no load, no
  // persist, even when a warm artifact for the same key exists.
  Workload W = makeWorkload(/*TargetKernels=*/3);
  ScratchDir Dir("clgen_stream_test_", "refill_no_cache");
  StreamingOptions Opts;
  Opts.Synthesis = W.Synthesis;
  Opts.Driver = W.Driver;

  // Seed the store with a warm artifact for this exact configuration.
  StreamingWarmInfo SeedInfo;
  W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &SeedInfo);
  ASSERT_TRUE(SeedInfo.Persisted);

  Opts.RefillFailures = true;
  uint64_t Before = attemptsCounter();
  StreamingWarmInfo Info;
  auto Out =
      W.Pipeline->synthesizeAndMeasureOrLoad(Dir.str(), W.P, Opts, &Info);
  EXPECT_FALSE(Info.Warm) << "refill request consumed the artifact";
  EXPECT_FALSE(Info.Persisted) << "refill request persisted a kernel set";
  EXPECT_GT(attemptsCounter(), Before) << "refill request did not sample";
  // Exactly-once refill accounting still holds on this path.
  EXPECT_EQ(Out.Stats.Accepted, Out.Kernels.size() + Out.Excised.size());
}
