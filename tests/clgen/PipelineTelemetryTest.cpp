//===- tests/clgen/PipelineTelemetryTest.cpp - telemetry invariance tests -----===//
//
// The telemetry engine's two pipeline-level contracts:
//
//  1. Observation never perturbs determinism — the streaming pipeline's
//     output (kernel sources and measurement bytes) is byte-identical
//     with tracing on vs off, across worker counts.
//  2. The artifacts are faithful: one trace span per kernel lifecycle
//     stage (sample → accept → enqueue → measure → cache/ledger write),
//     and the Stable subset of the metrics exposition is byte-identical
//     across identical runs.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "../TestUtil.h"
#include "githubsim/GithubSim.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::core;
using testutil::counterValue;
using testutil::ScratchDir;

namespace {

std::vector<uint8_t> measurementBytes(const Result<runtime::Measurement> &M) {
  store::ArchiveWriter W(store::ArchiveKind::Measurement);
  W.writeBool(M.ok());
  if (M.ok())
    store::serializeMeasurement(W, M.get());
  else
    W.writeString(M.errorMessage());
  return W.finalize();
}

struct Workload {
  std::unique_ptr<ClgenPipeline> Pipeline;
  StreamingOptions Opts;
  runtime::Platform P = runtime::amdPlatform();
};

/// A small streaming workload whose model synthesizes some kernels
/// that fail deterministically at measurement time (out-of-bounds), so
/// a ledger-backed run records real failures.
Workload makeWorkload(size_t TargetKernels) {
  Workload W;
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  W.Pipeline =
      std::make_unique<ClgenPipeline>(ClgenPipeline::train(Files, POpts));
  W.Opts.Synthesis.TargetKernels = TargetKernels;
  W.Opts.Synthesis.MaxAttempts = 20000;
  W.Opts.Driver.GlobalSize = 2048;
  W.Opts.MeasureWorkers = 2;
  return W;
}

void expectSameOutput(const StreamingResult &A, const StreamingResult &B) {
  ASSERT_EQ(A.Kernels.size(), B.Kernels.size());
  ASSERT_EQ(A.Measurements.size(), B.Measurements.size());
  for (size_t I = 0; I < A.Kernels.size(); ++I)
    EXPECT_EQ(A.Kernels[I].Source, B.Kernels[I].Source) << "kernel " << I;
  for (size_t I = 0; I < A.Measurements.size(); ++I)
    EXPECT_EQ(measurementBytes(A.Measurements[I]),
              measurementBytes(B.Measurements[I]))
        << "measurement " << I;
}

} // namespace

TEST(PipelineTelemetryTest, TracingOnOffByteIdentity) {
  Workload W = makeWorkload(/*TargetKernels=*/6);

  // Reference: telemetry passive (no trace session), 2 workers.
  StreamingResult Ref = W.Pipeline->synthesizeAndMeasure(W.P, W.Opts);
  ASSERT_GT(Ref.Kernels.size(), 0u);

  // Traced run, different worker count: both knobs must be inert.
  StreamingOptions Traced = W.Opts;
  Traced.MeasureWorkers = 4;
  support::Trace::start();
  StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, Traced);
  support::Trace::stop();

  expectSameOutput(Ref, Out);
  EXPECT_GT(support::Trace::eventCount(), 0u)
      << "the traced run must actually have recorded spans";
}

TEST(PipelineTelemetryTest, TraceCoversEveryLifecycleStage) {
  Workload W = makeWorkload(/*TargetKernels=*/6);
  ScratchDir Dir("clgen_telemetry_test_", "lifecycle");
  store::ResultCache Cache(Dir.str() + "/results");
  store::FailureLedger Ledger(Dir.str() + "/failures");
  W.Opts.Cache = &Cache;
  W.Opts.Ledger = &Ledger;

  uint64_t RecordsBefore = counterValue("clgen.ledger.records");
  support::Trace::start();
  StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, W.Opts);
  support::Trace::stop();
  ASSERT_GT(Out.Kernels.size(), 0u);
  ASSERT_GT(counterValue("clgen.ledger.records") - RecordsBefore, 0u)
      << "workload produced no deterministic failures; the ledger.write "
         "coverage is vacuous";

  std::string Json = support::Trace::renderJson();
  for (const char *Stage : {"\"name\":\"sample\"", "\"name\":\"filter\"",
                            "\"name\":\"accept\"", "\"name\":\"enqueue\"",
                            "\"name\":\"measure\"",
                            "\"name\":\"cache.write\"",
                            "\"name\":\"ledger.write\""})
    EXPECT_NE(Json.find(Stage), std::string::npos)
        << "missing lifecycle stage " << Stage;
}

TEST(PipelineTelemetryTest, StableExpositionIsByteStableAcrossRuns) {
  Workload W = makeWorkload(/*TargetKernels=*/5);

  auto RunOnce = [&](const std::string &Tag) {
    ScratchDir Dir("clgen_telemetry_test_", "expo_" + Tag);
    store::ResultCache Cache(Dir.str() + "/results");
    store::FailureLedger Ledger(Dir.str() + "/failures");
    StreamingOptions Opts = W.Opts;
    Opts.Cache = &Cache;
    Opts.Ledger = &Ledger;
    support::MetricsRegistry::reset();
    StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
    EXPECT_GT(Out.Kernels.size(), 0u);
    return support::MetricsRegistry::renderText({.SkipVolatile = true});
  };

  std::string First = RunOnce("a");
  std::string Second = RunOnce("b");
  EXPECT_EQ(First, Second)
      << "the Stable metric subset must be a pure function of the "
         "workload";
  EXPECT_NE(First.find("clgen.synthesis.accepted"), std::string::npos)
      << First;
  EXPECT_NE(First.find("clgen.measure.misses"), std::string::npos) << First;
  // Volatile timing metrics must not leak into the stable view.
  EXPECT_EQ(First.find("clgen.driver.measure_us"), std::string::npos)
      << First;
}

TEST(PipelineTelemetryTest, CacheCountersMirrorBatchTally) {
  // The unified clgen.measure.* counters: a cold run is all misses, a
  // warm rerun of the same store is all hits — and the registry deltas
  // must agree with the per-call BatchCacheStats.
  Workload W = makeWorkload(/*TargetKernels=*/5);
  ScratchDir Dir("clgen_telemetry_test_", "tally");
  store::ResultCache Cache(Dir.str() + "/results");
  W.Opts.Cache = &Cache;

  support::MetricsRegistry::reset();
  StreamingResult Cold = W.Pipeline->synthesizeAndMeasure(W.P, W.Opts);
  const support::Counter *Hits =
      support::MetricsRegistry::findCounter("clgen.measure.cache_hits");
  const support::Counter *Misses =
      support::MetricsRegistry::findCounter("clgen.measure.misses");
  ASSERT_NE(Misses, nullptr);
  EXPECT_EQ(Misses->value(), Cold.CacheStats.Misses);
  EXPECT_EQ(Hits ? Hits->value() : 0, Cold.CacheStats.Hits);

  support::MetricsRegistry::reset();
  StreamingResult Warm = W.Pipeline->synthesizeAndMeasure(W.P, W.Opts);
  expectSameOutput(Cold, Warm);
  Hits = support::MetricsRegistry::findCounter("clgen.measure.cache_hits");
  ASSERT_NE(Hits, nullptr);
  EXPECT_EQ(Hits->value(), Warm.CacheStats.Hits);
  EXPECT_GT(Warm.CacheStats.Hits, 0u);
}
