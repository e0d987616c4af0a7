//===- clbench/Synth.cpp - the synth_cold workload ------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// synth_cold is the researcher's batch job: train on a fresh store, then
// stream 40-kernel seeds cold through synthesizeAndMeasureOrLoad with the
// result cache and failure ledger attached. One sampling thread and one
// measurement thread: with two of each the same work spread twice as
// widely across runs.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

using namespace clgen;

namespace clbench {

namespace {

/// Seeds of the traced run: the first seeds of each untraced pass.
constexpr size_t TracedSeeds = 3;
/// Fresh stores set up per run, one per timed pass at most; each set-up
/// is one setup_s sample.
constexpr size_t SynthPasses = 6;

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

/// Trains (or fails) into a fresh store, as synth_cold's setup does.
Result<core::ClgenPipeline> freshPipeline(const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  core::TrainOrLoadInfo Info;
  auto P = core::ClgenPipeline::trainOrLoad(Dir, minedFiles(),
                                            pipelineOptions(), &Info);
  if (P.ok() && Info.LoadedModel)
    return Result<core::ClgenPipeline>::error("fresh store loaded a model");
  return P;
}

/// Checks one seed's delivered kernels and rows against the recorded
/// pool entry; returns the mismatch, or an empty string.
std::string
mismatch(const PoolEntry &Ref,
         const std::vector<core::SynthesizedKernel> &Kernels,
         const std::vector<Result<runtime::Measurement>> &Rows) {
  if (kernelDigest(Kernels) != Ref.Kernels)
    return "kernel digest " + hex(kernelDigest(Kernels)) + " != recorded " +
           hex(Ref.Kernels);
  if (rowsDigest(Rows) != Ref.Rows)
    return "row digest " + hex(rowsDigest(Rows)) + " != recorded " +
           hex(Ref.Rows);
  if (trapSummary(Rows) != Ref.Traps)
    return "traps " + trapSummary(Rows) + " != recorded " + Ref.Traps;
  return "";
}

bool sameStats(const core::SynthesisStats &A, const core::SynthesisStats &B) {
  return A.Attempts == B.Attempts &&
         A.IncompleteSamples == B.IncompleteSamples &&
         A.RejectedByFilter == B.RejectedByFilter &&
         A.Duplicates == B.Duplicates && A.Accepted == B.Accepted;
}

uint64_t deliveredInstructions(
    const std::vector<Result<runtime::Measurement>> &Rows) {
  uint64_t N = 0;
  for (const Result<runtime::Measurement> &M : Rows)
    if (M.ok())
      N += M.get().Counters.Instructions;
  return N;
}

} // namespace

Report runSynthCold(const RunArgs &A) {
  Report R;
  const runtime::Platform P = runtime::amdPlatform();

  // Setup on fresh stores; each store serves one timed pass.
  std::vector<double> Setups;
  std::vector<core::ClgenPipeline> Pipes;
  std::vector<std::string> Stores;
  for (size_t K = 0; K < SynthPasses; ++K) {
    std::string Dir = A.Work + "/synth-" + std::to_string(K);
    Clock::time_point T0 = Clock::now();
    Result<core::ClgenPipeline> Fresh = freshPipeline(Dir);
    Setups.push_back(secondsSince(T0));
    R.check(Fresh.ok(), "setup: " + (Fresh.ok() ? "" : Fresh.errorMessage()));
    if (!Fresh.ok())
      return R;
    Pipes.push_back(Fresh.take());
    Stores.push_back(Dir);
  }

  size_t Kernels = 0;
  auto RunSeed = [&](size_t Pass, size_t I) -> double {
    const PoolEntry &Ref = A.Ref.Pool[I];
    store::ResultCache Cache(Stores[Pass] + "/results");
    store::FailureLedger Ledger(Stores[Pass] + "/failures");
    core::StreamingOptions SO = streamingOptions(Ref.Seed);
    SO.Cache = &Cache;
    SO.Ledger = &Ledger;
    core::StreamingWarmInfo Info;
    Clock::time_point T0 = Clock::now();
    core::StreamingResult Out =
        Pipes[Pass].synthesizeAndMeasureOrLoad(Stores[Pass], P, SO, &Info);
    double Ms = secondsSince(T0) * 1e3;
    std::string Why = Info.Warm ? std::string("seed served warm")
                                : mismatch(Ref, Out.Kernels, Out.Measurements);
    R.check(Why.empty(), "seed " + hex(Ref.Seed) + ": " + Why);
    if (Why.empty())
      Kernels += Out.Kernels.size();
    return Ms;
  };

  // Warm-up: one seed outside the timed set, so first-use costs stay
  // out of the timing.
  RunSeed(0, FirstFresh);
  Kernels = 0;

  // Whole passes over the same seeds, each on a fresh store, so every
  // run streams the same work; the run seed only orders it.
  std::vector<double> Lat;
  size_t Passes = 0;
  Clock::time_point T0 = Clock::now();
  while (Passes < Pipes.size() &&
         (Passes == 0 || secondsSince(T0) < A.Seconds)) {
    for (size_t K = 0; K < SynthSeeds; ++K)
      Lat.push_back(RunSeed(Passes, rotated(A.Seed, K, SynthSeeds)));
    ++Passes;
  }
  double Elapsed = secondsSince(T0);

  Latency L = summarize(Lat);
  R.metric("setup_s", median(Setups), "s");
  R.metric("kernels_per_s", static_cast<double>(Kernels) / Elapsed,
           "kernels/s");
  R.metric("latency_p50_ms", L.P50, "ms");
  R.metric("latency_p90_ms", L.P90, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  char Buf[160];
  R.line(describeSetup(Setups, "mine 400 files + trainOrLoad on a fresh store"));
  std::snprintf(Buf, sizeof Buf,
                "kernels_per_s: %zu checked kernels from %zu seeds (%zu "
                "passes) in %.3f s",
                Kernels, Lat.size(), Passes, Elapsed);
  R.line(Buf);
  R.line(describeLatency("seed latency (one cold 40-kernel seed)", L));
  return R;
}

Report traceSynthCold(const RunArgs &A) {
  Report R;
  const runtime::Platform P = runtime::amdPlatform();
  std::vector<size_t> Seeds;
  for (size_t K = 0; K < TracedSeeds; ++K)
    Seeds.push_back(rotated(A.Seed, K, SynthSeeds));

  // Untraced: the engine on the same inputs, for its own counts and the
  // tracing overhead.
  Clock::time_point U0 = Clock::now();
  std::string UStore = A.Work + "/untraced";
  Result<core::ClgenPipeline> Engine = freshPipeline(UStore);
  R.check(Engine.ok(), "untraced setup failed");
  if (!Engine.ok())
    return R;
  std::vector<core::StreamingResult> EngineOut;
  {
    store::ResultCache Cache(UStore + "/results");
    store::FailureLedger Ledger(UStore + "/failures");
    for (size_t I : Seeds) {
      core::StreamingOptions SO = streamingOptions(A.Ref.Pool[I].Seed);
      SO.Cache = &Cache;
      SO.Ledger = &Ledger;
      EngineOut.push_back(
          Engine.get().synthesizeAndMeasureOrLoad(UStore, P, SO));
    }
  }
  double Untraced = secondsSince(U0);

  // Traced replay on one thread.
  Tracer T;
  Tally C;
  std::string VStore = A.Work + "/traced";
  std::filesystem::create_directories(VStore);
  Clock::time_point V0 = Clock::now();
  std::unique_ptr<model::NGramModel> Model =
      replaySetup(T, R, CorpusFiles, NGramOrder);
  std::string ModelPath = VStore + "/model.clgs";
  {
    SpanScope S(&T, "store", "store::saveModel");
    (void)store::saveModel(ModelPath, *Model);
  }
  ++C.Writes;
  C.WriteBytes += fileBytes(ModelPath);
  std::vector<StreamReplay> Replays;
  {
    store::ResultCache Cache(VStore + "/results");
    store::FailureLedger Ledger(VStore + "/failures");
    for (size_t I : Seeds) {
      core::StreamingOptions SO = streamingOptions(A.Ref.Pool[I].Seed);
      SO.Cache = &Cache;
      SO.Ledger = &Ledger;
      Replays.push_back(replayStream(T, *Model, P, SO, C));
    }
  }
  double Traced = secondsSince(V0);

  // The replay must deliver the recorded outputs and the engine's counts.
  runtime::BatchCacheStats EngineCache;
  for (size_t K = 0; K < Seeds.size(); ++K) {
    const PoolEntry &Ref = A.Ref.Pool[Seeds[K]];
    const core::StreamingResult &E = EngineOut[K];
    const StreamReplay &Rp = Replays[K];
    std::string Why = mismatch(Ref, E.Kernels, E.Measurements);
    R.check(Why.empty(), "engine seed " + hex(Ref.Seed) + ": " + Why);
    Why = mismatch(Ref, Rp.Kernels, Rp.Rows);
    R.check(Why.empty(), "replay seed " + hex(Ref.Seed) + ": " + Why);
    R.check(sameStats(E.Stats, Rp.Stats),
            "replay SynthesisStats differ from the engine's for seed " +
                hex(Ref.Seed));
    R.check(deliveredInstructions(E.Measurements) ==
                deliveredInstructions(Rp.Rows),
            "replay ExecCounters.Instructions differ for seed " +
                hex(Ref.Seed));
    EngineCache.Hits += E.CacheStats.Hits;
    EngineCache.Misses += E.CacheStats.Misses;
    EngineCache.LedgerHits += E.CacheStats.LedgerHits;
  }
  R.check(EngineCache.Hits == C.CacheHits &&
              EngineCache.Misses == C.Misses &&
              EngineCache.LedgerHits == C.LedgerHits,
          "replay store hits/misses differ from the engine's CacheStats");

  // The storeless phased path must reproduce the same digests.
  for (size_t I : Seeds) {
    const PoolEntry &Ref = A.Ref.Pool[I];
    core::StreamingOptions SO = streamingOptions(Ref.Seed);
    core::SynthesisResult SR = Engine.get().synthesize(SO.Synthesis);
    std::vector<vm::CompiledKernel> Compiled;
    for (const core::SynthesizedKernel &K : SR.Kernels)
      Compiled.push_back(K.Kernel);
    auto Rows = runtime::runBenchmarkBatch(Compiled, P, SO.Driver, 1);
    std::string Why = mismatch(Ref, SR.Kernels, Rows);
    R.check(Why.empty(), "phased path seed " + hex(Ref.Seed) + ": " + Why);
  }

  R.metric("model.archive_bytes", static_cast<double>(fileBytes(ModelPath)),
           "bytes");
  layerMetrics(R, T, C);
  R.metric("trace.untraced_s", Untraced, "s");
  R.metric("trace.traced_s", Traced, "s");
  R.metric("trace.overhead_pct", (Traced / Untraced - 1.0) * 100.0, "%");
  R.line("traced run: setup + " + std::to_string(Seeds.size()) +
         " seeds replayed on one thread; the untraced engine did the same "
         "work with 1 sampling + 1 measuring thread");
  R.TraceJson = T.renderJson();
  return R;
}

int recordPool() {
  const runtime::Platform P = runtime::amdPlatform();
  core::ClgenPipeline Pipe =
      core::ClgenPipeline::train(minedFiles(), pipelineOptions());
  int Status = 0;
  std::printf("# pool <index> <seed> <kernel digest> <row digest> <trap "
              "kinds>\n");
  for (size_t I = 0; I < PoolSize; ++I) {
    core::StreamingOptions SO = streamingOptions(poolSeed(I));
    SO.Synthesis.Workers = 3;
    core::StreamingResult Out = Pipe.synthesizeAndMeasure(P, SO);
    core::SynthesisResult SR = Pipe.synthesize(SO.Synthesis);
    std::vector<vm::CompiledKernel> Compiled;
    for (const core::SynthesizedKernel &K : SR.Kernels)
      Compiled.push_back(K.Kernel);
    auto Rows = runtime::runBenchmarkBatch(Compiled, P, SO.Driver, 4);
    PoolEntry E{poolSeed(I), kernelDigest(Out.Kernels),
                rowsDigest(Out.Measurements), trapSummary(Out.Measurements)};
    if (!mismatch(E, SR.Kernels, Rows).empty() ||
        Out.Kernels.size() != KernelsPerSeed) {
      std::fprintf(stderr, "pool seed %zu: phased and streaming disagree\n",
                   I);
      Status = 1;
    }
    std::printf("pool %zu %s %s %s %s\n", I, hex(E.Seed).c_str(),
                hex(E.Kernels).c_str(), hex(E.Rows).c_str(), E.Traps.c_str());
    std::fprintf(stderr,
                 "pool %zu: attempts %zu incomplete %zu rejected %zu "
                 "duplicates %zu accepted %zu\n",
                 I, Out.Stats.Attempts, Out.Stats.IncompleteSamples,
                 Out.Stats.RejectedByFilter, Out.Stats.Duplicates,
                 Out.Stats.Accepted);
  }
  std::printf("# experiment <digest of the golden experiment's "
              "observations>\nexperiment %s\n",
              hex(goldenObservationDigest()).c_str());
  return Status;
}

} // namespace clbench
