//===- clbench/Replay.h - single-thread traced replays -----------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replay of the synthesis -> measurement stream: the
/// same public calls the engine makes (core::sampleKernel,
/// corpus::filterContentFile, runtime::runBenchmarkWithRetry and the
/// store probes), made one at a time on one thread with a span around
/// each, so every layer's time and work can be read off the spans. The
/// replay must reproduce the engine's output and counts exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CLBENCH_REPLAY_H
#define CLBENCH_REPLAY_H

#include "Common.h"

#include "model/NGramModel.h"
#include "runtime/Device.h"

namespace clbench {

/// Exact work counts the replays accumulate, by layer.
struct Tally {
  // model / corpus / clgen
  uint64_t SampleChars = 0;
  uint64_t FilterCalls = 0;
  std::map<std::string, uint64_t> Rejects; // By rejection reason.
  clgen::core::SynthesisStats Synth;       // Summed over streams.
  uint64_t Normalised = 0;
  // ocl / vm (timed on the same candidates)
  uint64_t FrontendCalls = 0;
  uint64_t Compiles = 0;
  // runtime / vm
  uint64_t Measured = 0;
  uint64_t Launches = 0; // Measurement attempts, retries included.
  uint64_t Retries = 0;
  uint64_t Instructions = 0; // Retired by measurements made here.
  std::map<std::string, uint64_t> Traps; // Over delivered rows.
  // store
  uint64_t Reads = 0, ReadBytes = 0;
  uint64_t CacheHits = 0, LedgerHits = 0, Misses = 0;
  uint64_t Writes = 0, WriteBytes = 0;
};

/// What one replayed stream delivered, shaped like StreamingResult.
struct StreamReplay {
  std::vector<clgen::core::SynthesizedKernel> Kernels;
  std::vector<clgen::Result<clgen::runtime::Measurement>> Rows;
  size_t Excised = 0;
  clgen::core::SynthesisStats Stats;
};

/// Replays core::synthesizeAndMeasure(Model, P, SO) on one thread,
/// probing SO.Cache / SO.Ledger exactly as the engine does and honouring
/// RefillFailures.
StreamReplay replayStream(Tracer &T, clgen::model::LanguageModel &Model,
                          const clgen::runtime::Platform &P,
                          const clgen::core::StreamingOptions &SO,
                          Tally &C);

/// The traced set-up of a synthesis workload: mine \p Files githubsim
/// files, ingest them on one thread and train an n-gram model of
/// \p Order, each in its span. Records the githubsim, corpus and
/// training counts in \p R.
std::unique_ptr<clgen::model::NGramModel> replaySetup(Tracer &T, Report &R,
                                                      size_t Files, int Order);

/// Size of a file in bytes (0 when missing).
uint64_t fileBytes(const std::string &Path);

/// Per-layer metrics every traced run reports (zero where a layer is off
/// the workload's path), computed from the spans and the tally.
void layerMetrics(Report &R, const Tracer &T, const Tally &C);

/// The exact counts of \p C, named as the per-layer metrics.
Counts tallyCounts(const Tally &C);

} // namespace clbench

#endif // CLBENCH_REPLAY_H
