//===- clgen/Synthesizer.h - Benchmark synthesis loop ------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesis loop of section 4.3: repeatedly sample the language
/// model, pass each candidate through the same rejection filter used for
/// corpus assembly, normalise and deduplicate survivors. The result is
/// an unbounded stream of compilable synthetic benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_CLGEN_SYNTHESIZER_H
#define CLGEN_CLGEN_SYNTHESIZER_H

#include "clgen/Sampler.h"
#include "corpus/RejectionFilter.h"
#include "vm/Bytecode.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace clgen {
namespace core {

struct SynthesisOptions {
  /// Stop after this many accepted, unique kernels.
  size_t TargetKernels = 100;
  /// Give up after this many raw samples (0 = 100x target).
  size_t MaxAttempts = 0;
  /// Argument specification; nullopt = free mode.
  std::optional<ArgSpec> Spec = ArgSpec::figure6();
  SampleOptions Sampling;
  uint64_t Seed = 0xC17E9;
  /// Worker threads sampling + filtering candidates (1 = serial in the
  /// calling thread, 0 = hardware concurrency). Results are bit-identical
  /// for every worker count: each candidate attempt draws from its own
  /// counter-keyed RNG stream (Rng::split of the attempt index) and the
  /// accept/dedupe stage consumes candidates in attempt order, so
  /// scheduling can never reorder outputs. Every worker, the serial one
  /// included, samples a private clone(), so engines may share one
  /// model across threads. A model that cannot clone is sampled
  /// serially and in place; such a model must not be shared.
  unsigned Workers = 1;
  /// Candidate attempts dispatched per parallel wave (0 = auto). Larger
  /// waves amortise fan-out overhead but speculate further past the
  /// target; speculative surplus is discarded, never counted.
  size_t WaveSize = 0;
};

struct SynthesizedKernel {
  /// Normalised source text.
  std::string Source;
  vm::CompiledKernel Kernel;
};

struct SynthesisStats {
  size_t Attempts = 0;
  size_t IncompleteSamples = 0; // Length cap / premature end-of-text.
  size_t RejectedByFilter = 0;
  size_t Duplicates = 0;
  size_t Accepted = 0;

  double acceptanceRate() const {
    return Attempts == 0
               ? 0.0
               : static_cast<double>(Accepted) /
                     static_cast<double>(Attempts);
  }
};

struct SynthesisResult {
  std::vector<SynthesizedKernel> Kernels;
  SynthesisStats Stats;
};

/// Runs the sample -> filter -> normalise -> dedupe loop against
/// \p Model.
SynthesisResult synthesizeKernels(model::LanguageModel &Model,
                                  const SynthesisOptions &Opts);

/// Called once per accepted kernel, in accept order (kernel 0 first),
/// from the accept stage's thread. \p AcceptIndex is the kernel's
/// position in the final SynthesisResult::Kernels vector. The sink may
/// block (e.g. on a bounded channel); synthesis pauses with it, which
/// is exactly the back-pressure contract of the streaming pipeline.
using AcceptSink =
    std::function<void(size_t AcceptIndex, const SynthesizedKernel &)>;

/// The synthesis loop as a resumable object: the sampling cursor, the
/// dedup set and the stats survive between calls, so a caller that
/// discovers too late that some accepted kernels were unusable (e.g.
/// they failed measurement) can ask for replacements — and gets exactly
/// the kernels a single larger run would have produced, because
/// candidate generation is a pure function of the attempt index and the
/// accept stage consumes attempts in order. synthesizeKernels() is a
/// thin wrapper over one extendTo() call; the refill loop in
/// core::synthesizeAndMeasure makes several.
///
/// Not thread-safe; one engine serves one synthesis stream.
class SynthesisEngine {
public:
  /// \p Model must outlive the engine. Opts.TargetKernels is ignored —
  /// targets are per extendTo() call; everything else (seed, sampling,
  /// workers, MaxAttempts) binds at construction.
  SynthesisEngine(model::LanguageModel &Model, const SynthesisOptions &Opts);
  ~SynthesisEngine();
  SynthesisEngine(const SynthesisEngine &) = delete;
  SynthesisEngine &operator=(const SynthesisEngine &) = delete;

  /// Grows the accepted-kernel set to \p CumTarget kernels (cumulative,
  /// not incremental — extendTo(N) is idempotent once N is reached),
  /// streaming each NEW accept through \p Sink in accept order. Returns
  /// the number of kernels accepted so far; less than \p CumTarget only
  /// when the attempt budget ran dry (exhausted()).
  size_t extendTo(size_t CumTarget, const AcceptSink &Sink = AcceptSink());

  /// True once the attempt budget (MaxAttempts) is spent; further
  /// extendTo() calls cannot make progress.
  bool exhausted() const;

  const SynthesisStats &stats() const;
  const std::vector<SynthesizedKernel> &kernels() const;
  /// Moves the accepted kernels out (the engine keeps its stats and
  /// cursor, but kernels() is empty afterwards — call last).
  std::vector<SynthesizedKernel> takeKernels();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace core
} // namespace clgen

#endif // CLGEN_CLGEN_SYNTHESIZER_H
