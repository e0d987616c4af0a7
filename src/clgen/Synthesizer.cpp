//===- clgen/Synthesizer.cpp - Benchmark synthesis loop -----------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parallel batched synthesis. Candidate generation (model sampling +
// rejection filter + normalisation) is a pure function of the candidate's
// attempt index: attempt i samples from the counter-keyed RNG stream
// split(i) on a per-worker model clone, so any number of workers computes
// the same candidate set. The accept stage then walks candidates in
// attempt order, which pins deduplication and the stop point; output is
// bit-identical across worker counts, including the serial path.
//
//===----------------------------------------------------------------------===//

#include "clgen/Synthesizer.h"

#include "corpus/Rewriter.h"
#include "ocl/AstPrinter.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <unordered_set>

using namespace clgen;
using namespace clgen::core;

namespace {

/// Outcome of one candidate attempt, produced on a worker.
struct Candidate {
  enum class Status { Incomplete, Rejected, Complete };
  Status S = Status::Incomplete;
  std::string Normalised;
  vm::CompiledKernel Kernel;
};

/// The per-attempt pipeline stage: sample -> filter -> normalise. Pure
/// given (model parameters, seed text, options, attempt index): attempt
/// i samples from RNG stream Base.split(i). Runs concurrently on
/// per-worker model clones. The "sample" span times the model alone;
/// the "filter" span times the rejection filter and normalisation.
Candidate produceCandidate(model::LanguageModel &Model,
                           const std::string &Seed,
                           const SampleOptions &Sampling,
                           const corpus::FilterOptions &FilterOpts,
                           const Rng &Base, size_t Attempt) {
  Candidate C;
  std::optional<std::string> Sample;
  { // Ends the "sample" span before the filter runs.
    CLGS_TRACE_SPAN_IDX("sample", Attempt);
    Rng R = Base.split(Attempt);
    Sample = sampleKernel(Model, Seed, Sampling, R);
  }
  if (!Sample)
    return C;
  CLGS_TRACE_SPAN_IDX("filter", Attempt);
  corpus::FilterResult FR = corpus::filterContentFile(*Sample, FilterOpts);
  if (!FR.Accepted) {
    C.S = Candidate::Status::Rejected;
    return C;
  }
  // Normalise (the sample is near-normal already, but renaming +
  // canonical printing makes deduplication exact) and keep the first
  // kernel.
  corpus::renameIdentifiers(*FR.Prog);
  C.Normalised = ocl::printProgram(*FR.Prog);
  C.Kernel = std::move(FR.Kernels.front());
  C.S = Candidate::Status::Complete;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// SynthesisEngine
//===----------------------------------------------------------------------===//

struct SynthesisEngine::Impl {
  model::LanguageModel &Model;
  SynthesisOptions Opts;
  Rng Base;
  std::string Seed;
  size_t MaxAttempts;
  corpus::FilterOptions FilterOpts;

  std::unordered_set<std::string> Dedup;
  std::vector<SynthesizedKernel> Kernels;
  SynthesisStats Stats;
  /// The sampling cursor: the first attempt index the accept stage has
  /// NOT consumed. Speculative wave surplus past a reached target is
  /// never counted here — the next extendTo() re-samples those attempts,
  /// and produceCandidate being pure per attempt index makes the re-run
  /// byte-identical to having consumed them the first time.
  size_t NextAttempt = 0;

  size_t Workers;
  /// One private model clone per worker, serial path included, so the
  /// caller's model is never mutated and may be shared across engines.
  /// Empty when the model cannot clone: it is then sampled in place.
  std::vector<std::unique_ptr<model::LanguageModel>> Clones;

  Impl(model::LanguageModel &M, const SynthesisOptions &O)
      : Model(M), Opts(O), Base(O.Seed),
        Seed(O.Spec ? O.Spec->seedText() : freeModeSeed()),
        MaxAttempts(O.MaxAttempts > 0 ? O.MaxAttempts
                                      : O.TargetKernels * 100),
        Workers(ThreadPool::resolveWorkerCount(O.Workers)) {
    // Samples are drawn from the normalised corpus distribution; the
    // shim is unnecessary (and injecting it would not hurt, only slow).
    FilterOpts.UseShim = false;
    for (size_t W = 0; W < Workers; ++W) {
      std::unique_ptr<model::LanguageModel> C = Model.clone();
      if (!C) {
        Clones.clear();
        Workers = 1; // Model not cloneable: sample it in place, serially.
        break;
      }
      Clones.push_back(std::move(C));
    }
  }

  /// In-order accept stage; returns false once \p CumTarget is reached.
  bool consume(Candidate &C, size_t CumTarget, const AcceptSink &Sink) {
    CLGS_TRACE_SPAN_IDX("accept", Stats.Attempts);
    ++Stats.Attempts;
    CLGS_COUNT("clgen.synthesis.attempts");
    switch (C.S) {
    case Candidate::Status::Incomplete:
      ++Stats.IncompleteSamples;
      CLGS_COUNT("clgen.synthesis.incomplete");
      return true;
    case Candidate::Status::Rejected:
      ++Stats.RejectedByFilter;
      CLGS_COUNT("clgen.synthesis.rejected");
      return true;
    case Candidate::Status::Complete:
      break;
    }
    if (!Dedup.insert(C.Normalised).second) {
      ++Stats.Duplicates;
      CLGS_COUNT("clgen.synthesis.duplicates");
      return true;
    }
    SynthesizedKernel SK;
    SK.Source = std::move(C.Normalised);
    SK.Kernel = std::move(C.Kernel);
    Kernels.push_back(std::move(SK));
    ++Stats.Accepted;
    CLGS_COUNT("clgen.synthesis.accepted");
    // Stream the accepted kernel out before sampling continues: the
    // sink runs on this (accept-order) thread and may block, pausing
    // synthesis until downstream consumers catch up.
    if (Sink)
      Sink(Kernels.size() - 1, Kernels.back());
    return Kernels.size() < CumTarget;
  }

  void extendTo(size_t CumTarget, const AcceptSink &Sink) {
    if (Workers == 1) {
      model::LanguageModel &Sampled = Clones.empty() ? Model : *Clones[0];
      while (Kernels.size() < CumTarget && NextAttempt < MaxAttempts) {
        Candidate C = produceCandidate(Sampled, Seed, Opts.Sampling,
                                       FilterOpts, Base, NextAttempt);
        ++NextAttempt;
        if (!consume(C, CumTarget, Sink))
          break;
      }
      return;
    }

    ThreadPool Pool(Workers);
    size_t WaveSize = Opts.WaveSize > 0
                          ? Opts.WaveSize
                          : std::max<size_t>(Workers * 4, 16);
    std::vector<Candidate> Wave;

    while (Kernels.size() < CumTarget && NextAttempt < MaxAttempts) {
      size_t Count = std::min(WaveSize, MaxAttempts - NextAttempt);
      Wave.clear();
      Wave.resize(Count);
      Pool.parallelFor(0, Count, [&](size_t Worker, size_t I) {
        Wave[I] = produceCandidate(*Clones[Worker], Seed, Opts.Sampling,
                                   FilterOpts, Base, NextAttempt + I);
      });
      // Candidates past the stop point are speculative surplus: dropped
      // without touching the stats or the cursor, exactly as if they
      // were never sampled — a later extendTo() regenerates them.
      bool Done = false;
      size_t Consumed = 0;
      for (size_t I = 0; I < Count && !Done; ++I) {
        Done = !consume(Wave[I], CumTarget, Sink);
        Consumed = I + 1;
      }
      NextAttempt += Consumed;
      if (Done)
        break;
    }
  }
};

SynthesisEngine::SynthesisEngine(model::LanguageModel &Model,
                                 const SynthesisOptions &Opts)
    : P(std::make_unique<Impl>(Model, Opts)) {}

SynthesisEngine::~SynthesisEngine() = default;

size_t SynthesisEngine::extendTo(size_t CumTarget, const AcceptSink &Sink) {
  P->extendTo(CumTarget, Sink);
  return P->Kernels.size();
}

bool SynthesisEngine::exhausted() const {
  return P->NextAttempt >= P->MaxAttempts;
}

const SynthesisStats &SynthesisEngine::stats() const { return P->Stats; }

const std::vector<SynthesizedKernel> &SynthesisEngine::kernels() const {
  return P->Kernels;
}

std::vector<SynthesizedKernel> SynthesisEngine::takeKernels() {
  return std::move(P->Kernels);
}

//===----------------------------------------------------------------------===//
// One-shot wrappers
//===----------------------------------------------------------------------===//

SynthesisResult core::synthesizeKernels(model::LanguageModel &Model,
                                        const SynthesisOptions &Opts) {
  return synthesizeKernels(Model, Opts, AcceptSink());
}

SynthesisResult core::synthesizeKernels(model::LanguageModel &Model,
                                        const SynthesisOptions &Opts,
                                        const AcceptSink &Sink) {
  SynthesisEngine Eng(Model, Opts);
  Eng.extendTo(Opts.TargetKernels, Sink);
  SynthesisResult Result;
  Result.Stats = Eng.stats();
  Result.Kernels = Eng.takeKernels();
  return Result;
}
