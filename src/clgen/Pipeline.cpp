//===- clgen/Pipeline.cpp - End-to-end CLgen pipeline -------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/Lock.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"
#include "support/Channel.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

using namespace clgen;
using namespace clgen::core;

ClgenPipeline
ClgenPipeline::train(const std::vector<corpus::ContentFile> &Files,
                     const PipelineOptions &Opts) {
  ClgenPipeline P;
  P.TrainingCorpus = corpus::buildCorpus(Files, Opts.Corpus);
  switch (Opts.Backend) {
  case ModelBackend::NGram: {
    auto M = std::make_unique<model::NGramModel>(Opts.NGram);
    M->train(P.TrainingCorpus.Entries);
    P.Model = std::move(M);
    break;
  }
  case ModelBackend::Lstm: {
    auto M = std::make_unique<model::LstmModel>(Opts.Lstm);
    M->train(P.TrainingCorpus.Entries, Opts.Train);
    P.Model = std::move(M);
    break;
  }
  }
  return P;
}

SynthesisResult ClgenPipeline::synthesize(const SynthesisOptions &Opts) {
  return synthesizeKernels(*Model, Opts);
}

namespace {

/// Deserializes a persisted kernel-set artifact (stats + verified
/// kernels). nullopt on any corruption — callers re-synthesize and
/// overwrite.
std::optional<SynthesisResult> loadSynthesisArtifact(const std::string &Path) {
  auto Opened = store::ArchiveReader::open(Path,
                                           store::ArchiveKind::Synthesis);
  if (!Opened.ok())
    return std::nullopt;
  store::ArchiveReader R = Opened.take();
  SynthesisResult Out;
  Out.Stats.Attempts = R.readU64();
  Out.Stats.IncompleteSamples = R.readU64();
  Out.Stats.RejectedByFilter = R.readU64();
  Out.Stats.Duplicates = R.readU64();
  Out.Stats.Accepted = R.readU64();
  uint64_t KernelCount = R.readU64();
  for (uint64_t I = 0; I < KernelCount && R.ok(); ++I) {
    SynthesizedKernel K;
    K.Source = R.readString();
    K.Kernel = store::deserializeCompiledKernel(R);
    // The checksum authenticates bytes, not semantics: reject any
    // archive whose bytecode would not pass the compiler's own
    // invariants before it can reach the interpreter.
    if (R.ok() && !vm::verifyKernel(K.Kernel).empty())
      R.fail("stored kernel fails bytecode verification: " +
             vm::verifyKernel(K.Kernel));
    Out.Kernels.push_back(std::move(K));
  }
  if (!R.finish().ok())
    return std::nullopt; // Corrupt: re-synthesize and overwrite.
  return Out;
}

/// Persists a kernel-set artifact. Best-effort: a failed write just
/// stays cold.
void saveSynthesisArtifact(const std::string &Path,
                           const SynthesisResult &Out) {
  store::ArchiveWriter W(store::ArchiveKind::Synthesis);
  W.writeU64(Out.Stats.Attempts);
  W.writeU64(Out.Stats.IncompleteSamples);
  W.writeU64(Out.Stats.RejectedByFilter);
  W.writeU64(Out.Stats.Duplicates);
  W.writeU64(Out.Stats.Accepted);
  W.writeU64(Out.Kernels.size());
  for (const SynthesizedKernel &K : Out.Kernels) {
    W.writeString(K.Source);
    store::serializeCompiledKernel(W, K.Kernel);
  }
  (void)W.saveTo(Path);
}

/// Where the kernel-set artifact of \p KeyDigest lives under \p CacheDir
/// (created on demand).
std::string synthesisArtifactPath(const std::string &CacheDir,
                                  uint64_t KeyDigest) {
  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  return CacheDir + "/synthesis-" + store::hexDigest(KeyDigest) + ".clgs";
}

/// The warm-start probe of both memoizing entry points. The first probe
/// is lock-free, so warm stores never touch a lock file. A miss takes
/// the advisory "synthesis" lock of \p KeyDigest and re-probes once it
/// is held, even when it was uncontended: a racer may have published
/// and released since the first probe, and holders publish before
/// releasing, so concurrent cold runs of one configuration sample
/// exactly once. On a miss \p Lock stays held until the caller has
/// sampled and published. A lock failure or timeout degrades to
/// duplicated work, never an error: every writer publishes via atomic
/// rename.
std::optional<SynthesisResult>
probeSynthesisArtifact(const std::string &CacheDir, const std::string &Path,
                       uint64_t KeyDigest, store::ScopedLock &Lock) {
  if (auto Hit = loadSynthesisArtifact(Path))
    return Hit;
  Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(CacheDir, "synthesis", KeyDigest));
  if (Lock.held())
    return loadSynthesisArtifact(Path);
  return std::nullopt;
}

/// A stored kernel set as the producer of the measurement stage: it
/// hands the loaded kernels over in accept order and samples nothing.
/// It has the SynthesisEngine members streamAndMeasure uses. The set
/// was stored under the same synthesis options, so the first round
/// delivers all of it.
class LoadedKernels {
public:
  explicit LoadedKernels(SynthesisResult Loaded) : Set(std::move(Loaded)) {}

  void extendTo(size_t /*CumTarget*/, const AcceptSink &Sink) {
    for (; Next < Set.Kernels.size(); ++Next)
      Sink(Next, Set.Kernels[Next]);
  }
  bool exhausted() const { return Next >= Set.Kernels.size(); }
  const SynthesisStats &stats() const { return Set.Stats; }
  std::vector<SynthesizedKernel> takeKernels() {
    return std::move(Set.Kernels);
  }

private:
  SynthesisResult Set;
  size_t Next = 0;
};

/// The one measurement stage. \p Source produces kernels in accept
/// order: a SynthesisEngine samples them (cold), LoadedKernels replays a
/// stored set (warm, zero sampling by construction). Kernel i is
/// measured under batchDriverOptions(Driver, Rng(Driver.Seed), i)
/// whichever source produced it, so measurements and cache keys do not
/// depend on the source.
template <typename KernelSource>
StreamingResult streamAndMeasure(KernelSource &Source,
                                 const runtime::Platform &P,
                                 const StreamingOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  auto MsBetween = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };
  Clock::time_point Start = Clock::now();

  StreamingResult Out;
  // One result slot per ACCEPTED kernel, appended in accept order: a
  // deque keeps element addresses stable while it grows, so the
  // producer can mint new slots while consumers write through pointers
  // to earlier ones — memory stays proportional to actual output, not
  // the requested target. Keys and the ledger-hit flags are
  // index-aligned side tables (kept only when a cache or ledger is
  // configured).
  std::deque<Result<runtime::Measurement>> Slots;
  std::deque<uint64_t> Keys;
  std::deque<bool> FromLedger;
  const bool NeedKeys = Opts.Cache != nullptr || Opts.Ledger != nullptr;

  size_t MeasureWorkers =
      ThreadPool::resolveWorkerCount(Opts.MeasureWorkers);
  size_t Capacity = Opts.QueueCapacity > 0
                        ? Opts.QueueCapacity
                        : std::max<size_t>(MeasureWorkers * 2, 8);

  Rng Base(Opts.Driver.Seed);

  double SynthMs = 0.0, DrainMs = 0.0;
  size_t Scanned = 0; // Slots already swept for ledger recording.

  // One producer/consumer round: extends the accepted-kernel set to
  // \p CumTarget with a fresh channel + consumer pool, then drains and
  // sweeps the new slots into the failure ledger. The classic
  // (non-refill) pipeline is exactly one round; refill runs more.
  auto RunRound = [&](size_t CumTarget) {
    support::Channel<runtime::MeasureJob> Jobs(Capacity);
    std::vector<std::thread> Consumers;
    Consumers.reserve(MeasureWorkers);
    for (size_t W = 0; W < MeasureWorkers; ++W)
      Consumers.emplace_back([&Jobs, &P, &Opts] {
        runtime::runMeasurementLoop(Jobs, P, Opts.Cache);
      });

    // Close-and-join must run even when the producer throws (sampling,
    // the rejection filter or a cache probe can raise): otherwise the
    // consumers block in pop() forever and unwinding the joinable
    // threads would terminate the process. Idempotent, so the success
    // path below can invoke it early to timestamp the drain.
    auto CloseAndJoin = [&Jobs, &Consumers] {
      Jobs.close();
      for (std::thread &T : Consumers)
        if (T.joinable())
          T.join();
    };
    struct Guard {
      std::function<void()> &Fn;
      ~Guard() { Fn(); }
    };
    std::function<void()> CloseFn = CloseAndJoin;
    Guard JoinGuard{CloseFn};

    // The producer hands each kernel over the moment it is accepted.
    AcceptSink Enqueue = [&](size_t Index, const SynthesizedKernel &SK) {
      CLGS_TRACE_SPAN_IDX("enqueue", Index);
      Slots.push_back(Result<runtime::Measurement>::error("not measured"));
      runtime::MeasureJob J;
      J.Slot = &Slots.back();
      J.Index = Index;
      J.Opts = runtime::batchDriverOptions(Opts.Driver, Base, Index);
      if (NeedKeys) {
        Keys.push_back(store::measurementKey(SK.Kernel, J.Opts, P));
        FromLedger.push_back(false);
      }
      // Injected producer-side fault, keyed by the accept index: the
      // kernel's slot records an injected failure without a job ever
      // entering the channel — the refill pass treats it like any
      // other failed measurement.
      if (CLGS_FAILPOINT_KEYED("pipeline.enqueue", Index)) {
        *J.Slot = Result<runtime::Measurement>::error(
            "injected fault at pipeline.enqueue", TrapKind::Injected);
        return;
      }
      if (Opts.Cache) {
        J.CacheKey = Keys.back();
        if (auto Hit = Opts.Cache->lookup(J.CacheKey)) {
          // Enqueue-time probe: a hit is resolved right here and never
          // occupies a measurement slot.
          *J.Slot = *Hit;
          ++Out.CacheStats.Hits;
          CLGS_COUNT("clgen.measure.cache_hits");
          return;
        }
        J.WriteBack = true;
      }
      if (Opts.Ledger) {
        if (auto Known = Opts.Ledger->lookup(Keys.back())) {
          // Negative hit: the recorded failure is replayed verbatim;
          // the kernel is never (re-)measured.
          *J.Slot = Result<runtime::Measurement>::error(Known->Detail,
                                                        Known->Kind);
          FromLedger.back() = true;
          ++Out.CacheStats.LedgerHits;
          CLGS_COUNT("clgen.measure.ledger_hits");
          return;
        }
      }
      if (Opts.Cache) {
        ++Out.CacheStats.Misses; // Counts kernels actually measured.
        CLGS_COUNT("clgen.measure.misses");
      }
      J.Kernel = SK.Kernel;
      Jobs.push(std::move(J)); // Blocks when measurement is behind.
    };

    Clock::time_point RoundStart = Clock::now();
    Source.extendTo(CumTarget, Enqueue);
    Clock::time_point RoundSynthDone = Clock::now();
    CloseAndJoin();
    DrainMs += MsBetween(RoundSynthDone, Clock::now());
    SynthMs += MsBetween(RoundStart, RoundSynthDone);

    // Sweep this round's fresh deterministic failures into the ledger
    // (record() refuses transient/injected kinds on its own, but the
    // isDeterministicTrap guard keeps the tally exact). Producer-side,
    // after the join: consumers never touch the ledger.
    if (Opts.Ledger) {
      for (size_t I = Scanned; I < Slots.size(); ++I) {
        if (Slots[I].ok() || FromLedger[I] ||
            !isDeterministicTrap(Slots[I].trap()))
          continue;
        store::FailureRecord Rec;
        Rec.Kind = Slots[I].trap();
        Rec.Detail = Slots[I].errorMessage();
        Rec.Attempts = 1; // Deterministic traps fail on attempt one.
        if (Opts.Ledger->record(Keys[I], Rec).ok()) {
          ++Out.CacheStats.LedgerRecords;
          CLGS_COUNT("clgen.measure.ledger_records");
        }
      }
    }
    Scanned = Slots.size();
  };

  const size_t Target = Opts.Synthesis.TargetKernels;
  RunRound(Target);

  if (Opts.RefillFailures) {
    // Refill rounds: every failed slot is a shortfall; the engine's
    // sampling cursor resumes where it stopped, so replacement kernels
    // are exactly those a larger fault-free run would have produced
    // next. Terminates when TargetKernels measurements succeeded, the
    // attempt budget ran dry, or a round made no synthesis progress.
    auto CountOk = [&] {
      size_t N = 0;
      for (const Result<runtime::Measurement> &S : Slots)
        if (S.ok())
          ++N;
      return N;
    };
    size_t Ok = CountOk();
    while (Ok < Target && !Source.exhausted()) {
      size_t Before = Slots.size();
      RunRound(Slots.size() + (Target - Ok));
      if (Slots.size() == Before)
        break;
      Ok = CountOk();
    }
  }
  Clock::time_point End = Clock::now();

  std::vector<SynthesizedKernel> AllKernels = Source.takeKernels();
  Out.Stats = Source.stats();
  if (Opts.RefillFailures) {
    // Excision: survivors keep their accept-order positions relative
    // to each other; failures move to Excised with their classified
    // cause. Accepted == survivors + excised, exactly once.
    for (size_t I = 0; I < AllKernels.size(); ++I) {
      if (Slots[I].ok()) {
        Out.Kernels.push_back(std::move(AllKernels[I]));
        Out.Measurements.push_back(std::move(Slots[I]));
      } else {
        ExcisedKernel E;
        E.AcceptIndex = I;
        E.Source = std::move(AllKernels[I].Source);
        E.Key = NeedKeys ? Keys[I] : 0;
        E.Kind = Slots[I].trap();
        E.Error = Slots[I].errorMessage();
        E.FromLedger = NeedKeys ? static_cast<bool>(FromLedger[I]) : false;
        Out.Excised.push_back(std::move(E));
      }
    }
  } else {
    Out.Kernels = std::move(AllKernels);
    Out.Measurements.reserve(Slots.size());
    for (Result<runtime::Measurement> &S : Slots)
      Out.Measurements.push_back(std::move(S));
  }
  Out.SynthesisWallMs = SynthMs;
  Out.DrainWallMs = DrainMs;
  Out.TotalWallMs = MsBetween(Start, End);
  return Out;
}

} // namespace

StreamingResult core::synthesizeAndMeasure(model::LanguageModel &Model,
                                           const runtime::Platform &P,
                                           const StreamingOptions &Opts) {
  SynthesisEngine Eng(Model, Opts.Synthesis);
  return streamAndMeasure(Eng, P, Opts);
}

std::optional<uint64_t>
ClgenPipeline::synthesisKeyDigest(const SynthesisOptions &Opts) const {
  // Key: model identity + every option that can change the output.
  // Workers and WaveSize are deliberately absent — the synthesis engine
  // guarantees bit-identical kernels for any value of either.
  store::ArchiveWriter Key(store::ArchiveKind::Synthesis);
  if (ArtifactFingerprint != 0) {
    Key.writeU8('F');
    Key.writeU64(ArtifactFingerprint);
  } else if (Model->backendName() == std::string_view("ngram")) {
    Key.writeU8('M');
    static_cast<const model::NGramModel &>(*Model).serialize(Key);
  } else if (Model->backendName() == std::string_view("lstm")) {
    Key.writeU8('M');
    static_cast<const model::LstmModel &>(*Model).serialize(Key);
  } else {
    return std::nullopt; // Unserializable model: nothing to key on.
  }
  Key.writeU64(Opts.TargetKernels);
  Key.writeU64(Opts.MaxAttempts);
  Key.writeBool(Opts.Spec.has_value());
  if (Opts.Spec) {
    Key.writeU64(Opts.Spec->ArgTypes.size());
    for (const std::string &T : Opts.Spec->ArgTypes)
      Key.writeString(T);
  }
  Key.writeU64(Opts.Sampling.MaxLength);
  Key.writeF64(Opts.Sampling.Temperature);
  Key.writeU64(Opts.Seed);
  return Key.payloadDigest();
}

SynthesisResult
ClgenPipeline::synthesizeOrLoad(const std::string &CacheDir,
                                const SynthesisOptions &Opts,
                                bool *Loaded) {
  if (Loaded)
    *Loaded = false;

  std::optional<uint64_t> KeyDigest = synthesisKeyDigest(Opts);
  if (!KeyDigest)
    return synthesize(Opts); // Unserializable model: nothing to key on.

  std::string Path = synthesisArtifactPath(CacheDir, *KeyDigest);
  store::ScopedLock Lock;
  if (auto Hit = probeSynthesisArtifact(CacheDir, Path, *KeyDigest, Lock)) {
    if (Loaded)
      *Loaded = true;
    return std::move(*Hit);
  }

  SynthesisResult Out = synthesize(Opts);
  saveSynthesisArtifact(Path, Out);
  return Out;
}

StreamingResult ClgenPipeline::synthesizeAndMeasureOrLoad(
    const std::string &CacheDir, const runtime::Platform &P,
    const StreamingOptions &Opts, StreamingWarmInfo *Info) {
  StreamingWarmInfo Local;
  StreamingWarmInfo &I = Info ? *Info : Local;
  I = StreamingWarmInfo();

  // Refill couples the delivered kernel set to measurement outcomes, so
  // it is not a pure function of the synthesis options the key digests:
  // refill requests always sample and never load or persist.
  if (Opts.RefillFailures)
    return synthesizeAndMeasure(P, Opts);

  std::optional<uint64_t> KeyDigest = synthesisKeyDigest(Opts.Synthesis);
  if (!KeyDigest)
    return synthesizeAndMeasure(P, Opts);
  I.KeyDigest = *KeyDigest;
  I.ArtifactPath = synthesisArtifactPath(CacheDir, *KeyDigest);

  // The same key, artifact and "synthesis" lock as synthesizeOrLoad, so
  // the two entry points cold-sample one configuration exactly once
  // between them.
  store::ScopedLock Lock;
  if (auto Hit =
          probeSynthesisArtifact(CacheDir, I.ArtifactPath, *KeyDigest, Lock)) {
    I.Warm = true;
    I.LoadedKernels = Hit->Kernels.size();
    CLGS_COUNT("clgen.stream.warm_starts");
    LoadedKernels Source(std::move(*Hit));
    return streamAndMeasure(Source, P, Opts);
  }

  StreamingResult Out = synthesizeAndMeasure(P, Opts);
  SynthesisResult Artifact;
  Artifact.Stats = Out.Stats;
  Artifact.Kernels = Out.Kernels;
  saveSynthesisArtifact(I.ArtifactPath, Artifact);
  I.Persisted = true;
  return Out;
}

uint64_t
ClgenPipeline::fingerprint(const std::vector<corpus::ContentFile> &Files,
                           const PipelineOptions &Opts) {
  // Canonical byte recipe over everything training is a pure function
  // of. Any field added to the options structs must be appended here,
  // or stale artifacts would be served for the new configuration.
  // Scheduling knobs (CorpusOptions::Workers/ShardSize, and the whole
  // of PipelineOptions::Train) are excluded: sharded ingest and the
  // data-parallel training engine are bit-identical across them by
  // contract. LstmOptions::BatchLanes is NOT a scheduling knob — it
  // changes the training trajectory — so it is fingerprinted.
  store::ArchiveWriter W(store::ArchiveKind::Model);
  W.writeU64(Files.size());
  for (const corpus::ContentFile &F : Files) {
    W.writeString(F.Path);
    W.writeString(F.Text);
  }
  W.writeBool(Opts.Corpus.Filter.UseShim);
  W.writeU64(Opts.Corpus.Filter.MinInstructions);
  switch (Opts.Backend) {
  case ModelBackend::NGram:
    W.writeString("ngram");
    W.writeI32(Opts.NGram.Order);
    W.writeF64(Opts.NGram.BackoffAlpha);
    W.writeF64(Opts.NGram.UnigramSmoothing);
    break;
  case ModelBackend::Lstm:
    W.writeString("lstm");
    W.writeI32(Opts.Lstm.Layers);
    W.writeI32(Opts.Lstm.HiddenSize);
    W.writeI32(Opts.Lstm.Epochs);
    W.writeI32(Opts.Lstm.SequenceLength);
    W.writeF32(Opts.Lstm.LearningRate);
    W.writeF32(Opts.Lstm.LearningRateDecay);
    W.writeI32(Opts.Lstm.DecayEveryEpochs);
    W.writeF32(Opts.Lstm.GradClip);
    W.writeU64(Opts.Lstm.Seed);
    W.writeI32(Opts.Lstm.BatchLanes);
    break;
  }
  return W.payloadDigest();
}

Result<ClgenPipeline>
ClgenPipeline::trainOrLoad(const std::string &CacheDir,
                           const std::vector<corpus::ContentFile> &Files,
                           const PipelineOptions &Opts,
                           TrainOrLoadInfo *Info) {
  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  if (Ec || !std::filesystem::is_directory(CacheDir, Ec))
    return Result<ClgenPipeline>::error(
        "cannot create artifact cache directory: " + CacheDir);

  TrainOrLoadInfo Local;
  TrainOrLoadInfo &I = Info ? *Info : Local;
  I = TrainOrLoadInfo();
  I.Fingerprint = fingerprint(Files, Opts);
  std::string Hex = store::hexDigest(I.Fingerprint);
  I.ModelPath = CacheDir + "/model-" + Hex + ".clgs";
  I.CorpusPath = CacheDir + "/corpus-" + Hex + ".clgs";

  // A fingerprint hit requires both artifacts to load cleanly; a
  // corrupt or missing file just falls back to retraining (which then
  // overwrites it atomically). This probe is the LOCK-FREE fast path:
  // warm starts never touch a lock file.
  auto TryLoad = [&]() -> std::optional<ClgenPipeline> {
    auto StoredModel = store::loadModel(I.ModelPath);
    auto StoredCorpus = store::loadCorpus(I.CorpusPath);
    if (!StoredModel.ok() || !StoredCorpus.ok())
      return std::nullopt;
    ClgenPipeline P;
    P.TrainingCorpus = StoredCorpus.take();
    P.Model = StoredModel.take();
    P.ArtifactFingerprint = I.Fingerprint;
    I.LoadedModel = I.LoadedCorpus = true;
    return P;
  };
  if (auto Hit = TryLoad())
    return std::move(*Hit);

  // Cold miss: stampede control. Concurrent cold runs of one
  // fingerprint serialize on an advisory lock so training happens
  // once — the losers wake up, re-probe (double-checked locking) and
  // load the winner's artifacts. Uncontended misses take tryAcquire
  // and proceed without waiting; a timed-out or failed lock degrades
  // to duplicated training (publication stays atomic either way).
  store::ScopedLock Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(CacheDir, "train", I.Fingerprint));
  if (Lock.held()) {
    // Re-probe under the lock even when it was uncontended: a racer
    // may have trained, published and released between our fast-path
    // probe and this acquisition. Holders publish before releasing,
    // so a hit here is complete — this second probe is what makes
    // "K concurrent cold runs train exactly once" strict.
    if (auto Hit = TryLoad())
      return std::move(*Hit);
  }

  ClgenPipeline P = train(Files, Opts);
  P.ArtifactFingerprint = I.Fingerprint;
  Status SaveModel = store::saveModel(I.ModelPath, *P.Model);
  Status SaveCorpus = store::saveCorpus(I.CorpusPath, P.TrainingCorpus);
  if (!SaveModel.ok())
    return Result<ClgenPipeline>::error("cannot persist trained model: " +
                                        SaveModel.errorMessage());
  if (!SaveCorpus.ok())
    return Result<ClgenPipeline>::error("cannot persist corpus snapshot: " +
                                        SaveCorpus.errorMessage());
  return P;
}
