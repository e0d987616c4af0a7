//===- predict/Experiment.cpp - End-to-end predictive experiment --------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "predict/Experiment.h"

#include "features/Features.h"
#include "githubsim/GithubSim.h"
#include "predict/Report.h"
#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/Lock.h"
#include "store/ResultCache.h"
#include "suites/Catalogue.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <filesystem>
#include <map>
#include <mutex>
#include <optional>

using namespace clgen;
using namespace clgen::predict;

namespace {

/// Implausibly large observation counts are rejected before any
/// allocation — a corrupt length prefix must degrade to a cold miss,
/// not an OOM.
constexpr uint64_t MaxObservations = 1ull << 20;

std::vector<corpus::ContentFile> minedFiles(const ExperimentOptions &Opts) {
  githubsim::GithubSimOptions G;
  G.FileCount = Opts.CorpusFiles;
  return githubsim::mineGithub(G);
}

core::PipelineOptions pipelineOptions(const ExperimentOptions &Opts) {
  core::PipelineOptions P;
  P.NGram.Order = Opts.NGramOrder;
  return P;
}

std::vector<std::string> resolvedSuites(const ExperimentOptions &Opts) {
  return Opts.Suites.empty() ? suites::suiteNames() : Opts.Suites;
}

/// The training fingerprint is a pure function of (CorpusFiles,
/// NGramOrder) — mineGithub is deterministic — but computing it mines
/// and digests the whole snapshot. Memoized so hot probe paths
/// (loadExperiment in a warm loop, corruption sweeps) pay the mining
/// cost once per configuration instead of per call.
uint64_t trainingFingerprint(const ExperimentOptions &Opts) {
  static std::mutex M;
  static std::map<std::pair<size_t, int>, uint64_t> Cache;
  std::pair<size_t, int> K{Opts.CorpusFiles, Opts.NGramOrder};
  {
    std::lock_guard<std::mutex> G(M);
    auto It = Cache.find(K);
    if (It != Cache.end())
      return It->second;
  }
  uint64_t F =
      core::ClgenPipeline::fingerprint(minedFiles(Opts), pipelineOptions(Opts));
  std::lock_guard<std::mutex> G(M);
  Cache.emplace(K, F);
  return F;
}

void writeObservation(store::ArchiveWriter &W, const Observation &O) {
  W.writeString(O.Suite);
  W.writeString(O.Benchmark);
  W.writeString(O.Kernel);
  W.writeString(O.Dataset);
  W.writeF64(O.Raw.Static.Comp);
  W.writeF64(O.Raw.Static.Mem);
  W.writeF64(O.Raw.Static.LocalMem);
  W.writeF64(O.Raw.Static.Coalesced);
  W.writeF64(O.Raw.Static.Branches);
  W.writeF64(O.Raw.TransferBytes);
  W.writeF64(O.Raw.WgSize);
  W.writeF64(O.CpuTime);
  W.writeF64(O.GpuTime);
}

Observation readObservation(store::ArchiveReader &R) {
  Observation O;
  O.Suite = R.readString();
  O.Benchmark = R.readString();
  O.Kernel = R.readString();
  O.Dataset = R.readString();
  O.Raw.Static.Comp = R.readF64();
  O.Raw.Static.Mem = R.readF64();
  O.Raw.Static.LocalMem = R.readF64();
  O.Raw.Static.Coalesced = R.readF64();
  O.Raw.Static.Branches = R.readF64();
  O.Raw.TransferBytes = R.readF64();
  O.Raw.WgSize = R.readF64();
  O.CpuTime = R.readF64();
  O.GpuTime = R.readF64();
  return O;
}

void writeObservations(store::ArchiveWriter &W,
                       const std::vector<Observation> &Obs) {
  W.writeU64(Obs.size());
  for (const Observation &O : Obs)
    writeObservation(W, O);
}

std::vector<Observation> readObservations(store::ArchiveReader &R) {
  uint64_t Count = R.readU64();
  if (Count > MaxObservations)
    R.fail("implausible observation count");
  std::vector<Observation> Out;
  for (uint64_t I = 0; I < Count && R.ok(); ++I)
    Out.push_back(readObservation(R));
  return Out;
}

void writeIntVector(store::ArchiveWriter &W, const std::vector<int> &V) {
  W.writeU64(V.size());
  for (int X : V)
    W.writeI32(X);
}

std::vector<int> readIntVector(store::ArchiveReader &R) {
  uint64_t Count = R.readU64();
  if (Count > MaxObservations)
    R.fail("implausible prediction-vector length");
  std::vector<int> Out;
  for (uint64_t I = 0; I < Count && R.ok(); ++I)
    Out.push_back(R.readI32());
  return Out;
}

std::string archivePath(const std::string &StoreDir, const char *What,
                        uint64_t Key) {
  return StoreDir + "/" + What + "-" + store::hexDigest(Key) + ".clgs";
}

/// Derives baseline/augmented metrics from the two K-fold runs.
ExperimentMetrics computeMetrics(const std::vector<Observation> &Real,
                                 const KFoldResult &Baseline,
                                 const KFoldResult &Augmented) {
  ExperimentMetrics M;
  M.StaticLabel = staticBestDevice(Real);
  M.BaselineAccuracy = accuracy(Real, Baseline.Predictions);
  M.BaselineOracle = performanceRelativeToOracle(Real, Baseline.Predictions);
  M.BaselineSpeedup =
      speedupOverStatic(Real, Baseline.Predictions, M.StaticLabel);
  M.AugmentedAccuracy = accuracy(Real, Augmented.Predictions);
  M.AugmentedOracle = performanceRelativeToOracle(Real, Augmented.Predictions);
  M.AugmentedSpeedup =
      speedupOverStatic(Real, Augmented.Predictions, M.StaticLabel);
  return M;
}

/// The cold path shared by runExperiment and runOrLoadExperiment's miss
/// branch. When \p StoreDir is non-empty, the inner expensive phases
/// (model training, synthetic measurement) reuse the store's own
/// warm-start layers, so a half-warm store still skips what it can.
ExperimentResult computeExperiment(const ExperimentOptions &Opts,
                                   const std::string &StoreDir) {
  CLGS_TRACE_SPAN("predict.experiment");
  CLGS_COUNT("clgen.predict.experiment_runs");
  ExperimentResult Out;

  // 1. Corpus + model. trainOrLoad failures (unwritable store) degrade
  // to plain training: the experiment layer treats every store as
  // best-effort, exactly like the archive publishes below.
  auto Files = minedFiles(Opts);
  auto POpts = pipelineOptions(Opts);
  std::optional<core::ClgenPipeline> Pipeline;
  if (!StoreDir.empty()) {
    auto Loaded = core::ClgenPipeline::trainOrLoad(StoreDir, Files, POpts);
    if (Loaded.ok())
      Pipeline.emplace(Loaded.take());
  }
  if (!Pipeline)
    Pipeline.emplace(core::ClgenPipeline::train(Files, POpts));

  // 2. Synthetic benchmarks: streaming synthesis + measurement, with
  // the result cache and failure ledger attached when a store exists.
  runtime::Platform P = runtime::amdPlatform();
  core::StreamingOptions S = Opts.Streaming;
  std::optional<store::ResultCache> Cache;
  std::optional<store::FailureLedger> Ledger;
  if (!StoreDir.empty()) {
    Cache.emplace(StoreDir + "/results");
    Ledger.emplace(StoreDir + "/failures");
    S.Cache = &*Cache;
    S.Ledger = &*Ledger;
  }
  core::StreamingResult SR = Pipeline->synthesizeAndMeasure(P, S);
  Out.Provenance.MeasuredKernels += SR.Kernels.size() + SR.Excised.size();

  {
    CLGS_TRACE_SPAN("predict.experiment.features");
    std::vector<vm::CompiledKernel> Compiled;
    Compiled.reserve(SR.Kernels.size());
    for (const core::SynthesizedKernel &K : SR.Kernels)
      Compiled.push_back(K.Kernel);
    std::vector<features::StaticFeatures> Static =
        features::extractStaticFeaturesParallel(Compiled, Opts.Workers);
    for (size_t I = 0; I < SR.Kernels.size(); ++I) {
      if (!SR.Measurements[I].ok())
        continue;
      const runtime::Measurement &M = SR.Measurements[I].get();
      Observation O;
      O.Suite = "clgen";
      O.Benchmark = formatString("clgen-synthetic-%zu", I);
      O.Kernel = SR.Kernels[I].Kernel.Name;
      O.Dataset = formatString("%zu", M.GlobalSize);
      O.Raw.Static = Static[I];
      O.Raw.TransferBytes = static_cast<double>(M.Transfer.total());
      O.Raw.WgSize = static_cast<double>(M.GlobalSize);
      O.CpuTime = M.CpuTime;
      O.GpuTime = M.GpuTime;
      Out.Synthetic.push_back(std::move(O));
    }
  }

  // 3. Real benchmark suites.
  {
    CLGS_TRACE_SPAN("predict.experiment.suites");
    std::vector<suites::BenchmarkKernel> Catalogue;
    for (const std::string &Name : resolvedSuites(Opts)) {
      auto Suite = suites::buildSuite(Name);
      Catalogue.insert(Catalogue.end(), Suite.begin(), Suite.end());
    }
    Out.Real = suites::measureCatalogue(Catalogue, P, Opts.Runner);
    Out.Provenance.MeasuredKernels += Out.Real.size();
  }

  // 4. Cross-validate without and with the synthetic training rows.
  Out.Baseline = kFoldCrossValidation(Out.Real, {}, Opts.Kind, Opts.KFold,
                                      Opts.Tree);
  Out.Augmented = kFoldCrossValidation(Out.Real, Out.Synthetic, Opts.Kind,
                                       Opts.KFold, Opts.Tree);
  Out.Provenance.TrainedModels +=
      Out.Baseline.FoldsTrained + Out.Augmented.FoldsTrained;
  Out.Metrics = computeMetrics(Out.Real, Out.Baseline, Out.Augmented);

  // 5. Paper artifacts.
  Table1Stats TS;
  Out.Table1 = renderTable1(Out.Real, Out.Synthetic, resolvedSuites(Opts),
                            Opts.Kind, Opts.Tree, &TS);
  Out.Provenance.TrainedModels += TS.TreesTrained;
  Out.Fig9 = renderFig9(Out.Real, Out.Synthetic, Opts.Fig9MaxRows);

  // 6. Final model over everything, the artifact a deployment would
  // ship (section 8: adding synthetic benchmarks to the training set).
  {
    CLGS_TRACE_SPAN("predict.experiment.final_fit");
    std::vector<Observation> All = Out.Real;
    All.insert(All.end(), Out.Synthetic.begin(), Out.Synthetic.end());
    std::vector<std::vector<double>> X =
        featureMatrix(All, Opts.Kind, Opts.Workers);
    std::vector<int> Y;
    Y.reserve(All.size());
    for (const Observation &O : All)
      Y.push_back(O.label());
    Out.Model = DecisionTree(Opts.Tree);
    Out.Model.fit(X, Y);
    Out.Provenance.TrainedModels += 1;
  }
  CLGS_COUNT_N("clgen.predict.trees_trained", Out.Provenance.TrainedModels);
  return Out;
}

} // namespace

uint64_t predict::experimentKey(const ExperimentOptions &Opts) {
  // Canonical byte recipe over everything the experiment output is a
  // pure function of. Scheduling knobs (Workers, MeasureWorkers,
  // QueueCapacity, KFold.Workers, watchdog/retry, dispatch mode) are
  // excluded by the determinism contract; any new SEMANTIC option
  // field must be appended here or stale artifacts would be served.
  store::ArchiveWriter Key(store::ArchiveKind::Report);
  Key.writeU8('F');
  Key.writeU64(trainingFingerprint(Opts));
  const core::SynthesisOptions &SO = Opts.Streaming.Synthesis;
  Key.writeU64(SO.TargetKernels);
  Key.writeU64(SO.MaxAttempts);
  Key.writeBool(SO.Spec.has_value());
  if (SO.Spec) {
    Key.writeU64(SO.Spec->ArgTypes.size());
    for (const std::string &T : SO.Spec->ArgTypes)
      Key.writeString(T);
  }
  Key.writeU64(SO.Sampling.MaxLength);
  Key.writeF64(SO.Sampling.Temperature);
  Key.writeU64(SO.Seed);
  const runtime::DriverOptions &DO = Opts.Streaming.Driver;
  Key.writeU64(DO.GlobalSize);
  Key.writeU64(DO.LocalSize);
  Key.writeU64(DO.MaxSimulatedGroups);
  Key.writeU64(DO.MaxInstructions);
  Key.writeU64(DO.Seed);
  Key.writeBool(DO.TrapDivZero);
  Key.writeBool(DO.RunDynamicCheck);
  Key.writeBool(Opts.Streaming.RefillFailures);
  auto Suites = resolvedSuites(Opts);
  Key.writeU64(Suites.size());
  for (const std::string &Name : Suites)
    Key.writeString(Name);
  Key.writeU64(Opts.Runner.MaxSimulatedGroups);
  Key.writeU64(Opts.Runner.Seed);
  // Where the catalogue runner's skip-failures flag, always true, was
  // written: keeping the byte keeps every experiment key.
  Key.writeU8(1);
  Key.writeU8(static_cast<uint8_t>(Opts.Kind));
  Key.writeI32(Opts.Tree.MaxDepth);
  Key.writeU64(Opts.Tree.MinSamplesLeaf);
  Key.writeU64(Opts.Tree.MinSamplesSplit);
  Key.writeU64(Opts.KFold.Folds);
  Key.writeU64(Opts.KFold.Seed);
  Key.writeU64(Opts.Fig9MaxRows);
  return Key.payloadDigest();
}

ExperimentResult predict::runExperiment(const ExperimentOptions &Opts) {
  return computeExperiment(Opts, "");
}

Result<ExperimentResult>
predict::loadExperiment(const std::string &StoreDir,
                        const ExperimentOptions &Opts) {
  uint64_t Key = experimentKey(Opts);
  ExperimentResult Out;

  // Archive 1: the labelled observation set.
  {
    auto Opened = store::ArchiveReader::open(
        archivePath(StoreDir, "features", Key), store::ArchiveKind::Features);
    if (!Opened.ok())
      return Result<ExperimentResult>::error(Opened.errorMessage());
    store::ArchiveReader R = Opened.take();
    Out.Real = readObservations(R);
    Out.Synthetic = readObservations(R);
    if (!R.finish().ok())
      return Result<ExperimentResult>::error("corrupt features archive: " +
                                             R.finish().errorMessage());
  }

  // Archive 2: the trained device-mapping model.
  {
    auto Opened = store::ArchiveReader::open(
        archivePath(StoreDir, "predictor", Key),
        store::ArchiveKind::Predictor);
    if (!Opened.ok())
      return Result<ExperimentResult>::error(Opened.errorMessage());
    store::ArchiveReader R = Opened.take();
    if (R.readU8() != static_cast<uint8_t>(Opts.Kind))
      R.fail("predictor archive feature-set mismatch");
    Out.Model = DecisionTree::deserialize(R);
    if (!R.finish().ok())
      return Result<ExperimentResult>::error("corrupt predictor archive: " +
                                             R.finish().errorMessage());
  }

  // Archive 3: the evaluation report.
  {
    auto Opened = store::ArchiveReader::open(
        archivePath(StoreDir, "report", Key), store::ArchiveKind::Report);
    if (!Opened.ok())
      return Result<ExperimentResult>::error(Opened.errorMessage());
    store::ArchiveReader R = Opened.take();
    ExperimentMetrics &M = Out.Metrics;
    M.StaticLabel = R.readI32();
    M.BaselineAccuracy = R.readF64();
    M.BaselineOracle = R.readF64();
    M.BaselineSpeedup = R.readF64();
    M.AugmentedAccuracy = R.readF64();
    M.AugmentedOracle = R.readF64();
    M.AugmentedSpeedup = R.readF64();
    Out.Baseline.Predictions = readIntVector(R);
    Out.Baseline.FoldOf = readIntVector(R);
    Out.Baseline.FoldsTrained = R.readU64();
    Out.Augmented.Predictions = readIntVector(R);
    Out.Augmented.FoldOf = readIntVector(R);
    Out.Augmented.FoldsTrained = R.readU64();
    Out.Table1 = R.readString();
    Out.Fig9 = R.readString();
    if (R.ok() && (Out.Baseline.Predictions.size() != Out.Real.size() ||
                   Out.Augmented.Predictions.size() != Out.Real.size()))
      R.fail("report archive disagrees with the observation set");
    if (!R.finish().ok())
      return Result<ExperimentResult>::error("corrupt report archive: " +
                                             R.finish().errorMessage());
  }

  Out.Provenance.Warm = true;
  CLGS_COUNT("clgen.predict.store_hits");
  return Out;
}

Result<ExperimentResult>
predict::runOrLoadExperiment(const std::string &StoreDir,
                             const ExperimentOptions &Opts) {
  std::error_code Ec;
  std::filesystem::create_directories(StoreDir, Ec);
  if (Ec)
    return Result<ExperimentResult>::error(
        "cannot create experiment store '" + StoreDir + "': " + Ec.message());

  // Lock-free fast path: warm stores never touch a lock file.
  if (auto Hit = loadExperiment(StoreDir, Opts); Hit.ok())
    return Hit;

  CLGS_COUNT("clgen.predict.store_misses");
  uint64_t Key = experimentKey(Opts);

  // Cold miss: serialize concurrent cold runs of this configuration so
  // training and measurement happen once; the losers consume the
  // winner's archives on the re-probe. A lock timeout degrades to
  // duplicated byte-identical work, never an error.
  store::ScopedLock Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(StoreDir, "experiment", Key));
  if (Lock.held())
    if (auto Hit = loadExperiment(StoreDir, Opts); Hit.ok())
      return Hit;

  ExperimentResult Out = computeExperiment(Opts, StoreDir);

  // Publish all three archives; each write is atomic (temp + rename)
  // and best-effort — a failed publish just stays cold.
  {
    store::ArchiveWriter W(store::ArchiveKind::Features);
    writeObservations(W, Out.Real);
    writeObservations(W, Out.Synthetic);
    (void)W.saveTo(archivePath(StoreDir, "features", Key));
  }
  {
    store::ArchiveWriter W(store::ArchiveKind::Predictor);
    W.writeU8(static_cast<uint8_t>(Opts.Kind));
    Out.Model.serialize(W);
    (void)W.saveTo(archivePath(StoreDir, "predictor", Key));
  }
  {
    store::ArchiveWriter W(store::ArchiveKind::Report);
    W.writeI32(Out.Metrics.StaticLabel);
    W.writeF64(Out.Metrics.BaselineAccuracy);
    W.writeF64(Out.Metrics.BaselineOracle);
    W.writeF64(Out.Metrics.BaselineSpeedup);
    W.writeF64(Out.Metrics.AugmentedAccuracy);
    W.writeF64(Out.Metrics.AugmentedOracle);
    W.writeF64(Out.Metrics.AugmentedSpeedup);
    writeIntVector(W, Out.Baseline.Predictions);
    writeIntVector(W, Out.Baseline.FoldOf);
    W.writeU64(Out.Baseline.FoldsTrained);
    writeIntVector(W, Out.Augmented.Predictions);
    writeIntVector(W, Out.Augmented.FoldOf);
    W.writeU64(Out.Augmented.FoldsTrained);
    W.writeString(Out.Table1);
    W.writeString(Out.Fig9);
    (void)W.saveTo(archivePath(StoreDir, "report", Key));
  }
  return Out;
}

ExperimentOptions predict::goldenExperimentOptions() {
  ExperimentOptions Opts;
  // 400 files / order 16 is the smallest corpus whose model reliably
  // clears the dynamic checker (smaller models synthesize only no-op
  // or out-of-bounds kernels and the refill pass runs dry).
  Opts.CorpusFiles = 400;
  Opts.NGramOrder = 16;
  Opts.Streaming.Synthesis.TargetKernels = 6;
  Opts.Streaming.Synthesis.MaxAttempts = 6 * 400;
  Opts.Streaming.Synthesis.Sampling.Temperature = 0.55;
  Opts.Streaming.Synthesis.Seed = 0x5E17;
  Opts.Streaming.Driver.GlobalSize = 4096;
  Opts.Streaming.Driver.LocalSize = 64;
  Opts.Streaming.Driver.MaxSimulatedGroups = 8;
  Opts.Streaming.Driver.RunDynamicCheck = true;
  Opts.Streaming.RefillFailures = true;
  Opts.Suites = {"NVIDIA SDK", "Parboil", "AMD SDK"};
  Opts.Runner.MaxSimulatedGroups = 8;
  Opts.KFold.Folds = 3;
  return Opts;
}
