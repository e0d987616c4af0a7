//===- examples/benchmark_runner.cpp - Host driver walk-through ---------------===//
//
// Exercises the section 5 host driver directly: payload generation, the
// four-execution dynamic checker, instrumented execution and per-device
// runtime estimation — including what happens to kernels that do NOT
// perform useful work.
//
// With --pipeline it instead trains CLgen and runs the 40-kernel
// synthesis→measurement pipeline (core::synthesizeAndMeasure): accepted
// kernels flow through a bounded channel into measurement workers while
// synthesis keeps sampling, and the report includes overlap timings
// (producer wall time vs the measurement drain tail).
//
// --cache-dir DIR runs the same pipeline on top of the persistent
// artifact store (and implies --pipeline): ClgenPipeline::trainOrLoad
// warm-starts the model, synthesizeAndMeasureOrLoad persists the kernel
// set, and the result cache and failure ledger are probed at enqueue
// time. A warm rerun loads the archived kernels instead of sampling
// (zero sample attempts) and measures nothing, byte-identical to the
// cold run.
//
//   ./example_benchmark_runner --pipeline [--cache-dir DIR] [--kernels N]
//       [--measure-workers N] [--queue N]
//
// With --backend lstm the pipeline trains the paper's LSTM instead of
// the n-gram model, through the data-parallel training engine:
// --train-workers sets the thread count (bit-identical weights for any
// value) and --train-lanes the data-parallel batch width (a semantic
// knob — it changes the training trajectory and the artifact
// fingerprint). Run --help for the full flag reference.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"
#include "githubsim/GithubSim.h"
#include "predict/Experiment.h"
#include "runtime/DynamicChecker.h"
#include "runtime/HostDriver.h"
#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "support/Trap.h"
#include "vm/Compiler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace clgen;

namespace {

/// Phase stopwatch: wall time in ms for the console report, mirrored
/// onto the metrics registry as a volatile gauge so --metrics-out
/// carries the same phase timings the console prints.
class PhaseTimer {
public:
  explicit PhaseTimer(const char *GaugeName)
      : Name(GaugeName), T0(support::telemetryNowNs()) {}

  /// Elapsed ms since construction; records the gauge (microseconds,
  /// integer) on each call.
  double stopMs() {
    uint64_t Us = (support::telemetryNowNs() - T0) / 1000;
    support::MetricsRegistry::gauge(Name).set(static_cast<int64_t>(Us));
    return static_cast<double>(Us) / 1e3;
  }

private:
  const char *Name;
  uint64_t T0;
};

/// Everything the flag parser collects; the pipeline and experiment
/// modes consume it.
struct RunnerConfig {
  std::string CacheDir;
  size_t TargetKernels = 40;
  bool Pipeline = false;
  unsigned MeasureWorkers = 0; // Hardware concurrency.
  size_t QueueCapacity = 0;    // Auto.
  bool UseLstm = false;
  unsigned TrainWorkers = 0;   // Hardware concurrency.
  int TrainLanes = 8;          // LSTM data-parallel batch width.
  size_t FileCount = 400;      // githubsim corpus size.
  // Fault tolerance.
  bool Refill = false;          // Excise failures + draw replacements.
  uint64_t WatchdogMs = 0;      // Per-launch wall-clock watchdog.
  unsigned Retries = 2;         // Transient-failure retry budget.
  double InjectProb = -1.0;     // Failpoint probability; <0 = disarmed.
  // Telemetry.
  std::string TraceOut;         // Chrome trace JSON destination.
  std::string MetricsOut;       // Metrics text exposition destination.
  // Predictive-modeling experiment (--experiment).
  bool Experiment = false;
  size_t Folds = 0;            // 0 = golden default.
  unsigned PredictWorkers = 0; // Meaningful only when the flag was set.
  std::string ReportOut;       // Directory for the report artifacts.
  // Which flags the user actually passed, so flags that have no effect
  // in the selected mode are rejected instead of silently dropped.
  bool TrainFlagSet = false;
  bool StreamFlagSet = false;
  bool WorkloadFlagSet = false;
  bool DriverFlagSet = false;
  bool TelemetryFlagSet = false;
  bool PredictWorkersSet = false;
  bool ExperimentFlagSet = false; // --folds / --report-out / workers.
};

/// Per-trap-class failure tally for the end-of-run summary. A pipeline
/// run that delivers ZERO successful measurements exits nonzero (3) —
/// an all-failed batch must not look like success to scripts, and
/// neither may an EMPTY delivery (zero kernels, zero failures): a run
/// that produced nothing produced nothing useful.
struct FailureTally {
  size_t Counts[16] = {0};
  size_t Failed = 0, Ok = 0;

  void add(const Result<runtime::Measurement> &R) {
    if (R.ok())
      ++Ok;
    else
      addKind(R.trap());
  }
  void addKind(TrapKind K) {
    ++Failed;
    ++Counts[static_cast<uint8_t>(K) & 15];
  }
  void print() const {
    if (Failed == 0)
      return;
    std::printf("failures by class:\n");
    for (size_t K = 0; K < 16; ++K)
      if (Counts[K])
        std::printf("  %-24s %zu\n",
                    trapKindName(static_cast<TrapKind>(K)), Counts[K]);
  }
  int exitCode() const { return Ok == 0 ? 3 : 0; }
};

/// The pipeline's setup: mine the simulated corpus, then train the
/// model — warm-starting from the store when a cache directory is
/// configured. Prints the model line; returns nullopt (after printing
/// the error) when the store is unusable.
std::optional<core::ClgenPipeline> prepareModel(const RunnerConfig &Cfg) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = Cfg.FileCount;
  auto Files = githubsim::mineGithub(GOpts);

  core::PipelineOptions POpts;
  POpts.NGram.Order = 14;
  if (Cfg.UseLstm) {
    POpts.Backend = core::ModelBackend::Lstm;
    POpts.Lstm.BatchLanes = Cfg.TrainLanes;
    POpts.Train.Workers = Cfg.TrainWorkers;
    std::printf("backend: lstm (%d lanes, %u train workers%s)\n",
                Cfg.TrainLanes, Cfg.TrainWorkers,
                Cfg.TrainWorkers == 0 ? " = hardware" : "");
  }

  PhaseTimer Train("clgen.runner.train_us");
  if (Cfg.CacheDir.empty()) {
    core::ClgenPipeline Pipeline = core::ClgenPipeline::train(Files, POpts);
    std::printf("model: trained in %.1f ms (sharded corpus ingest)\n",
                Train.stopMs());
    return Pipeline;
  }
  core::TrainOrLoadInfo Info;
  auto Loaded =
      core::ClgenPipeline::trainOrLoad(Cfg.CacheDir, Files, POpts, &Info);
  if (!Loaded.ok()) {
    std::fprintf(stderr, "trainOrLoad failed: %s\n",
                 Loaded.errorMessage().c_str());
    return std::nullopt;
  }
  std::printf("model: %s (fingerprint %s) in %.1f ms\n",
              Info.LoadedModel ? "warm start from store"
                               : "trained cold + persisted",
              store::hexDigest(Info.Fingerprint).c_str(), Train.stopMs());
  return Loaded.take();
}

/// The --pipeline / --cache-dir mode: the standard 40-kernel synthesis +
/// measurement workload as one bounded producer/consumer pipeline.
/// Prints the overlap evidence: how long the producer ran, and how long
/// measurement kept draining after the last kernel was accepted.
int runPipeline(const RunnerConfig &Cfg) {
  const std::string &CacheDir = Cfg.CacheDir;
  PhaseTimer Total("clgen.runner.total_us");

  std::optional<core::ClgenPipeline> Prepared = prepareModel(Cfg);
  if (!Prepared)
    return 1;
  core::ClgenPipeline Pipeline = std::move(*Prepared);

  core::StreamingOptions SOpts;
  SOpts.Synthesis.TargetKernels = Cfg.TargetKernels;
  SOpts.Synthesis.Sampling.Temperature = 0.5;
  SOpts.Synthesis.Workers = 0;
  SOpts.Driver.GlobalSize = 16384;
  SOpts.Driver.WatchdogMs = Cfg.WatchdogMs;
  SOpts.Driver.MaxRetries = Cfg.Retries;
  SOpts.MeasureWorkers = Cfg.MeasureWorkers;
  SOpts.QueueCapacity = Cfg.QueueCapacity;
  SOpts.RefillFailures = Cfg.Refill;

  std::unique_ptr<store::ResultCache> Cache;
  std::unique_ptr<store::FailureLedger> Ledger;
  if (!CacheDir.empty()) {
    Cache = std::make_unique<store::ResultCache>(CacheDir + "/results");
    SOpts.Cache = Cache.get();
    Ledger = std::make_unique<store::FailureLedger>(CacheDir + "/failures");
    SOpts.Ledger = Ledger.get();
  }

  // With a cache directory the run is warm-startable: the persisted
  // kernel-set artifact replaces the sampler as the channel producer,
  // so a warm rerun performs zero sampling while producing
  // byte-identical results.
  core::StreamingResult Out;
  core::StreamingWarmInfo Warm;
  if (CacheDir.empty()) {
    Out = Pipeline.synthesizeAndMeasure(runtime::amdPlatform(), SOpts);
  } else {
    Out = Pipeline.synthesizeAndMeasureOrLoad(CacheDir, runtime::amdPlatform(),
                                              SOpts, &Warm);
    // A refill run, or a model with no key, computes no synthesis key:
    // print one only when there is one.
    if (SOpts.RefillFailures)
      std::printf("stream: cold — sampled (refill runs always sample)\n");
    else if (Warm.KeyDigest == 0)
      std::printf("stream: cold — sampled (not persistable for this "
                  "config)\n");
    else
      std::printf("stream: %s (key %s)\n",
                  Warm.Warm ? "warm start — kernel set loaded, sampling "
                              "skipped"
                            : "cold — sampled + kernel set persisted",
                  store::hexDigest(Warm.KeyDigest).c_str());
  }

  size_t GpuBest = 0;
  FailureTally Tally;
  for (const auto &R : Out.Measurements) {
    Tally.add(R);
    if (R.ok() && R.get().gpuIsBest())
      ++GpuBest;
  }
  for (const core::ExcisedKernel &E : Out.Excised)
    Tally.addKind(E.Kind);
  // A warm start draws nothing: its stats are the archived run's.
  if (Warm.Warm)
    std::printf("pipeline: %zu kernels (0 attempts, %zu archived) in "
                "%.1f ms\n",
                Out.Kernels.size(), Out.Stats.Attempts, Out.TotalWallMs);
  else
    std::printf("pipeline: %zu kernels (%zu attempts) in %.1f ms\n",
                Out.Kernels.size(), Out.Stats.Attempts, Out.TotalWallMs);
  // Synthesis stops short of the target only when its attempt budget
  // runs out.
  if (Out.Kernels.size() < Cfg.TargetKernels)
    std::printf("pipeline: %zu of %zu delivered: attempt budget spent\n",
                Out.Kernels.size(), Cfg.TargetKernels);
  std::printf("overlap: producer (synthesis) active %.1f ms (%.0f%% of "
              "the wall), measurement drain tail after last accept "
              "%.1f ms\n",
              Out.SynthesisWallMs,
              Out.TotalWallMs > 0.0
                  ? 100.0 * Out.SynthesisWallMs / Out.TotalWallMs
                  : 0.0,
              Out.DrainWallMs);
  if (SOpts.Cache)
    std::printf("cache: %zu hits resolved at enqueue time, %zu misses "
                "measured\n",
                Out.CacheStats.Hits, Out.CacheStats.Misses);
  if (SOpts.Ledger)
    std::printf("ledger: %zu known-bad kernels skipped, %zu failures "
                "recorded\n",
                Out.CacheStats.LedgerHits, Out.CacheStats.LedgerRecords);
  if (SOpts.RefillFailures)
    std::printf("refill: %zu kernels excised (%zu accepted total for %zu "
                "delivered)\n",
                Out.Excised.size(), Out.Stats.Accepted,
                Out.Kernels.size());
  std::printf("mapping: %zu best on GPU, %zu on CPU, %zu failed\n", GpuBest,
              Tally.Ok - GpuBest, Tally.Failed);
  Tally.print();
  std::printf("pipeline total (incl. train): %.1f ms\n", Total.stopMs());
  return Tally.exitCode();
}

/// The --experiment mode: the paper's closing loop (predict/Experiment.h)
/// on the pinned golden configuration — train CLgen, synthesize +
/// measure synthetic benchmarks, measure the real suites, cross-validate
/// the device-mapping model with and without the synthetic rows, and
/// render Table 1 / Figure 9. With --cache-dir the three experiment
/// archives warm-start the whole stage: a second run trains zero models
/// and measures zero kernels.
int runExperimentMode(const RunnerConfig &Cfg) {
  PhaseTimer Total("clgen.runner.experiment_us");
  predict::ExperimentOptions Opts = predict::goldenExperimentOptions();
  if (Cfg.Folds)
    Opts.KFold.Folds = Cfg.Folds;
  if (Cfg.PredictWorkersSet) {
    // Scheduling-only by contract: any value yields identical bytes.
    Opts.Workers = Cfg.PredictWorkers;
    Opts.KFold.Workers = Cfg.PredictWorkers;
  }
  Opts.Streaming.Driver.WatchdogMs = Cfg.WatchdogMs;
  Opts.Streaming.Driver.MaxRetries = Cfg.Retries;

  predict::ExperimentResult R;
  if (Cfg.CacheDir.empty()) {
    R = predict::runExperiment(Opts);
  } else {
    auto Loaded = predict::runOrLoadExperiment(Cfg.CacheDir, Opts);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   Loaded.errorMessage().c_str());
      return 1;
    }
    R = Loaded.take();
  }

  std::printf("experiment: %s in %.1f ms — key %s\n",
              R.Provenance.Warm ? "warm start (all artifacts from store)"
                                : "computed cold",
              Total.stopMs(),
              store::hexDigest(predict::experimentKey(Opts)).c_str());
  std::printf("work: %zu models trained, %zu kernels measured\n",
              R.Provenance.TrainedModels, R.Provenance.MeasuredKernels);
  std::printf("observations: %zu real (%zu folds trained), %zu synthetic\n",
              R.Real.size(), R.Baseline.FoldsTrained, R.Synthetic.size());
  const predict::ExperimentMetrics &M = R.Metrics;
  std::printf("baseline : accuracy %.3f, vs oracle %.3f, speedup over "
              "static-%s %.3f\n",
              M.BaselineAccuracy, M.BaselineOracle,
              M.StaticLabel == 1 ? "GPU" : "CPU", M.BaselineSpeedup);
  std::printf("augmented: accuracy %.3f, vs oracle %.3f, speedup over "
              "static-%s %.3f\n",
              M.AugmentedAccuracy, M.AugmentedOracle,
              M.StaticLabel == 1 ? "GPU" : "CPU", M.AugmentedSpeedup);

  if (Cfg.ReportOut.empty()) {
    std::printf("\n%s\n%s", R.Table1.c_str(), R.Fig9.c_str());
    return 0;
  }
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.ReportOut, Ec);
  if (Ec) {
    std::fprintf(stderr, "cannot create report directory %s: %s\n",
                 Cfg.ReportOut.c_str(), Ec.message().c_str());
    return 1;
  }
  for (const auto &[Name, Body] :
       {std::pair<std::string, const std::string &>("experiment_table1.txt",
                                                    R.Table1),
        std::pair<std::string, const std::string &>("experiment_fig9.txt",
                                                    R.Fig9)}) {
    std::string Path = Cfg.ReportOut + "/" + Name;
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << Body;
    if (!F.flush()) {
      std::fprintf(stderr, "cannot write report file: %s\n", Path.c_str());
      return 1;
    }
    std::printf("report: wrote %s (%zu bytes)\n", Path.c_str(), Body.size());
  }
  return 0;
}

/// Writes --trace-out / --metrics-out. main runs this on EVERY pipeline
/// exit path — including the exit-3 zero-measurement failure, where the
/// partial trace/metrics are exactly the evidence you want. Returns
/// false when a file write failed (after reporting it).
bool flushTelemetry(const RunnerConfig &Cfg) {
  auto WriteFile = [](const std::string &Path, const std::string &Body) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    if (!F)
      return false;
    size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
    bool Ok = Written == Body.size() && std::fflush(F) == 0;
    return std::fclose(F) == 0 && Ok;
  };
  bool Ok = true;
  if (!Cfg.TraceOut.empty()) {
    support::Trace::stop();
    if (!WriteFile(Cfg.TraceOut, support::Trace::renderJson())) {
      std::fprintf(stderr, "cannot write trace file: %s\n",
                   Cfg.TraceOut.c_str());
      Ok = false;
    } else {
      std::printf("trace: %zu events (%zu dropped) -> %s\n",
                  support::Trace::eventCount(),
                  support::Trace::droppedCount(), Cfg.TraceOut.c_str());
    }
  }
  if (!Cfg.MetricsOut.empty()) {
    if (!WriteFile(Cfg.MetricsOut,
                   support::MetricsRegistry::renderText({}))) {
      std::fprintf(stderr, "cannot write metrics file: %s\n",
                   Cfg.MetricsOut.c_str());
      Ok = false;
    } else {
      std::printf("metrics: wrote %s\n", Cfg.MetricsOut.c_str());
    }
  }
  return Ok;
}

void tryKernel(const char *Label, const char *Source) {
  std::printf("=== %s ===\n", Label);
  auto Kernel = vm::compileFirstKernel(Source);
  if (!Kernel.ok()) {
    std::printf("rejected at compile time: %s\n\n",
                Kernel.errorMessage().c_str());
    return;
  }
  Rng R(42);
  runtime::CheckOptions COpts;
  auto CR = runtime::checkKernel(Kernel.get(), COpts, R);
  std::printf("dynamic checker: %s%s\n",
              runtime::checkOutcomeName(CR.Outcome),
              CR.Detail.empty() ? "" : (" - " + CR.Detail).c_str());
  if (!CR.useful()) {
    std::printf("\n");
    return;
  }
  runtime::DriverOptions DOpts;
  DOpts.GlobalSize = 65536;
  auto M = runtime::runBenchmark(Kernel.get(), runtime::amdPlatform(),
                                 DOpts);
  if (M.ok()) {
    const auto &C = M.get().Counters;
    std::printf("executed %llu instructions (%llu global loads, %llu "
                "stores, %.0f%% coalesced)\n",
                static_cast<unsigned long long>(C.Instructions),
                static_cast<unsigned long long>(C.GlobalLoads),
                static_cast<unsigned long long>(C.GlobalStores),
                C.globalAccesses()
                    ? 100.0 * C.CoalescedGlobal / C.globalAccesses()
                    : 0.0);
    std::printf("transfer: %llu bytes; CPU %.3f ms vs GPU %.3f ms\n",
                static_cast<unsigned long long>(M.get().Transfer.total()),
                M.get().CpuTime * 1e3, M.get().GpuTime * 1e3);
  }
  std::printf("\n");
}

} // namespace

void printUsage(const char *Prog, std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: %s [options]\n"
      "\n"
      "With no options: walks single kernels through the section 5 host\n"
      "driver (payload generation, dynamic checking, instrumented\n"
      "execution), then a batched measurement demo.\n"
      "\n"
      "Pipeline modes:\n"
      "  --pipeline            run the 40-kernel pipeline: synthesis streams\n"
      "                        straight into measurement through a bounded\n"
      "                        producer/consumer channel\n"
      "  --cache-dir DIR       run the same pipeline (implies --pipeline) on\n"
      "                        top of the persistent artifact store in DIR:\n"
      "                        cold runs train, sample and measure and\n"
      "                        populate it; warm runs load the model and\n"
      "                        the kernel set (zero sampling) and serve\n"
      "                        measurements from the result cache and the\n"
      "                        failure ledger\n"
      "  --experiment          run the paper's closing loop on the pinned\n"
      "                        golden configuration: train CLgen, measure\n"
      "                        synthetic + real benchmarks, cross-validate\n"
      "                        the device-mapping model with and without\n"
      "                        the synthetic rows, print Table 1 and the\n"
      "                        Figure 9 feature-match report. With\n"
      "                        --cache-dir, warm re-runs load all three\n"
      "                        experiment archives and do zero training\n"
      "                        and zero measurement\n"
      "\n"
      "Experiment knobs (with --experiment):\n"
      "  --folds N             K-fold count (semantic: changes the fold\n"
      "                        split, the predictions and the store key;\n"
      "                        default 3, the golden configuration)\n"
      "  --predict-workers N   threads for feature extraction and fold\n"
      "                        training; 0 = hardware concurrency.\n"
      "                        Scheduling only: report bytes are identical\n"
      "                        for every value\n"
      "  --report-out DIR      write experiment_table1.txt and\n"
      "                        experiment_fig9.txt into DIR instead of\n"
      "                        printing the reports\n"
      "\n"
      "Workload:\n"
      "  --kernels N           synthesis target (default 40)\n"
      "  --files N             githubsim corpus size in content files\n"
      "                        (default 400)\n"
      "\n"
      "Model / training:\n"
      "  --backend NAME        language model backend: ngram (default) or\n"
      "                        lstm\n"
      "  --train-workers N     threads for the data-parallel LSTM training\n"
      "                        engine; 0 = hardware concurrency (default).\n"
      "                        Scheduling only: trained weights are\n"
      "                        bit-identical for every value\n"
      "  --train-lanes N       LSTM data-parallel batch width (default 8).\n"
      "                        Semantic: changes the training trajectory\n"
      "                        and the artifact fingerprint; 1 = the\n"
      "                        paper's chunk-sequential SGD\n"
      "\n"
      "Streaming knobs (pipeline modes; scheduling only, output is\n"
      "bit-identical for every value):\n"
      "  --measure-workers N   measurement consumer threads; 0 = hardware\n"
      "                        concurrency (default)\n"
      "  --queue N             kernel channel capacity; 0 = auto (default)\n"
      "\n"
      "Fault tolerance (pipeline modes):\n"
      "  --refill              excise kernels whose measurement failed and\n"
      "                        resume synthesis for replacements until the\n"
      "                        target count of measurements succeeds;\n"
      "                        excisions are reported per trap class\n"
      "  --watchdog-ms N       per-launch wall-clock watchdog in ms; a\n"
      "                        stalled kernel fails as watchdog-timeout\n"
      "                        instead of wedging the batch (0 = off,\n"
      "                        default)\n"
      "  --retries N           retry budget for transient failure classes\n"
      "                        (injected faults, I/O); deterministic traps\n"
      "                        never retry (default 2)\n"
      "  --inject P            arm every failpoint site with trip\n"
      "                        probability P in (0,1]\n"
      "\n"
      "Telemetry (pipeline modes; observation only — output is\n"
      "bit-identical with or without these flags):\n"
      "  --trace-out FILE      write Chrome trace-event JSON of the run\n"
      "                        (a span per kernel lifecycle stage: sample,\n"
      "                        filter, accept, enqueue, measure,\n"
      "                        cache/ledger writes; load in Perfetto)\n"
      "  --metrics-out FILE    write the metrics registry text exposition\n"
      "                        after the run\n"
      "\n"
      "A pipeline run that delivers zero successful measurements —\n"
      "whether every kernel failed or the delivery was empty — exits\n"
      "with status 3 and prints the per-class failure table; telemetry\n"
      "files are still written on that path.\n"
      "\n"
      "  --help                this text\n",
      Prog);
}

int main(int Argc, char **Argv) {
  RunnerConfig Cfg;
  // strtoul silently wraps negative input, so accept digits only.
  auto ParseDigits = [](const std::string &Text, unsigned long &Out) {
    bool Digits = !Text.empty() &&
                  Text.find_first_not_of("0123456789") == std::string::npos;
    Out = Digits ? std::strtoul(Text.c_str(), nullptr, 10) : 0;
    return Digits;
  };
  auto ParseCount = [&ParseDigits](const std::string &Text,
                                   unsigned long &Out) {
    return ParseDigits(Text, Out) && Out != 0;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    unsigned long N = 0;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(Argv[0], stdout);
      return 0;
    } else if (Arg == "--cache-dir" && I + 1 < Argc) {
      Cfg.CacheDir = Argv[++I];
    } else if (Arg == "--pipeline") {
      Cfg.Pipeline = true;
    } else if (Arg == "--experiment") {
      Cfg.Experiment = true;
    } else if (Arg == "--folds" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N) || N > 64) {
        std::fprintf(stderr, "--folds expects an integer in [1, 64]\n");
        return 2;
      }
      Cfg.Folds = N;
      Cfg.ExperimentFlagSet = true;
    } else if (Arg == "--predict-workers" && I + 1 < Argc) {
      if (!ParseDigits(Argv[++I], N) || N > (1ul << 10)) {
        std::fprintf(stderr,
                     "--predict-workers expects an integer in [0, %lu] "
                     "(0 = hardware concurrency)\n",
                     1ul << 10);
        return 2;
      }
      Cfg.PredictWorkers = static_cast<unsigned>(N);
      Cfg.PredictWorkersSet = true;
      Cfg.ExperimentFlagSet = true;
    } else if (Arg == "--report-out" && I + 1 < Argc) {
      Cfg.ReportOut = Argv[++I];
      Cfg.ExperimentFlagSet = true;
    } else if (Arg == "--backend" && I + 1 < Argc) {
      std::string Backend = Argv[++I];
      if (Backend == "lstm") {
        Cfg.UseLstm = true;
      } else if (Backend != "ngram") {
        std::fprintf(stderr, "--backend expects 'ngram' or 'lstm'\n");
        return 2;
      }
    } else if (Arg == "--kernels" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N)) {
        std::fprintf(stderr, "--kernels expects a positive integer\n");
        return 2;
      }
      Cfg.TargetKernels = N;
      Cfg.WorkloadFlagSet = true;
    } else if (Arg == "--files" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N)) {
        std::fprintf(stderr, "--files expects a positive integer\n");
        return 2;
      }
      Cfg.FileCount = N;
      Cfg.WorkloadFlagSet = true;
    } else if (Arg == "--train-workers" && I + 1 < Argc) {
      if (!ParseDigits(Argv[++I], N) || N > (1ul << 20)) {
        std::fprintf(stderr,
                     "--train-workers expects an integer in [0, %lu] "
                     "(0 = hardware concurrency)\n",
                     1ul << 20);
        return 2;
      }
      Cfg.TrainWorkers = static_cast<unsigned>(N);
      Cfg.TrainFlagSet = true;
    } else if (Arg == "--train-lanes" && I + 1 < Argc) {
      // Bounded by the model's own clamp range, so the value round-trips
      // through the int option and the serialized archive unchanged.
      if (!ParseCount(Argv[++I], N) ||
          N > static_cast<unsigned long>(model::LstmOptions::MaxBatchLanes)) {
        std::fprintf(stderr, "--train-lanes expects an integer in [1, %d]\n",
                     model::LstmOptions::MaxBatchLanes);
        return 2;
      }
      Cfg.TrainLanes = static_cast<int>(N);
      Cfg.TrainFlagSet = true;
    } else if (Arg == "--measure-workers" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N)) {
        std::fprintf(stderr,
                     "--measure-workers expects a positive integer\n");
        return 2;
      }
      Cfg.MeasureWorkers = static_cast<unsigned>(N);
      Cfg.StreamFlagSet = true;
    } else if (Arg == "--queue" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N)) {
        std::fprintf(stderr, "--queue expects a positive integer\n");
        return 2;
      }
      Cfg.QueueCapacity = N;
      Cfg.StreamFlagSet = true;
    } else if (Arg == "--refill") {
      Cfg.Refill = true;
    } else if (Arg == "--watchdog-ms" && I + 1 < Argc) {
      if (!ParseCount(Argv[++I], N)) {
        std::fprintf(stderr, "--watchdog-ms expects a positive integer\n");
        return 2;
      }
      Cfg.WatchdogMs = N;
      Cfg.DriverFlagSet = true;
    } else if (Arg == "--retries" && I + 1 < Argc) {
      if (!ParseDigits(Argv[++I], N) || N > 100) {
        std::fprintf(stderr, "--retries expects an integer in [0, 100]\n");
        return 2;
      }
      Cfg.Retries = static_cast<unsigned>(N);
      Cfg.DriverFlagSet = true;
    } else if (Arg == "--trace-out" && I + 1 < Argc) {
      Cfg.TraceOut = Argv[++I];
      Cfg.TelemetryFlagSet = true;
    } else if (Arg == "--metrics-out" && I + 1 < Argc) {
      Cfg.MetricsOut = Argv[++I];
      Cfg.TelemetryFlagSet = true;
    } else if (Arg == "--inject" && I + 1 < Argc) {
      char *End = nullptr;
      double Prob = std::strtod(Argv[++I], &End);
      if (End == Argv[I] || *End != '\0' || !(Prob > 0.0) || Prob > 1.0) {
        std::fprintf(stderr, "--inject expects a probability in (0, 1]\n");
        return 2;
      }
      Cfg.InjectProb = Prob;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n\n",
                   Arg.c_str());
      printUsage(Argv[0], stderr);
      return 2;
    }
  }
  // Reject flag combinations that would be silently ignored: every
  // option the user passes must affect the run it configures.
  if (Cfg.ExperimentFlagSet && !Cfg.Experiment) {
    std::fprintf(stderr, "--folds/--predict-workers/--report-out only "
                         "apply to --experiment\n");
    return 2;
  }
  if (Cfg.Experiment &&
      (Cfg.Pipeline || Cfg.UseLstm || Cfg.WorkloadFlagSet ||
       Cfg.StreamFlagSet || Cfg.Refill)) {
    std::fprintf(stderr,
                 "--experiment runs the pinned golden configuration; it "
                 "combines only with --cache-dir, the experiment knobs, "
                 "--watchdog-ms/--retries and telemetry flags\n");
    return 2;
  }
  bool PipelineMode =
      Cfg.Pipeline || Cfg.Experiment || !Cfg.CacheDir.empty();
  if (Cfg.UseLstm && !PipelineMode) {
    std::fprintf(stderr, "--backend lstm requires a pipeline mode "
                         "(--cache-dir and/or --pipeline)\n");
    return 2;
  }
  if (Cfg.WorkloadFlagSet && !PipelineMode) {
    std::fprintf(stderr, "--kernels/--files require a pipeline mode "
                         "(--cache-dir and/or --pipeline)\n");
    return 2;
  }
  if (Cfg.TrainFlagSet && !Cfg.UseLstm) {
    std::fprintf(stderr, "--train-workers/--train-lanes only apply to "
                         "--backend lstm\n");
    return 2;
  }
  if ((Cfg.StreamFlagSet || Cfg.Refill) && !PipelineMode) {
    std::fprintf(stderr, "--measure-workers/--queue/--refill require a "
                         "pipeline mode (--cache-dir and/or --pipeline)\n");
    return 2;
  }
  if (Cfg.DriverFlagSet && !PipelineMode) {
    std::fprintf(stderr,
                 "--watchdog-ms/--retries require a pipeline mode "
                 "(--cache-dir and/or --pipeline)\n");
    return 2;
  }
  if (Cfg.TelemetryFlagSet && !PipelineMode) {
    std::fprintf(stderr,
                 "--trace-out/--metrics-out require a pipeline mode "
                 "(--cache-dir and/or --pipeline)\n");
    return 2;
  }
  if (Cfg.InjectProb > 0.0) {
    support::FailPlan Plan;
    Plan.Probability = Cfg.InjectProb;
    support::FailPoints::arm(Plan);
    std::printf("failpoints: armed every site at p=%.3f\n", Cfg.InjectProb);
  }
  if (!Cfg.TraceOut.empty())
    support::Trace::start();
  int Exit = -1;
  if (Cfg.Experiment)
    Exit = runExperimentMode(Cfg);
  else if (Cfg.Pipeline || !Cfg.CacheDir.empty())
    Exit = runPipeline(Cfg);
  if (Exit >= 0) {
    if (!flushTelemetry(Cfg) && Exit == 0)
      Exit = 1;
    if (support::FailPoints::armed())
      std::printf("failpoints: %llu injected faults fired\n",
                  static_cast<unsigned long long>(
                      support::FailPoints::totalFires()));
    return Exit;
  }

  tryKernel("useful work: guarded vector scale",
            "__kernel void scale(__global float* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  if (i < n) { a[i] = a[i] * 2.0f + 1.0f; }\n"
            "}\n");

  tryKernel("no output: writes nothing",
            "__kernel void silent(__global float* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  float x = a[i % n] * 2.0f;\n"
            "  x = x + 1.0f;\n"
            "}\n");

  tryKernel("input insensitive: constant output",
            "__kernel void constant_out(__global float* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  if (i < n) { a[i] = 4.0f; }\n"
            "}\n");

  tryKernel("crash: out-of-bounds write",
            "__kernel void oob(__global float* a, const int n) {\n"
            "  a[get_global_id(0) + n] = 1.0f;\n"
            "}\n");

  tryKernel("timeout: runs forever",
            "__kernel void spin(__global float* a, const int n) {\n"
            "  while (1) { a[0] += 1.0f; }\n"
            "}\n");

  tryKernel("rejected: undeclared identifier (shim-class failure)",
            "__kernel void broken(__global float* a) {\n"
            "  a[get_global_id(0)] = MISSING_CONSTANT;\n"
            "}\n");

  // Batched measurement: the driver fans a kernel set across a worker
  // pool (results deterministic and index-aligned regardless of worker
  // count) — the consumer side of the parallel synthesis engine.
  std::printf("=== batched measurement (worker pool) ===\n");
  std::vector<vm::CompiledKernel> Batch;
  const char *Variants[] = {"a[i] = a[i] * 2.0f;", "a[i] = a[i] + 7.0f;",
                            "a[i] = a[i] * a[i];", "a[i] = -a[i];"};
  for (const char *Body : Variants) {
    std::string Src = "__kernel void v(__global float* a, const int n) {\n"
                      "  int i = get_global_id(0);\n"
                      "  if (i < n) { " +
                      std::string(Body) +
                      " }\n"
                      "}\n";
    Batch.push_back(vm::compileFirstKernel(Src).take());
  }
  runtime::DriverOptions BatchOpts;
  BatchOpts.GlobalSize = 16384;
  auto T0 = std::chrono::steady_clock::now();
  auto Results =
      runtime::runBenchmarkBatch(Batch, runtime::amdPlatform(), BatchOpts);
  auto T1 = std::chrono::steady_clock::now();
  for (size_t I = 0; I < Results.size(); ++I) {
    if (!Results[I].ok()) {
      std::printf("kernel %zu: %s\n", I, Results[I].errorMessage().c_str());
      continue;
    }
    std::printf("kernel %zu: CPU %.3f ms vs GPU %.3f ms -> %s\n", I,
                Results[I].get().CpuTime * 1e3,
                Results[I].get().GpuTime * 1e3,
                Results[I].get().gpuIsBest() ? "GPU" : "CPU");
  }
  std::printf("batch wall time: %.1f ms\n",
              std::chrono::duration<double, std::milli>(T1 - T0).count());
  return 0;
}
