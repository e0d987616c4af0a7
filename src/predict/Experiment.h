//===- predict/Experiment.h - End-to-end predictive experiment ---*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's closing loop as one reusable stage: train CLgen on the
/// mined corpus, stream-synthesize + measure synthetic benchmarks
/// (core::synthesizeAndMeasure), measure the real benchmark suites,
/// cross-validate the device-mapping model with and without the
/// synthetic training rows (deterministic grouped K-fold), and render
/// the paper artifacts — the Table 1 cross-suite grid and the Figure 9
/// feature-match report.
///
/// Determinism contract: every parallel stage inside the experiment
/// (feature extraction, measurement fan-out, fold training) merges
/// order-preservingly or writes disjoint slots keyed by input index,
/// and the K-fold split is counter-keyed (predict/Evaluation.h), so an
/// ExperimentResult — including both report strings, byte for byte —
/// is a pure function of the SEMANTIC options only. Worker counts and
/// queue capacities can never change a byte of output. The golden tier (tests/golden/) pins this.
///
/// Warm starts: runOrLoadExperiment persists the observation set, the
/// trained model and the evaluation report as three store archives
/// (kinds 7/8/9, docs/STORE_FORMAT.md) under one experiment key, with
/// the standard lock-free-probe / lock-on-miss / re-probe protocol, so
/// a warm re-run performs zero training and zero measurement — the
/// provenance counters prove it.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_PREDICT_EXPERIMENT_H
#define CLGEN_PREDICT_EXPERIMENT_H

#include "clgen/Pipeline.h"
#include "predict/Evaluation.h"
#include "suites/Runner.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace clgen {
namespace predict {

/// Configuration of one end-to-end experiment. Fields marked SEMANTIC
/// are part of experimentKey(); the rest are scheduling-only and by
/// contract cannot change any output byte.
struct ExperimentOptions {
  /// SEMANTIC: size of the mined GitHub-sim snapshot the model trains
  /// on, and the n-gram order.
  size_t CorpusFiles = 100;
  int NGramOrder = 16;
  /// Synthesis + streaming measurement of the synthetic benchmarks.
  /// SEMANTIC: Synthesis.{TargetKernels, MaxAttempts, Spec, Sampling,
  /// Seed}, Driver.{GlobalSize, LocalSize, MaxSimulatedGroups,
  /// MaxInstructions, Seed, TrapDivZero, RunDynamicCheck} and
  /// RefillFailures. Scheduling-only: Synthesis.Workers/WaveSize,
  /// MeasureWorkers, QueueCapacity, Driver.{WatchdogMs, MaxRetries}.
  core::StreamingOptions Streaming;
  /// SEMANTIC: benchmark suites to measure (empty = all seven, in
  /// suites::suiteNames() order) and the catalogue runner knobs.
  std::vector<std::string> Suites;
  suites::RunnerOptions Runner;
  /// SEMANTIC: feature layout, tree hyper-parameters, fold count and
  /// fold-assignment seed. KFold.Workers is scheduling-only.
  FeatureSetKind Kind = FeatureSetKind::Grewe;
  TreeOptions Tree;
  KFoldOptions KFold;
  /// SEMANTIC: row cap of the Figure 9 report (overflow is summarised).
  size_t Fig9MaxRows = 32;
  /// Scheduling-only: feature-extraction threads (0 = hardware).
  unsigned Workers = 1;
};

/// Headline metrics of one experiment, baseline vs CLgen-augmented.
struct ExperimentMetrics {
  int StaticLabel = 0; // Best single-device mapping over the real obs.
  double BaselineAccuracy = 0.0;
  double BaselineOracle = 0.0;
  double BaselineSpeedup = 0.0;
  double AugmentedAccuracy = 0.0;
  double AugmentedOracle = 0.0;
  double AugmentedSpeedup = 0.0;
};

/// What this call actually did, for warm-start assertions: a warm
/// runOrLoadExperiment returns with both work counters at zero.
struct ExperimentProvenance {
  /// True when every artifact was served from the store.
  bool Warm = false;
  /// Decision trees fitted during this call (folds x 2 runs + the
  /// Table 1 grids + the final model).
  size_t TrainedModels = 0;
  /// Driver measurements executed during this call (real + synthetic).
  size_t MeasuredKernels = 0;
};

/// Everything one experiment produces.
struct ExperimentResult {
  /// Labelled observations: real benchmark suites and CLgen synthetic
  /// benchmarks (suite "clgen", never on any test side).
  std::vector<Observation> Real;
  std::vector<Observation> Synthetic;
  /// K-fold runs without / with the synthetic training rows.
  KFoldResult Baseline;
  KFoldResult Augmented;
  ExperimentMetrics Metrics;
  /// The paper artifacts (predict/Report.h renderers; byte-stable).
  std::string Table1;
  std::string Fig9;
  /// Final device-mapping model, trained on real + synthetic.
  DecisionTree Model;
  ExperimentProvenance Provenance;
};

/// The content key runOrLoadExperiment addresses its three archives by:
/// a digest of the training fingerprint (corpus content + model
/// options) and every SEMANTIC experiment option. Exposed for tests
/// and store tooling.
uint64_t experimentKey(const ExperimentOptions &Opts);

/// Runs the full experiment cold, with no store involvement.
ExperimentResult runExperiment(const ExperimentOptions &Opts);

/// Lock-free warm probe: loads the experiment from \p StoreDir if all
/// three archives (features, predictor, report) are present and intact
/// under experimentKey(Opts), else fails without doing any work. Never
/// takes a lock, never writes. This is the probe runOrLoadExperiment's
/// fast path uses, exposed for corruption tests.
Result<ExperimentResult> loadExperiment(const std::string &StoreDir,
                                        const ExperimentOptions &Opts);

/// Warm-start layer over runExperiment: probe (lock-free) -> on miss
/// acquire the advisory experiment lock, re-probe, compute, publish
/// the three archives atomically. Model training and synthetic
/// measurement inside a cold run additionally reuse the store's
/// model/corpus/result-cache/ledger layers under the same directory,
/// so even a half-warm store skips the expensive phases it can.
/// Concurrent cold runs of one configuration train exactly once; lock
/// timeouts degrade to duplicated byte-identical work, never an error.
/// Fails only when \p StoreDir cannot be created or written.
Result<ExperimentResult> runOrLoadExperiment(const std::string &StoreDir,
                                             const ExperimentOptions &Opts);

/// The pinned configuration of the golden regression tier: small
/// corpus, three suites, a handful of synthetic kernels — chosen so a
/// cold run completes in seconds while still exercising every stage.
/// Shared by tests/predict/ExperimentGoldenTest.cpp, the check_golden
/// fixture and the runner's --experiment default so they can never
/// drift apart.
ExperimentOptions goldenExperimentOptions();

} // namespace predict
} // namespace clgen

#endif // CLGEN_PREDICT_EXPERIMENT_H
