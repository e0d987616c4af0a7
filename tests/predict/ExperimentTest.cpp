//===- tests/predict/ExperimentTest.cpp - Experiment engine tests -------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tier for predict::Experiment: scheduling-knob independence (the
// determinism contract), the cold -> warm store round trip with its
// zero-work provenance guarantee, key sensitivity, and corruption
// degrading to an honest miss. The heavier byte-for-byte matrix against
// checked-in goldens lives in ExperimentGoldenTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "predict/Experiment.h"

#include "../TestUtil.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>

using namespace clgen;
using namespace clgen::predict;
using testutil::ScratchDir;

namespace {

/// The smallest configuration that still exercises every stage: a tiny
/// corpus, two real suites, a few synthetic kernels.
ExperimentOptions tinyOptions() {
  ExperimentOptions O;
  O.CorpusFiles = 400; // Smallest corpus that clears the dynamic checker.
  O.NGramOrder = 16;
  O.Streaming.Synthesis.TargetKernels = 3;
  O.Streaming.Synthesis.MaxAttempts = 1800;
  O.Streaming.Synthesis.Sampling.Temperature = 0.55;
  O.Streaming.Driver.GlobalSize = 2048;
  O.Streaming.Driver.MaxSimulatedGroups = 4;
  O.Streaming.Driver.RunDynamicCheck = true;
  O.Streaming.RefillFailures = true;
  O.Suites = {"Parboil", "NVIDIA SDK"};
  O.Runner.MaxSimulatedGroups = 4;
  O.KFold.Folds = 3;
  return O;
}

void expectSameResult(const ExperimentResult &A, const ExperimentResult &B) {
  EXPECT_EQ(A.Real.size(), B.Real.size());
  EXPECT_EQ(A.Synthetic.size(), B.Synthetic.size());
  EXPECT_EQ(A.Baseline.Predictions, B.Baseline.Predictions);
  EXPECT_EQ(A.Baseline.FoldOf, B.Baseline.FoldOf);
  EXPECT_EQ(A.Baseline.FoldsTrained, B.Baseline.FoldsTrained);
  EXPECT_EQ(A.Augmented.Predictions, B.Augmented.Predictions);
  EXPECT_EQ(A.Augmented.FoldOf, B.Augmented.FoldOf);
  EXPECT_EQ(A.Metrics.StaticLabel, B.Metrics.StaticLabel);
  EXPECT_EQ(A.Metrics.BaselineAccuracy, B.Metrics.BaselineAccuracy);
  EXPECT_EQ(A.Metrics.BaselineOracle, B.Metrics.BaselineOracle);
  EXPECT_EQ(A.Metrics.BaselineSpeedup, B.Metrics.BaselineSpeedup);
  EXPECT_EQ(A.Metrics.AugmentedAccuracy, B.Metrics.AugmentedAccuracy);
  EXPECT_EQ(A.Metrics.AugmentedOracle, B.Metrics.AugmentedOracle);
  EXPECT_EQ(A.Metrics.AugmentedSpeedup, B.Metrics.AugmentedSpeedup);
  EXPECT_EQ(A.Table1, B.Table1);
  EXPECT_EQ(A.Fig9, B.Fig9);
}

TEST(ExperimentTest, ProducesEveryStageOutput) {
  ExperimentResult R = runExperiment(tinyOptions());
  EXPECT_FALSE(R.Real.empty());
  EXPECT_FALSE(R.Synthetic.empty());
  EXPECT_EQ(R.Baseline.Predictions.size(), R.Real.size());
  EXPECT_EQ(R.Augmented.Predictions.size(), R.Real.size());
  EXPECT_GT(R.Baseline.FoldsTrained, 0u);
  EXPECT_FALSE(R.Table1.empty());
  EXPECT_FALSE(R.Fig9.empty());
  EXPECT_TRUE(R.Model.trained());
  EXPECT_FALSE(R.Provenance.Warm);
  EXPECT_GT(R.Provenance.TrainedModels, 0u);
  EXPECT_GT(R.Provenance.MeasuredKernels, 0u);
  // Synthetic rows carry the reserved suite name, never a real one.
  for (const Observation &O : R.Synthetic)
    EXPECT_EQ(O.Suite, "clgen");
}

TEST(ExperimentTest, SchedulingKnobsCannotChangeAnyOutput) {
  ExperimentOptions Serial = tinyOptions();
  ExperimentOptions Parallel = tinyOptions();
  Parallel.Workers = 0; // Hardware concurrency.
  Parallel.KFold.Workers = 3;
  Parallel.Streaming.MeasureWorkers = 3;
  Parallel.Streaming.QueueCapacity = 2;
  Parallel.Streaming.Synthesis.Workers = 2;
  ASSERT_EQ(experimentKey(Serial), experimentKey(Parallel));
  expectSameResult(runExperiment(Serial), runExperiment(Parallel));
}

TEST(ExperimentTest, KeyTracksSemanticOptionsOnly) {
  ExperimentOptions Base = tinyOptions();
  uint64_t Key = experimentKey(Base);

  ExperimentOptions Folds = Base;
  Folds.KFold.Folds = 4;
  EXPECT_NE(experimentKey(Folds), Key);

  ExperimentOptions Seed = Base;
  Seed.KFold.Seed += 1;
  EXPECT_NE(experimentKey(Seed), Key);

  ExperimentOptions Kernels = Base;
  Kernels.Streaming.Synthesis.TargetKernels += 1;
  EXPECT_NE(experimentKey(Kernels), Key);

  ExperimentOptions Suites = Base;
  Suites.Suites = {"Parboil"};
  EXPECT_NE(experimentKey(Suites), Key);

  ExperimentOptions Corpus = Base;
  Corpus.CorpusFiles += 10;
  EXPECT_NE(experimentKey(Corpus), Key);
}

TEST(ExperimentTest, ColdRunThenWarmLoadIsByteIdenticalAndWorkFree) {
  ScratchDir Dir("clgen_experiment_test_", "cold_warm");
  ExperimentOptions Opts = tinyOptions();

  auto Cold = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Cold.ok()) << Cold.errorMessage();
  EXPECT_FALSE(Cold.get().Provenance.Warm);
  EXPECT_GT(Cold.get().Provenance.TrainedModels, 0u);
  EXPECT_GT(Cold.get().Provenance.MeasuredKernels, 0u);

  auto Warm = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.errorMessage();
  EXPECT_TRUE(Warm.get().Provenance.Warm);
  EXPECT_EQ(Warm.get().Provenance.TrainedModels, 0u);
  EXPECT_EQ(Warm.get().Provenance.MeasuredKernels, 0u);
  expectSameResult(Cold.get(), Warm.get());

  // The warm model predicts identically to the cold one.
  std::vector<Observation> All = Cold.get().Real;
  for (const Observation &O : All)
    EXPECT_EQ(Warm.get().Model.predict(featureVector(O, Opts.Kind)),
              Cold.get().Model.predict(featureVector(O, Opts.Kind)));
}

TEST(ExperimentTest, LoadFailsOnColdStoreWithoutDoingWork) {
  ScratchDir Dir("clgen_experiment_test_", "cold_probe");
  auto Probe = loadExperiment(Dir.str(), tinyOptions());
  EXPECT_FALSE(Probe.ok());
}

TEST(ExperimentTest, CorruptArchiveDegradesToHonestMiss) {
  ScratchDir Dir("clgen_experiment_test_", "corrupt");
  ExperimentOptions Opts = tinyOptions();
  auto Cold = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Cold.ok()) << Cold.errorMessage();
  ASSERT_TRUE(loadExperiment(Dir.str(), Opts).ok());

  // Flip one payload byte of the predictor archive: the checksum must
  // reject it and the probe must fail instead of serving garbage.
  std::string Path;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir.str()))
    if (Entry.path().filename().string().rfind("predictor-", 0) == 0)
      Path = Entry.path().string();
  ASSERT_FALSE(Path.empty());
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(0, std::ios::end);
    auto Size = static_cast<long>(F.tellg());
    F.seekp(Size / 2);
    char B = 0;
    F.seekg(Size / 2);
    F.read(&B, 1);
    B ^= 0x40;
    F.seekp(Size / 2);
    F.write(&B, 1);
  }
  EXPECT_FALSE(loadExperiment(Dir.str(), Opts).ok());

  // And runOrLoad recovers by recomputing + republishing.
  auto Recovered = runOrLoadExperiment(Dir.str(), Opts);
  ASSERT_TRUE(Recovered.ok()) << Recovered.errorMessage();
  EXPECT_FALSE(Recovered.get().Provenance.Warm);
  expectSameResult(Cold.get(), Recovered.get());
  EXPECT_TRUE(loadExperiment(Dir.str(), Opts).ok());
}

} // namespace
