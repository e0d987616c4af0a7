//===- tests/predict/ExperimentGoldenTest.cpp - Golden-artifact tier ----------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The golden regression tier: the pinned experiment configuration
// (predict::goldenExperimentOptions) must produce Table 1 and Figure 9
// report bytes IDENTICAL to the files checked in under tests/golden/,
// for every scheduling configuration — worker counts {1, 2, hardware},
// cold compute and warm store load — and with every synthetic-kernel
// launch profiled, which runs the VM's portable switch loop instead of
// its computed-goto loop. Any semantic drift in synthesis, measurement,
// feature extraction, fold assignment, tree training or report
// rendering shows up here as a byte diff.
//
// Regenerating after an INTENTIONAL semantic change:
//   CLGS_REGEN_GOLDEN=1 ./clgen_tests --gtest_filter='ExperimentGolden*'
// then review the diff and commit the new files.
//
// Also here: the every-byte corruption fuzz over the three new archive
// kinds (features/predictor/report) — every single-byte flip must turn
// the warm probe into an honest miss, never into served garbage.
//
//===----------------------------------------------------------------------===//

#include "predict/Experiment.h"
#include "store/Archive.h"
#include "vm/Profile.h"

#include "../TestUtil.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace clgen;
using namespace clgen::predict;
using testutil::ScratchDir;

namespace {

std::string goldenDir() {
  return std::string(CLGS_SOURCE_DIR) + "/tests/golden";
}

std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return {};
  std::ostringstream Out;
  Out << F.rdbuf();
  return Out.str();
}

/// One scheduling configuration of the golden matrix. Every entry must
/// yield the same bytes — these knobs are scheduling-only by contract,
/// and the driver profile is pure observation.
struct MatrixEntry {
  const char *Name;
  unsigned Workers;
  /// Attach MatrixProfile, which sends every synthetic-kernel launch,
  /// the dynamic checker's included, through the VM's switch loop: the
  /// loop unprofiled runs do not take on GCC and Clang.
  bool Profiled;
};

const MatrixEntry Matrix[] = {
    {"w1", 1, false},
    {"w2", 2, false},
    {"whw", 0, false},
    {"w1_switch_loop", 1, true},
};

vm::SharedOpcodeProfile MatrixProfile;

ExperimentOptions matrixOptions(const MatrixEntry &E) {
  ExperimentOptions Opts = goldenExperimentOptions();
  Opts.Workers = E.Workers;
  Opts.KFold.Workers = E.Workers;
  Opts.Streaming.Synthesis.Workers = E.Workers;
  Opts.Streaming.MeasureWorkers = E.Workers;
  Opts.Streaming.Driver.Profile = E.Profiled ? &MatrixProfile : nullptr;
  return Opts;
}

TEST(ExperimentGoldenTest, ReportBytesMatchGoldensAcrossScheduleMatrix) {
  const std::string Table1Path = goldenDir() + "/experiment_table1.txt";
  const std::string Fig9Path = goldenDir() + "/experiment_fig9.txt";

  if (std::getenv("CLGS_REGEN_GOLDEN")) {
    ExperimentResult R = runExperiment(goldenExperimentOptions());
    std::filesystem::create_directories(goldenDir());
    std::ofstream(Table1Path, std::ios::binary) << R.Table1;
    std::ofstream(Fig9Path, std::ios::binary) << R.Fig9;
    GTEST_SKIP() << "goldens regenerated; review and commit the diff";
  }

  const std::string GoldenTable1 = readFileOrEmpty(Table1Path);
  const std::string GoldenFig9 = readFileOrEmpty(Fig9Path);
  ASSERT_FALSE(GoldenTable1.empty()) << "missing golden: " << Table1Path;
  ASSERT_FALSE(GoldenFig9.empty()) << "missing golden: " << Fig9Path;

  // Cold computes: every scheduling configuration, byte-for-byte.
  for (const MatrixEntry &E : Matrix) {
    SCOPED_TRACE(E.Name);
    uint64_t ProfiledBefore = MatrixProfile.snapshot().Launches;
    ExperimentResult R = runExperiment(matrixOptions(E));
    EXPECT_EQ(R.Table1, GoldenTable1);
    EXPECT_EQ(R.Fig9, GoldenFig9);
    if (E.Profiled) {
      EXPECT_GT(MatrixProfile.snapshot().Launches, ProfiledBefore)
          << "no launch ran the switch loop";
    }
  }

  // Warm loads: prime a store once (scheduling knobs are excluded from
  // the key, so one store serves every matrix entry), then every
  // configuration must load the same bytes with zero work done.
  ScratchDir Store("clgen_golden_test_", "matrix_store");
  auto Cold = runOrLoadExperiment(Store.str(), matrixOptions(Matrix[0]));
  ASSERT_TRUE(Cold.ok()) << Cold.errorMessage();
  for (const MatrixEntry &E : Matrix) {
    SCOPED_TRACE(E.Name);
    auto Warm = runOrLoadExperiment(Store.str(), matrixOptions(E));
    ASSERT_TRUE(Warm.ok()) << Warm.errorMessage();
    EXPECT_TRUE(Warm.get().Provenance.Warm);
    EXPECT_EQ(Warm.get().Provenance.TrainedModels, 0u);
    EXPECT_EQ(Warm.get().Provenance.MeasuredKernels, 0u);
    EXPECT_EQ(Warm.get().Table1, GoldenTable1);
    EXPECT_EQ(Warm.get().Fig9, GoldenFig9);
  }
}

TEST(ExperimentGoldenTest, EveryByteFlipDegradesToHonestColdMiss) {
  if (std::getenv("CLGS_REGEN_GOLDEN"))
    GTEST_SKIP() << "regeneration run";

  ScratchDir Store("clgen_golden_test_", "fuzz_store");
  ExperimentOptions Opts = goldenExperimentOptions();
  auto Cold = runOrLoadExperiment(Store.str(), Opts);
  ASSERT_TRUE(Cold.ok()) << Cold.errorMessage();
  ASSERT_TRUE(loadExperiment(Store.str(), Opts).ok());

  uint64_t Key = experimentKey(Opts);
  for (const char *What : {"features", "predictor", "report"}) {
    std::string Path = Store.str() + "/" + What + "-" +
                       store::hexDigest(Key) + ".clgs";
    std::string Bytes = readFileOrEmpty(Path);
    ASSERT_FALSE(Bytes.empty()) << Path;
    SCOPED_TRACE(What);
    size_t Survived = 0;
    for (size_t I = 0; I < Bytes.size(); ++I) {
      std::string Corrupt = Bytes;
      Corrupt[I] ^= 0x01;
      {
        std::ofstream F(Path, std::ios::binary | std::ios::trunc);
        F << Corrupt;
      }
      if (loadExperiment(Store.str(), Opts).ok())
        ++Survived;
    }
    // The checksum spans header and payload, so no single-byte flip
    // may ever produce a loadable archive.
    EXPECT_EQ(Survived, 0u);
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
  }

  // Intact again: the warm probe recovers without recomputation.
  auto Warm = loadExperiment(Store.str(), Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.errorMessage();
  EXPECT_EQ(Warm.get().Table1, Cold.get().Table1);
  EXPECT_EQ(Warm.get().Fig9, Cold.get().Fig9);
}

} // namespace
