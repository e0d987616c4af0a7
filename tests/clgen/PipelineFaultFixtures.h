//===- tests/clgen/PipelineFaultFixtures.h - refill workload --*- C++ -*-===//
//
// The shared workload and checks of the refill tests: PipelineFaultTest
// here, and the failpoint-armed refill scenario under tests/failpoints/,
// which builds into its own binary.
//
//===----------------------------------------------------------------------===//

#ifndef CLGEN_TESTS_CLGEN_PIPELINEFAULTFIXTURES_H
#define CLGEN_TESTS_CLGEN_PIPELINEFAULTFIXTURES_H

#include "clgen/Pipeline.h"

#include "githubsim/GithubSim.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

namespace clgen {
namespace faulttest {

/// Fresh per-test scratch directory, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("clgen_fault_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

inline std::vector<uint8_t>
measurementBytes(const Result<runtime::Measurement> &M) {
  store::ArchiveWriter W(store::ArchiveKind::Measurement);
  W.writeBool(M.ok());
  if (M.ok())
    store::serializeMeasurement(W, M.get());
  else
    W.writeString(M.errorMessage());
  return W.finalize();
}

struct FaultWorkload {
  std::unique_ptr<core::ClgenPipeline> Pipeline;
  core::StreamingOptions Opts;
  runtime::Platform P = runtime::amdPlatform();
};

/// Shared workload for the refill tests. Roughly a quarter of the
/// kernels this model synthesizes trap with a deterministic
/// out-of-bounds access at measurement time (the first at accept index
/// 5), which is what gives the refill pass real work without any
/// injection — so targets here are kept >= 6.
inline FaultWorkload makeFaultWorkload(size_t TargetKernels) {
  FaultWorkload W;
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 8;
  W.Pipeline = std::make_unique<core::ClgenPipeline>(
      core::ClgenPipeline::train(Files, POpts));
  W.Opts.Synthesis.TargetKernels = TargetKernels;
  W.Opts.Synthesis.MaxAttempts = 20000;
  W.Opts.Driver.GlobalSize = 2048;
  W.Opts.MeasureWorkers = 2;
  return W;
}

/// Reconstructs the accept indices of the surviving kernels: accept
/// order minus the excised indices.
inline std::vector<size_t> survivorIndices(const core::StreamingResult &Out) {
  std::set<size_t> Excised;
  for (const core::ExcisedKernel &E : Out.Excised)
    Excised.insert(E.AcceptIndex);
  std::vector<size_t> Indices;
  for (size_t I = 0; I < Out.Stats.Accepted; ++I)
    if (!Excised.count(I))
      Indices.push_back(I);
  return Indices;
}

/// The exactly-once refill contract: every accepted kernel either
/// survives with a successful measurement or appears in Excised with a
/// classified cause — never both, never neither.
inline void expectRefillInvariants(const core::StreamingResult &Out) {
  EXPECT_EQ(Out.Kernels.size(), Out.Measurements.size());
  EXPECT_EQ(Out.Stats.Accepted, Out.Kernels.size() + Out.Excised.size());
  for (const auto &M : Out.Measurements)
    EXPECT_TRUE(M.ok()) << "refill must excise every failed measurement: "
                        << M.errorMessage();
  std::set<size_t> Seen;
  for (const core::ExcisedKernel &E : Out.Excised) {
    EXPECT_TRUE(Seen.insert(E.AcceptIndex).second)
        << "accept index excised twice: " << E.AcceptIndex;
    EXPECT_LT(E.AcceptIndex, Out.Stats.Accepted);
    EXPECT_NE(E.Kind, TrapKind::None);
    EXPECT_FALSE(E.Error.empty());
    EXPECT_FALSE(E.Source.empty());
  }
}

} // namespace faulttest
} // namespace clgen

#endif // CLGEN_TESTS_CLGEN_PIPELINEFAULTFIXTURES_H
