//===- bench/Common.h - Shared experiment harness helpers --------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table / per-figure experiment binaries:
/// corpus + model construction, synthetic-benchmark measurement and
/// common printing. Every binary is deterministic end to end.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_BENCH_COMMON_H
#define CLGEN_BENCH_COMMON_H

#include "clgen/Pipeline.h"
#include "clsmith/ClSmith.h"
#include "githubsim/GithubSim.h"
#include "predict/Evaluation.h"
#include "runtime/HostDriver.h"
#include "suites/Runner.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "vm/Compiler.h"

#include <cstdio>
#include <string>
#include <vector>

namespace clgen {
namespace bench {

/// Builds the standard trained pipeline used by the experiments: mines
/// the synthetic GitHub snapshot and trains the n-gram backend (see
/// model/NGramModel.h for the LSTM-vs-ngram substitution note).
inline core::ClgenPipeline trainedPipeline(size_t FileCount = 1500,
                                           int Order = 16) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = FileCount;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = Order;
  return core::ClgenPipeline::train(Files, POpts);
}

/// Synthesizes kernels and measures each on \p P, producing training
/// observations (benchmark group "clgen-synthetic": never used as a test
/// group). Payload sizes are drawn from the benchmark-suite range
/// (section 7.1: "payloads between 128B-130MB").
inline std::vector<predict::Observation>
measureSynthetic(core::ClgenPipeline &Pipeline, size_t Count,
                 const runtime::Platform &P, uint64_t Seed = 0x5E17) {
  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = Count;
  SOpts.MaxAttempts = Count * 400;
  SOpts.Sampling.Temperature = 0.55;
  SOpts.Seed = Seed;
  auto Synth = Pipeline.synthesize(SOpts);

  Rng R(Seed ^ 0xF00D);
  std::vector<predict::Observation> Out;
  // Each synthetic kernel is profiled across several payload sizes, like
  // the benchmark suites' dataset classes.
  const size_t Sizes[] = {1024, 4096, 16384, 65536, 262144};
  size_t Index = 0;
  for (const auto &SK : Synth.Kernels) {
    size_t FirstSize = R.bounded(std::size(Sizes));
    bool CheckedUseful = false;
    for (size_t S = 0; S < 3; ++S) {
      runtime::DriverOptions DOpts;
      DOpts.GlobalSize = Sizes[(FirstSize + S * 2) % std::size(Sizes)];
      DOpts.LocalSize = 64;
      DOpts.MaxSimulatedGroups = 16;
      // The dynamic checker (4 executions) runs once per kernel.
      DOpts.RunDynamicCheck = !CheckedUseful;
      DOpts.Seed = Seed + Index * 7 + S;
      auto M = runtime::runBenchmark(SK.Kernel, P, DOpts);
      if (!M.ok())
        break; // Dynamic checker rejected it: not useful work.
      CheckedUseful = true;
      predict::Observation O;
      O.Suite = "clgen";
      O.Benchmark = formatString("clgen-synthetic-%zu", Index);
      O.Kernel = SK.Kernel.Name;
      O.Dataset = formatString("%zu", DOpts.GlobalSize);
      O.Raw.Static = features::extractStaticFeatures(SK.Kernel);
      O.Raw.TransferBytes = static_cast<double>(M.get().Transfer.total());
      O.Raw.WgSize = static_cast<double>(M.get().GlobalSize);
      O.CpuTime = M.get().CpuTime;
      O.GpuTime = M.get().GpuTime;
      Out.push_back(std::move(O));
    }
    ++Index;
  }
  return Out;
}

/// Filters observations by suite.
inline std::vector<predict::Observation>
bySuite(const std::vector<predict::Observation> &Obs,
        const std::string &Suite) {
  std::vector<predict::Observation> Out;
  for (const auto &O : Obs)
    if (O.Suite == Suite)
      Out.push_back(O);
  return Out;
}

inline std::string formatPercent(double X) {
  return formatString("%.1f%%", X * 100.0);
}

} // namespace bench
} // namespace clgen

#endif // CLGEN_BENCH_COMMON_H
