//===- examples/quickstart.cpp - CLgen in five minutes ------------------------===//
//
// Quickstart: mine a corpus, train a language model, synthesize OpenCL
// benchmarks, and execute one with the host driver.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"
#include "githubsim/GithubSim.h"
#include "runtime/HostDriver.h"

#include <cstdio>

using namespace clgen;

int main() {
  // 1. Mine content files. With network access this would scrape GitHub;
  //    here a synthetic repository generator stands in (see
  //    githubsim/GithubSim.h).
  githubsim::GithubSimOptions MineOpts;
  MineOpts.FileCount = 1000;
  auto Files = githubsim::mineGithub(MineOpts);
  std::printf("mined %zu content files\n", Files.size());

  // 2. Build the corpus (rejection filter + rewriter) and train the
  //    language model in one step.
  auto Pipeline = core::ClgenPipeline::train(Files);
  const auto &Stats = Pipeline.corpus().Stats;
  std::printf("corpus: %zu files accepted (%.0f%% discarded), %zu kernel "
              "functions\n",
              Stats.FilesAccepted, Stats.discardRate() * 100.0,
              Stats.KernelCount);

  // 3. Synthesize kernels matching an argument specification.
  core::SynthesisOptions SynthOpts;
  SynthOpts.TargetKernels = 15;
  SynthOpts.MaxAttempts = 5000;
  SynthOpts.Sampling.Temperature = 0.5;
  auto Result = Pipeline.synthesize(SynthOpts);
  std::printf("synthesized %zu kernels from %zu samples\n\n",
              Result.Kernels.size(), Result.Stats.Attempts);
  if (Result.Kernels.empty())
    return 1;

  // 4. Execute on both simulated devices via the host driver. Not every
  //    synthesized kernel performs useful work (the dynamic checker of
  //    section 5.2 vets them), so take the first one that passes.
  runtime::DriverOptions DriverOpts;
  DriverOpts.GlobalSize = 65536;
  DriverOpts.RunDynamicCheck = true;
  for (const auto &SK : Result.Kernels) {
    auto M = runtime::runBenchmark(SK.Kernel, runtime::amdPlatform(),
                                   DriverOpts);
    if (!M.ok()) {
      std::printf("driver rejected a kernel (%s); trying the next one\n",
                  M.errorMessage().c_str());
      continue;
    }
    std::printf("\n----- synthesized kernel -----\n%s----------------------"
                "--------\n\n",
                SK.Source.c_str());
    std::printf("runtimes for a %zu-element payload: CPU %.3f ms, GPU "
                "%.3f ms -> run on %s\n",
                M.get().GlobalSize, M.get().CpuTime * 1e3,
                M.get().GpuTime * 1e3,
                M.get().gpuIsBest() ? "GPU" : "CPU");
    return 0;
  }
  std::printf("no synthesized kernel passed the dynamic checker; rerun "
              "with a higher TargetKernels\n");
  return 0;
}
