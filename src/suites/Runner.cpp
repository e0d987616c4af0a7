//===- suites/Runner.cpp - Catalogue measurement harness ----------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "suites/Runner.h"

#include "features/Features.h"
#include "vm/Compiler.h"

#include <cstdio>

using namespace clgen;
using namespace clgen::suites;

std::vector<predict::Observation>
suites::measureCatalogue(const std::vector<BenchmarkKernel> &Catalogue,
                         const runtime::Platform &P,
                         const RunnerOptions &Opts) {
  std::vector<predict::Observation> Out;
  Out.reserve(Catalogue.size() * 2);

  for (const BenchmarkKernel &BK : Catalogue) {
    auto Compiled = vm::compileFirstKernel(BK.Source);
    if (!Compiled.ok()) {
      std::fprintf(stderr, "warning: %s/%s %s does not compile: %s\n",
                   BK.Suite.c_str(), BK.Benchmark.c_str(),
                   BK.KernelName.c_str(), Compiled.errorMessage().c_str());
      continue;
    }
    const vm::CompiledKernel &Kernel = Compiled.get();
    features::StaticFeatures Static =
        features::extractStaticFeatures(Kernel);

    for (const DatasetSpec &DS : BK.Datasets) {
      runtime::DriverOptions DOpts;
      DOpts.GlobalSize = DS.GlobalSize;
      DOpts.LocalSize = DS.LocalSize;
      DOpts.MaxSimulatedGroups = Opts.MaxSimulatedGroups;
      DOpts.Seed = Opts.Seed ^ (Out.size() * 0x9E3779B9ull);
      auto M = runtime::runBenchmark(Kernel, P, DOpts);
      if (!M.ok()) {
        std::fprintf(stderr, "warning: %s/%s %s [%s] failed: %s\n",
                     BK.Suite.c_str(), BK.Benchmark.c_str(),
                     BK.KernelName.c_str(), DS.Name.c_str(),
                     M.errorMessage().c_str());
        continue;
      }
      predict::Observation O;
      O.Suite = BK.Suite;
      O.Benchmark = BK.Benchmark;
      O.Kernel = BK.KernelName;
      O.Dataset = DS.Name;
      O.Raw.Static = Static;
      O.Raw.TransferBytes =
          static_cast<double>(M.get().Transfer.total());
      O.Raw.WgSize = static_cast<double>(M.get().GlobalSize);
      O.CpuTime = M.get().CpuTime;
      O.GpuTime = M.get().GpuTime;
      Out.push_back(std::move(O));
    }
  }
  return Out;
}
