//===- bench/feature_collisions.cpp - Listing 2: feature aliasing -------------===//
//
// Regenerates the section 8.2 discovery that motivated the extended
// model: CLgen kernels that are indistinguishable from a benchmark in
// the Grewe et al. feature space (identical static feature values) yet
// have different runtime behaviour — the paper's Listing 2 example
// collides with AMD's Fast Walsh-Hadamard transform. A static branch
// count separates them.
//
// Also serves as the ablation bench for the branch feature.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "features/Features.h"

#include <map>

using namespace clgen;
using namespace clgen::bench;

int main() {
  std::printf("%s", sectionBanner("Listing 2: feature-space collisions "
                                  "exposed by synthetic benchmarks")
                        .c_str());

  auto P = runtime::amdPlatform();
  auto Catalogue = suites::buildCatalogue();
  auto BenchObs = suites::measureCatalogue(Catalogue, P);

  auto Pipeline = trainedPipeline();
  auto Synthetic = measureSynthetic(Pipeline, 300, P);
  std::printf("benchmark observations: %zu, synthetic: %zu\n\n",
              BenchObs.size(), Synthetic.size());

  // Index benchmark observations by their Table-2a static key (without
  // the branch feature).
  std::map<std::array<int64_t, 4>, std::vector<size_t>> ByKey;
  for (size_t I = 0; I < BenchObs.size(); ++I)
    ByKey[BenchObs[I].Raw.Static.keyNoBranch()].push_back(I);

  size_t Collisions = 0, BehaviourDiffers = 0, BranchSeparates = 0;
  bool PrintedExample = false;
  for (const auto &S : Synthetic) {
    auto It = ByKey.find(S.Raw.Static.keyNoBranch());
    if (It == ByKey.end())
      continue;
    for (size_t BI : It->second) {
      const auto &B = BenchObs[BI];
      ++Collisions;
      if (B.label() == S.label())
        continue;
      ++BehaviourDiffers;
      if (B.Raw.Static.Branches != S.Raw.Static.Branches)
        ++BranchSeparates;
      if (!PrintedExample) {
        PrintedExample = true;
        std::printf("example collision:\n");
        std::printf("  benchmark %s/%s [%s]: comp=%.0f mem=%.0f "
                    "localmem=%.0f coalesced=%.0f branches=%.0f -> best "
                    "device %s\n",
                    B.Suite.c_str(), B.Benchmark.c_str(),
                    B.Kernel.c_str(), B.Raw.Static.Comp, B.Raw.Static.Mem,
                    B.Raw.Static.LocalMem, B.Raw.Static.Coalesced,
                    B.Raw.Static.Branches,
                    B.label() == 1 ? "GPU" : "CPU");
        std::printf("  CLgen kernel %-18s: identical Table-2a features, "
                    "branches=%.0f -> best device %s\n\n",
                    S.Kernel.c_str(), S.Raw.Static.Branches,
                    S.label() == 1 ? "GPU" : "CPU");
      }
    }
  }

  TextTable T;
  T.setHeader({"metric", "count"});
  T.addRow({"synthetic kernels aliasing a benchmark (Table 2a features)",
            std::to_string(Collisions)});
  T.addRow({"... with a different optimal mapping",
            std::to_string(BehaviourDiffers)});
  T.addRow({"... separated by the static branch-count feature",
            std::to_string(BranchSeparates)});
  std::printf("%s", T.render().c_str());

  std::printf("\nConclusion (paper section 8.2): features that cannot "
              "discriminate programs\nwith different behaviour limit the "
              "model; the fine feature-space coverage\nof synthetic "
              "benchmarks surfaces such aliasing automatically, and a\n"
              "branching feature resolves it.\n");
  return 0;
}
