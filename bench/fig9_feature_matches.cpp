//===- bench/fig9_feature_matches.cpp - Figure 9: feature-space coverage ------===//
//
// Regenerates Figure 9: "The number of kernels from GitHub, CLSmith and
// CLgen with static code features matching the benchmarks." CLgen keeps
// producing benchmark-like kernels long after the finite GitHub corpus
// is exhausted; CLSmith almost never lands near real programs (0.53% in
// the paper; over a third of 10,000 CLgen kernels match, ~14 per
// benchmark).
//
// Static features: Table 2a (comp, mem, localmem, coalesced) plus the
// branch count of section 8.2, matched exactly as integer tuples.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "features/Features.h"
#include "predict/Report.h"
#include "support/Stats.h"

#include <map>
#include <set>

using namespace clgen;
using namespace clgen::bench;

namespace {

using predict::FeatureKey;

/// Static-features-only observations over the benchmark catalogue, the
/// input shape the shared key collector (predict/Report.h) expects.
std::vector<predict::Observation> catalogueObservations() {
  std::vector<predict::Observation> Obs;
  for (const auto &BK : suites::buildCatalogue()) {
    auto Compiled = vm::compileFirstKernel(BK.Source);
    if (!Compiled.ok())
      continue;
    predict::Observation O;
    O.Suite = BK.Suite;
    O.Benchmark = BK.Benchmark;
    O.Kernel = BK.KernelName;
    O.Raw.Static = features::extractStaticFeatures(Compiled.get());
    Obs.push_back(O);
  }
  return Obs;
}

FeatureKey keyOf(const vm::CompiledKernel &K) {
  return features::extractStaticFeatures(K).key();
}

} // namespace

int main() {
  // Scaled from the paper's 10,000 kernels per source; the sampling
  // curve shape (CLgen grows, GitHub plateaus, CLSmith stays near zero)
  // is scale-invariant.
  const size_t MaxKernels = 2000;
  const std::vector<size_t> Checkpoints = {200, 400,  600,  800, 1000,
                                           1200, 1400, 1600, 1800, 2000};

  std::printf("%s", sectionBanner("Figure 9: kernels with static features "
                                  "matching the benchmarks")
                        .c_str());

  std::printf("collecting benchmark feature keys...\n");
  auto Keys = predict::benchmarkFeatureKeys(catalogueObservations());
  std::printf("distinct benchmark feature tuples: %zu\n\n", Keys.size());

  // --- GitHub: the rewritten corpus kernels (finite). ---
  std::printf("building GitHub corpus...\n");
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 3000;
  auto Files = githubsim::mineGithub(GOpts);
  auto Corpus = corpus::buildCorpus(Files);
  std::vector<FeatureKey> GithubKeys;
  for (const auto &Entry : Corpus.Entries) {
    auto Compiled = vm::compileFirstKernel(Entry);
    if (Compiled.ok())
      GithubKeys.push_back(keyOf(Compiled.get()));
  }
  std::printf("GitHub kernels available: %zu (finite; the curve "
              "plateaus)\n",
              GithubKeys.size());

  // --- CLgen: unbounded sampling from the trained model. ---
  std::printf("training CLgen and synthesizing %zu kernels...\n",
              MaxKernels);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 16;
  auto Pipeline = core::ClgenPipeline::train(Files, POpts);
  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = MaxKernels;
  SOpts.MaxAttempts = MaxKernels * 600;
  SOpts.Sampling.Temperature = 0.45;
  auto Synth = Pipeline.synthesize(SOpts);
  std::vector<FeatureKey> ClgenKeys;
  for (const auto &SK : Synth.Kernels)
    ClgenKeys.push_back(keyOf(SK.Kernel));
  std::printf("CLgen kernels accepted: %zu (acceptance %.1f%%)\n",
              ClgenKeys.size(), Synth.Stats.acceptanceRate() * 100.0);

  // --- CLSmith. ---
  std::printf("generating %zu CLSmith kernels...\n", MaxKernels);
  std::vector<FeatureKey> ClsmithKeys;
  for (const auto &Src : clsmith::generateKernels(MaxKernels)) {
    auto Compiled = vm::compileFirstKernel(Src);
    if (Compiled.ok())
      ClsmithKeys.push_back(keyOf(Compiled.get()));
  }

  // Error bars: repeat the counting over shuffled samplings.
  const int Samplings = 5;
  TextTable T;
  T.setHeader({"#. kernels", "GitHub", "CLSmith", "CLgen (mean +/- sd)"});
  Rng R(0xF16);
  std::vector<std::vector<double>> ClgenCurves(Checkpoints.size());
  for (int S = 0; S < Samplings; ++S) {
    auto Shuffled = ClgenKeys;
    R.shuffle(Shuffled);
    auto Curve = predict::cumulativeMatchCurve(Shuffled, Keys, Checkpoints);
    for (size_t I = 0; I < Curve.size(); ++I)
      ClgenCurves[I].push_back(static_cast<double>(Curve[I]));
  }
  auto GithubCurve =
      predict::cumulativeMatchCurve(GithubKeys, Keys, Checkpoints);
  auto ClsmithCurve =
      predict::cumulativeMatchCurve(ClsmithKeys, Keys, Checkpoints);
  for (size_t I = 0; I < Checkpoints.size(); ++I) {
    T.addRow({std::to_string(Checkpoints[I]),
              std::to_string(GithubCurve[I]),
              std::to_string(ClsmithCurve[I]),
              formatString("%.0f +/- %.1f", mean(ClgenCurves[I]),
                           stdev(ClgenCurves[I]))});
  }
  std::printf("\n%s", T.render().c_str());

  size_t ClgenMatches =
      static_cast<size_t>(mean(ClgenCurves.back()));
  size_t Bench = suites::buildCatalogue().size();
  std::printf("\nCLgen: %zu of %zu kernels match (%.1f%%), ~%.1f matching "
              "kernels per benchmark kernel\n",
              ClgenMatches, ClgenKeys.size(),
              ClgenKeys.empty()
                  ? 0.0
                  : 100.0 * ClgenMatches / ClgenKeys.size(),
              static_cast<double>(ClgenMatches) / Bench);
  std::printf("CLSmith: %zu of %zu kernels match (%.2f%%; paper: 0.53%%)\n",
              ClsmithCurve.back(), ClsmithKeys.size(),
              ClsmithKeys.empty()
                  ? 0.0
                  : 100.0 * ClsmithCurve.back() / ClsmithKeys.size());
  std::printf("GitHub plateaus at %zu matches once its %zu kernels are "
              "exhausted.\n",
              GithubCurve.back(), GithubKeys.size());
  return 0;
}
