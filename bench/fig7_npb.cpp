//===- bench/fig7_npb.cpp - Figure 7: NPB speedups with CLgen training --------===//
//
// Regenerates Figure 7: "Speedup of programs using Grewe et al.
// predictive model with and without synthetic benchmarks", per NPB
// benchmark.dataset column, on both platforms.
//
// Paper shape targets: baseline model beats the best static device
// mapping (1.26x AMD / 2.50x NVIDIA); adding 1,000 CLgen kernels to the
// training set improves that (1.57x AMD / 3.26x NVIDIA), i.e. a 1.27x
// average improvement across both systems (2.42x including per-benchmark
// wins).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Stats.h"

#include <map>

using namespace clgen;
using namespace clgen::bench;

namespace {

struct ColumnResult {
  std::string Name;
  double Baseline = 0.0;
  double WithClgen = 0.0;
};

void runPlatform(const runtime::Platform &P, core::ClgenPipeline &Pipeline,
                 size_t SyntheticCount, const char *FigureLabel,
                 const char *BaselineDevice) {
  std::printf("%s", sectionBanner(formatString(
                                      "Figure 7%s: NPB speedups over the "
                                      "best static mapping (%s)",
                                      FigureLabel, P.Name.c_str()))
                        .c_str());

  auto Catalogue = suites::buildCatalogue();
  auto All = suites::measureCatalogue(Catalogue, P);
  auto Npb = bySuite(All, "NPB");
  // Training pool for the baseline model: the other six suites (the
  // paper augments NPB training with the other suites' kernels), with
  // leave-one-NPB-benchmark-out over NPB itself.
  std::vector<predict::Observation> OtherSuites;
  for (const auto &O : All)
    if (O.Suite != "NPB")
      OtherSuites.push_back(O);

  std::printf("NPB observations: %zu; other-suite training pool: %zu\n",
              Npb.size(), OtherSuites.size());
  std::printf("synthesizing + measuring %zu CLgen kernels...\n",
              SyntheticCount);
  auto Synthetic = measureSynthetic(Pipeline, SyntheticCount, P);
  std::printf("synthetic observations passing the dynamic checker: %zu\n\n",
              Synthetic.size());

  int StaticLabel = predict::staticBestDevice(Npb);
  std::printf("best static mapping for NPB on this platform: %s-only "
              "(paper: %s)\n\n",
              StaticLabel == 1 ? "GPU" : "CPU", BaselineDevice);

  // Baseline: LOO over NPB benchmarks, training includes other suites.
  auto Baseline = predict::leaveOneBenchmarkOut(
      Npb, OtherSuites, predict::FeatureSetKind::Grewe);
  // With CLgen: same, plus synthetic training observations.
  std::vector<predict::Observation> Extra = OtherSuites;
  Extra.insert(Extra.end(), Synthetic.begin(), Synthetic.end());
  auto WithClgen = predict::leaveOneBenchmarkOut(
      Npb, Extra, predict::FeatureSetKind::Grewe);

  // Aggregate per benchmark.dataset column (geomean across kernels).
  std::map<std::string, std::vector<double>> BaseCol, ClgenCol;
  auto BaseSpeed =
      predict::perObservationSpeedup(Npb, Baseline.Predictions, StaticLabel);
  auto ClgenSpeed = predict::perObservationSpeedup(
      Npb, WithClgen.Predictions, StaticLabel);
  for (size_t I = 0; I < Npb.size(); ++I) {
    BaseCol[Npb[I].qualifiedName()].push_back(BaseSpeed[I]);
    ClgenCol[Npb[I].qualifiedName()].push_back(ClgenSpeed[I]);
  }

  TextTable T;
  T.setHeader({"benchmark", "Grewe et al.", "w. CLgen"});
  int Improved = 0, Columns = 0;
  std::vector<double> BaseCols, ClgenCols;
  for (const auto &[Name, Speeds] : BaseCol) {
    double B = geomean(Speeds);
    double C = geomean(ClgenCol[Name]);
    T.addRow({Name, formatString("%.2fx", B), formatString("%.2fx", C)});
    BaseCols.push_back(B);
    ClgenCols.push_back(C);
    Improved += C > B + 1e-9;
    Columns += 1;
  }
  // The figure's "Average" bar is the arithmetic mean over the
  // benchmark.dataset columns.
  double BaseAvg = mean(BaseCols);
  double ClgenAvg = mean(ClgenCols);
  T.addRow({"Average", formatString("%.2fx", BaseAvg),
            formatString("%.2fx", ClgenAvg)});
  std::printf("%s", T.render().c_str());

  std::printf("\nSpeedup over best static mapping: %.2fx -> %.2fx with "
              "CLgen\n",
              BaseAvg, ClgenAvg);
  std::printf("Prediction improved on %d of %d benchmark.dataset columns "
              "(%.1f%%)\n",
              Improved, Columns, 100.0 * Improved / std::max(Columns, 1));
  std::printf("Model accuracy: %.1f%% -> %.1f%%\n",
              100.0 * predict::accuracy(Npb, Baseline.Predictions),
              100.0 * predict::accuracy(Npb, WithClgen.Predictions));
}

} // namespace

int main() {
  std::printf("training CLgen on the mined corpus...\n");
  auto Pipeline = trainedPipeline();
  std::printf("corpus entries: %zu\n", Pipeline.corpus().Entries.size());

  // The paper synthesizes 1,000 kernels; we default to 400 accepted
  // kernels to keep the simulated run affordable (ROADMAP.md item 1
  // tracks the full-size protocol).
  const size_t SyntheticCount = 400;

  runPlatform(runtime::amdPlatform(), Pipeline, SyntheticCount, "a",
              "CPU-only");
  runPlatform(runtime::nvidiaPlatform(), Pipeline, SyntheticCount, "b",
              "GPU-only");

  std::printf("\nPaper: 1.26x -> 1.57x on AMD; 2.50x -> 3.26x on NVIDIA.\n");
  return 0;
}
