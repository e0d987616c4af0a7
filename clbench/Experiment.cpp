//===- clbench/Experiment.cpp - the experiment_golden workload ------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// experiment_golden runs the paper's closing loop cold: train, synthesize
// with the dynamic checker and refill, measure the real suites, cross-
// validate and render Table 1 and Figure 9, whose bytes must equal
// tests/golden/. It is the only workload on the suites, the checker and
// refill. The run seed does not enter: the golden configuration is
// pinned, so every seed gives the same inputs.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "features/Features.h"
#include "predict/Experiment.h"
#include "predict/Report.h"
#include "store/Archive.h"
#include "suites/Catalogue.h"
#include "suites/Runner.h"
#include "support/StringUtils.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace clgen;

namespace clbench {

namespace {

struct Golden {
  std::string Table1, Fig9;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Os;
  Os << In.rdbuf();
  Out = Os.str();
  return true;
}

bool loadGolden(const std::string &Root, Golden &G) {
  return readFile(Root + "/tests/golden/experiment_table1.txt", G.Table1) &&
         readFile(Root + "/tests/golden/experiment_fig9.txt", G.Fig9);
}

uint64_t observationDigest(const std::vector<predict::Observation> &Real,
                           const std::vector<predict::Observation> &Synth) {
  uint64_t D = store::fnv1a64(nullptr, 0);
  auto Text = [&D](const std::string &S) {
    D = store::fnv1a64(S.data(), S.size() + 1, D); // With the NUL.
  };
  auto Num = [&D](double V) { D = store::fnv1a64(&V, sizeof V, D); };
  for (const auto *Obs : {&Real, &Synth})
    for (const predict::Observation &O : *Obs) {
      Text(O.Suite);
      Text(O.Benchmark);
      Text(O.Kernel);
      Text(O.Dataset);
      for (double V : {O.Raw.Static.Comp, O.Raw.Static.Mem,
                       O.Raw.Static.LocalMem, O.Raw.Static.Coalesced,
                       O.Raw.Static.Branches, O.Raw.TransferBytes,
                       O.Raw.WgSize, O.CpuTime, O.GpuTime})
        Num(V);
    }
  return D;
}

std::string checkReport(const Golden &G, const Reference &Ref,
                        const std::string &Table1, const std::string &Fig9,
                        uint64_t Observations) {
  if (Table1 != G.Table1)
    return "Table 1 bytes differ from tests/golden/experiment_table1.txt";
  if (Fig9 != G.Fig9)
    return "Figure 9 bytes differ from tests/golden/experiment_fig9.txt";
  if (Observations != Ref.Experiment)
    return "observation digest " + store::hexDigest(Observations) +
           " differs from the recorded " + store::hexDigest(Ref.Experiment);
  return "";
}

} // namespace

uint64_t goldenObservationDigest() {
  predict::ExperimentResult E =
      predict::runExperiment(predict::goldenExperimentOptions());
  return observationDigest(E.Real, E.Synthetic);
}

int experimentSetupProbe(const std::string &Root) {
  // The parent checks every experiment's output; the probe only times
  // the first one of a fresh process.
  Clock::time_point T0 = Clock::now();
  Golden G;
  if (!loadGolden(Root, G))
    return 1;
  (void)predict::runExperiment(predict::goldenExperimentOptions());
  std::printf("setup_probe %.9f\n", secondsSince(T0));
  return 0;
}

Report runExperimentGolden(const RunArgs &A) {
  Report R;
  Golden G;
  R.check(loadGolden(A.Root, G), "cannot read tests/golden/ reports");
  if (R.Failed)
    return R;

  // Setup: the first experiment of a fresh process, which also pays
  // every first-use cost, in child processes.
  std::vector<double> Setups;
  for (int K = 0; K < SetupRuns; ++K) {
    std::string Cmd = "'" + A.Self + "' --setup-probe --root '" + A.Root + "'";
    std::FILE *F = ::popen(Cmd.c_str(), "r");
    double S = -1;
    if (F) {
      if (std::fscanf(F, "setup_probe %lf", &S) != 1)
        S = -1;
      if (::pclose(F) != 0)
        S = -1;
    }
    R.check(S > 0, "setup probe failed");
    if (S <= 0)
      return R;
    Setups.push_back(S);
  }

  const predict::ExperimentOptions Opts = predict::goldenExperimentOptions();
  uint64_t Kernels = 0;
  auto RunOne = [&]() -> double {
    Clock::time_point T0 = Clock::now();
    predict::ExperimentResult E = predict::runExperiment(Opts);
    double Ms = secondsSince(T0) * 1e3;
    std::string Why = checkReport(G, A.Ref, E.Table1, E.Fig9,
                                  observationDigest(E.Real, E.Synthetic));
    R.check(Why.empty(), Why);
    if (Why.empty())
      Kernels += E.Provenance.MeasuredKernels;
    return Ms;
  };
  RunOne(); // Warm-up.
  Kernels = 0;
  std::vector<double> Lat;
  Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < A.Seconds)
    Lat.push_back(RunOne());
  double Elapsed = secondsSince(T0);

  Latency L = summarize(Lat);
  R.metric("setup_s", median(Setups), "s");
  R.metric("kernels_per_s", static_cast<double>(Kernels) / Elapsed,
           "kernels/s");
  R.metric("latency_p50_ms", L.P50, "ms");
  R.metric("latency_p90_ms", L.P90, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  char Buf[200];
  R.line(describeSetup(Setups, "first golden experiment of a fresh process"));
  std::snprintf(Buf, sizeof Buf,
                "experiment_s = %.6f s (median of n=%zu cold experiments); "
                "kernels_per_s counts the %" PRIu64
                " kernels they measured in %.3f s",
                L.P50 / 1e3, L.N, Kernels, Elapsed);
  R.line(Buf);
  R.line(describeLatency("experiment latency", L));
  return R;
}

Report traceExperimentGolden(const RunArgs &A) {
  Report R;
  Golden G;
  R.check(loadGolden(A.Root, G), "cannot read tests/golden/ reports");
  if (R.Failed)
    return R;
  const predict::ExperimentOptions Opts = predict::goldenExperimentOptions();
  const runtime::Platform P = runtime::amdPlatform();

  Clock::time_point U0 = Clock::now();
  predict::ExperimentResult E = predict::runExperiment(Opts);
  double Untraced = secondsSince(U0);
  std::string Why = checkReport(G, A.Ref, E.Table1, E.Fig9,
                                observationDigest(E.Real, E.Synthetic));
  R.check(Why.empty(), "untraced experiment: " + Why);

  // Traced: the experiment's stages, one public call at a time.
  Tracer T;
  Tally C;
  Clock::time_point V0 = Clock::now();
  std::unique_ptr<model::NGramModel> Model =
      replaySetup(T, R, Opts.CorpusFiles, Opts.NGramOrder);
  StreamReplay SR = replayStream(T, *Model, P, Opts.Streaming, C);
  size_t Measured = SR.Kernels.size() + SR.Excised;

  std::vector<predict::Observation> Synthetic;
  for (size_t I = 0; I < SR.Kernels.size(); ++I) {
    features::StaticFeatures F;
    {
      SpanScope S(&T, "features", "features::extractStaticFeatures");
      F = features::extractStaticFeatures(SR.Kernels[I].Kernel);
    }
    if (!SR.Rows[I].ok())
      continue;
    const runtime::Measurement &M = SR.Rows[I].get();
    predict::Observation O;
    O.Suite = "clgen";
    O.Benchmark = formatString("clgen-synthetic-%zu", I);
    O.Kernel = SR.Kernels[I].Kernel.Name;
    O.Dataset = formatString("%zu", M.GlobalSize);
    O.Raw.Static = F;
    O.Raw.TransferBytes = static_cast<double>(M.Transfer.total());
    O.Raw.WgSize = static_cast<double>(M.GlobalSize);
    O.CpuTime = M.CpuTime;
    O.GpuTime = M.GpuTime;
    Synthetic.push_back(std::move(O));
  }

  std::vector<suites::BenchmarkKernel> Catalogue;
  {
    SpanScope S(&T, "suites", "suites::buildSuite");
    for (const std::string &Name : Opts.Suites) {
      auto Suite = suites::buildSuite(Name);
      Catalogue.insert(Catalogue.end(), Suite.begin(), Suite.end());
    }
  }
  std::vector<predict::Observation> Real;
  {
    SpanScope S(&T, "suites", "suites::measureCatalogue");
    Real = suites::measureCatalogue(Catalogue, P, Opts.Runner);
  }
  Measured += Real.size();

  predict::KFoldResult Base, Aug;
  {
    SpanScope S(&T, "predict", "predict::kFoldCrossValidation");
    Base = predict::kFoldCrossValidation(Real, {}, Opts.Kind, Opts.KFold,
                                         Opts.Tree);
  }
  {
    SpanScope S(&T, "predict", "predict::kFoldCrossValidation");
    Aug = predict::kFoldCrossValidation(Real, Synthetic, Opts.Kind,
                                        Opts.KFold, Opts.Tree);
  }
  predict::Table1Stats TS;
  std::string Table1, Fig9;
  {
    SpanScope S(&T, "predict", "predict::renderTable1");
    Table1 = predict::renderTable1(Real, Synthetic, Opts.Suites, Opts.Kind,
                                   Opts.Tree, &TS);
  }
  {
    SpanScope S(&T, "predict", "predict::renderFig9");
    Fig9 = predict::renderFig9(Real, Synthetic, Opts.Fig9MaxRows);
  }
  {
    std::vector<predict::Observation> All = Real;
    All.insert(All.end(), Synthetic.begin(), Synthetic.end());
    std::vector<std::vector<double>> X;
    {
      SpanScope S(&T, "predict", "predict::featureMatrix");
      X = predict::featureMatrix(All, Opts.Kind, Opts.Workers);
    }
    std::vector<int> Y;
    for (const predict::Observation &O : All)
      Y.push_back(O.label());
    predict::DecisionTree Final(Opts.Tree);
    SpanScope S(&T, "predict", "DecisionTree::fit");
    Final.fit(X, Y);
  }
  double Traced = secondsSince(V0);
  size_t Trees = Base.FoldsTrained + Aug.FoldsTrained + TS.TreesTrained + 1;

  // The replay must render the golden bytes and match the engine's
  // ExperimentProvenance and SynthesisStats.
  Why = checkReport(G, A.Ref, Table1, Fig9, observationDigest(Real, Synthetic));
  R.check(Why.empty(), "traced replay: " + Why);
  R.check(Trees == E.Provenance.TrainedModels,
          "replay trained " + std::to_string(Trees) +
              " trees, ExperimentProvenance says " +
              std::to_string(E.Provenance.TrainedModels));
  R.check(Measured == E.Provenance.MeasuredKernels,
          "replay measured " + std::to_string(Measured) +
              " kernels, ExperimentProvenance says " +
              std::to_string(E.Provenance.MeasuredKernels));
  core::StreamingResult Engine =
      core::synthesizeAndMeasure(*Model, P, Opts.Streaming);
  R.check(Engine.Stats.Attempts == SR.Stats.Attempts &&
              Engine.Stats.IncompleteSamples == SR.Stats.IncompleteSamples &&
              Engine.Stats.RejectedByFilter == SR.Stats.RejectedByFilter &&
              Engine.Stats.Duplicates == SR.Stats.Duplicates &&
              Engine.Stats.Accepted == SR.Stats.Accepted &&
              Engine.Excised.size() == SR.Excised &&
              kernelDigest(Engine.Kernels) == kernelDigest(SR.Kernels) &&
              rowsDigest(Engine.Measurements) == rowsDigest(SR.Rows),
          "replayed synthesis differs from the engine's SynthesisStats or "
          "output");

  R.metric("suites.kernels", static_cast<double>(Catalogue.size()), "count");
  R.metric("suites.observations", static_cast<double>(Real.size()), "count");
  R.metric("features.kernels", static_cast<double>(SR.Kernels.size()),
           "count");
  R.metric("predict.trees_trained", static_cast<double>(Trees), "count");
  layerMetrics(R, T, C);
  R.metric("trace.untraced_s", Untraced, "s");
  R.metric("trace.traced_s", Traced, "s");
  R.metric("trace.overhead_pct", (Traced / Untraced - 1.0) * 100.0, "%");
  R.line("traced run: one golden experiment replayed stage by stage on one "
         "thread; the untraced run is predict::runExperiment");
  R.TraceJson = T.renderJson();
  return R;
}

} // namespace clbench
