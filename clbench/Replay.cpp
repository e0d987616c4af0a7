//===- clbench/Replay.cpp - single-thread traced replays -----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "clgen/Sampler.h"
#include "githubsim/GithubSim.h"
#include "corpus/Corpus.h"
#include "corpus/RejectionFilter.h"
#include "corpus/Rewriter.h"
#include "ocl/AstPrinter.h"
#include "ocl/Parser.h"
#include "ocl/Preprocessor.h"
#include "ocl/Sema.h"
#include "runtime/DynamicChecker.h"
#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "support/Trap.h"
#include "vm/Compiler.h"

#include <cctype>
#include <filesystem>
#include <unordered_set>

using namespace clgen;

namespace clbench {

namespace {

/// Forwards to the replay's model and counts the characters drawn, so
/// sampling cost reads as time per character.
class CountingModel final : public model::LanguageModel {
public:
  CountingModel(model::LanguageModel &Inner, uint64_t &Draws)
      : Inner(Inner), Draws(Draws) {}
  const model::Vocabulary &vocabulary() const override {
    return Inner.vocabulary();
  }
  void reset() override { Inner.reset(); }
  void observe(int TokenId) override { Inner.observe(TokenId); }
  std::vector<double> nextDistribution() override {
    ++Draws;
    return Inner.nextDistribution();
  }
  void nextDistributionInto(std::vector<double> &Dist) override {
    ++Draws;
    Inner.nextDistributionInto(Dist);
  }

private:
  model::LanguageModel &Inner;
  uint64_t &Draws;
};

/// Metric-name form of a label: "out-of-bounds" -> "out_of_bounds".
std::string metricName(std::string S) {
  for (char &C : S)
    C = std::isalnum(static_cast<unsigned char>(C))
            ? static_cast<char>(std::tolower(static_cast<unsigned char>(C)))
            : '_';
  return S;
}

const corpus::RejectionReason RejectReasons[] = {
    corpus::RejectionReason::Preprocessor, corpus::RejectionReason::Syntax,
    corpus::RejectionReason::Semantic,     corpus::RejectionReason::Lowering,
    corpus::RejectionReason::NoKernel,
    corpus::RejectionReason::TooFewInstructions};

const TrapKind TrapKinds[] = {
    TrapKind::OutOfBounds,           TrapKind::BarrierDivergence,
    TrapKind::InstructionBudget,     TrapKind::WatchdogTimeout,
    TrapKind::DivByZero,             TrapKind::CompileError,
    TrapKind::BadLaunch,             TrapKind::CheckNoOutput,
    TrapKind::CheckInputInsensitive, TrapKind::CheckNonDeterministic,
    TrapKind::Injected,              TrapKind::IoError,
    TrapKind::Unknown};

/// Times the frontend and the bytecode compiler on one sampled
/// candidate, apart from the filter call that decides its fate: the
/// filter runs them back to back with no seam a caller can time.
void timeFrontend(Tracer &T, const std::string &Text, Tally &C) {
  ++C.FrontendCalls;
  std::optional<Result<std::string>> Pre;
  {
    SpanScope S(&T, "ocl", "ocl::preprocess");
    Pre.emplace(ocl::preprocess(Text, ocl::PreprocessOptions()));
  }
  if (!Pre->ok())
    return;
  std::optional<Result<std::unique_ptr<ocl::Program>>> Parsed;
  {
    SpanScope S(&T, "ocl", "ocl::parseProgram");
    Parsed.emplace(ocl::parseProgram(Pre->get()));
  }
  if (!Parsed->ok())
    return;
  ocl::Program &Prog = *Parsed->get();
  bool Ok = false;
  {
    SpanScope S(&T, "ocl", "ocl::analyze");
    Ok = ocl::analyze(Prog).ok();
  }
  if (!Ok)
    return;
  for (const auto &F : Prog.Functions) {
    if (!F->IsKernel)
      continue;
    ++C.Compiles;
    SpanScope S(&T, "vm", "vm::compileKernel");
    if (!vm::compileKernel(Prog, *F).ok())
      return;
  }
}

std::string entryPath(const std::string &Dir, uint64_t Key) {
  return Dir + "/" + store::hexDigest(Key) + ".clgs";
}

} // namespace

uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : N;
}

std::unique_ptr<model::NGramModel> replaySetup(Tracer &T, Report &R,
                                               size_t Files, int Order) {
  std::vector<corpus::ContentFile> Mined;
  {
    SpanScope S(&T, "githubsim", "githubsim::mineGithub");
    githubsim::GithubSimOptions G;
    G.FileCount = Files;
    Mined = githubsim::mineGithub(G);
  }
  corpus::CorpusOptions CO;
  CO.Workers = 1;
  corpus::Corpus Corp;
  {
    SpanScope S(&T, "corpus", "corpus::buildCorpus");
    Corp = corpus::buildCorpus(Mined, CO);
  }
  model::NGramOptions NO;
  NO.Order = Order;
  auto Model = std::make_unique<model::NGramModel>(NO);
  {
    SpanScope S(&T, "model", "NGramModel::train");
    Model->train(Corp.Entries);
  }
  double TrainChars = 0;
  for (const std::string &E : Corp.Entries)
    TrainChars += static_cast<double>(E.size());
  R.metric("githubsim.files", static_cast<double>(Mined.size()), "count");
  R.metric("corpus.files_in", static_cast<double>(Corp.Stats.FilesIn),
           "count");
  R.metric("corpus.files_accepted",
           static_cast<double>(Corp.Stats.FilesAccepted), "count");
  R.metric("model.train_chars", TrainChars, "count");
  return Model;
}

StreamReplay replayStream(Tracer &T, model::LanguageModel &Model,
                          const runtime::Platform &P,
                          const core::StreamingOptions &SO, Tally &C) {
  SpanScope Stream(&T, "clgen", "core::synthesizeAndMeasure");
  const core::SynthesisOptions &Opts = SO.Synthesis;
  CountingModel Counted(Model, C.SampleChars);
  Rng Base(Opts.Seed);
  Rng DriverBase(SO.Driver.Seed);
  const std::string Seed =
      Opts.Spec ? Opts.Spec->seedText() : core::freeModeSeed();
  const size_t MaxAttempts =
      Opts.MaxAttempts > 0 ? Opts.MaxAttempts : Opts.TargetKernels * 100;
  corpus::FilterOptions Filter;
  Filter.UseShim = false; // As the synthesis engine filters samples.

  StreamReplay Out;
  std::unordered_set<std::string> Dedup;
  std::vector<uint64_t> Keys;
  std::vector<bool> FromLedger;
  size_t Accepted = 0, Succeeded = 0;
  std::vector<Result<runtime::Measurement>> AllRows;
  std::vector<core::SynthesizedKernel> AllKernels;
  const size_t Target = Opts.TargetKernels;

  for (size_t Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    // The engine's stop rule. With refill, it extends by the shortfall
    // until Target measurements succeed, which stops at the same accept
    // as measuring each kernel as soon as it is accepted.
    if ((SO.RefillFailures ? Succeeded : Accepted) >= Target)
      break;
    ++Out.Stats.Attempts;
    Rng R = Base.split(Attempt);
    std::optional<std::string> Sample;
    {
      SpanScope S(&T, "model", "core::sampleKernel");
      Sample = core::sampleKernel(Counted, Seed, Opts.Sampling, R);
    }
    if (!Sample) {
      ++Out.Stats.IncompleteSamples;
      continue;
    }
    std::optional<corpus::FilterResult> FR;
    {
      SpanScope S(&T, "corpus", "corpus::filterContentFile");
      FR.emplace(corpus::filterContentFile(*Sample, Filter));
    }
    ++C.FilterCalls;
    timeFrontend(T, *Sample, C);
    if (!FR->Accepted) {
      ++Out.Stats.RejectedByFilter;
      ++C.Rejects[metricName(corpus::rejectionReasonName(FR->Reason))];
      continue;
    }
    core::SynthesizedKernel SK;
    {
      SpanScope S(&T, "clgen", "core::normalise");
      corpus::renameIdentifiers(*FR->Prog);
      SK.Source = ocl::printProgram(*FR->Prog);
    }
    ++C.Normalised;
    if (!Dedup.insert(SK.Source).second) {
      ++Out.Stats.Duplicates;
      continue;
    }
    SK.Kernel = std::move(FR->Kernels.front());
    ++Out.Stats.Accepted;
    const size_t Index = Accepted++;

    // Measurement, with the engine's enqueue-time probes.
    runtime::DriverOptions DO =
        runtime::batchDriverOptions(SO.Driver, DriverBase, Index);
    const bool NeedKey = SO.Cache || SO.Ledger;
    uint64_t Key = NeedKey ? store::measurementKey(SK.Kernel, DO, P) : 0;
    Keys.push_back(Key);
    FromLedger.push_back(false);
    std::optional<Result<runtime::Measurement>> Row;
    if (SO.Cache) {
      std::optional<runtime::Measurement> Hit;
      {
        SpanScope S(&T, "store", "ResultCache::lookup");
        Hit = SO.Cache->lookup(Key);
      }
      ++C.Reads;
      if (Hit) {
        ++C.CacheHits;
        C.ReadBytes += fileBytes(entryPath(SO.Cache->directory(), Key));
        Row.emplace(*Hit);
      }
    }
    if (!Row && SO.Ledger) {
      std::optional<store::FailureRecord> Known;
      {
        SpanScope S(&T, "store", "FailureLedger::lookup");
        Known = SO.Ledger->lookup(Key);
      }
      ++C.Reads;
      if (Known) {
        ++C.LedgerHits;
        C.ReadBytes += fileBytes(entryPath(SO.Ledger->directory(), Key));
        Row.emplace(Result<runtime::Measurement>::error(Known->Detail,
                                                        Known->Kind));
        FromLedger.back() = true;
      }
    }
    if (!Row) {
      if (SO.Cache)
        ++C.Misses;
      if (DO.RunDynamicCheck) {
        // The checker runs inside runBenchmarkWithRetry; time it apart
        // on the same kernel and stream.
        Rng CheckRng = Rng(DO.Seed).fork();
        SpanScope S(&T, "runtime", "runtime::checkKernel");
        (void)runtime::checkKernel(SK.Kernel, runtime::CheckOptions(),
                                   CheckRng);
      }
      uint32_t Attempts = 0;
      {
        SpanScope S(&T, "runtime", "runtime::runBenchmarkWithRetry");
        Row.emplace(runtime::runBenchmarkWithRetry(SK.Kernel, P, DO,
                                                   &Attempts));
      }
      ++C.Measured;
      C.Launches += Attempts;
      C.Retries += Attempts > 0 ? Attempts - 1 : 0;
      if (Row->ok()) {
        C.Instructions += Row->get().Counters.Instructions;
        if (SO.Cache) {
          {
            SpanScope S(&T, "store", "ResultCache::store");
            (void)SO.Cache->store(Key, Row->get());
          }
          ++C.Writes;
          C.WriteBytes += fileBytes(entryPath(SO.Cache->directory(), Key));
        }
      }
    }
    if (Row->ok())
      ++Succeeded;
    AllRows.push_back(std::move(*Row));
    AllKernels.push_back(std::move(SK));
  }

  // The engine sweeps fresh deterministic failures into the ledger once
  // measurement has drained.
  if (SO.Ledger) {
    for (size_t I = 0; I < AllRows.size(); ++I) {
      if (AllRows[I].ok() || FromLedger[I] ||
          !isDeterministicTrap(AllRows[I].trap()))
        continue;
      store::FailureRecord Rec;
      Rec.Kind = AllRows[I].trap();
      Rec.Detail = AllRows[I].errorMessage();
      {
        SpanScope S(&T, "store", "FailureLedger::record");
        (void)SO.Ledger->record(Keys[I], Rec);
      }
      ++C.Writes;
      C.WriteBytes += fileBytes(entryPath(SO.Ledger->directory(), Keys[I]));
    }
  }

  for (size_t I = 0; I < AllRows.size(); ++I) {
    if (!AllRows[I].ok())
      ++C.Traps[metricName(trapKindName(AllRows[I].trap()))];
    if (SO.RefillFailures && !AllRows[I].ok()) {
      ++Out.Excised;
      continue;
    }
    Out.Kernels.push_back(std::move(AllKernels[I]));
    Out.Rows.push_back(std::move(AllRows[I]));
  }
  C.Synth.Attempts += Out.Stats.Attempts;
  C.Synth.IncompleteSamples += Out.Stats.IncompleteSamples;
  C.Synth.RejectedByFilter += Out.Stats.RejectedByFilter;
  C.Synth.Duplicates += Out.Stats.Duplicates;
  C.Synth.Accepted += Out.Stats.Accepted;
  return Out;
}

Counts tallyCounts(const Tally &C) {
  Counts N;
  N["model.sample_chars"] = static_cast<double>(C.SampleChars);
  N["corpus.filter_calls"] = static_cast<double>(C.FilterCalls);
  for (corpus::RejectionReason Why : RejectReasons) {
    std::string Name = metricName(corpus::rejectionReasonName(Why));
    auto It = C.Rejects.find(Name);
    N["corpus.reject." + Name] =
        It == C.Rejects.end() ? 0.0 : static_cast<double>(It->second);
  }
  N["clgen.attempts"] = static_cast<double>(C.Synth.Attempts);
  N["clgen.incomplete"] = static_cast<double>(C.Synth.IncompleteSamples);
  N["clgen.rejected"] = static_cast<double>(C.Synth.RejectedByFilter);
  N["clgen.duplicates"] = static_cast<double>(C.Synth.Duplicates);
  N["clgen.accepted"] = static_cast<double>(C.Synth.Accepted);
  N["vm.launches"] = static_cast<double>(C.Launches);
  N["vm.instructions"] = static_cast<double>(C.Instructions);
  N["runtime.measured"] = static_cast<double>(C.Measured);
  N["runtime.retries"] = static_cast<double>(C.Retries);
  for (TrapKind K : TrapKinds) {
    std::string Name = metricName(trapKindName(K));
    auto It = C.Traps.find(Name);
    N["runtime.trap." + Name] =
        It == C.Traps.end() ? 0.0 : static_cast<double>(It->second);
  }
  N["store.reads"] = static_cast<double>(C.Reads);
  N["store.read_bytes"] = static_cast<double>(C.ReadBytes);
  N["store.cache_hits"] = static_cast<double>(C.CacheHits);
  N["store.ledger_hits"] = static_cast<double>(C.LedgerHits);
  N["store.misses"] = static_cast<double>(C.Misses);
  N["store.writes"] = static_cast<double>(C.Writes);
  N["store.write_bytes"] = static_cast<double>(C.WriteBytes);
  return N;
}

void layerMetrics(Report &R, const Tracer &T, const Tally &C) {
  auto PerCall = [](double TotalMs, double Calls, double Scale) {
    return Calls > 0 ? TotalMs * Scale / Calls : 0.0;
  };
  for (const auto &[Name, Value] : tallyCounts(C))
    R.metric(Name, Value, Name.find("bytes") != std::string::npos ? "bytes"
                                                                  : "count");
  // Counts set by the workload (files, observations, serve traffic)
  // default to zero on workloads that never touch the layer.
  for (const char *Name :
       {"githubsim.files", "corpus.files_in", "corpus.files_accepted",
        "model.train_chars", "model.archive_bytes", "suites.kernels",
        "suites.observations", "features.kernels", "predict.trees_trained",
        "serve.requests", "serve.warm_loads", "serve.cold_computes",
        "serve.coalesced", "serve.response_bytes"})
    if (!R.Metrics.count(Name))
      R.metric(Name,
               0.0, std::string(Name).find("bytes") != std::string::npos
                        ? "bytes"
                        : "count");

  double Attempts = static_cast<double>(C.Synth.Attempts);
  R.metric("clgen.accept_ratio",
           Attempts > 0 ? static_cast<double>(C.Synth.Accepted) / Attempts
                        : 0.0,
           "fraction");
  double Lookups =
      static_cast<double>(C.CacheHits + C.LedgerHits + C.Misses);
  R.metric("store.hit_ratio",
           Lookups > 0 ? static_cast<double>(C.CacheHits + C.LedgerHits) /
                             Lookups
                       : 0.0,
           "fraction");

  R.metric("githubsim.mine_ms", T.callMs("githubsim::mineGithub"), "ms");
  R.metric("corpus.ingest_ms", T.callMs("corpus::buildCorpus"), "ms");
  R.metric("corpus.filter_us",
           PerCall(T.callMs("corpus::filterContentFile"),
                   static_cast<double>(C.FilterCalls), 1e3),
           "us");
  R.metric("model.train_ms", T.callMs("NGramModel::train"), "ms");
  R.metric("model.load_ms", T.callMs("store::loadModel"), "ms");
  R.metric("model.sample_ns_per_char",
           PerCall(T.callMs("core::sampleKernel"),
                   static_cast<double>(C.SampleChars), 1e6),
           "ns");
  R.metric("clgen.normalise_us",
           PerCall(T.callMs("core::normalise"),
                   static_cast<double>(C.Normalised), 1e3),
           "us");
  R.metric("ocl.frontend_us",
           PerCall(T.callMs("ocl::preprocess") + T.callMs("ocl::parseProgram") +
                       T.callMs("ocl::analyze"),
                   static_cast<double>(C.FrontendCalls), 1e3),
           "us");
  R.metric("vm.compile_us",
           PerCall(T.callMs("vm::compileKernel"),
                   static_cast<double>(C.Compiles), 1e3),
           "us");
  // A measurement is mostly VM execution; its payload set-up and, in
  // the golden experiment, its dynamic check are in this time too.
  double MeasureMs = T.callMs("runtime::runBenchmarkWithRetry");
  R.metric("vm.ns_per_instruction",
           PerCall(MeasureMs, static_cast<double>(C.Instructions), 1e6),
           "ns");
  R.metric("runtime.measure_ms", MeasureMs, "ms");
  R.metric("runtime.check_ms", T.callMs("runtime::checkKernel"), "ms");
  double ReadMs = T.callMs("ResultCache::lookup") +
                  T.callMs("FailureLedger::lookup") +
                  T.callMs("store::loadCorpus") +
                  T.callMs("ClgenPipeline::synthesizeOrLoad");
  R.metric("store.read_us",
           PerCall(ReadMs, static_cast<double>(C.Reads), 1e3), "us");
  double WriteMs = T.callMs("ResultCache::store") +
                   T.callMs("FailureLedger::record") +
                   T.callMs("store::saveModel");
  R.metric("store.write_us",
           PerCall(WriteMs, static_cast<double>(C.Writes), 1e3), "us");
  R.metric("suites.measure_ms", T.callMs("suites::measureCatalogue"), "ms");
  R.metric("features.extract_us",
           PerCall(T.callMs("features::extractStaticFeatures"),
                   static_cast<double>(
                       T.calls("features::extractStaticFeatures")),
                   1e3),
           "us");
  R.metric("predict.kfold_ms", T.callMs("predict::kFoldCrossValidation"),
           "ms");
  R.metric("predict.fit_ms",
           T.callMs("DecisionTree::fit") + T.callMs("predict::featureMatrix"),
           "ms");
  R.metric("predict.report_ms",
           T.callMs("predict::renderTable1") + T.callMs("predict::renderFig9"),
           "ms");
  R.metric("serve.encode_us",
           PerCall(T.callMs("serve::encodeSynthesizeResponse"),
                   static_cast<double>(
                       T.calls("serve::encodeSynthesizeResponse")),
                   1e3),
           "us");
  R.metric("serve.parse_us",
           PerCall(T.callMs("serve::parseFrame"),
                   static_cast<double>(T.calls("serve::parseFrame")), 1e3),
           "us");
  // Medians: a request's two calls run in different processes, and a
  // few slow requests on either side would swamp a difference of means.
  double Engine = median(T.durationsMs("serve::Server::synthesize"));
  double Client = median(T.durationsMs("serve::Client::synthesize"));
  R.metric("serve.engine_us", Engine * 1e3, "us");
  R.metric("serve.socket_us", (Client - Engine) * 1e3, "us");

  for (const std::string &Layer : T.layers())
    R.metric(Layer + ".self_ms", T.selfMs(Layer), "ms");
}

} // namespace clbench
