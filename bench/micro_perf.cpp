//===- bench/micro_perf.cpp - google-benchmark microbenchmarks ----------------===//
//
// Throughput microbenchmarks for the pipeline's hot components: frontend
// (lex/parse/sema), bytecode compilation, interpretation, feature
// extraction, n-gram training and sampling, and LSTM stepping. Not a
// paper experiment; useful for tracking the simulator's own performance.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"
#include "clgen/Sampler.h"
#include "features/Features.h"
#include "githubsim/GithubSim.h"
#include "model/LstmModel.h"
#include "model/NGramModel.h"
#include "model/TemperedDraw.h"
#include "ocl/Parser.h"
#include "ocl/Sema.h"
#include "runtime/HostDriver.h"
#include "store/ResultCache.h"
#include "suites/KernelPatterns.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <benchmark/benchmark.h>

#include <filesystem>

using namespace clgen;

namespace {

const std::string &sampleSource() {
  static const std::string Src = suites::renderPattern(
      suites::PatternKind::NBody, suites::PatternStyle(), "bench_kernel");
  return Src;
}

/// Shared trained pipeline for the synthesis benchmarks (the standard
/// experiment configuration; trained once).
core::ClgenPipeline &benchPipeline() {
  static core::ClgenPipeline P = [] {
    githubsim::GithubSimOptions GOpts;
    GOpts.FileCount = 400;
    core::PipelineOptions POpts;
    POpts.NGram.Order = 14;
    return core::ClgenPipeline::train(githubsim::mineGithub(GOpts), POpts);
  }();
  return P;
}

void BM_ParseAndSema(benchmark::State &State) {
  for (auto _ : State) {
    auto R = ocl::parseProgram(sampleSource());
    ocl::analyze(*R.get());
    benchmark::DoNotOptimize(R.get());
  }
  State.SetBytesProcessed(State.iterations() * sampleSource().size());
}
BENCHMARK(BM_ParseAndSema);

void BM_CompileKernel(benchmark::State &State) {
  for (auto _ : State) {
    auto K = vm::compileFirstKernel(sampleSource());
    benchmark::DoNotOptimize(K.get().Code.size());
  }
}
BENCHMARK(BM_CompileKernel);

void BM_InterpretKernel(benchmark::State &State) {
  auto K = vm::compileFirstKernel(sampleSource()).take();
  std::vector<vm::BufferData> Bufs = {
      vm::BufferData::zeros(1024, 1), vm::BufferData::zeros(1024, 1),
      vm::BufferData::zeros(1024, 1)};
  vm::LaunchConfig Config;
  Config.GlobalSize[0] = 1024;
  Config.LocalSize[0] = 64;
  uint64_t Instructions = 0;
  for (auto _ : State) {
    auto R = vm::launchKernel(K,
                              {vm::KernelArg::buffer(0),
                               vm::KernelArg::buffer(1),
                               vm::KernelArg::buffer(2),
                               vm::KernelArg::scalar(1024)},
                              Bufs, Config);
    Instructions += R.get().Instructions;
    benchmark::DoNotOptimize(R.get().Instructions);
  }
  State.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(Instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpretKernel);

void BM_FeatureExtraction(benchmark::State &State) {
  auto K = vm::compileFirstKernel(sampleSource()).take();
  for (auto _ : State) {
    auto F = features::extractStaticFeatures(K);
    benchmark::DoNotOptimize(F.Comp);
  }
}
BENCHMARK(BM_FeatureExtraction);

/// The sampler's per-character step on benchPipeline()'s order-14 model
/// at T = 0.5, restarting from the Figure 6 seed wherever sampleKernel
/// would end a sample. Each run samples a fresh clone, as a synthesis
/// engine does. \p Memoized picks the step: drawNext, which the sampler
/// runs (the draw memoized by trie node), or the reference
/// nextDistributionInto + drawToken. Both then move the trie cursor with
/// observe, and both draw the same characters.
void sampleChars(benchmark::State &State, bool Memoized) {
  std::unique_ptr<model::LanguageModel> Model =
      benchPipeline().languageModel().clone();
  const model::Vocabulary &Vocab = Model->vocabulary();
  const std::string Seed = core::ArgSpec::figure6().seedText();
  const double Temperature = 0.5;
  Rng R(0x5A117);
  std::vector<double> Dist;
  size_t Length = 0;
  int Depth = 0;
  auto restart = [&] {
    Model->reset();
    Model->observeText(Seed);
    Length = Seed.size();
    Depth = 1;
  };
  restart();
  for (auto _ : State) {
    int Token;
    if (Memoized) {
      Token = Model->drawNext(Temperature, R);
    } else {
      Model->nextDistributionInto(Dist);
      Token = model::drawToken(Dist, Temperature, R);
    }
    benchmark::DoNotOptimize(Token);
    char C = Vocab.charOf(Token);
    Depth += (C == '{') - (C == '}');
    if (Token == model::Vocabulary::EndOfText || Depth == 0 ||
        ++Length == core::SampleOptions().MaxLength)
      restart();
    else
      Model->observe(Token);
  }
}

void BM_NGramSampleChar(benchmark::State &State) { sampleChars(State, true); }
BENCHMARK(BM_NGramSampleChar);

void BM_NGramSampleCharReference(benchmark::State &State) {
  sampleChars(State, false);
}
BENCHMARK(BM_NGramSampleCharReference);

/// n-gram training alone: order 14 on benchPipeline()'s 400-file corpus,
/// the call clbench's traced model.train_ms times.
void BM_NGramTrain(benchmark::State &State) {
  const std::vector<std::string> &Entries = benchPipeline().corpus().Entries;
  model::NGramOptions Opts;
  Opts.Order = 14;
  for (auto _ : State) {
    model::NGramModel M(Opts);
    M.train(Entries);
    benchmark::DoNotOptimize(M.contextCount());
  }
}
BENCHMARK(BM_NGramTrain)->Unit(benchmark::kMillisecond);

void BM_LstmStep(benchmark::State &State) {
  model::LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = static_cast<int>(State.range(0));
  model::LstmModel Model(Opts);
  Model.train({sampleSource().substr(0, 512)});
  Model.reset();
  std::vector<double> Dist;
  for (auto _ : State) {
    Model.observe(1);
    Model.nextDistributionInto(Dist);
    benchmark::DoNotOptimize(Dist[0]);
  }
}
BENCHMARK(BM_LstmStep)->ArgName("H")->Arg(64)->Arg(128)->Arg(256);

/// One LSTM training epoch through the data-parallel engine at the
/// standard laptop-scale architecture (H=64, 2 layers, 8 lanes),
/// parameterized by TrainOptions::Workers. Weights are bit-identical
/// across the arg values; only the wall time may move (bounded by core
/// count — see BENCH_perf.json machine note).
void BM_TrainEpoch(benchmark::State &State) {
  static const std::vector<std::string> Entries = [] {
    githubsim::GithubSimOptions GOpts;
    GOpts.FileCount = 48;
    auto Files = githubsim::mineGithub(GOpts);
    return corpus::buildCorpus(Files, corpus::CorpusOptions()).Entries;
  }();
  model::LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.BatchLanes = 8;
  model::TrainOptions TOpts;
  TOpts.Workers = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    model::LstmModel Model(Opts);
    Model.train(Entries, TOpts);
    benchmark::DoNotOptimize(Model.parameterCount());
  }
}
BENCHMARK(BM_TrainEpoch)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Forwards to a model and counts the characters the sampler draws.
class DrawCounter final : public model::LanguageModel {
public:
  explicit DrawCounter(model::LanguageModel &Inner) : Inner(Inner) {}
  const model::Vocabulary &vocabulary() const override {
    return Inner.vocabulary();
  }
  void reset() override { Inner.reset(); }
  void observe(int TokenId) override { Inner.observe(TokenId); }
  std::vector<double> nextDistribution() override {
    return Inner.nextDistribution();
  }
  int drawNext(double Temperature, Rng &R) override {
    ++Draws;
    return Inner.drawNext(Temperature, R);
  }

  uint64_t Draws = 0;

private:
  model::LanguageModel &Inner;
};

void BM_SampleKernel(benchmark::State &State) {
  std::unique_ptr<model::LanguageModel> Model =
      benchPipeline().languageModel().clone();
  DrawCounter Counted(*Model);
  std::string Seed = core::ArgSpec::figure6().seedText();
  core::SampleOptions SOpts;
  SOpts.Temperature = 0.5;
  Rng Base(0x5A117);
  uint64_t Attempt = 0;
  for (auto _ : State) {
    Rng R = Base.split(Attempt++);
    auto S = core::sampleKernel(Counted, Seed, SOpts, R);
    benchmark::DoNotOptimize(S.has_value());
  }
  State.counters["chars/s"] = benchmark::Counter(
      static_cast<double>(Counted.Draws), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleKernel)->Unit(benchmark::kMicrosecond);

void BM_SynthesizeBatch(benchmark::State &State) {
  auto &Pipeline = benchPipeline();
  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = 8;
  SOpts.MaxAttempts = 4000;
  SOpts.Sampling.Temperature = 0.5;
  SOpts.Workers = static_cast<unsigned>(State.range(0));
  uint64_t Round = 0;
  size_t Accepted = 0;
  for (auto _ : State) {
    SOpts.Seed = 0xC17E9 + Round++; // Fresh batch per iteration.
    auto R = Pipeline.synthesize(SOpts);
    Accepted += R.Kernels.size();
    benchmark::DoNotOptimize(R.Stats.Attempts);
  }
  State.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(Accepted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynthesizeBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Scratch directory for the artifact-store benchmarks, wiped at setup
/// so every benchmark binary run starts cold.
std::string benchStoreDir(const char *Leaf) {
  auto Dir = std::filesystem::temp_directory_path() /
             (std::string("clgen_micro_perf_") + Leaf);
  std::filesystem::remove_all(Dir);
  return Dir.string();
}

/// Cost of a full memoized measurement: content-address the kernel
/// (bytecode hash + options + device configs) and read the result from
/// its cache entry file (open, read, checksum, decode) — the per-kernel
/// overhead a warm streaming run pays at enqueue time instead of
/// executing. Compare against BM_InterpretKernel.
void BM_ResultCacheHit(benchmark::State &State) {
  std::string Dir = benchStoreDir("result_cache");
  auto K = vm::compileFirstKernel(sampleSource()).take();
  runtime::DriverOptions Opts;
  Opts.GlobalSize = 16384;
  auto P = runtime::amdPlatform();
  store::ResultCache Cache(Dir);
  auto Fresh = runtime::runBenchmark(K, P, Opts);
  Cache.store(store::measurementKey(K, Opts, P), Fresh.get());
  for (auto _ : State) {
    uint64_t Key = store::measurementKey(K, Opts, P);
    auto M = Cache.lookup(Key);
    benchmark::DoNotOptimize(M->CpuTime);
  }
  std::filesystem::remove_all(Dir);
}
BENCHMARK(BM_ResultCacheHit);

/// Cold pipeline construction: corpus assembly + n-gram training from
/// content files (the standard 400-file / order-14 configuration).
void BM_ColdTrain(benchmark::State &State) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 400;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 14;
  for (auto _ : State) {
    auto P = core::ClgenPipeline::train(Files, POpts);
    benchmark::DoNotOptimize(P.corpus().Entries.size());
  }
}
BENCHMARK(BM_ColdTrain)->Unit(benchmark::kMillisecond);

/// Warm start through the artifact store: same configuration, but the
/// fingerprint matches a stored model + corpus snapshot, so trainOrLoad
/// deserializes instead of retraining.
void BM_WarmStartTrain(benchmark::State &State) {
  std::string Dir = benchStoreDir("warm_start");
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 400;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 14;
  (void)core::ClgenPipeline::trainOrLoad(Dir, Files, POpts); // Populate.
  for (auto _ : State) {
    auto P = core::ClgenPipeline::trainOrLoad(Dir, Files, POpts);
    benchmark::DoNotOptimize(P.get().corpus().Entries.size());
  }
  std::filesystem::remove_all(Dir);
}
BENCHMARK(BM_WarmStartTrain)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
