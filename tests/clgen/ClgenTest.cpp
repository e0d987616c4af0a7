//===- tests/clgen/ClgenTest.cpp - sampler / synthesizer / pipeline -----------===//

#include "clgen/Pipeline.h"

#include "clgen/Sampler.h"
#include "clgen/Synthesizer.h"
#include "githubsim/GithubSim.h"
#include "model/TemperedDraw.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::core;

namespace {

/// A tiny deterministic language model for sampler unit tests: emits a
/// fixed string then end-of-text.
class ScriptedModel : public model::LanguageModel {
public:
  explicit ScriptedModel(std::string Script) : Script(std::move(Script)) {
    Vocab = model::Vocabulary::fromText(this->Script +
                                        "_abcdefghijklmnopqrstuvwxyz"
                                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                        "0123456789*(){}[];=+-<. \n");
  }
  const model::Vocabulary &vocabulary() const override { return Vocab; }
  void reset() override { Cursor = 0; }
  void observe(int) override {}
  std::vector<double> nextDistribution() override {
    std::vector<double> Dist(Vocab.size(), 0.0);
    if (Cursor < Script.size())
      Dist[Vocab.idOf(Script[Cursor++])] = 1.0;
    else
      Dist[model::Vocabulary::EndOfText] = 1.0;
    return Dist;
  }

private:
  model::Vocabulary Vocab;
  std::string Script;
  size_t Cursor = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// ArgSpec / seeds
//===----------------------------------------------------------------------===//

TEST(ArgSpecTest, Figure6SeedText) {
  EXPECT_EQ(ArgSpec::figure6().seedText(),
            "__kernel void A(__global float* a, __global float* b, "
            "__global float* c, const int d) {");
}

TEST(ArgSpecTest, CustomSpec) {
  ArgSpec Spec;
  Spec.ArgTypes = {"__global int*", "float"};
  EXPECT_EQ(Spec.seedText(),
            "__kernel void A(__global int* a, float b) {");
}

//===----------------------------------------------------------------------===//
// Sampler (Algorithm 1)
//===----------------------------------------------------------------------===//

TEST(SamplerTest, StopsWhenBlockDepthReachesZero) {
  // Script closes the seed's '{' after one statement; anything after the
  // closing brace must not be consumed.
  ScriptedModel M(" a[0] = 1.0f; } trailing garbage");
  Rng R(1);
  SampleOptions Opts;
  auto S = sampleKernel(M, "__kernel void A(__global float* a) {", Opts, R);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->back(), '}');
  EXPECT_EQ(S->find("garbage"), std::string::npos);
}

TEST(SamplerTest, TracksNestedBlocks) {
  ScriptedModel M(" if (1) { a[0] = 1.0f; } a[1] = 2.0f; } extra");
  Rng R(1);
  auto S = sampleKernel(M, "__kernel void A(__global float* a) {",
                        SampleOptions(), R);
  ASSERT_TRUE(S.has_value());
  // Both the inner and outer '}' are present; sampling stopped at outer.
  EXPECT_NE(S->find("if (1) {"), std::string::npos);
  EXPECT_EQ(S->find("extra"), std::string::npos);
}

TEST(SamplerTest, LengthCapReturnsNullopt) {
  ScriptedModel M(std::string(5000, 'x')); // Never closes the block.
  Rng R(1);
  SampleOptions Opts;
  Opts.MaxLength = 128;
  EXPECT_FALSE(
      sampleKernel(M, "__kernel void A() {", Opts, R).has_value());
}

TEST(SamplerTest, PrematureEndOfTextReturnsNullopt) {
  ScriptedModel M(" a[0] = 1.0f; "); // EOT before '}'.
  Rng R(1);
  EXPECT_FALSE(sampleKernel(M, "__kernel void A(__global float* a) {",
                            SampleOptions(), R)
                   .has_value());
}

TEST(SamplerTest, StrayCloseBraceBeforeOpenIsRejected) {
  // Free-mode seed has depth 0; a '}' before any '{' must reject the
  // sample instead of driving the depth negative and letting a later
  // {...} pair pose as the function body.
  ScriptedModel M("int x); } garbage { a[0] = 1; }");
  Rng R(1);
  auto S = sampleKernel(M, "__kernel void A(", SampleOptions(), R);
  EXPECT_FALSE(S.has_value());
}

TEST(SamplerTest, MalformedSeedIsRejected) {
  ScriptedModel M(" a[0] = 1.0f; }");
  Rng R(1);
  EXPECT_FALSE(sampleKernel(M, "} broken seed {", SampleOptions(), R)
                   .has_value());
}

//===----------------------------------------------------------------------===//
// Synthesizer + pipeline (integration)
//===----------------------------------------------------------------------===//

namespace {

ClgenPipeline &sharedPipeline() {
  static ClgenPipeline P = [] {
    githubsim::GithubSimOptions GOpts;
    GOpts.FileCount = 400;
    PipelineOptions POpts;
    POpts.NGram.Order = 14;
    return ClgenPipeline::train(githubsim::mineGithub(GOpts), POpts);
  }();
  return P;
}

/// Algorithm 1 with the reference per-character draw, nextDistributionInto
/// + drawToken, and sampleKernel's stopping rules.
std::optional<std::string> referenceSample(model::LanguageModel &Model,
                                           const std::string &Seed,
                                           const SampleOptions &Opts,
                                           Rng &R) {
  const model::Vocabulary &Vocab = Model.vocabulary();
  Model.reset();
  int Depth = 0;
  for (char C : Seed) {
    Model.observe(Vocab.idOf(C));
    Depth += (C == '{') - (C == '}');
  }
  if (Depth < 0)
    return std::nullopt;
  std::string Sample = Seed;
  bool SeenOpen = Seed.find('{') != std::string::npos;
  std::vector<double> Dist;
  while (Sample.size() < Opts.MaxLength) {
    Model.nextDistributionInto(Dist);
    int Token = model::drawToken(Dist, Opts.Temperature, R);
    if (Token == model::Vocabulary::EndOfText) {
      if (Depth == 0 && SeenOpen)
        return Sample;
      return std::nullopt;
    }
    char C = Vocab.charOf(Token);
    if (C == '{') {
      ++Depth;
      SeenOpen = true;
    }
    if (C == '}') {
      if (Depth == 0)
        return std::nullopt;
      --Depth;
    }
    Sample += C;
    Model.observe(Token);
    if (C == '}' && Depth == 0)
      return Sample;
  }
  return std::nullopt;
}

} // namespace

TEST(SamplerTest, MemoizedDrawsMatchTheReferenceLoop) {
  // One clone samples every attempt, as a synthesis worker does, so
  // later attempts draw from contexts that earlier ones memoized.
  std::unique_ptr<model::LanguageModel> Memo =
      sharedPipeline().languageModel().clone();
  std::unique_ptr<model::LanguageModel> Ref =
      sharedPipeline().languageModel().clone();
  Rng Base(0xC17E9);
  size_t Kernels = 0;
  for (uint64_t Attempt = 0; Attempt < 200; ++Attempt) {
    // Half Figure 6 signatures at T = 0.5, half free mode at T = 0.85.
    bool Spec = Attempt < 100;
    std::string Seed =
        Spec ? ArgSpec::figure6().seedText() : freeModeSeed();
    SampleOptions Opts;
    Opts.Temperature = Spec ? 0.5 : 0.85;
    Rng A = Base.split(Attempt), B = Base.split(Attempt);
    std::optional<std::string> Got = sampleKernel(*Memo, Seed, Opts, A);
    std::optional<std::string> Want = referenceSample(*Ref, Seed, Opts, B);
    ASSERT_EQ(Got, Want) << "attempt " << Attempt;
    ASSERT_EQ(A.next(), B.next()) << "attempt " << Attempt;
    Kernels += Got.has_value();
  }
  EXPECT_GT(Kernels, 0u);
}

TEST(SynthesizerTest, ProducesCompilableUniqueKernels) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 10;
  Opts.MaxAttempts = 4000;
  Opts.Sampling.Temperature = 0.5;
  auto R = sharedPipeline().synthesize(Opts);
  EXPECT_GT(R.Kernels.size(), 0u);
  std::set<std::string> Unique;
  for (const auto &SK : R.Kernels) {
    EXPECT_GE(SK.Kernel.staticInstructionCount(), 3u);
    EXPECT_TRUE(Unique.insert(SK.Source).second) << "duplicate emitted";
    // Argument specification respected: Figure 6 signature.
    EXPECT_NE(SK.Source.find("__kernel void A(__global float* a, "
                             "__global float* b, __global float* c, "
                             "const int d)"),
              std::string::npos)
        << SK.Source;
  }
  // Bookkeeping adds up.
  EXPECT_EQ(R.Stats.Accepted + R.Stats.IncompleteSamples +
                R.Stats.RejectedByFilter + R.Stats.Duplicates,
            R.Stats.Attempts);
}

TEST(SynthesizerTest, FreeModeInventsSignatures) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 5;
  Opts.MaxAttempts = 4000;
  Opts.Spec = std::nullopt;
  Opts.Sampling.Temperature = 0.5;
  auto R = sharedPipeline().synthesize(Opts);
  EXPECT_GT(R.Kernels.size(), 0u);
  for (const auto &SK : R.Kernels)
    EXPECT_NE(SK.Source.find("__kernel void A("), std::string::npos);
}

TEST(SynthesizerTest, DeterministicForSeed) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 3;
  Opts.MaxAttempts = 2000;
  Opts.Seed = 99;
  auto A = sharedPipeline().synthesize(Opts);
  auto B = sharedPipeline().synthesize(Opts);
  ASSERT_EQ(A.Kernels.size(), B.Kernels.size());
  for (size_t I = 0; I < A.Kernels.size(); ++I)
    EXPECT_EQ(A.Kernels[I].Source, B.Kernels[I].Source);
}

TEST(SynthesizerTest, BitIdenticalAcrossWorkerCounts) {
  // The parallel engine's core contract: for a fixed seed the output
  // stream (sources, order, and stats) does not depend on how many
  // workers sampled it.
  SynthesisOptions Opts;
  Opts.TargetKernels = 6;
  Opts.MaxAttempts = 3000;
  Opts.Sampling.Temperature = 0.5;
  Opts.Seed = 0xD17E;

  Opts.Workers = 1;
  auto Serial = sharedPipeline().synthesize(Opts);
  ASSERT_GT(Serial.Kernels.size(), 0u);

  for (unsigned Workers : {2u, 8u}) {
    Opts.Workers = Workers;
    auto Parallel = sharedPipeline().synthesize(Opts);
    ASSERT_EQ(Parallel.Kernels.size(), Serial.Kernels.size())
        << "workers=" << Workers;
    for (size_t I = 0; I < Serial.Kernels.size(); ++I)
      EXPECT_EQ(Parallel.Kernels[I].Source, Serial.Kernels[I].Source)
          << "workers=" << Workers << " kernel " << I;
    EXPECT_EQ(Parallel.Stats.Attempts, Serial.Stats.Attempts);
    EXPECT_EQ(Parallel.Stats.Accepted, Serial.Stats.Accepted);
    EXPECT_EQ(Parallel.Stats.IncompleteSamples,
              Serial.Stats.IncompleteSamples);
    EXPECT_EQ(Parallel.Stats.RejectedByFilter,
              Serial.Stats.RejectedByFilter);
    EXPECT_EQ(Parallel.Stats.Duplicates, Serial.Stats.Duplicates);
  }
}

TEST(SynthesizerTest, ZeroTargetSynthesizesNothing) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 0;
  Opts.MaxAttempts = 100;
  for (unsigned Workers : {1u, 4u}) {
    Opts.Workers = Workers;
    auto R = sharedPipeline().synthesize(Opts);
    EXPECT_EQ(R.Kernels.size(), 0u) << "workers=" << Workers;
    EXPECT_EQ(R.Stats.Attempts, 0u) << "workers=" << Workers;
  }
}

TEST(SynthesizerTest, WaveSizeDoesNotChangeOutput) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 4;
  Opts.MaxAttempts = 2000;
  Opts.Sampling.Temperature = 0.5;
  Opts.Seed = 0xBEEF;
  Opts.Workers = 2;
  Opts.WaveSize = 4;
  auto Small = sharedPipeline().synthesize(Opts);
  Opts.WaveSize = 64;
  auto Large = sharedPipeline().synthesize(Opts);
  ASSERT_EQ(Small.Kernels.size(), Large.Kernels.size());
  for (size_t I = 0; I < Small.Kernels.size(); ++I)
    EXPECT_EQ(Small.Kernels[I].Source, Large.Kernels[I].Source);
  EXPECT_EQ(Small.Stats.Attempts, Large.Stats.Attempts);
}

TEST(PipelineTest, TrainsOnCorpusAndReportsStats) {
  const auto &Corpus = sharedPipeline().corpus();
  EXPECT_GT(Corpus.Entries.size(), 20u);
  EXPECT_GT(Corpus.Stats.KernelCount, Corpus.Entries.size() / 2);
  EXPECT_NEAR(Corpus.Stats.discardRate(), 0.32, 0.08);
}

TEST(PipelineTest, LstmBackendEndToEnd) {
  // Laptop-scale LSTM through the same pipeline interface. Tiny corpus
  // and model: the goal is end-to-end wiring, not sample quality.
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 30;
  PipelineOptions POpts;
  POpts.Backend = ModelBackend::Lstm;
  POpts.Lstm.Layers = 1;
  POpts.Lstm.HiddenSize = 24;
  POpts.Lstm.Epochs = 1;
  auto P = ClgenPipeline::train(githubsim::mineGithub(GOpts), POpts);
  SynthesisOptions SOpts;
  SOpts.TargetKernels = 1;
  SOpts.MaxAttempts = 40; // A barely-trained LSTM rarely compiles.
  auto R = P.synthesize(SOpts);
  EXPECT_EQ(R.Stats.Attempts,
            R.Stats.Accepted + R.Stats.IncompleteSamples +
                R.Stats.RejectedByFilter + R.Stats.Duplicates);
}
