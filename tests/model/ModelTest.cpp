//===- tests/model/ModelTest.cpp - vocabulary / n-gram / LSTM tests -----------===//

#include "model/LstmModel.h"
#include "model/NGramModel.h"
#include "model/TemperedDraw.h"
#include "model/Vocabulary.h"

#include "corpus/Corpus.h"
#include "githubsim/GithubSim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

using namespace clgen;
using namespace clgen::model;

//===----------------------------------------------------------------------===//
// Vocabulary
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, RoundTrip) {
  Vocabulary V = Vocabulary::fromText("abc{}");
  EXPECT_EQ(V.size(), 6u); // Sentinel + 5 chars.
  std::string Text = "cab{}";
  EXPECT_EQ(V.decode(V.encode(Text)), Text);
}

TEST(VocabularyTest, SentinelIsZeroAndTerminatesDecode) {
  Vocabulary V = Vocabulary::fromText("xy");
  std::vector<int> Ids = {V.idOf('x'), Vocabulary::EndOfText, V.idOf('y')};
  EXPECT_EQ(V.decode(Ids), "x");
}

TEST(VocabularyTest, UnseenCharsMapToSentinel) {
  Vocabulary V = Vocabulary::fromText("ab");
  EXPECT_EQ(V.idOf('z'), Vocabulary::EndOfText);
}

//===----------------------------------------------------------------------===//
// NGramModel
//===----------------------------------------------------------------------===//

TEST(NGramModelTest, DistributionSumsToOne) {
  NGramModel M;
  M.train({"abcabcabc"});
  M.reset();
  double Sum = 0.0;
  for (double P : M.nextDistribution())
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(NGramModelTest, LearnsDeterministicSequence) {
  NGramModel M;
  M.train({"abababababababab"});
  M.reset();
  M.observeText("ab");
  auto Dist = M.nextDistribution();
  // After "ab", 'a' must dominate.
  int IdA = M.vocabulary().idOf('a');
  int IdB = M.vocabulary().idOf('b');
  EXPECT_GT(Dist[IdA], 0.8);
  EXPECT_GT(Dist[IdA], 10.0 * Dist[IdB]);
}

TEST(NGramModelTest, BacksOffForUnseenContext) {
  NGramOptions Opts;
  Opts.Order = 5;
  NGramModel M(Opts);
  M.train({"aaab"});
  M.reset();
  M.observeText("zzzz"); // Unseen context: falls back to unigram-ish.
  auto Dist = M.nextDistribution();
  int IdA = M.vocabulary().idOf('a');
  EXPECT_GT(Dist[IdA], 0.1); // 'a' dominates the unigram counts.
}

TEST(NGramModelTest, ContextWindowIsBounded) {
  NGramOptions Opts;
  Opts.Order = 3;
  NGramModel M(Opts);
  M.train({"xyxyxy"});
  M.reset();
  // Feeding a long prefix must not grow the rolling context unboundedly
  // (would throw off lookups); behaviourally: prediction after a long
  // prefix equals prediction after just the last Order-1 chars.
  M.observeText("xyxyxyxyxyxyxyxyxy");
  auto DistLong = M.nextDistribution();
  M.reset();
  M.observeText("xy");
  auto DistShort = M.nextDistribution();
  for (size_t I = 0; I < DistLong.size(); ++I)
    EXPECT_NEAR(DistLong[I], DistShort[I], 1e-12);
}

TEST(NGramModelTest, EndOfTextLearnedAtKernelBoundaries) {
  NGramModel M;
  std::vector<std::string> Entries(8, "k{}");
  M.train(Entries);
  M.reset();
  M.observeText("k{}");
  auto Dist = M.nextDistribution();
  EXPECT_GT(Dist[Vocabulary::EndOfText], 0.5);
}

TEST(NGramModelTest, CloneIsIndependentAndEquivalent) {
  NGramModel M;
  M.train({"abcabcabcabc"});
  auto C = M.clone();
  ASSERT_NE(C, nullptr);
  // Same predictions from the same state...
  M.reset();
  C->reset();
  M.observeText("ab");
  C->observeText("ab");
  EXPECT_EQ(M.nextDistribution(), C->nextDistribution());
  // ...and advancing the clone leaves the original untouched.
  auto Before = M.nextDistribution();
  C->observeText("cabcab");
  EXPECT_EQ(M.nextDistribution(), Before);
}

TEST(NGramModelTest, NextDistributionIntoMatchesNextDistribution) {
  NGramModel M;
  M.train({"xyzzyxyzzy"});
  M.reset();
  M.observeText("xy");
  std::vector<double> Into;
  M.nextDistributionInto(Into);
  EXPECT_EQ(Into, M.nextDistribution());
}

TEST(NGramModelTest, BitsPerCharLowerForInDistributionText) {
  NGramModel M;
  M.train({"__kernel void A(__global float* a) {\n  a[0] = 1.0f;\n}\n"});
  double InDist =
      M.bitsPerChar("__kernel void A(__global float* a) {\n");
  double OffDist = M.bitsPerChar("qqqq zzzz wwww!!!");
  EXPECT_LT(InDist, OffDist);
}

//===----------------------------------------------------------------------===//
// drawToken edge cases
//===----------------------------------------------------------------------===//

TEST(DrawTokenTest, EmptyDistributionYieldsEndOfText) {
  Rng R(1);
  std::vector<double> Empty;
  EXPECT_EQ(drawToken(Empty, 0.85, R), model::Vocabulary::EndOfText);
}

TEST(DrawTokenTest, AllZeroDistributionYieldsEndOfText) {
  Rng R(1);
  std::vector<double> Zeros(16, 0.0);
  EXPECT_EQ(drawToken(Zeros, 0.85, R), model::Vocabulary::EndOfText);
}

TEST(DrawTokenTest, ZeroProbabilityTokensAreNeverDrawn) {
  Rng R(9);
  std::vector<double> Dist = {0.0, 0.5, 0.0, 0.5, 0.0};
  for (int I = 0; I < 500; ++I) {
    int T = drawToken(Dist, 0.7, R);
    EXPECT_TRUE(T == 1 || T == 3) << "drew zero-probability token " << T;
  }
}

TEST(DrawTokenTest, TemperatureSharpensDistribution) {
  Rng R(5);
  std::vector<double> Dist = {0.25, 0.75};
  int HotMajority = 0, ColdMajority = 0;
  const int N = 4000;
  for (int I = 0; I < N; ++I) {
    HotMajority += drawToken(Dist, 1.0, R) == 1;
    ColdMajority += drawToken(Dist, 0.25, R) == 1;
  }
  // At T=1 the majority token wins ~75%; at T=0.25 the p-ratio is cubed
  // to 81:1 so it should win nearly always.
  EXPECT_NEAR(HotMajority / static_cast<double>(N), 0.75, 0.05);
  EXPECT_GT(ColdMajority / static_cast<double>(N), 0.95);
}

TEST(DrawTokenTest, NonPositiveTemperatureDrawsAtOneThousandth) {
  // T <= 0 draws at T = 1e-3: nearly always the most likely token, and
  // from equal generators exactly as T = 1e-3 does.
  std::vector<double> Dist = {0.2, 0.5, 0.3};
  Rng A(4), B(4), C(4);
  for (int I = 0; I < 200; ++I) {
    int AtThousandth = drawToken(Dist, 1e-3, A);
    EXPECT_EQ(AtThousandth, 1);
    EXPECT_EQ(drawToken(Dist, 0.0, B), AtThousandth);
    EXPECT_EQ(drawToken(Dist, -1.0, C), AtThousandth);
  }
}

TEST(DrawTokenTest, DeterministicForEqualRngState) {
  std::vector<double> Dist = {0.1, 0.2, 0.3, 0.4};
  Rng A(77), B(77);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(drawToken(Dist, 0.6, A), drawToken(Dist, 0.6, B));
}

//===----------------------------------------------------------------------===//
// Memoized draws: NGramModel::drawNext against drawToken
//===----------------------------------------------------------------------===//

namespace {

/// The entries of a 200-file mined corpus.
const std::vector<std::string> &corpusEntries() {
  static const std::vector<std::string> Entries = [] {
    githubsim::GithubSimOptions GOpts;
    GOpts.FileCount = 200;
    return corpus::buildCorpus(githubsim::mineGithub(GOpts),
                               corpus::CorpusOptions())
        .Entries;
  }();
  return Entries;
}

/// The engine's standard n-gram: order 14 over the mined corpus.
const NGramModel &order14Model(double UnigramSmoothing = 0.1) {
  auto train = [](double Smoothing) {
    NGramOptions Opts;
    Opts.Order = 14;
    Opts.UnigramSmoothing = Smoothing;
    NGramModel M(Opts);
    M.train(corpusEntries());
    return M;
  };
  static const NGramModel Smoothed = train(0.1);
  static const NGramModel Unsmoothed = train(0.0);
  return UnigramSmoothing == 0.0 ? Unsmoothed : Smoothed;
}

const double Temperatures[] = {0.0, 0.25, 0.5, 0.55, 0.85, 1.0, 2.0};

/// Generators in the same state produce the same next values.
bool sameState(Rng A, Rng B) {
  return A.next() == B.next() && A.next() == B.next();
}

/// A memoized model and a reference copy of it, fed the memoized
/// model's own samples in lockstep from equal generators. Every draw
/// must equal drawToken over the reference's distribution and leave
/// the generators equal.
struct LockstepStream {
  NGramModel Memo, Ref;
  Rng A, B;
  size_t Length = 0;

  LockstepStream(const NGramModel &Trained, uint64_t Seed)
      : Memo(Trained), Ref(Trained), A(Seed), B(Seed) {
    restart();
  }

  void restart() {
    for (NGramModel *M : {&Memo, &Ref}) {
      M->reset();
      M->observeText("__kernel void A(");
    }
    Length = 0;
  }

  void observe(int Token) {
    Memo.observe(Token);
    Ref.observe(Token);
  }

  /// One draw at \p Temperature, checked against the reference.
  int step(double Temperature) {
    std::vector<double> Dist = Ref.nextDistribution();
    int Want = drawToken(Dist, Temperature, B);
    int Got = Memo.drawNext(Temperature, A);
    EXPECT_EQ(Got, Want) << "T=" << Temperature;
    EXPECT_TRUE(sameState(A, B)) << "T=" << Temperature;
    EXPECT_TRUE(Got == Vocabulary::EndOfText || Dist[Got] > 0.0)
        << "drew zero-probability token " << Got;
    return Got;
  }

  /// \p Steps draws at \p Temperature, each observed; end-of-text or a
  /// 2048-character sample starts the next sample from the seed.
  void run(double Temperature, size_t Steps) {
    for (size_t I = 0; I < Steps && !::testing::Test::HasFailure(); ++I) {
      int Token = step(Temperature);
      if (Token == Vocabulary::EndOfText || ++Length == 2048)
        restart();
      else
        observe(Token);
    }
  }
};

} // namespace

TEST(NGramModelTest, MatchesTheBackoffWalkOverTheCountTable) {
  // The reference model: the count table as a map from context string
  // to counts, and the stupid-backoff walk from the longest suffix of
  // the last Order - 1 characters down, discounting by BackoffAlpha per
  // absent level. The trie cursor gives its distributions bit for bit,
  // on short windows, across end-of-text and on unknown tokens.
  const std::vector<std::string> Entries(corpusEntries().begin(),
                                         corpusEntries().begin() + 40);
  for (int Order : {1, 3, 14}) {
    NGramOptions Opts;
    Opts.Order = Order;
    NGramModel M(Opts);
    M.train(Entries);
    const Vocabulary &Vocab = M.vocabulary();
    const size_t Window = static_cast<size_t>(Order - 1);
    std::map<std::string, std::map<int, uint32_t>> Counts;
    for (const std::string &Entry : Entries)
      for (size_t I = 0; I <= Entry.size(); ++I)
        for (size_t L = 0; L <= std::min(Window, I); ++L)
          ++Counts[Entry.substr(I - L, L)][I == Entry.size()
                                               ? Vocabulary::EndOfText
                                               : Vocab.idOf(Entry[I])];
    EXPECT_EQ(M.contextCount(), Counts.size()) << "order " << Order;
    auto reference = [&](const std::string &Context) {
      std::vector<double> Dist(Vocab.size(), 0.0);
      double Scale = 1.0, Mass = 0.0;
      for (size_t Skip = 0; Skip <= Context.size(); ++Skip) {
        auto It = Counts.find(Context.substr(Skip));
        if (It == Counts.end()) {
          Scale *= Opts.BackoffAlpha;
          continue;
        }
        double Total = 0.0;
        for (auto [Id, Count] : It->second)
          Total += Count;
        for (auto [Id, Count] : It->second)
          Dist[Id] += Scale * static_cast<double>(Count) / Total;
        Mass = Scale;
        break;
      }
      double Floor = Opts.UnigramSmoothing / static_cast<double>(Dist.size());
      double InvSum = 1.0 / (Mass + Opts.UnigramSmoothing);
      for (double &P : Dist)
        P = (P + Floor) * InvSum;
      return Dist;
    };
    // Held-out text, so contexts both hit and miss the table.
    std::vector<int> Stream;
    for (size_t E = 40; E < 46; ++E) {
      for (int Id : Vocab.encode(corpusEntries()[E]))
        Stream.push_back(Id);
      Stream.push_back(E % 2 ? Vocabulary::EndOfText : 1000);
    }
    M.reset();
    std::string Context;
    for (int Id : Stream) {
      ASSERT_EQ(M.nextDistribution(), reference(Context))
          << "order " << Order << ", context \"" << Context << "\"";
      M.observe(Id);
      Context.push_back(Vocab.charOf(Id));
      if (Context.size() > Window)
        Context.erase(0, Context.size() - Window);
    }
  }
}

TEST(NGramModelTest, ShortWindowMatchesTheLowerOrderModel) {
  // With F < Order - 1 tokens observed, the cursor backs off from a
  // window of F characters: the full window of the order-(F + 1) model.
  // Both store the same counts for contexts of at most F characters, so
  // their distributions agree bit for bit, and drawNext still draws as
  // drawToken does. The seed holds a token outside the vocabulary and
  // an end-of-text; both step on '\0'.
  const std::vector<std::string> Entries(corpusEntries().begin(),
                                         corpusEntries().begin() + 40);
  NGramOptions Opts;
  Opts.Order = 14;
  NGramModel Full(Opts);
  Full.train(Entries);
  std::vector<int> Seed = Full.vocabulary().encode("__ker");
  Seed.push_back(1000);
  Seed.push_back(Vocabulary::EndOfText);
  for (int Id : Full.vocabulary().encode("nel v"))
    Seed.push_back(Id);
  ASSERT_LT(Seed.size(), 13u);
  Full.reset();
  Rng A(21), B(21);
  for (size_t F = 0; F <= Seed.size(); ++F) {
    NGramOptions LowerOpts = Opts;
    LowerOpts.Order = static_cast<int>(F) + 1;
    NGramModel Lower(LowerOpts);
    Lower.train(Entries);
    for (size_t I = 0; I < F; ++I)
      Lower.observe(Seed[I]);
    std::vector<double> Want = Lower.nextDistribution();
    EXPECT_EQ(Full.nextDistribution(), Want) << "F=" << F;
    EXPECT_EQ(Full.drawNext(0.7, A), drawToken(Want, 0.7, B)) << "F=" << F;
    EXPECT_TRUE(sameState(A, B)) << "F=" << F;
    if (F < Seed.size())
      Full.observe(Seed[F]);
  }
  // Short windows draw through drawToken, so nothing was memoized.
  EXPECT_EQ(Full.memoizedContexts(), 0u);
}

TEST(TemperedDrawTest, DrawNextMatchesDrawTokenAtEveryTemperature) {
  for (double T : Temperatures) {
    LockstepStream S(order14Model(), 0xC17E9);
    S.run(T, 3000);
    // The model's own samples revisit their contexts.
    EXPECT_LT(S.Memo.memoizedContexts(), 3000u) << "T=" << T;
  }
}

TEST(TemperedDrawTest, ZeroSmoothingNeverDrawsZeroProbabilityTokens) {
  // With no unigram floor most entries are exactly 0: they weigh 0 in
  // the memo and drawToken skips them (step() checks every draw).
  for (double T : Temperatures) {
    LockstepStream S(order14Model(0.0), 0x5EED);
    S.run(T, 1500);
  }
  // An untrained model has no count to back off to: drawNext and
  // drawToken both end the text.
  NGramOptions Opts;
  Opts.UnigramSmoothing = 0.0;
  NGramModel Untrained(Opts);
  Rng A(3), B(3);
  EXPECT_EQ(drawToken(Untrained.nextDistribution(), 0.85, B),
            Vocabulary::EndOfText);
  EXPECT_EQ(Untrained.drawNext(0.85, A), Vocabulary::EndOfText);
  EXPECT_TRUE(sameState(A, B));
}

TEST(TemperedDrawTest, AllZeroDistributionYieldsEndOfText) {
  TemperedCdfMemo Memo;
  auto Zeros = [](std::vector<double> &D) { D.assign(16, 0.0); };
  auto Empty = [](std::vector<double> &D) { D.clear(); };
  Rng A(11), B(11);
  for (int I = 0; I < 3; ++I) { // A miss, then hits.
    EXPECT_EQ(Memo.draw(0, 0.85, A, Zeros), Vocabulary::EndOfText);
    EXPECT_EQ(Memo.draw(1, 0.85, A, Empty), Vocabulary::EndOfText);
    B.uniform(); // One uniform per draw, as drawToken takes.
    B.uniform();
    EXPECT_TRUE(sameState(A, B));
  }
}

TEST(TemperedDrawTest, UnigramBackoffContextMatches) {
  // No stored context holds the sentinel, so a full window that ends in
  // it backs off to the unigram level (the trie's root), whose
  // distribution is dense: most entries are off the floor, in every
  // checkpointed block.
  LockstepStream S(order14Model(), 7);
  for (double T : Temperatures) {
    S.restart();
    S.observe(Vocabulary::EndOfText);
    std::vector<double> Dist = S.Ref.nextDistribution();
    EXPECT_GT(std::set<double>(Dist.begin(), Dist.end()).size(),
              2 * TemperedCdfMemo::BlockSize);
    for (int I = 0; I < 400; ++I) // One miss, then hits.
      S.step(T);
    EXPECT_EQ(S.Memo.memoizedContexts(), 1u);
  }
}

TEST(TemperedDrawTest, TemperatureChangeMidStreamClearsTheMemo) {
  LockstepStream S(order14Model(), 0xBEEF);
  S.run(0.5, 800);
  EXPECT_GT(S.Memo.memoizedContexts(), 1u);
  for (double T : {0.85, 0.5, 0.0, 0.5}) {
    S.step(T); // The context stays; only the temperature moves.
    EXPECT_EQ(S.Memo.memoizedContexts(), 1u) << "T=" << T;
    S.restart();
    S.run(T, 400);
  }
}

TEST(TemperedDrawTest, UnderflowingWeightsMatchAtTinyTemperatures) {
  // At T = 1e-3, w = p^1000: 0.4 and below underflow to 0, 0.49 is
  // subnormal and 0.5 is normal. A distribution whose weights all
  // underflow sums to 0 and ends the text in both draws.
  const std::vector<std::vector<double>> Dists = {
      {0.3, 0.3, 0.4},
      {0.01, 0.49, 0.5},
      {0.49, 0.01, 0.01, 0.49},
      {0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.55},
  };
  for (double T : {0.0, 1e-3, 0.01, 0.25}) {
    TemperedCdfMemo Memo;
    Rng A(5), B(5);
    for (int Round = 0; Round < 50; ++Round) {
      for (size_t K = 0; K < Dists.size(); ++K) {
        int Want = drawToken(Dists[K], T, B);
        int Got = Memo.draw(static_cast<uint32_t>(K), T, A,
                            [&](std::vector<double> &D) { D = Dists[K]; });
        ASSERT_EQ(Got, Want) << "T=" << T << ", distribution " << K;
        ASSERT_TRUE(sameState(A, B));
      }
    }
  }
  Rng R(1);
  TemperedCdfMemo Memo;
  EXPECT_EQ(
      Memo.draw(0, 0.0, R, [&](std::vector<double> &D) { D = Dists[0]; }),
      Vocabulary::EndOfText);
}

TEST(TemperedDrawTest, CloneStartsWithAnEmptyMemo) {
  auto fill = [](NGramModel &M) {
    Rng R(9);
    M.reset();
    M.observeText("__kernel void A(");
    for (int I = 0; I < 50; ++I)
      M.observe(M.drawNext(0.5, R));
    return M.memoizedContexts();
  };
  NGramModel M = order14Model();
  EXPECT_EQ(M.memoizedContexts(), 0u); // Copies start empty too.
  size_t Filled = fill(M);
  ASSERT_GT(Filled, 0u);
  std::unique_ptr<LanguageModel> C = M.clone();
  EXPECT_EQ(static_cast<NGramModel &>(*C).memoizedContexts(), 0u);
  EXPECT_EQ(M.memoizedContexts(), Filled);
  // Assigning another model drops the target's memo: it memoized a
  // different model's distributions.
  NGramModel Assigned(NGramOptions{});
  Assigned.train({"__kernel void A(int a) { }"});
  ASSERT_GT(fill(Assigned), 0u);
  Assigned = M;
  EXPECT_EQ(Assigned.memoizedContexts(), 0u);
}

TEST(TemperedDrawTest, StreamAcrossManyNodesStaysExact) {
  // Every context is a prefix of the 13 characters at some position of
  // the corpus, and after an end-of-text the window's longest stored
  // suffix is exactly what follows it. So an end-of-text before the 13
  // characters at every position reaches every node of the trie, far
  // more than the model's own samples do, and every draw still matches
  // drawToken. The memo then holds one CDF per node.
  LockstepStream S(order14Model(), 0xCA9);
  const Vocabulary &Vocab = S.Memo.vocabulary();
  for (const std::string &Entry : corpusEntries()) {
    for (size_t I = 0; I < Entry.size() && !HasFailure(); ++I) {
      S.observe(Vocabulary::EndOfText);
      for (size_t K = I; K < std::min(Entry.size(), I + 13); ++K) {
        S.step(0.5);
        S.observe(Vocab.idOf(Entry[K]));
      }
      S.step(0.5);
    }
  }
  EXPECT_EQ(S.Memo.memoizedContexts(), S.Memo.contextCount());
}

//===----------------------------------------------------------------------===//
// LstmModel
//===----------------------------------------------------------------------===//

TEST(LstmModelTest, ParameterCountMatchesArchitecture) {
  LstmOptions Opts;
  Opts.Layers = 2;
  Opts.HiddenSize = 16;
  Opts.Epochs = 0;
  LstmModel M(Opts);
  M.train({"abc"});
  size_t V = M.vocabulary().size();
  size_t H = 16;
  size_t Expected = (4 * H * (V + H) + 4 * H) + // Layer 0.
                    (4 * H * (H + H) + 4 * H) + // Layer 1.
                    (V * H + V);                // Output.
  EXPECT_EQ(M.parameterCount(), Expected);
}

TEST(LstmModelTest, DistributionSumsToOne) {
  LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = 16;
  LstmModel M(Opts);
  M.train({"abcabc"});
  M.reset();
  M.observe(1);
  double Sum = 0.0;
  for (double P : M.nextDistribution())
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-5);
}

TEST(LstmModelTest, TrainingReducesLoss) {
  LstmOptions Opts;
  Opts.Layers = 1;
  Opts.HiddenSize = 24;
  Opts.Epochs = 12;
  Opts.SequenceLength = 16;
  Opts.LearningRate = 0.1f;
  LstmModel M(Opts);
  std::vector<double> Losses;
  M.train({"abababababababababababababababab"},
          [&](int, double Loss) { Losses.push_back(Loss); });
  ASSERT_GE(Losses.size(), 2u);
  EXPECT_LT(Losses.back(), Losses.front() * 0.8);
}

TEST(LstmModelTest, LearnsAlternatingSequence) {
  LstmOptions Opts;
  Opts.Layers = 1;
  Opts.HiddenSize = 24;
  Opts.Epochs = 80;
  Opts.SequenceLength = 16;
  Opts.LearningRate = 0.1f;
  Opts.DecayEveryEpochs = 50;
  LstmModel M(Opts);
  std::string Text;
  for (int I = 0; I < 64; ++I)
    Text += "ab";
  M.train({Text});
  M.reset();
  M.observeText("abab");
  auto Dist = M.nextDistribution();
  int IdA = M.vocabulary().idOf('a');
  EXPECT_GT(Dist[IdA], 0.8);
}

TEST(LstmModelTest, GradientsMatchFiniteDifferences) {
  LstmOptions Opts;
  Opts.Layers = 2;
  Opts.HiddenSize = 6;
  Opts.Epochs = 0;
  Opts.SequenceLength = 8;
  LstmModel M(Opts);
  M.train({"abcbacbbca"});
  std::vector<int> Seq;
  for (char C : std::string("abcba"))
    Seq.push_back(M.vocabulary().idOf(C));
  double MaxRelError = M.gradientCheck(Seq, 32);
  EXPECT_LT(MaxRelError, 0.05) << "BPTT gradient mismatch";
}

TEST(LstmModelTest, CloneMatchesOriginal) {
  LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = 12;
  LstmModel M(Opts);
  M.train({"abcabcabc"});
  auto C = M.clone();
  ASSERT_NE(C, nullptr);
  M.reset();
  C->reset();
  M.observeText("ab");
  C->observeText("ab");
  EXPECT_EQ(M.nextDistribution(), C->nextDistribution());
}

TEST(LstmModelTest, StatefulGenerationIsDeterministic) {
  LstmOptions Opts;
  Opts.Epochs = 2;
  Opts.HiddenSize = 16;
  LstmModel M(Opts);
  M.train({"xyzxyzxyz"});
  M.reset();
  M.observeText("xy");
  auto D1 = M.nextDistribution();
  M.reset();
  M.observeText("xy");
  auto D2 = M.nextDistribution();
  EXPECT_EQ(D1, D2);
}
