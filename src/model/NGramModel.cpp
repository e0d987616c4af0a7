//===- model/NGramModel.cpp - Backoff n-gram language model -------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/NGramModel.h"

#include "store/Archive.h"

#include <algorithm>
#include <cassert>

using namespace clgen;
using namespace clgen::model;

void NGramModel::train(const std::vector<std::string> &Entries) {
  std::string All;
  for (const std::string &E : Entries)
    All += E;
  Vocab = Vocabulary::fromText(All);
  ContextCounts Building;
  for (const std::string &E : Entries)
    addSequence(Building, E);
  Counts = std::make_shared<const ContextCounts>(std::move(Building));
  Memo.clear();
  reset();
}

void NGramModel::addSequence(ContextCounts &Building,
                             const std::string &Entry) const {
  // Token stream: entry characters followed by the sentinel. Contexts are
  // built over raw characters; the sentinel uses '\0' which cannot occur
  // inside entries.
  std::string Stream = Entry;
  Stream.push_back('\0');

  // Rolling context window: every context suffix ending just before
  // position I is a string_view into the stream, looked up through the
  // map's transparent hasher. A context string is materialised only the
  // first time that context is seen, so ingest does O(1) allocations per
  // *distinct* context instead of O(order) substring copies per
  // position.
  size_t ContextLen = static_cast<size_t>(std::max(Opts.Order - 1, 0));
  for (size_t I = 0; I < Stream.size(); ++I) {
    int NextId = Stream[I] == '\0' ? Vocabulary::EndOfText
                                   : Vocab.idOf(Stream[I]);
    size_t MaxLen = std::min(ContextLen, I);
    for (size_t L = 0; L <= MaxLen; ++L) {
      std::string_view Ctx(Stream.data() + (I - L), L);
      auto It = Building.find(Ctx);
      if (It == Building.end())
        It = Building.emplace(std::string(Ctx),
                              std::unordered_map<int, uint32_t>())
                 .first;
      It->second[NextId] += 1;
    }
  }
}

void NGramModel::reset() { Context.clear(); }

void NGramModel::observe(int TokenId) {
  Context.push_back(TokenId == Vocabulary::EndOfText
                        ? '\0'
                        : Vocab.charOf(TokenId));
  size_t MaxLen = static_cast<size_t>(Opts.Order - 1);
  if (Context.size() > MaxLen)
    Context.erase(0, Context.size() - MaxLen);
}

std::vector<double> NGramModel::nextDistribution() {
  std::vector<double> Dist;
  nextDistributionInto(Dist);
  return Dist;
}

void NGramModel::nextDistributionInto(std::vector<double> &Dist) {
  size_t V = Vocab.size();
  Dist.assign(V, 0.0);

  // Walk from the longest available context down to the unigram level,
  // taking the first context with any observations, discounted by
  // BackoffAlpha per skipped level. Lookups are string_views over the
  // rolling context buffer: the hot sampling loop never allocates.
  double Scale = 1.0;
  double ContextMass = 0.0; // Probability mass placed by the match.
  std::string_view Full(Context);
  for (size_t Skip = 0; Counts && Skip <= Full.size(); ++Skip) {
    auto It = Counts->find(Full.substr(Skip));
    if (It == Counts->end() || It->second.empty()) {
      Scale *= Opts.BackoffAlpha;
      continue;
    }
    double Total = 0.0;
    for (const auto &[Id, Count] : It->second)
      Total += Count;
    for (const auto &[Id, Count] : It->second)
      Dist[Id] += Scale * static_cast<double>(Count) / Total;
    ContextMass = Scale;
    break;
  }

  // Unigram smoothing floor so every token has nonzero probability. The
  // pre-normalisation sum is known analytically (matched backoff mass
  // plus total smoothing mass), so flooring and normalising fuse into
  // one pass.
  double Floor = Opts.UnigramSmoothing / static_cast<double>(V);
  double InvSum = 1.0 / (ContextMass + Opts.UnigramSmoothing);
  for (double &P : Dist)
    P = (P + Floor) * InvSum;
}

int NGramModel::drawNext(double Temperature, Rng &R) {
  return Memo.draw(Context, Temperature, R, [this](std::vector<double> &D) {
    NGramModel::nextDistributionInto(D);
  });
}

std::unique_ptr<LanguageModel> NGramModel::clone() const {
  return std::make_unique<NGramModel>(*this);
}

void NGramModel::serialize(store::ArchiveWriter &W) const {
  W.writeI32(Opts.Order);
  W.writeF64(Opts.BackoffAlpha);
  W.writeF64(Opts.UnigramSmoothing);
  Vocab.serialize(W);

  std::vector<const ContextCounts::value_type *> Sorted;
  if (Counts) {
    Sorted.reserve(Counts->size());
    for (const auto &Entry : *Counts)
      Sorted.push_back(&Entry);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto *A, const auto *B) { return A->first < B->first; });
  }
  W.writeU64(Sorted.size());
  std::vector<std::pair<int, uint32_t>> Inner;
  for (const auto *Entry : Sorted) {
    W.writeString(Entry->first);
    Inner.assign(Entry->second.begin(), Entry->second.end());
    std::sort(Inner.begin(), Inner.end());
    W.writeU32(static_cast<uint32_t>(Inner.size()));
    for (const auto &[Id, Count] : Inner) {
      W.writeI32(Id);
      W.writeU32(Count);
    }
  }
}

NGramModel NGramModel::deserialize(store::ArchiveReader &R) {
  NGramOptions Opts;
  Opts.Order = R.readI32();
  Opts.BackoffAlpha = R.readF64();
  Opts.UnigramSmoothing = R.readF64();
  if (R.ok() && (Opts.Order < 1 || Opts.Order > 256))
    R.fail("n-gram order out of range");

  NGramModel M(Opts);
  M.Vocab = Vocabulary::deserialize(R);
  int VocabSize = static_cast<int>(M.Vocab.size());

  uint64_t ContextCount = R.readU64();
  ContextCounts Building;
  // A corrupt count cannot force a huge reserve: it is capped by what
  // the payload could possibly hold, and the R.ok() guard stops the
  // loop at the first underrun.
  Building.reserve(static_cast<size_t>(
      std::min<uint64_t>(ContextCount, 1u << 24)));
  for (uint64_t I = 0; I < ContextCount && R.ok(); ++I) {
    std::string Ctx = R.readString();
    uint32_t EntryCount = R.readU32();
    auto &Slot = Building[std::move(Ctx)];
    for (uint32_t J = 0; J < EntryCount && R.ok(); ++J) {
      int Id = R.readI32();
      uint32_t Count = R.readU32();
      if (Id < 0 || Id >= VocabSize) {
        R.fail("n-gram count entry references a token outside the "
               "vocabulary");
        break;
      }
      Slot[Id] = Count;
    }
  }
  if (!R.ok())
    return NGramModel();
  M.Counts = std::make_shared<const ContextCounts>(std::move(Building));
  M.reset();
  return M;
}
