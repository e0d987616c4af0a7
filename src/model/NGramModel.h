//===- model/NGramModel.h - Backoff n-gram language model --------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Character-level n-gram language model with stupid-backoff smoothing.
///
/// Role in the reproduction: the paper trains a 3-layer x 2048-unit LSTM
/// for three weeks on a GTX Titan (section 4.2). That compute budget is
/// unavailable here, so the large-scale experiments (Figures 7-9), which
/// need thousands of accepted synthetic kernels, sample this model
/// instead: it trains in seconds on the full corpus and captures the
/// same "how humans write OpenCL" statistics at the character level. The
/// LSTM (model/LstmModel.h) implements the paper's architecture
/// faithfully and is exercised end-to-end at laptop scale.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_NGRAMMODEL_H
#define CLGEN_MODEL_NGRAMMODEL_H

#include "model/LanguageModel.h"
#include "model/TemperedDraw.h"

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace clgen {
namespace model {

/// Transparent string hashing so context lookups run on string_views of
/// the rolling context buffer — the sampling hot loop performs zero
/// allocations per character.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
  size_t operator()(const std::string &S) const {
    return std::hash<std::string_view>{}(S);
  }
};

struct NGramOptions {
  /// Model order: context length = Order - 1 characters.
  int Order = 10;
  /// Backoff multiplier per level (Brants et al. "stupid backoff").
  double BackoffAlpha = 0.4;
  /// Additive smoothing at the unigram level.
  double UnigramSmoothing = 0.1;
};

class NGramModel : public LanguageModel {
public:
  /// Context string -> (next-token id -> count). The empty context holds
  /// unigram counts. Transparent hashing allows string_view lookups.
  using ContextCounts =
      std::unordered_map<std::string, std::unordered_map<int, uint32_t>,
                         StringHash, std::equal_to<>>;

  explicit NGramModel(NGramOptions Opts = NGramOptions()) : Opts(Opts) {}

  /// Trains on corpus entries (each a normalised kernel). Entries are
  /// separated by the end-of-text sentinel so the model learns kernel
  /// boundaries.
  void train(const std::vector<std::string> &Entries);

  // LanguageModel:
  const Vocabulary &vocabulary() const override { return Vocab; }
  void reset() override;
  void observe(int TokenId) override;
  std::vector<double> nextDistribution() override;
  void nextDistributionInto(std::vector<double> &Dist) override;
  /// The reference draw, memoized per context window: the distribution
  /// is a pure function of Context, so each window's tempered CDF is
  /// built once per temperature (model/TemperedDraw.h).
  int drawNext(double Temperature, Rng &R) override;
  /// Copies the trained model; the clone's sampling memo starts empty.
  std::unique_ptr<LanguageModel> clone() const override;
  const char *backendName() const override { return "ngram"; }

  /// Number of distinct contexts stored (all orders).
  size_t contextCount() const { return Counts ? Counts->size() : 0; }

  /// Number of context windows in the sampling memo (see drawNext).
  size_t memoizedContexts() const { return Memo.size(); }

  /// Appends options, vocabulary and the full count table to an archive
  /// payload. Contexts and their count entries are emitted in sorted
  /// order, so equal trained models serialize to byte-identical
  /// archives (content-addressing relies on this).
  void serialize(store::ArchiveWriter &W) const;

  /// Rebuilds a trained model from an archive. On schema violations the
  /// reader's error state is tripped; callers must check it before
  /// using the returned model.
  static NGramModel deserialize(store::ArchiveReader &R);

private:
  NGramOptions Opts;
  Vocabulary Vocab;
  /// Immutable once trained and shared between clones, so per-worker
  /// model copies cost O(1) instead of duplicating the count table.
  std::shared_ptr<const ContextCounts> Counts;
  /// Rolling context of the last Order-1 token ids (as chars).
  std::string Context;
  /// Tempered CDFs of the contexts this instance has drawn from. Never
  /// serialized or copied: clones and copies start with an empty memo.
  TemperedCdfMemo Memo;

  void addSequence(ContextCounts &Building, const std::string &Entry) const;
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_NGRAMMODEL_H
