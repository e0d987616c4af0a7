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
/// The count table is a trie with one node per stored context, and the
/// generation state is a cursor on it: the node of the longest stored
/// suffix of the last Order - 1 characters. observe() moves the cursor
/// by one child edge or suffix link, so no draw hashes the window.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_NGRAMMODEL_H
#define CLGEN_MODEL_NGRAMMODEL_H

#include "model/LanguageModel.h"
#include "model/TemperedDraw.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace clgen {
namespace model {

struct NGramOptions {
  /// Model order: context length = Order - 1 characters.
  int Order = 10;
  /// Backoff multiplier per level (Brants et al. "stupid backoff").
  double BackoffAlpha = 0.4;
  /// Additive smoothing at the unigram level.
  double UnigramSmoothing = 0.1;
};

/// The trained count table: flat arrays, one node per stored context
/// (defined in NGramModel.cpp).
struct ContextTrie;

class NGramModel : public LanguageModel {
public:
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
  /// The reference draw, memoized per trie node: with a full window the
  /// distribution is a pure function of the cursor's node, so each
  /// node's tempered CDF is built once per temperature
  /// (model/TemperedDraw.h). A window shorter than Order - 1 draws
  /// through drawToken.
  int drawNext(double Temperature, Rng &R) override;
  /// Copies the trained model; the clone's sampling memo starts empty.
  std::unique_ptr<LanguageModel> clone() const override;
  const char *backendName() const override { return "ngram"; }

  /// Number of distinct contexts stored (all orders).
  size_t contextCount() const;

  /// Number of trie nodes in the sampling memo (see drawNext).
  size_t memoizedContexts() const { return Memo.size(); }

  /// Appends options, vocabulary and the full count table to an archive
  /// payload. Contexts and their count entries are emitted in sorted
  /// order, so equal trained models serialize to byte-identical
  /// archives (content-addressing relies on this).
  void serialize(store::ArchiveWriter &W) const;

  /// Rebuilds a trained model from an archive. On schema violations the
  /// reader's error state is tripped; callers must check it before
  /// using the returned model. Tables serialize never writes are
  /// refused: contexts out of order or repeated, a context longer than
  /// Order - 1, a context whose prefix or suffix is missing, a context
  /// with no entries, entry ids out of order or outside the vocabulary,
  /// and zero counts.
  static NGramModel deserialize(store::ArchiveReader &R);

private:
  NGramOptions Opts;
  Vocabulary Vocab;
  /// Immutable once built and shared between clones, so per-worker
  /// model copies cost O(1). Null while the table is empty.
  std::shared_ptr<const ContextTrie> Trie;
  /// The cursor: the node of the longest stored suffix of the window,
  /// and the number of characters the window holds (at most Order - 1).
  uint32_t Node = 0;
  size_t Fill = 0;
  /// Tempered CDFs of the nodes this instance has drawn from. Never
  /// serialized or copied: clones and copies start with an empty memo.
  TemperedCdfMemo Memo;

  /// Characters the window holds at most: Order - 1.
  size_t window() const;
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_NGRAMMODEL_H
