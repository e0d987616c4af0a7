//===- model/LanguageModel.h - Generative LM interface -----------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract shared by the project's two character-level language
/// models (LSTM and interpolated n-gram): a stateful generator that is
/// advanced one token at a time and queried for the distribution over the
/// next token. The sampler (Algorithm 1) is written against this
/// interface only.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_LANGUAGEMODEL_H
#define CLGEN_MODEL_LANGUAGEMODEL_H

#include "model/Vocabulary.h"

#include <memory>
#include <vector>

namespace clgen {
class Rng;
namespace model {

class LanguageModel {
public:
  virtual ~LanguageModel();

  /// The vocabulary this model emits over.
  virtual const Vocabulary &vocabulary() const = 0;

  /// Clears generation state (fresh sequence).
  virtual void reset() = 0;

  /// Advances the generation state with an observed token.
  virtual void observe(int TokenId) = 0;

  /// Probability distribution over the next token given the state; sums
  /// to 1 and has vocabulary().size() entries.
  virtual std::vector<double> nextDistribution() = 0;

  /// Allocation-free variant for sampling hot loops: writes the next
  /// distribution into \p Dist (resized to vocabulary().size()).
  /// Subclasses override this to avoid building a fresh vector per
  /// token; the default delegates to nextDistribution().
  virtual void nextDistributionInto(std::vector<double> &Dist);

  /// Draws the next token at \p Temperature: the token that drawToken
  /// (model/TemperedDraw.h) draws from nextDistributionInto(), leaving
  /// \p R in the same state. The sampler calls this once per character.
  /// The default does exactly that, into a reused per-thread buffer;
  /// NGramModel memoizes the draw per context window.
  virtual int drawNext(double Temperature, Rng &R);

  /// Returns an independent deep copy carrying the trained parameters
  /// (generation state need not be preserved). Parallel samplers give
  /// each worker its own clone so stateful generation never shares
  /// mutable state across threads. Returns nullptr when the model is not
  /// cloneable, in which case callers must fall back to serial sampling.
  virtual std::unique_ptr<LanguageModel> clone() const { return nullptr; }

  /// Stable identifier of the concrete backend ("ngram", "lstm"), used
  /// as the dispatch tag by the artifact store's polymorphic model
  /// serialization (store/Serialization.h) and in pipeline cache
  /// fingerprints. Backends without serialization support keep the
  /// default and are rejected by store::saveModel.
  virtual const char *backendName() const { return "unknown"; }

  /// Convenience: feed a whole string.
  void observeText(const std::string &Text);

  /// Average per-character negative log2 likelihood of \p Text under
  /// this model starting from a fresh state. Lower = more "natural" to
  /// the model; the Turing-test judge thresholds on this.
  double bitsPerChar(const std::string &Text);
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_LANGUAGEMODEL_H
