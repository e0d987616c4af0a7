//===- clgen/Sampler.h - Model sampling (Algorithm 1) ------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative model sampling per Algorithm 1 of the paper: seed the
/// language model with the start of a kernel, then generate character by
/// character, tracking brace depth, until the function block closes (or
/// a length cap fires). Two modes are supported (section 4.3): with an
/// argument specification, the seed text pins the kernel signature; in
/// free mode the model invents the signature, with the argument
/// distribution of the corpus.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_CLGEN_SAMPLER_H
#define CLGEN_CLGEN_SAMPLER_H

#include "model/LanguageModel.h"
#include "support/Rng.h"

#include <optional>
#include <string>
#include <vector>

namespace clgen {
namespace core {

/// A kernel argument specification ("three single-precision floating
/// point arrays and a read-only signed integer" in Figure 6).
struct ArgSpec {
  /// Type spellings in order, e.g. {"__global float*", "const int"}.
  std::vector<std::string> ArgTypes;

  /// The Figure 6 specification.
  static ArgSpec figure6();

  /// Renders the seed text "__kernel void A(<args>) {" with parameters
  /// named a, b, c, ... per the rewriter's series.
  std::string seedText() const;
};

/// Free-mode seed: "__kernel void A(" — the model completes the
/// signature itself.
std::string freeModeSeed();

struct SampleOptions {
  /// Hard cap on generated characters (Algorithm 1's n).
  size_t MaxLength = 2048;
  /// Softmax temperature; < 1 sharpens toward the corpus's modal style.
  double Temperature = 0.85;
};

/// Samples one candidate kernel string (seed included). Returns nullopt
/// when the sample hit the length cap before closing the kernel body,
/// the model emitted end-of-text prematurely, or the sample closed a
/// brace that was never opened (negative block depth — such text can
/// never be a well-formed kernel, and tracking it further would let a
/// later unrelated {...} pair masquerade as the function body).
std::optional<std::string> sampleKernel(model::LanguageModel &Model,
                                        const std::string &Seed,
                                        const SampleOptions &Opts, Rng &R);

} // namespace core
} // namespace clgen

#endif // CLGEN_CLGEN_SAMPLER_H
