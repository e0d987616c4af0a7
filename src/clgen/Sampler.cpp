//===- clgen/Sampler.cpp - Model sampling (Algorithm 1) -----------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "clgen/Sampler.h"

#include "support/StringUtils.h"

using namespace clgen;
using namespace clgen::core;

ArgSpec ArgSpec::figure6() {
  ArgSpec Spec;
  Spec.ArgTypes = {"__global float*", "__global float*", "__global float*",
                   "const int"};
  return Spec;
}

std::string ArgSpec::seedText() const {
  std::string Seed = "__kernel void A(";
  for (size_t I = 0; I < ArgTypes.size(); ++I) {
    if (I != 0)
      Seed += ", ";
    Seed += ArgTypes[I];
    Seed += " ";
    Seed += sequentialName(I, false);
  }
  Seed += ") {";
  return Seed;
}

std::string core::freeModeSeed() { return "__kernel void A("; }

std::optional<std::string> core::sampleKernel(model::LanguageModel &Model,
                                              const std::string &Seed,
                                              const SampleOptions &Opts,
                                              Rng &R) {
  const model::Vocabulary &Vocab = Model.vocabulary();

  // Algorithm 1, lines 1-2: S <- seed, d <- block depth of the seed.
  Model.reset();
  int Depth = 0;
  for (char C : Seed) {
    Model.observe(Vocab.idOf(C));
    if (C == '{')
      ++Depth;
    if (C == '}')
      --Depth;
  }
  if (Depth < 0)
    return std::nullopt; // Malformed seed: close before any open.

  std::string Sample = Seed;
  bool SeenOpen = Seed.find('{') != std::string::npos;
  // Lines 3-14: generate until the function block closes.
  while (Sample.size() < Opts.MaxLength) {
    int Token = Model.drawNext(Opts.Temperature, R);
    if (Token == model::Vocabulary::EndOfText) {
      // The model ended the kernel itself; valid only if the block is
      // closed (free mode may legitimately end after the signature).
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
        return std::nullopt; // Stray close: never a well-formed kernel.
      --Depth;
    }
    Sample += C;
    Model.observe(Token);
    if (C == '}' && Depth == 0)
      return Sample; // Exited the function block: stop sampling.
  }
  return std::nullopt; // Length cap reached before the kernel closed.
}
