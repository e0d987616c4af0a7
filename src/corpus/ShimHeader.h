//===- corpus/ShimHeader.h - Inferred-identifier shim header -----*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shim header of Listing 1: inferred type aliases and constants for
/// OpenCL code mined from GitHub. Isolating device code from its host
/// project leaves identifiers like FLOAT_T or WG_SIZE undeclared; the
/// paper found 50% of undeclared-identifier errors were caused by only 60
/// unique identifiers, and that injecting the shim reduced the discard
/// rate from 40% to 32%.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_CORPUS_SHIMHEADER_H
#define CLGEN_CORPUS_SHIMHEADER_H

#include <string>

namespace clgen {
namespace corpus {

/// The shim header source (typedefs + #defines).
const std::string &shimHeaderText();

} // namespace corpus
} // namespace clgen

#endif // CLGEN_CORPUS_SHIMHEADER_H
