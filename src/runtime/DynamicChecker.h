//===- runtime/DynamicChecker.h - Useful-work validation ---------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the dynamic checker of section 5.2. A kernel "performs
/// useful work" when it predictably computes some result:
///
///   1. Create four payloads A1, B1, A2, B2 with A1 = A2, B1 = B2,
///      A1 != B1.
///   2. Execute the kernel on each.
///   3. Assert: outputs differ from inputs (has output); A1out != B1out
///      (input sensitive); A1out == A2out and B1out == B2out
///      (deterministic).
///
/// Floating-point comparisons use an epsilon; launch failures (compile
/// errors never reach here, but out-of-bounds accesses, barrier
/// divergence and instruction-budget timeouts do) are reported as their
/// own rejection class.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_RUNTIME_DYNAMICCHECKER_H
#define CLGEN_RUNTIME_DYNAMICCHECKER_H

#include "runtime/Payload.h"
#include "support/Rng.h"
#include "support/Trap.h"
#include "vm/Bytecode.h"

#include <string>

namespace clgen {
namespace vm {
struct OpcodeProfile;
} // namespace vm

namespace runtime {

/// The taxonomy lives in support/ (the interpreter produces traps before
/// the runtime layer exists); runtime code spells it runtime::TrapKind.
using clgen::TrapKind;

enum class CheckOutcome {
  UsefulWork,      // All assertions hold.
  LaunchFailure,   // Crash / OOB / timeout / divergence during execution.
  NoOutput,        // Outputs equal inputs.
  InputInsensitive, // Same outputs for different inputs.
  NonDeterministic, // Different outputs for identical inputs.
};

const char *checkOutcomeName(CheckOutcome O);

struct CheckResult {
  CheckOutcome Outcome = CheckOutcome::LaunchFailure;
  /// Human-readable detail, populated for every rejection class (empty
  /// only for UsefulWork).
  std::string Detail;
  /// Classified cause: the interpreter's trap for LaunchFailure, the
  /// matching Check* kind for the three semantic rejections, None for
  /// UsefulWork.
  TrapKind Trap = TrapKind::None;

  bool useful() const { return Outcome == CheckOutcome::UsefulWork; }
};

struct CheckOptions {
  /// Payload size used for checking (small: correctness only).
  size_t GlobalSize = 256;
  size_t LocalSize = 32;
  /// Timeout budget per execution.
  uint64_t MaxInstructions = 20ull * 1000 * 1000;
  double Epsilon = 1e-6;
  /// When non-null, every check launch accumulates its opcode profile
  /// here (vm/Profile.h); pure observation, like LaunchConfig::Profile.
  vm::OpcodeProfile *Profile = nullptr;
};

/// Runs the four-execution dynamic check on \p Kernel.
CheckResult checkKernel(const vm::CompiledKernel &Kernel,
                        const CheckOptions &Opts, Rng &R);

} // namespace runtime
} // namespace clgen

#endif // CLGEN_RUNTIME_DYNAMICCHECKER_H
