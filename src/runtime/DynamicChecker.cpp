//===- runtime/DynamicChecker.cpp - Useful-work validation -------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/DynamicChecker.h"

#include "vm/Interpreter.h"

using namespace clgen;
using namespace clgen::runtime;
using namespace clgen::vm;

const char *runtime::checkOutcomeName(CheckOutcome O) {
  switch (O) {
  case CheckOutcome::UsefulWork: return "useful work";
  case CheckOutcome::LaunchFailure: return "launch failure";
  case CheckOutcome::NoOutput: return "no output";
  case CheckOutcome::InputInsensitive: return "input insensitive";
  case CheckOutcome::NonDeterministic: return "non-deterministic";
  }
  return "?";
}

CheckResult runtime::checkKernel(const CompiledKernel &Kernel,
                                 const CheckOptions &Opts, Rng &R) {
  CheckResult Result;

  PayloadOptions POpts;
  POpts.GlobalSize = Opts.GlobalSize;
  POpts.LocalSize = Opts.LocalSize;

  // A1 = A2 and B1 = B2 by construction (clones); A1 != B1 with
  // overwhelming probability from independent random draws.
  Payload A1 = generatePayload(Kernel, POpts, R);
  Payload B1 = generatePayload(Kernel, POpts, R);
  Payload A2 = A1.clone();
  Payload B2 = B1.clone();
  Payload A1Before = A1.clone();
  Payload B1Before = B1.clone();

  LaunchConfig Config;
  Config.GlobalSize[0] = A1.GlobalSize;
  Config.LocalSize[0] = A1.LocalSize;
  Config.MaxInstructions = Opts.MaxInstructions;

  auto Execute = [&](Payload &P) -> bool {
    auto Run = launchKernel(Kernel, P.Args, P.Buffers, Config);
    if (!Run.ok()) {
      Result.Outcome = CheckOutcome::LaunchFailure;
      Result.Detail = Run.errorMessage();
      Result.Trap = Run.trap();
      return false;
    }
    return true;
  };

  if (!Execute(A1) || !Execute(B1) || !Execute(A2) || !Execute(B2))
    return Result;

  // "k has no output (for these inputs)".
  if (!outputsDiffer(Kernel, A1Before, A1, Opts.Epsilon) ||
      !outputsDiffer(Kernel, B1Before, B1, Opts.Epsilon)) {
    Result.Outcome = CheckOutcome::NoOutput;
    Result.Detail = "outputs equal inputs on both payloads";
    Result.Trap = TrapKind::CheckNoOutput;
    return Result;
  }

  // "k is input insensitive (for these inputs)".
  if (outputsEqual(Kernel, A1, B1, Opts.Epsilon) ||
      outputsEqual(Kernel, A2, B2, Opts.Epsilon)) {
    Result.Outcome = CheckOutcome::InputInsensitive;
    Result.Detail = "identical outputs for different input payloads";
    Result.Trap = TrapKind::CheckInputInsensitive;
    return Result;
  }

  // "k is non-deterministic".
  if (!outputsEqual(Kernel, A1, A2, Opts.Epsilon) ||
      !outputsEqual(Kernel, B1, B2, Opts.Epsilon)) {
    Result.Outcome = CheckOutcome::NonDeterministic;
    Result.Detail = "outputs differ across runs on identical payloads";
    Result.Trap = TrapKind::CheckNonDeterministic;
    return Result;
  }

  Result.Outcome = CheckOutcome::UsefulWork;
  return Result;
}
