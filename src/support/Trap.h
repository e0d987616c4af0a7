//===- support/Trap.h - Structured failure taxonomy --------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trap taxonomy: every failure surfaced by the compile → check →
/// launch → measure path carries a TrapKind alongside its diagnostic
/// string, so callers can branch on *why* a kernel failed instead of
/// pattern-matching messages. The taxonomy also drives policy:
///
///  - isTransientTrap(): which classes are worth retrying (injected
///    faults and I/O hiccups clear on a second attempt; an out-of-bounds
///    access never does).
///  - isDeterministicTrap(): which classes may be recorded in the
///    persistent failure ledger. Only kinds that are a pure function of
///    (kernel, options, platform) qualify — a watchdog timeout depends on
///    host load and an injected fault on the armed schedule, so neither
///    may poison future runs.
///
/// Enumerator values are serialized into failure-ledger archives; they
/// are append-only and must never be renumbered.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_TRAP_H
#define CLGEN_SUPPORT_TRAP_H

#include <cstdint>

namespace clgen {

/// Classified failure cause, carried through Result/Status, the dynamic
/// checker's CheckResult and the measurement pipeline.
enum class TrapKind : uint8_t {
  /// No failure (the kind carried by every successful Result).
  None = 0,
  /// Out-of-bounds global/local/private/vector/atomic access.
  OutOfBounds = 1,
  /// Not all work-items of a group reached the same barrier.
  BarrierDivergence = 2,
  /// The launch exceeded its instruction budget (the paper's "timeout").
  InstructionBudget = 3,
  /// The wall-clock watchdog on a measurement worker fired.
  WatchdogTimeout = 4,
  /// Integer division/remainder by zero under strict trapping.
  DivByZero = 5,
  /// The OpenCL frontend rejected the kernel source.
  CompileError = 6,
  /// Argument binding / NDRange shape errors before execution started.
  BadLaunch = 7,
  /// Dynamic checker: kernel wrote no output.
  CheckNoOutput = 8,
  /// Dynamic checker: output independent of the input payload.
  CheckInputInsensitive = 9,
  /// Dynamic checker: two runs on identical payloads disagreed.
  CheckNonDeterministic = 10,
  /// A failpoint fired.
  Injected = 11,
  /// Store/ledger/lock I/O failure.
  IoError = 12,
  /// Failure predating the taxonomy or genuinely unclassifiable.
  Unknown = 13,
};

/// Stable lower-case name for \p Kind (e.g. "out-of-bounds").
const char *trapKindName(TrapKind Kind);

/// True for classes that may clear on retry (Injected, IoError).
bool isTransientTrap(TrapKind Kind);

/// True for classes that are a pure function of (kernel, options,
/// platform) and therefore eligible for the persistent failure ledger.
bool isDeterministicTrap(TrapKind Kind);

/// Maps a serialized tag back to a TrapKind; out-of-range tags (from a
/// newer writer) decode as Unknown.
TrapKind trapKindFromTag(uint8_t Tag);

} // namespace clgen

#endif // CLGEN_SUPPORT_TRAP_H
