//===- vm/Profile.h - VM opcode execution profiling --------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt-in dynamic opcode profiling for vm::Interpreter: per-opcode and
/// opcode-pair execution counts over real launches. The top-N pair
/// report names the dynamically hottest instruction sequences the
/// synthesized kernels actually execute.
///
/// The hook is pointer-gated, not build-gated: a launch with
/// `LaunchConfig::Profile` set runs the interpreter's portable switch
/// loop, which holds the hook, so unprofiled computed-goto launches pay
/// nothing for it. The profile is pure observation — it never feeds
/// back into execution, measurement cache keys, or results, so
/// profiling cannot perturb determinism. Counts are raw executed
/// instructions of the simulated work-groups; unlike ExecCounters they
/// are NOT scaled up when `MaxWorkGroups` samples the NDRange.
///
/// Aggregation across launches and measurement worker threads goes
/// through `SharedOpcodeProfile` (one mutex-guarded merge per launch).
/// Since per-launch counts are deterministic and merging is commutative
/// addition, the aggregate is byte-identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_VM_PROFILE_H
#define CLGEN_VM_PROFILE_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace clgen {
namespace vm {

/// Number of distinct opcodes (Halt is the last enumerator).
constexpr size_t NumOpcodes = static_cast<size_t>(Opcode::Halt) + 1;

/// Raw dynamic opcode counts for one or more launches.
struct OpcodeProfile {
  /// Executions per opcode.
  uint64_t Count[NumOpcodes] = {};
  /// Pair[A][B]: times opcode B executed immediately after opcode A
  /// within the same work-item (pairs never cross work-items or
  /// launches).
  uint64_t Pair[NumOpcodes][NumOpcodes] = {};
  /// Launches that contributed (merged-in profiles included).
  uint64_t Launches = 0;

  /// Total executed instructions (sum over Count).
  uint64_t instructionTotal() const;
  /// Total executed conditional branches (Jz + Jnz).
  uint64_t branchTotal() const;

  void merge(const OpcodeProfile &Other);
};

/// Thread-safe accumulator: measurement workers each profile their own
/// launches into a local OpcodeProfile and fold it in here once per
/// launch. Addition commutes, so the result is identical for any worker
/// count or completion order.
class SharedOpcodeProfile {
public:
  void add(const OpcodeProfile &P) {
    std::lock_guard<std::mutex> Lock(M);
    Total.merge(P);
  }

  OpcodeProfile snapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    return Total;
  }

private:
  mutable std::mutex M;
  OpcodeProfile Total;
};

/// One ranked opcode pair.
struct OpcodePairCount {
  Opcode First = Opcode::Halt;
  Opcode Second = Opcode::Halt;
  uint64_t Count = 0;
};

/// The \p N most-executed opcode pairs, ordered by descending count
/// with (First, Second) enum order breaking ties — fully deterministic.
/// Zero-count pairs are never returned.
std::vector<OpcodePairCount> topPairs(const OpcodeProfile &P, size_t N);

/// Byte-stable human-readable report: instruction/branch totals, the
/// top-N opcodes and the top-N opcode pairs with percentages (integer
/// basis points, so no float formatting drift).
std::string formatOpcodeReport(const OpcodeProfile &P, size_t TopN);

} // namespace vm
} // namespace clgen

#endif // CLGEN_VM_PROFILE_H
