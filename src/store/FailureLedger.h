//===- store/FailureLedger.h - Persistent failure ledger ---------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The negative half of the result store: a content-addressed ledger of
/// classified per-kernel failures. Most synthesized kernels misbehave
/// (PAPER.md section 5.2), and under the deterministic simulator a
/// kernel that trapped once traps identically forever — so re-runs can
/// skip known-bad kernels as cheap negative hits instead of rediscovering
/// every failure at full measurement cost.
///
/// Records share the ResultCache key space (store::measurementKey over
/// kernel + driver options + platform) and live as one archive file per
/// failure, <hex key>.clgs of ArchiveKind::Failure, written atomically
/// in a directory of their own. Only deterministic trap classes are
/// admitted (isDeterministicTrap): a watchdog timeout depends on host
/// load and an injected fault on the armed failpoint schedule, and
/// recording either would wrongly poison future runs. record() silently
/// refuses non-ledgerable kinds so call sites need no filtering.
///
/// Lookups go to disk every time, like ResultCache lookups: a negative
/// hit saves a full measurement, so one small file read is already a
/// ~1000x win, and the directory is always the truth.
/// `clgen-store failures <dir>` lists a ledger via store::listFailures /
/// store::formatFailures.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_STORE_FAILURELEDGER_H
#define CLGEN_STORE_FAILURELEDGER_H

#include "store/Archive.h"
#include "support/Result.h"
#include "support/Trap.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clgen {
namespace store {

/// One classified failure, keyed like a ResultCache entry.
struct FailureRecord {
  /// Why the kernel failed. Always a deterministic class once stored.
  TrapKind Kind = TrapKind::Unknown;
  /// The original diagnostic message, replayed verbatim on negative
  /// hits so a ledger-served failure is byte-identical to the measured
  /// one.
  std::string Detail;
  /// Measurement attempts consumed when the failure was recorded
  /// (1 + retries).
  uint32_t Attempts = 1;
};

/// Thread-safe persistent ledger over one directory. Degrades like the
/// ResultCache: an uncreatable directory just never hits and every
/// record() fails visibly (`clgen.ledger.write_failures`).
class FailureLedger {
public:
  /// Opens (creating if needed) the ledger directory.
  explicit FailureLedger(std::string Directory);

  /// Returns the recorded failure for \p Key, or nullopt when the
  /// kernel has no (readable) record.
  std::optional<FailureRecord> lookup(uint64_t Key);

  /// Persists \p Record under \p Key. Refuses non-deterministic trap
  /// kinds (returns success — refusal is policy, not an error; see the
  /// `clgen.ledger.rejected` counter). Concurrent records of the same
  /// key are benign (atomic rename, last writer wins with identical
  /// content).
  Status record(uint64_t Key, const FailureRecord &Record);

  const std::string &directory() const { return Dir; }
  bool directoryOk() const { return DirOk; }

private:
  std::string entryPath(uint64_t Key) const;

  std::string Dir;
  bool DirOk = false;
};

/// Serializes one failure record into an archive payload / reads it
/// back (exposed for the round-trip tests; layout in
/// docs/STORE_FORMAT.md).
void serializeFailureRecord(ArchiveWriter &W, uint64_t Key,
                            const FailureRecord &Record);
Result<std::pair<uint64_t, FailureRecord>>
deserializeFailureRecord(ArchiveReader &R);

/// Scans \p Directory for ledger entries, sorted by key. Unreadable or
/// corrupt entries are skipped (counted nowhere — this is inspection,
/// not validation; `clgen-store verify` covers integrity).
std::vector<std::pair<uint64_t, FailureRecord>>
listFailures(const std::string &Directory);

/// Byte-stable listing for the CLI: one `<hex key> <kind> <attempts>
/// <detail>` line per record.
std::string
formatFailures(const std::vector<std::pair<uint64_t, FailureRecord>> &Records);

} // namespace store
} // namespace clgen

#endif // CLGEN_STORE_FAILURELEDGER_H
