//===- store/ResultCache.h - Content-addressed result cache ------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable memoization of driver-side measurements. A cache entry is one
/// runtime::Measurement, content-addressed by an FNV-1a digest over a
/// canonical byte recipe of everything the measurement is a pure
/// function of:
///
///   key = fnv1a64( tag || kernel identity || driver options
///                  || platform device configs )
///
/// where the kernel identity is the full serialized bytecode behind the
/// tag byte 'B'. Because the simulator is deterministic, equal keys
/// imply equal measurements, so a hit can skip execution entirely; see
/// core::synthesizeAndMeasure for the integrated fast path (the
/// producer probes the cache at enqueue time, so a hit never occupies a
/// measurement slot).
///
/// On disk the cache is a flat directory of archive files named
/// <hex key>.clgs, written atomically (temp + rename), so concurrent
/// workers and even concurrent processes can share one cache directory:
/// the worst race outcome is the same entry written twice. Every lookup
/// reads and validates the entry file, exactly like FailureLedger, so
/// the directory is always the truth: an entry an external
/// `store::sweep` or `clgen-store gc` evicted is a miss, and a rewritten
/// entry reads as its new bytes.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_STORE_RESULTCACHE_H
#define CLGEN_STORE_RESULTCACHE_H

#include "runtime/HostDriver.h"
#include "store/Archive.h"
#include "support/Result.h"

#include <optional>
#include <string>

namespace clgen {
namespace store {

/// Cache key for a measurement of \p Kernel (identified by its full
/// serialized bytecode) under \p Opts on \p P. Every field that can
/// change the measurement — including the payload RNG seed — is part of
/// the recipe.
uint64_t measurementKey(const vm::CompiledKernel &Kernel,
                        const runtime::DriverOptions &Opts,
                        const runtime::Platform &P);

class ResultCache {
public:
  /// Opens (creating if needed) the cache directory. An empty or
  /// uncreatable directory is not an error — the cache just misses; the
  /// failure is visible via directoryOk().
  explicit ResultCache(std::string Directory);

  /// Reads the measurement stored under \p Key, or nullopt when there
  /// is no readable entry (corrupt or truncated files count as misses
  /// and as `clgen.cache.bad_entries`). Thread-safe: archive reads are
  /// pure.
  std::optional<runtime::Measurement> lookup(uint64_t Key);

  /// Writes \p M under \p Key (atomic temp + rename). Thread-safe;
  /// concurrent stores of the same key are benign. A failed write
  /// leaves nothing behind: the next lookup misses.
  Status store(uint64_t Key, const runtime::Measurement &M);

  const std::string &directory() const { return Dir; }
  bool directoryOk() const { return DirOk; }

private:
  std::string entryPath(uint64_t Key) const;

  std::string Dir;
  bool DirOk = false;
};

/// Serializes one measurement into an archive payload / reads it back
/// (exposed for the archive round-trip tests).
void serializeMeasurement(ArchiveWriter &W, const runtime::Measurement &M);
runtime::Measurement deserializeMeasurement(ArchiveReader &R);

} // namespace store
} // namespace clgen

#endif // CLGEN_STORE_RESULTCACHE_H
