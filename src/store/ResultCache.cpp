//===- store/ResultCache.cpp - Content-addressed result cache ------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/ResultCache.h"

#include "store/Serialization.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdio>
#include <filesystem>

#ifndef _WIN32
#include <sys/stat.h>
#endif

using namespace clgen;
using namespace clgen::store;
using namespace clgen::runtime;

//===----------------------------------------------------------------------===//
// Key recipes
//===----------------------------------------------------------------------===//

namespace {

void serializeDriverOptions(ArchiveWriter &W, const DriverOptions &Opts) {
  W.writeU64(Opts.GlobalSize);
  W.writeU64(Opts.LocalSize);
  W.writeBool(Opts.RunDynamicCheck);
  W.writeU64(Opts.MaxSimulatedGroups);
  W.writeU64(Opts.MaxInstructions);
  W.writeU64(Opts.Seed);
  // TrapDivZero changes kernel-visible semantics, so it is part of the
  // recipe. The fault-tolerance knobs (WatchdogMs, MaxRetries,
  // RetryBackoffMs) deliberately are NOT: they can only turn a
  // measurement into a failure, never alter a successful measurement,
  // and failures are not cached.
  W.writeBool(Opts.TrapDivZero);
}

void serializeDeviceModel(ArchiveWriter &W, const DeviceModel &D) {
  W.writeString(D.Name);
  W.writeU8(static_cast<uint8_t>(D.Kind));
  W.writeF64(D.FrequencyGHz);
  W.writeF64(D.ParallelLanes);
  W.writeF64(D.ComputeOpCost);
  W.writeF64(D.MathCallCost);
  W.writeF64(D.CoalescedAccessCost);
  W.writeF64(D.UncoalescedAccessCost);
  W.writeF64(D.LocalAccessCost);
  W.writeF64(D.PrivateAccessCost);
  W.writeF64(D.BranchCost);
  W.writeF64(D.DivergencePenalty);
  W.writeF64(D.AtomicCost);
  W.writeF64(D.BarrierCost);
  W.writeF64(D.TransferGBPerSec);
  W.writeF64(D.LaunchOverheadUs);
}

void serializePlatform(ArchiveWriter &W, const Platform &P) {
  W.writeString(P.Name);
  serializeDeviceModel(W, P.Cpu);
  serializeDeviceModel(W, P.Gpu);
}

} // namespace

uint64_t store::measurementKey(const vm::CompiledKernel &Kernel,
                               const DriverOptions &Opts,
                               const Platform &P) {
  // 'B' keys digest the kernel's canonical content serialization: two
  // kernels that serialize identically execute identically under the
  // deterministic simulator.
  ArchiveWriter W(ArchiveKind::Measurement);
  W.writeU8('B');
  serializeCompiledKernel(W, Kernel);
  serializeDriverOptions(W, Opts);
  serializePlatform(W, P);
  return W.payloadDigest();
}

uint64_t store::measurementKey(const std::string &Source,
                               const DriverOptions &Opts,
                               const Platform &P) {
  ArchiveWriter W(ArchiveKind::Measurement);
  W.writeU8('S');
  W.writeString(Source);
  serializeDriverOptions(W, Opts);
  serializePlatform(W, P);
  return W.payloadDigest();
}

//===----------------------------------------------------------------------===//
// Measurement payload
//===----------------------------------------------------------------------===//

void store::serializeMeasurement(ArchiveWriter &W, const Measurement &M) {
  W.writeF64(M.CpuTime);
  W.writeF64(M.GpuTime);
  const vm::ExecCounters &C = M.Counters;
  W.writeU64(C.Instructions);
  W.writeU64(C.ComputeOps);
  W.writeU64(C.MathCalls);
  W.writeU64(C.GlobalLoads);
  W.writeU64(C.GlobalStores);
  W.writeU64(C.CoalescedGlobal);
  W.writeU64(C.LocalAccesses);
  W.writeU64(C.PrivateAccesses);
  W.writeU64(C.Branches);
  W.writeU64(C.AtomicOps);
  W.writeU64(C.Barriers);
  W.writeU64(C.ItemsTotal);
  W.writeU64(C.ItemsExecuted);
  W.writeF64(C.Divergence);
  W.writeU64(M.Transfer.BytesIn);
  W.writeU64(M.Transfer.BytesOut);
  W.writeU64(M.GlobalSize);
  W.writeU64(M.LocalSize);
}

Measurement store::deserializeMeasurement(ArchiveReader &R) {
  Measurement M;
  M.CpuTime = R.readF64();
  M.GpuTime = R.readF64();
  vm::ExecCounters &C = M.Counters;
  C.Instructions = R.readU64();
  C.ComputeOps = R.readU64();
  C.MathCalls = R.readU64();
  C.GlobalLoads = R.readU64();
  C.GlobalStores = R.readU64();
  C.CoalescedGlobal = R.readU64();
  C.LocalAccesses = R.readU64();
  C.PrivateAccesses = R.readU64();
  C.Branches = R.readU64();
  C.AtomicOps = R.readU64();
  C.Barriers = R.readU64();
  C.ItemsTotal = R.readU64();
  C.ItemsExecuted = R.readU64();
  C.Divergence = R.readF64();
  M.Transfer.BytesIn = R.readU64();
  M.Transfer.BytesOut = R.readU64();
  M.GlobalSize = R.readU64();
  M.LocalSize = R.readU64();
  return M;
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

ResultCache::ResultCache(std::string Directory) : Dir(std::move(Directory)) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  DirOk = !Ec && std::filesystem::is_directory(Dir, Ec);
}

std::string ResultCache::entryPath(uint64_t Key) const {
  return Dir + "/" + hexDigest(Key) + ".clgs";
}

namespace {

/// Backing-file identity probe: mtime (ns) + size in ONE stat syscall
/// on POSIX (std::filesystem would need two). Returns false when the
/// file is not statable.
bool statBacking(const std::string &Path, int64_t &MtimeNs,
                 uint64_t &Size) {
#ifndef _WIN32
  struct ::stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return false;
  MtimeNs = static_cast<int64_t>(St.st_mtim.tv_sec) * 1000000000 +
            St.st_mtim.tv_nsec;
  Size = static_cast<uint64_t>(St.st_size);
  return true;
#else
  std::error_code Ec;
  auto Mtime = std::filesystem::last_write_time(Path, Ec);
  if (Ec)
    return false;
  auto Sz = std::filesystem::file_size(Path, Ec);
  if (Ec)
    return false;
  MtimeNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Mtime.time_since_epoch())
                .count();
  Size = static_cast<uint64_t>(Sz);
  return true;
#endif
}

/// Reads the archive container's trailing 8-byte checksum (little
/// endian, see store/Archive.h). One small pread-equivalent; used only
/// on coarse-mtime filesystems where (mtime, size) alone cannot
/// distinguish a same-second same-size rewrite.
bool readTrailerChecksum(const std::string &Path, uint64_t &Sum) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  unsigned char Bytes[8];
  bool Ok = std::fseek(F, -8, SEEK_END) == 0 &&
            std::fread(Bytes, 1, 8, F) == 8;
  std::fclose(F);
  if (!Ok)
    return false;
  Sum = 0;
  for (int I = 0; I < 8; ++I)
    Sum |= static_cast<uint64_t>(Bytes[I]) << (8 * I);
  return true;
}

/// A whole-second mtime signals a coarse-granularity filesystem (a real
/// nanosecond timestamp is whole-second with probability ~1e-9).
bool mtimeLooksCoarse(int64_t MtimeNs) {
  return MtimeNs % 1000000000 == 0;
}

} // namespace

bool ResultCache::recordBacking(uint64_t Key, Resident &R) const {
  if (!statBacking(entryPath(Key), R.MtimeNs, R.Size))
    return false;
  // Coarse mtime: (mtime, size) is not a sound identity on this
  // filesystem, so capture the trailer checksum as the tiebreaker. If
  // even that cannot be read, refuse to install — same contract as an
  // unstatable file.
  if (mtimeLooksCoarse(R.MtimeNs)) {
    if (!readTrailerChecksum(entryPath(Key), R.TrailerChecksum))
      return false;
    R.CoarseMtime = true;
  }
  R.Disk = true;
  return true;
}

std::optional<Measurement> ResultCache::lookup(uint64_t Key) {
  // Copy the resident entry out under the shared lock, then revalidate
  // OUTSIDE it: the stat syscall must not extend the critical section
  // writers queue behind. Resident entries are immutable once
  // inserted, so concurrent hits copy out in parallel.
  std::optional<Resident> Found;
  {
    std::shared_lock<std::shared_mutex> Lock(MapMutex);
    auto It = Memory.find(Key);
    if (It != Memory.end())
      Found = It->second;
  }
  if (!Found)
    return probeDisk(Key);

  // A disk-backed entry is served only while its file still matches
  // the recorded (mtime, size) — one stat, no read, no checksum — so
  // an external sweep's eviction is visible to this process instead of
  // being papered over by the memory front.
  if (Found->Disk) {
    int64_t MtimeNs = 0;
    uint64_t Size = 0;
    bool Fresh = statBacking(entryPath(Key), MtimeNs, Size) &&
                 MtimeNs == Found->MtimeNs && Size == Found->Size;
    // On a coarse-mtime filesystem a same-size rewrite within the same
    // second passes the stat probe; the trailer checksum recorded at
    // install time catches it (see Resident).
    if (Fresh && Found->CoarseMtime) {
      uint64_t Sum = 0;
      Fresh = readTrailerChecksum(entryPath(Key), Sum) &&
              Sum == Found->TrailerChecksum;
    }
    if (!Fresh) {
      // Stale: the backing file was evicted or replaced since it was
      // cached. Drop it and fall through to the disk probe, which
      // re-loads a replacement or reports the miss honestly.
      Counters.StaleMemoryEntries.fetch_add(1,
                                            std::memory_order_relaxed);
      // External sweeps race this process: volatile.
      CLGS_COUNT_V("clgen.cache.stale_memory_entries");
      std::unique_lock<std::shared_mutex> Lock(MapMutex);
      Memory.erase(Key);
      Lock.unlock();
      return probeDisk(Key);
    }
  }
  Counters.Hits.fetch_add(1, std::memory_order_relaxed);
  Counters.MemoryHits.fetch_add(1, std::memory_order_relaxed);
  CLGS_COUNT("clgen.cache.hits");
  CLGS_COUNT("clgen.cache.memory_hits");
  return std::move(Found->M);
}

std::optional<Measurement> ResultCache::probeDisk(uint64_t Key) {
  // Injected read fault: degrades to an honest miss (the caller
  // re-measures), exactly like an unreadable file.
  if (CLGS_FAILPOINT_KEYED("store.read", Key)) {
    Counters.Misses.fetch_add(1, std::memory_order_relaxed);
    CLGS_COUNT("clgen.cache.misses");
    return std::nullopt;
  }
  // Disk probe outside the lock: archive reads are pure, and concurrent
  // probes of the same key just both hit.
  auto Opened = ArchiveReader::open(entryPath(Key),
                                    ArchiveKind::Measurement);
  if (!Opened.ok()) {
    std::error_code Ec;
    bool Exists = DirOk && std::filesystem::exists(entryPath(Key), Ec);
    Counters.Misses.fetch_add(1, std::memory_order_relaxed);
    CLGS_COUNT("clgen.cache.misses");
    if (Exists) { // Present but unreadable: treated as a miss.
      Counters.BadEntries.fetch_add(1, std::memory_order_relaxed);
      CLGS_COUNT("clgen.cache.bad_entries");
    }
    return std::nullopt;
  }
  ArchiveReader R = Opened.take();
  Measurement M = deserializeMeasurement(R);
  if (!R.finish().ok()) {
    Counters.Misses.fetch_add(1, std::memory_order_relaxed);
    Counters.BadEntries.fetch_add(1, std::memory_order_relaxed);
    CLGS_COUNT("clgen.cache.misses");
    CLGS_COUNT("clgen.cache.bad_entries");
    return std::nullopt;
  }

  Counters.Hits.fetch_add(1, std::memory_order_relaxed);
  CLGS_COUNT("clgen.cache.hits");
  Resident Entry;
  Entry.M = M;
  // Only a resident whose backing identity is known may enter the map:
  // if the file vanished between the read and the stat (an external
  // sweep racing us), inserting a revalidation-exempt entry would
  // resurrect the stale-hit bug. The caller still gets its (valid at
  // read time) measurement; the next lookup probes disk again.
  if (recordBacking(Key, Entry)) {
    std::unique_lock<std::shared_mutex> Lock(MapMutex);
    Memory.emplace(Key, std::move(Entry));
  }
  return M;
}

Status ResultCache::store(uint64_t Key, const Measurement &M) {
  CLGS_TRACE_SPAN("cache.write");
  Counters.Writes.fetch_add(1, std::memory_order_relaxed);
  CLGS_COUNT("clgen.cache.writes");
  Status S;
  if (!DirOk) {
    Counters.WriteFailures.fetch_add(1, std::memory_order_relaxed);
    CLGS_COUNT_V("clgen.cache.write_failures");
    S = Status::error("cache directory unavailable: " + Dir,
                      TrapKind::IoError);
  } else if (CLGS_FAILPOINT_KEYED("store.write", Key)) {
    // Injected write fault: degrades exactly like a failed disk write —
    // the entry stays memory-only and the pipeline carries on.
    Counters.WriteFailures.fetch_add(1, std::memory_order_relaxed);
    CLGS_COUNT_V("clgen.cache.write_failures");
    S = Status::error("injected fault at store.write", TrapKind::Injected);
  } else {
    ArchiveWriter W(ArchiveKind::Measurement);
    serializeMeasurement(W, M);
    S = W.saveTo(entryPath(Key));
    if (!S.ok()) {
      Counters.WriteFailures.fetch_add(1, std::memory_order_relaxed);
      CLGS_COUNT_V("clgen.cache.write_failures");
    }
  }
  // Record the resident entry after the disk write so it can carry the
  // written file's identity. A FAILED write leaves a memory-only entry
  // (Disk false — nothing external can invalidate what was never
  // written), matching the pre-lifecycle degradation contract; a
  // successful write whose file cannot be statted afterwards (an
  // external sweep evicted it already) installs nothing, so the next
  // lookup reports the miss honestly instead of serving a
  // revalidation-exempt resident.
  Resident Entry;
  Entry.M = M;
  if (!S.ok() || recordBacking(Key, Entry)) {
    std::unique_lock<std::shared_mutex> Lock(MapMutex);
    Memory[Key] = std::move(Entry);
  }
  return S;
}

ResultCache::Stats ResultCache::stats() const {
  Stats Out;
  Out.Hits = Counters.Hits.load(std::memory_order_relaxed);
  Out.MemoryHits = Counters.MemoryHits.load(std::memory_order_relaxed);
  Out.Misses = Counters.Misses.load(std::memory_order_relaxed);
  Out.BadEntries = Counters.BadEntries.load(std::memory_order_relaxed);
  Out.Writes = Counters.Writes.load(std::memory_order_relaxed);
  Out.WriteFailures =
      Counters.WriteFailures.load(std::memory_order_relaxed);
  Out.StaleMemoryEntries =
      Counters.StaleMemoryEntries.load(std::memory_order_relaxed);
  return Out;
}
