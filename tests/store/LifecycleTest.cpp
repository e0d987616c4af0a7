//===- tests/store/LifecycleTest.cpp - store lifecycle hardening --------------===//
//
// The crash/corruption harness for the store lifecycle engine
// (store/Lifecycle.h, store/Lock.h): sweep byte budgets and LRU order,
// kill-point injection at every mutating stage, every-byte corruption
// fuzz over manifests and entries, quarantine (never delete)
// semantics, advisory-lock behavior, ResultCache lookups after an
// external eviction, and byte-stable golden output for the `clgen-store` CLI
// formatters.
//
// The two invariants everything here hammers on:
//   1. a sweep interrupted at ANY point leaves a readable store and
//      never loses an entry the completed sweep would have kept;
//   2. artifacts that survive a sweep are bit-identical to themselves
//      before it.
//
//===----------------------------------------------------------------------===//

#include "store/Lifecycle.h"

#include "../TestUtil.h"
#include "store/Archive.h"
#include "store/Lock.h"
#include "store/ResultCache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::store;
using testutil::ScratchDir;

namespace fs = std::filesystem;

namespace {

std::vector<uint8_t> loadBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes)) << Path;
  return Bytes;
}

void storeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Deterministic mtime for LRU tests: Index seconds past a fixed epoch
/// offset, so entry age order is exactly the index order.
void setMtime(const std::string &Path, int Index) {
  fs::file_time_type T(std::chrono::seconds(1700000000 + Index * 60));
  std::error_code Ec;
  fs::last_write_time(Path, T, Ec);
  ASSERT_FALSE(static_cast<bool>(Ec)) << Path;
}

/// Writes one deterministic measurement-kind entry of roughly
/// \p PayloadBytes payload to \p Path and pins its mtime to \p Index.
void seedEntry(const std::string &Path, int Index, size_t PayloadBytes) {
  ArchiveWriter W(ArchiveKind::Measurement);
  for (size_t I = 0; I < PayloadBytes; ++I)
    W.writeU8(static_cast<uint8_t>((I * 31 + Index * 7) & 0xFF));
  ASSERT_TRUE(W.saveTo(Path).ok()) << Path;
  setMtime(Path, Index);
}

/// The canonical seeded store of these tests: five valid entries of
/// known sizes (ages = index order; e0 oldest), one nested under a
/// subdirectory, plus noise the scanner must ignore.
///   payload 100 -> file size 128 (20 header + payload + 8 trailer).
struct SeededStore {
  std::vector<std::string> Names;
  std::vector<uint64_t> Sizes;
};

SeededStore seedStore(const std::string &Dir) {
  SeededStore S;
  S.Names = {"e0-old.clgs", "e1.clgs", "e2.clgs", "results/e3.clgs",
             "e4-new.clgs"};
  size_t Payloads[] = {100, 200, 300, 150, 250};
  fs::create_directories(fs::path(Dir) / "results");
  for (size_t I = 0; I < S.Names.size(); ++I) {
    seedEntry(Dir + "/" + S.Names[I], static_cast<int>(I), Payloads[I]);
    S.Sizes.push_back(Payloads[I] + 28);
  }
  // Noise: reserved dirs, temp leftovers, non-archive files.
  fs::create_directories(fs::path(Dir) / "locks");
  storeBytes(Dir + "/locks/train-0.lock", {});
  storeBytes(Dir + "/notes.txt", {'h', 'i'});
  storeBytes(Dir + "/e9.clgs.tmp.deadbeef", {1, 2, 3});
  return S;
}

std::map<std::string, std::vector<uint8_t>>
snapshotEntries(const std::string &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  auto Entries = scanStore(Dir);
  EXPECT_TRUE(Entries.ok());
  for (const EntryInfo &E : Entries.get())
    Out[E.RelPath] = loadBytes(Dir + "/" + E.RelPath);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Scanning
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, ScanFindsEntriesSortedAndSkipsNoise) {
  ScratchDir Dir("clgen_lifecycle_test_", "scan");
  SeededStore S = seedStore(Dir.str());
  // A manifest and quarantined files must not show up as entries.
  SweepPolicy P;
  ASSERT_TRUE(sweep(Dir.str(), P).ok()); // Publishes a manifest.
  fs::create_directories(fs::path(Dir.str()) / "quarantine");
  storeBytes(Dir.str() + "/quarantine/old-corrupt.clgs", {9, 9, 9});

  auto Entries = scanStore(Dir.str());
  ASSERT_TRUE(Entries.ok());
  ASSERT_EQ(Entries.get().size(), 5u);
  std::vector<std::string> Sorted = S.Names;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I < Sorted.size(); ++I) {
    EXPECT_EQ(Entries.get()[I].RelPath, Sorted[I]);
    EXPECT_TRUE(Entries.get()[I].Valid);
    EXPECT_EQ(Entries.get()[I].Kind,
              static_cast<uint32_t>(ArchiveKind::Measurement));
  }
}

TEST(LifecycleTest, ScanFailsOnMissingDirectory) {
  EXPECT_FALSE(scanStore("/nonexistent/clgen/nowhere").ok());
}

//===----------------------------------------------------------------------===//
// Sweep: budget, LRU order, byte identity
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, SweepEvictsLruDownToByteBudgetAndKeepsBytesIdentical) {
  ScratchDir Dir("clgen_lifecycle_test_", "budget");
  SeededStore S = seedStore(Dir.str());
  auto Before = snapshotEntries(Dir.str());
  uint64_t Total = 0;
  for (uint64_t Sz : S.Sizes)
    Total += Sz;

  // Budget forces out the two oldest entries (e0: 128, e1: 228) and
  // nothing else: 1140 total, keep 784 = e2+e3+e4.
  SweepPolicy P;
  P.MaxBytes = Total - S.Sizes[0] - S.Sizes[1];
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok()) << R.errorMessage();
  EXPECT_FALSE(R.get().Interrupted);
  EXPECT_EQ(R.get().EvictedCount, 2u);
  EXPECT_EQ(R.get().EvictedBytes, S.Sizes[0] + S.Sizes[1]);
  EXPECT_EQ(R.get().KeptCount, 3u);
  EXPECT_LE(R.get().KeptBytes, P.MaxBytes);
  EXPECT_EQ(R.get().QuarantinedCount, 0u);

  EXPECT_FALSE(fs::exists(Dir.file("e0-old.clgs")));
  EXPECT_FALSE(fs::exists(Dir.file("e1.clgs")));
  // Survivors are bit-identical to their pre-sweep selves.
  for (const char *Name : {"e2.clgs", "results/e3.clgs", "e4-new.clgs"})
    EXPECT_EQ(loadBytes(Dir.str() + "/" + Name), Before.at(Name)) << Name;

  // The manifest records exactly the surviving set.
  auto M = loadManifest(Dir.str());
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  EXPECT_EQ(M.get().SweepId, R.get().SweepId);
  EXPECT_EQ(M.get().KeptBytes, R.get().KeptBytes);
  ASSERT_EQ(M.get().Entries.size(), 3u);
  EXPECT_EQ(M.get().Entries[0].RelPath, "e2.clgs");
  EXPECT_EQ(M.get().Entries[1].RelPath, "e4-new.clgs");
  EXPECT_EQ(M.get().Entries[2].RelPath, "results/e3.clgs");

  // Idempotence: a second sweep under the same budget changes nothing.
  auto R2 = sweep(Dir.str(), P);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.get().EvictedCount, 0u);
  EXPECT_EQ(R2.get().SweepId, R.get().SweepId);
}

TEST(LifecycleTest, SweepWithoutBudgetEvictsNothing) {
  ScratchDir Dir("clgen_lifecycle_test_", "nobudget");
  seedStore(Dir.str());
  auto Before = snapshotEntries(Dir.str());
  SweepPolicy P; // MaxBytes = 0: validate + quarantine only.
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.get().EvictedCount, 0u);
  EXPECT_EQ(R.get().KeptCount, 5u);
  EXPECT_EQ(snapshotEntries(Dir.str()), Before);
}

TEST(LifecycleTest, SweepDryRunPlansButTouchesNothing) {
  ScratchDir Dir("clgen_lifecycle_test_", "dryrun");
  seedStore(Dir.str());
  // Corrupt one entry so the plan includes a quarantine too.
  auto Bytes = loadBytes(Dir.file("e1.clgs"));
  Bytes[Bytes.size() / 2] ^= 0x40;
  storeBytes(Dir.file("e1.clgs"), Bytes);
  setMtime(Dir.file("e1.clgs"), 1);
  auto Before = snapshotEntries(Dir.str());

  SweepPolicy P;
  P.MaxBytes = 400;
  P.DryRun = true;
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R.get().EvictedCount, 0u);
  EXPECT_EQ(R.get().QuarantinedCount, 1u);
  // ... but the store is untouched: same files, same bytes, no
  // manifest, no quarantine directory.
  EXPECT_EQ(snapshotEntries(Dir.str()), Before);
  EXPECT_FALSE(fs::exists(Dir.str() + "/" + ManifestFileName));
  EXPECT_FALSE(fs::exists(Dir.str() + "/quarantine"));
}

TEST(LifecycleTest, SweepQuarantinesCorruptEntriesWithBytesPreserved) {
  ScratchDir Dir("clgen_lifecycle_test_", "quarantine");
  seedStore(Dir.str());
  auto Corrupted = loadBytes(Dir.file("results/e3.clgs"));
  Corrupted[25] ^= 0xFF; // Payload byte: checksum mismatch.
  storeBytes(Dir.file("results/e3.clgs"), Corrupted);
  setMtime(Dir.file("results/e3.clgs"), 3);

  SweepPolicy P;
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.get().QuarantinedCount, 1u);
  EXPECT_FALSE(fs::exists(Dir.file("results/e3.clgs")));
  // Parked, not deleted — and the evidence bytes are exactly the
  // corrupt input (quarantine never rewrites).
  std::string Parked = Dir.str() + "/quarantine/results__e3.clgs";
  ASSERT_TRUE(fs::exists(Parked));
  EXPECT_EQ(loadBytes(Parked), Corrupted);
  EXPECT_EQ(quarantineCount(Dir.str()), 1u);

  // A second corrupt file with the same relative name gets a suffixed
  // slot instead of overwriting the first.
  seedEntry(Dir.file("results/e3.clgs"), 3, 150);
  auto Corrupted2 = loadBytes(Dir.file("results/e3.clgs"));
  Corrupted2[30] ^= 0x01;
  storeBytes(Dir.file("results/e3.clgs"), Corrupted2);
  ASSERT_TRUE(sweep(Dir.str(), P).ok());
  EXPECT_EQ(quarantineCount(Dir.str()), 2u);
  EXPECT_EQ(loadBytes(Parked), Corrupted); // First evidence untouched.
}

//===----------------------------------------------------------------------===//
// Crash injection: every kill-point leaves a readable store
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, SweepInterruptedAtEveryKillPointLeavesReadableStore) {
  // Reference run: seed, corrupt one entry, sweep to completion while
  // recording every stage the sweep passes through.
  std::vector<std::string> Stages;
  std::map<std::string, std::vector<uint8_t>> ReferenceFinal;
  uint64_t ReferenceSweepId = 0;
  auto Seed = [](const std::string &Dir) {
    SeededStore S = seedStore(Dir);
    std::vector<uint8_t> Bytes;
    EXPECT_TRUE(readFileBytes(Dir + "/e2.clgs", Bytes));
    Bytes[22] ^= 0x80;
    storeBytes(Dir + "/e2.clgs", Bytes);
    fs::file_time_type T(std::chrono::seconds(1700000000 + 2 * 60));
    std::error_code Ec;
    fs::last_write_time(Dir + "/e2.clgs", T, Ec);
    return S;
  };
  SweepPolicy Budgeted;
  Budgeted.MaxBytes = 650; // Forces LRU evictions on top of quarantine.
  {
    ScratchDir Ref("clgen_lifecycle_test_", "killpoints_ref");
    Seed(Ref.str());
    SweepPolicy Recording = Budgeted;
    Recording.KillSwitch = [&Stages](const std::string &Stage) {
      Stages.push_back(Stage);
      return true;
    };
    auto R = sweep(Ref.str(), Recording);
    ASSERT_TRUE(R.ok());
    ASSERT_FALSE(R.get().Interrupted);
    ReferenceSweepId = R.get().SweepId;
    ReferenceFinal = snapshotEntries(Ref.str());
  }
  // The recorded schedule must cover every stage class.
  ASSERT_GE(Stages.size(), 5u);
  EXPECT_EQ(Stages.front(), "scan");
  EXPECT_EQ(Stages.back(), "done");
  EXPECT_NE(std::find_if(Stages.begin(), Stages.end(),
                         [](const std::string &S) {
                           return S.rfind("quarantine:", 0) == 0;
                         }),
            Stages.end());
  EXPECT_NE(std::find_if(Stages.begin(), Stages.end(),
                         [](const std::string &S) {
                           return S.rfind("evict:", 0) == 0;
                         }),
            Stages.end());

  // Crash at every stage, then assert the store survived and a re-run
  // converges to the reference final state.
  for (size_t Kill = 0; Kill < Stages.size(); ++Kill) {
    ScratchDir Dir("clgen_lifecycle_test_",
                   "killpoints_" + std::to_string(Kill));
    Seed(Dir.str());
    auto PreCrash = snapshotEntries(Dir.str());

    SweepPolicy Crashing = Budgeted;
    size_t Step = 0;
    Crashing.KillSwitch = [&Step, Kill](const std::string &) {
      return Step++ != Kill;
    };
    auto Crashed = sweep(Dir.str(), Crashing);
    ASSERT_TRUE(Crashed.ok()) << "kill at " << Stages[Kill];
    ASSERT_TRUE(Crashed.get().Interrupted) << "kill at " << Stages[Kill];
    ASSERT_EQ(Crashed.get().InterruptedAt, Stages[Kill]);

    // (1) The store is readable: scanning works and every entry the
    // reference sweep kept is present, valid, and bit-identical.
    auto Entries = scanStore(Dir.str());
    ASSERT_TRUE(Entries.ok()) << "kill at " << Stages[Kill];
    for (const auto &[Rel, Bytes] : ReferenceFinal) {
      EXPECT_EQ(loadBytes(Dir.str() + "/" + Rel), Bytes)
          << "live entry lost/changed by crash at " << Stages[Kill];
    }
    // (2) Anything still present is exactly a pre-crash file, bit for
    // bit: an interrupted sweep removes/moves whole files but never
    // rewrites one.
    for (const EntryInfo &E : Entries.get()) {
      auto It = PreCrash.find(E.RelPath);
      ASSERT_NE(It, PreCrash.end()) << E.RelPath;
      EXPECT_EQ(loadBytes(Dir.str() + "/" + E.RelPath), It->second)
          << "crash at " << Stages[Kill];
    }
    // (3) Re-running the sweep converges to the reference final state.
    auto Finish = sweep(Dir.str(), Budgeted);
    ASSERT_TRUE(Finish.ok());
    EXPECT_FALSE(Finish.get().Interrupted);
    EXPECT_EQ(Finish.get().SweepId, ReferenceSweepId)
        << "recovery diverged after crash at " << Stages[Kill];
    EXPECT_EQ(snapshotEntries(Dir.str()), ReferenceFinal)
        << "recovery diverged after crash at " << Stages[Kill];
    auto M = loadManifest(Dir.str());
    ASSERT_TRUE(M.ok());
    EXPECT_EQ(M.get().SweepId, ReferenceSweepId);
  }
}

//===----------------------------------------------------------------------===//
// Corruption fuzz: manifests and entries
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, ManifestEveryByteFlipAndTruncationIsDetected) {
  ScratchDir Dir("clgen_lifecycle_test_", "manifest_fuzz");
  seedStore(Dir.str());
  SweepPolicy P;
  ASSERT_TRUE(sweep(Dir.str(), P).ok());
  std::string Path = Dir.str() + "/" + ManifestFileName;
  std::vector<uint8_t> Good = loadBytes(Path);
  ASSERT_TRUE(loadManifest(Dir.str()).ok());

  for (size_t I = 0; I < Good.size(); ++I) {
    std::vector<uint8_t> Bad = Good;
    Bad[I] ^= 0xFF;
    storeBytes(Path, Bad);
    EXPECT_FALSE(loadManifest(Dir.str()).ok())
        << "flip at byte " << I << " went undetected";
  }
  for (size_t Len = 0; Len < Good.size(); ++Len) {
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + Len);
    storeBytes(Path, Bad);
    EXPECT_FALSE(loadManifest(Dir.str()).ok())
        << "truncation to " << Len << " bytes went undetected";
  }

  // A corrupt manifest never blocks the lifecycle: the next sweep
  // replans from a fresh scan and republishes a valid manifest.
  storeBytes(Path, {0xDE, 0xAD});
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(loadManifest(Dir.str()).ok());
}

TEST(LifecycleTest, EntryEveryByteFlipAndTruncationIsDetected) {
  ScratchDir Dir("clgen_lifecycle_test_", "entry_fuzz");
  seedEntry(Dir.file("entry.clgs"), 0, 64);
  std::string Path = Dir.file("entry.clgs");
  std::vector<uint8_t> Good = loadBytes(Path);
  ASSERT_TRUE(inspectArchive(Path).ok());

  // Every single-byte flip must fail container validation — the header
  // fields are each checked and the payload + trailer are covered by
  // the checksum, so there is no unprotected byte to hide in.
  for (size_t I = 0; I < Good.size(); ++I) {
    std::vector<uint8_t> Bad = Good;
    Bad[I] ^= 0xFF;
    storeBytes(Path, Bad);
    EXPECT_FALSE(inspectArchive(Path).ok())
        << "flip at byte " << I << " went undetected by verify";
  }
  for (size_t Len = 0; Len < Good.size(); ++Len) {
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + Len);
    storeBytes(Path, Bad);
    EXPECT_FALSE(inspectArchive(Path).ok())
        << "truncation to " << Len << " bytes went undetected";
  }

  // And gc quarantines (never deletes) what verify flags: sample a
  // handful of corruptions through the full sweep path.
  for (size_t I = 0; I < Good.size(); I += 13) {
    ScratchDir Sub("clgen_lifecycle_test_",
                   "entry_fuzz_gc_" + std::to_string(I));
    seedStore(Sub.str());
    std::vector<uint8_t> Bad = Good;
    Bad[I] ^= 0xFF;
    storeBytes(Sub.file("bad.clgs"), Bad);
    setMtime(Sub.file("bad.clgs"), 9);
    SweepPolicy P;
    auto R = sweep(Sub.str(), P);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.get().QuarantinedCount, 1u) << "flip at " << I;
    EXPECT_FALSE(fs::exists(Sub.file("bad.clgs")));
    EXPECT_EQ(loadBytes(Sub.str() + "/quarantine/bad.clgs"), Bad)
        << "quarantine must preserve the corrupt bytes, flip at " << I;
  }
}

TEST(LifecycleTest, HeldLockDoesNotShieldCorruptEntryFromQuarantine) {
  // "Locked" state is advisory and lives in locks/, never on entries:
  // a corrupt entry is quarantined even while a writer holds the
  // store's locks, and the lock files themselves are never scanned.
  ScratchDir Dir("clgen_lifecycle_test_", "locked_fuzz");
  seedStore(Dir.str());
  auto Held = ScopedLock::acquire(lockFilePath(Dir.str(), "train", 42));
  ASSERT_TRUE(Held.ok());
  auto Bytes = loadBytes(Dir.file("e4-new.clgs"));
  Bytes[Bytes.size() - 3] ^= 0x10; // Trailer byte.
  storeBytes(Dir.file("e4-new.clgs"), Bytes);
  setMtime(Dir.file("e4-new.clgs"), 4);

  SweepPolicy P;
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.get().QuarantinedCount, 1u);
  EXPECT_EQ(loadBytes(Dir.str() + "/quarantine/e4-new.clgs"), Bytes);
  // The held lock file survived the sweep untouched.
  EXPECT_TRUE(fs::exists(lockFilePath(Dir.str(), "train", 42)));
}

//===----------------------------------------------------------------------===//
// Advisory locks
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, ScopedLockExcludesAndReleases) {
  ScratchDir Dir("clgen_lifecycle_test_", "locks");
  std::string Path = lockFilePath(Dir.str(), "train", 7);

  auto First = ScopedLock::tryAcquire(Path);
  ASSERT_TRUE(First.ok());
  EXPECT_TRUE(First.get().held());

  // Contended: immediate tryAcquire fails, bounded wait times out.
  EXPECT_FALSE(ScopedLock::tryAcquire(Path).ok());
  LockOptions Short;
  Short.Timeout = std::chrono::milliseconds(50);
  Short.PollInterval = std::chrono::milliseconds(5);
  auto Waited = ScopedLock::acquire(Path, Short);
  EXPECT_FALSE(Waited.ok());

  // Release frees the lock for the next acquirer; the lock file stays
  // (holders never unlink — pruning abandoned files is vacuum's job).
  First.get().release();
  EXPECT_FALSE(First.get().held());
  auto Second = ScopedLock::tryAcquire(Path);
  EXPECT_TRUE(Second.ok());
  EXPECT_TRUE(fs::exists(Path));

  // Distinct keys never contend.
  auto Other = ScopedLock::tryAcquire(lockFilePath(Dir.str(), "train", 8));
  EXPECT_TRUE(Other.ok());
}

TEST(LifecycleTest, LockAcquireFailsFastWhenLockFileIsUnopenable) {
  // An unopenable lock file (here: the parent path is a regular file,
  // as on a read-only store) is a permanent failure, not contention —
  // acquire must fail immediately instead of polling out its timeout,
  // or every cold miss on such a store would hang for the full wait.
  ScratchDir Dir("clgen_lifecycle_test_", "lock_unopenable");
  storeBytes(Dir.file("blocker"), {1});
  std::string Path = Dir.file("blocker") + "/locks/train-00.lock";
  auto Start = std::chrono::steady_clock::now();
  auto R = ScopedLock::acquire(Path); // Default timeout: 60 s.
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_FALSE(R.ok());
  EXPECT_LT(Elapsed, std::chrono::seconds(5))
      << "non-contention lock failure must not wait out the timeout";
  // And the best-effort wrapper folds it into an unheld lock.
  EXPECT_FALSE(ScopedLock::acquireForMiss(Path).held());
}

TEST(LifecycleTest, ScopedLockMoveTransfersOwnership) {
  ScratchDir Dir("clgen_lifecycle_test_", "lock_move");
  std::string Path = lockFilePath(Dir.str(), "synthesis", 1);
  auto R = ScopedLock::tryAcquire(Path);
  ASSERT_TRUE(R.ok());
  ScopedLock Moved = R.take();
  EXPECT_TRUE(Moved.held());
  EXPECT_FALSE(ScopedLock::tryAcquire(Path).ok());
  ScopedLock Assigned;
  Assigned = std::move(Moved);
  EXPECT_TRUE(Assigned.held());
  EXPECT_FALSE(ScopedLock::tryAcquire(Path).ok());
  Assigned.release();
  EXPECT_TRUE(ScopedLock::tryAcquire(Path).ok());
}

//===----------------------------------------------------------------------===//
// ResultCache vs external sweep
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, ResultCacheMissesEntriesEvictedByExternalSweep) {
  // A long-lived process must not report hits for entries an external
  // `store::sweep`/`clgen-store gc` has already evicted on disk.
  ScratchDir Dir("clgen_lifecycle_test_", "cache_sweep");
  ResultCache Cache(Dir.str());
  runtime::Measurement M;
  M.CpuTime = 0.25;
  M.GpuTime = 0.5;
  M.Counters.Instructions = 777;
  ASSERT_TRUE(Cache.store(0xABCDEF, M).ok());
  ASSERT_TRUE(Cache.lookup(0xABCDEF).has_value());

  // External process sweeps the directory down to nothing.
  SweepPolicy P;
  P.MaxBytes = 1;
  auto R = sweep(Dir.str(), P);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.get().EvictedCount, 1u);

  // The live cache instance must notice: honest miss, not a stale hit.
  EXPECT_FALSE(Cache.lookup(0xABCDEF).has_value());

  // Re-storing brings the key back.
  ASSERT_TRUE(Cache.store(0xABCDEF, M).ok());
  auto Hit = Cache.lookup(0xABCDEF);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Counters.Instructions, 777u);
}

TEST(LifecycleTest, ResultCacheWithoutDirectoryStoresNothing) {
  // An uncreatable directory (even for root: its parent path is a
  // regular file) degrades to a cache that always misses: store fails
  // and the next lookup measures again instead of serving a
  // process-local copy.
  ScratchDir Dir("clgen_lifecycle_test_", "cache_nodir");
  storeBytes(Dir.file("blocker"), {1});
  ResultCache Cache(Dir.file("blocker") + "/cache");
  ASSERT_FALSE(Cache.directoryOk());
  runtime::Measurement M;
  M.CpuTime = 1.5;
  EXPECT_FALSE(Cache.store(0x11, M).ok());
  EXPECT_FALSE(Cache.lookup(0x11).has_value());
}

//===----------------------------------------------------------------------===//
// CLI golden output (byte-stable)
//===----------------------------------------------------------------------===//

namespace {

/// Renders the three golden surfaces over a store directory exactly
/// the way the `clgen-store` subcommands do.
struct CliSurfaces {
  std::string Ls, Stat, Verify, GcDryRun;
};

CliSurfaces renderCli(const std::string &Dir, uint64_t GcBudget) {
  CliSurfaces Out;
  auto Entries = scanStore(Dir);
  EXPECT_TRUE(Entries.ok());
  Out.Ls = formatLs(Entries.get());
  auto M = loadManifest(Dir);
  Out.Stat = formatStat(Entries.get(), quarantineCount(Dir),
                        M.ok() ? &M.get() : nullptr);
  Out.Verify = formatVerify(Entries.get());
  SweepPolicy P;
  P.MaxBytes = GcBudget;
  P.DryRun = true;
  auto R = sweep(Dir, P);
  EXPECT_TRUE(R.ok());
  Out.GcDryRun = formatSweepReport(R.get(), /*DryRun=*/true);
  return Out;
}

} // namespace

TEST(LifecycleTest, CliOutputIsByteStableAcrossRuns) {
  // Two independently seeded, identical stores must render identical
  // bytes on every surface: no timestamps, no absolute paths, no
  // iteration-order leakage.
  ScratchDir A("clgen_lifecycle_test_", "golden_a");
  ScratchDir B("clgen_lifecycle_test_", "golden_b");
  seedStore(A.str());
  seedStore(B.str());
  CliSurfaces SA = renderCli(A.str(), 700);
  CliSurfaces SB = renderCli(B.str(), 700);
  EXPECT_EQ(SA.Ls, SB.Ls);
  EXPECT_EQ(SA.Stat, SB.Stat);
  EXPECT_EQ(SA.Verify, SB.Verify);
  EXPECT_EQ(SA.GcDryRun, SB.GcDryRun);

  // Spot-check the shape the docs promise.
  EXPECT_NE(SA.Ls.find("measurement"), std::string::npos);
  EXPECT_NE(SA.Ls.find("results/e3.clgs"), std::string::npos);
  EXPECT_NE(SA.Ls.find("5 entries"), std::string::npos);
  EXPECT_NE(SA.Stat.find("manifest:    none"), std::string::npos);
  EXPECT_NE(SA.Verify.find("verify: 5 entries, 5 ok, 0 corrupt"),
            std::string::npos);
  EXPECT_NE(SA.GcDryRun.find("gc (dry-run):"), std::string::npos);
  EXPECT_NE(SA.GcDryRun.find("evict"), std::string::npos);

  // And after a real sweep the stat surface stays byte-stable too
  // (the manifest's sweep id is content-derived, not time-derived).
  SweepPolicy P;
  P.MaxBytes = 700;
  ASSERT_TRUE(sweep(A.str(), P).ok());
  ASSERT_TRUE(sweep(B.str(), P).ok());
  CliSurfaces PA = renderCli(A.str(), 700);
  CliSurfaces PB = renderCli(B.str(), 700);
  EXPECT_EQ(PA.Stat, PB.Stat);
  EXPECT_NE(PA.Stat.find("manifest:    sweep"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Vacuum
//===----------------------------------------------------------------------===//

TEST(LifecycleTest, VacuumPurgesQuarantineTempAndLocksButNeverEntries) {
  ScratchDir Dir("clgen_lifecycle_test_", "vacuum");
  seedStore(Dir.str());
  auto Before = snapshotEntries(Dir.str());
  // Park one corrupt file, leave a stale temp and a lock file around.
  auto Bytes = loadBytes(Dir.file("e0-old.clgs"));
  Bytes[21] ^= 0x04;
  storeBytes(Dir.file("e0-old.clgs"), Bytes);
  setMtime(Dir.file("e0-old.clgs"), 0);
  SweepPolicy P;
  ASSERT_TRUE(sweep(Dir.str(), P).ok());
  ASSERT_EQ(quarantineCount(Dir.str()), 1u);
  { ASSERT_TRUE(ScopedLock::tryAcquire(lockFilePath(Dir.str(), "gc", 1)).ok()); }

  auto R = vacuum(Dir.str());
  ASSERT_TRUE(R.ok()) << R.errorMessage();
  EXPECT_EQ(R.get().QuarantineRemoved, 1u);
  EXPECT_GE(R.get().TempRemoved, 1u);  // The seeded .tmp. file.
  EXPECT_GE(R.get().LocksRemoved, 2u); // Seed noise + the gc lock.
  EXPECT_EQ(quarantineCount(Dir.str()), 0u);

  // Entries and the manifest are untouched.
  Before.erase("e0-old.clgs"); // Quarantined by the sweep above.
  auto After = snapshotEntries(Dir.str());
  EXPECT_EQ(After, Before);
  EXPECT_TRUE(loadManifest(Dir.str()).ok());
}

TEST(LifecycleTest, VacuumSkipsHeldLocks) {
  // Vacuum is live-safe: a lock file another holder owns is skipped
  // (reported, not deleted), so a racing acquirer can never flock a
  // fresh inode alongside the live holder. Free locks are still
  // pruned in the same pass.
  ScratchDir Dir("clgen_lifecycle_test_", "vacuum_live");
  std::string HeldPath = lockFilePath(Dir.str(), "synthesis", 1);
  std::string FreePath = lockFilePath(Dir.str(), "synthesis", 2);
  auto Holder = ScopedLock::tryAcquire(HeldPath);
  ASSERT_TRUE(Holder.ok());
  { ASSERT_TRUE(ScopedLock::tryAcquire(FreePath).ok()); } // Released.

  auto R = vacuum(Dir.str());
  ASSERT_TRUE(R.ok()) << R.errorMessage();
  EXPECT_EQ(R.get().LocksRemoved, 1u);
  EXPECT_EQ(R.get().LocksSkipped, 1u);
  EXPECT_TRUE(fs::exists(HeldPath)) << "held lock must survive vacuum";
  EXPECT_FALSE(fs::exists(FreePath));
  // The survivor is still the SAME lock: the holder keeps excluding.
  EXPECT_FALSE(ScopedLock::tryAcquire(HeldPath).ok());

  // Once released, the next vacuum prunes it.
  Holder.get().release();
  auto R2 = vacuum(Dir.str());
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2.get().LocksRemoved, 1u);
  EXPECT_EQ(R2.get().LocksSkipped, 0u);
  EXPECT_FALSE(fs::exists(HeldPath));
}
