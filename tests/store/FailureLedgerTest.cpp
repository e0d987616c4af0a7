//===- tests/store/FailureLedgerTest.cpp - failure-ledger tests ---------------===//
//
// The persistent failure ledger (store/FailureLedger.h): record/lookup
// round-trips, the deterministic-kinds-only admission policy, corrupt
// entries degrading to misses and the byte-stable CLI listing. The
// pipeline integration (record, then replay without re-measuring) is
// PipelineFaultTest.StreamingLedgerRecordsAndReplays.
//
//===----------------------------------------------------------------------===//

#include "store/FailureLedger.h"

#include "../TestUtil.h"
#include "support/Trap.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace clgen;
using namespace clgen::store;
using testutil::counterValue;
using testutil::ScratchDir;

namespace {

FailureRecord record(TrapKind Kind, const std::string &Detail,
                     uint32_t Attempts = 1) {
  FailureRecord R;
  R.Kind = Kind;
  R.Detail = Detail;
  R.Attempts = Attempts;
  return R;
}

TEST(FailureLedgerTest, RecordLookupRoundTrip) {
  ScratchDir Dir("clgen_ledger_test_", "roundtrip");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(Ledger.directoryOk());
  uint64_t LookupsBefore = counterValue("clgen.ledger.lookups");
  uint64_t HitsBefore = counterValue("clgen.ledger.negative_hits");
  uint64_t RecordsBefore = counterValue("clgen.ledger.records");

  EXPECT_FALSE(Ledger.lookup(42).has_value());
  ASSERT_TRUE(Ledger
                  .record(42, record(TrapKind::OutOfBounds,
                                     "global OOB at index 9", 1))
                  .ok());
  auto Found = Ledger.lookup(42);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(Found->Detail, "global OOB at index 9");
  EXPECT_EQ(Found->Attempts, 1u);

  // A second ledger over the same directory sees the record: the disk
  // is the only state.
  FailureLedger Reopened(Dir.str());
  auto Again = Reopened.lookup(42);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Detail, Found->Detail);

  EXPECT_EQ(counterValue("clgen.ledger.lookups") - LookupsBefore, 3u);
  EXPECT_EQ(counterValue("clgen.ledger.negative_hits") - HitsBefore, 2u);
  EXPECT_EQ(counterValue("clgen.ledger.records") - RecordsBefore, 1u);
}

TEST(FailureLedgerTest, RefusesNonDeterministicKinds) {
  ScratchDir Dir("clgen_ledger_test_", "policy");
  FailureLedger Ledger(Dir.str());
  uint64_t RejectedBefore = counterValue("clgen.ledger.rejected");
  uint64_t RecordsBefore = counterValue("clgen.ledger.records");
  // Transient and environment-dependent classes must never be persisted:
  // they would wrongly poison future runs.
  for (TrapKind K : {TrapKind::Injected, TrapKind::IoError,
                     TrapKind::WatchdogTimeout, TrapKind::Unknown,
                     TrapKind::None}) {
    EXPECT_TRUE(Ledger.record(7, record(K, "transient")).ok());
    EXPECT_FALSE(Ledger.lookup(7).has_value())
        << "kind " << trapKindName(K) << " must not be recorded";
  }
  EXPECT_EQ(counterValue("clgen.ledger.rejected") - RejectedBefore, 5u);
  EXPECT_EQ(counterValue("clgen.ledger.records") - RecordsBefore, 0u);

  // Every deterministic class IS admitted.
  uint64_t Key = 100;
  for (TrapKind K :
       {TrapKind::OutOfBounds, TrapKind::BarrierDivergence,
        TrapKind::InstructionBudget, TrapKind::DivByZero,
        TrapKind::CompileError, TrapKind::BadLaunch, TrapKind::CheckNoOutput,
        TrapKind::CheckInputInsensitive, TrapKind::CheckNonDeterministic}) {
    ASSERT_TRUE(Ledger.record(Key, record(K, "deterministic")).ok());
    auto Found = Ledger.lookup(Key);
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(Found->Kind, K);
    ++Key;
  }
}

TEST(FailureLedgerTest, CorruptEntryDegradesToMiss) {
  ScratchDir Dir("clgen_ledger_test_", "corrupt");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(
      Ledger.record(9, record(TrapKind::DivByZero, "div by zero")).ok());
  ASSERT_TRUE(Ledger.lookup(9).has_value());

  // Truncate the entry file: the checksum no longer validates, so the
  // lookup is an honest miss (counted as a bad entry), never a crash
  // or a half-read record.
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir.path()))
    if (E.path().extension() == ".clgs")
      Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  std::filesystem::resize_file(Entry,
                               std::filesystem::file_size(Entry) / 2);
  uint64_t BadBefore = counterValue("clgen.ledger.bad_entries");
  EXPECT_FALSE(Ledger.lookup(9).has_value());
  EXPECT_EQ(counterValue("clgen.ledger.bad_entries") - BadBefore, 1u);

  // Re-recording overwrites the corpse and the lookup works again.
  ASSERT_TRUE(
      Ledger.record(9, record(TrapKind::DivByZero, "div by zero")).ok());
  EXPECT_TRUE(Ledger.lookup(9).has_value());
}

TEST(FailureLedgerTest, UncreatableDirectoryDegrades) {
  ScratchDir Dir("clgen_ledger_test_", "nodir");
  // A regular file where the directory should be: directoryOk false,
  // lookups miss, records fail visibly — no crash, no silent success.
  std::string FilePath = Dir.str() + "/blocked";
  std::ofstream(FilePath) << "not a directory";
  FailureLedger Ledger(FilePath);
  EXPECT_FALSE(Ledger.directoryOk());
  EXPECT_FALSE(Ledger.lookup(1).has_value());
  uint64_t FailuresBefore = counterValue("clgen.ledger.write_failures");
  EXPECT_FALSE(Ledger.record(1, record(TrapKind::OutOfBounds, "x")).ok());
  EXPECT_EQ(counterValue("clgen.ledger.write_failures") - FailuresBefore,
            1u);
}

TEST(FailureLedgerTest, ListAndFormatAreByteStable) {
  ScratchDir Dir("clgen_ledger_test_", "listing");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(
      Ledger.record(2, record(TrapKind::DivByZero, "lane 3 divides by 0", 1))
          .ok());
  ASSERT_TRUE(Ledger
                  .record(1, record(TrapKind::OutOfBounds,
                                    "write past buffer end", 2))
                  .ok());

  auto Records = listFailures(Dir.str());
  ASSERT_EQ(Records.size(), 2u);
  // Sorted by key regardless of directory iteration order.
  EXPECT_EQ(Records[0].first, 1u);
  EXPECT_EQ(Records[1].first, 2u);

  std::string Listing = formatFailures(Records);
  EXPECT_EQ(Listing, formatFailures(listFailures(Dir.str())));
  EXPECT_NE(Listing.find("out-of-bounds"), std::string::npos);
  EXPECT_NE(Listing.find("div-by-zero"), std::string::npos);
  EXPECT_NE(Listing.find("write past buffer end"), std::string::npos);
}

} // namespace
