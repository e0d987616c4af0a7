//===- store/FailureLedger.cpp - Persistent failure ledger ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/FailureLedger.h"

#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <filesystem>

using namespace clgen;
using namespace clgen::store;

//===----------------------------------------------------------------------===//
// Record payload
//===----------------------------------------------------------------------===//

void store::serializeFailureRecord(ArchiveWriter &W, uint64_t Key,
                                   const FailureRecord &Record) {
  // Layout (docs/STORE_FORMAT.md): the key is echoed into the payload so
  // a record is self-describing even when renamed, then the classified
  // cause, the attempt count and the verbatim diagnostic.
  W.writeU64(Key);
  W.writeU8(static_cast<uint8_t>(Record.Kind));
  W.writeU32(Record.Attempts);
  W.writeString(Record.Detail);
}

Result<std::pair<uint64_t, FailureRecord>>
store::deserializeFailureRecord(ArchiveReader &R) {
  uint64_t Key = R.readU64();
  FailureRecord Record;
  Record.Kind = trapKindFromTag(R.readU8());
  Record.Attempts = R.readU32();
  Record.Detail = R.readString();
  Status S = R.finish();
  if (!S.ok())
    return Result<std::pair<uint64_t, FailureRecord>>::error(
        S.errorMessage(), TrapKind::IoError);
  return std::make_pair(Key, std::move(Record));
}

//===----------------------------------------------------------------------===//
// FailureLedger
//===----------------------------------------------------------------------===//

FailureLedger::FailureLedger(std::string Directory)
    : Dir(std::move(Directory)) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  DirOk = !Ec && std::filesystem::is_directory(Dir, Ec);
}

std::string FailureLedger::entryPath(uint64_t Key) const {
  return Dir + "/" + hexDigest(Key) + ".clgs";
}

std::optional<FailureRecord> FailureLedger::lookup(uint64_t Key) {
  CLGS_COUNT("clgen.ledger.lookups");
  // Injected read fault: an honest miss — the kernel is re-measured and
  // (still failing deterministically) re-recorded.
  if (CLGS_FAILPOINT_KEYED("ledger.read", Key))
    return std::nullopt;
  auto Opened = ArchiveReader::open(entryPath(Key), ArchiveKind::Failure);
  if (!Opened.ok()) {
    std::error_code Ec;
    if (DirOk && std::filesystem::exists(entryPath(Key), Ec))
      CLGS_COUNT("clgen.ledger.bad_entries");
    return std::nullopt;
  }
  ArchiveReader R = Opened.take();
  auto Decoded = deserializeFailureRecord(R);
  if (!Decoded.ok()) {
    CLGS_COUNT("clgen.ledger.bad_entries");
    return std::nullopt;
  }
  CLGS_COUNT("clgen.ledger.negative_hits");
  return Decoded.take().second;
}

Status FailureLedger::record(uint64_t Key, const FailureRecord &Record) {
  CLGS_TRACE_SPAN("ledger.write");
  if (!isDeterministicTrap(Record.Kind)) {
    // Policy refusal, not an error: transient and environment-dependent
    // failures must never poison future runs.
    CLGS_COUNT_V("clgen.ledger.rejected");
    return Status();
  }
  CLGS_COUNT("clgen.ledger.records");
  if (!DirOk) {
    CLGS_COUNT_V("clgen.ledger.write_failures");
    return Status::error("ledger directory unavailable: " + Dir,
                         TrapKind::IoError);
  }
  if (CLGS_FAILPOINT_KEYED("ledger.write", Key)) {
    // Injected write fault: the failure stays unrecorded this run and is
    // rediscovered (and re-recorded) by the next one.
    CLGS_COUNT_V("clgen.ledger.write_failures");
    return Status::error("injected fault at ledger.write",
                         TrapKind::Injected);
  }
  ArchiveWriter W(ArchiveKind::Failure);
  serializeFailureRecord(W, Key, Record);
  Status S = W.saveTo(entryPath(Key));
  if (!S.ok())
    CLGS_COUNT_V("clgen.ledger.write_failures");
  return S;
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

std::vector<std::pair<uint64_t, FailureRecord>>
store::listFailures(const std::string &Directory) {
  std::vector<std::pair<uint64_t, FailureRecord>> Out;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Directory, Ec), End;
  for (; !Ec && It != End; It.increment(Ec)) {
    if (!It->is_regular_file(Ec) || It->path().extension() != ".clgs")
      continue;
    auto Opened =
        ArchiveReader::open(It->path().string(), ArchiveKind::Failure);
    if (!Opened.ok())
      continue;
    ArchiveReader R = Opened.take();
    auto Decoded = deserializeFailureRecord(R);
    if (Decoded.ok())
      Out.push_back(Decoded.take());
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

std::string store::formatFailures(
    const std::vector<std::pair<uint64_t, FailureRecord>> &Records) {
  std::string Out;
  for (const auto &[Key, Record] : Records)
    Out += formatString("%s %-24s %2u  %s\n", hexDigest(Key).c_str(),
                        trapKindName(Record.Kind), Record.Attempts,
                        Record.Detail.c_str());
  return Out;
}
