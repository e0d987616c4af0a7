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

#include <filesystem>

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
  // deterministic simulator. 'B' is the only tag; it stays in the
  // recipe so every stored key stays valid.
  ArchiveWriter W(ArchiveKind::Measurement);
  W.writeU8('B');
  serializeCompiledKernel(W, Kernel);
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

std::optional<Measurement> ResultCache::lookup(uint64_t Key) {
  // Injected read fault: degrades to an honest miss (the caller
  // re-measures), exactly like an unreadable file.
  if (CLGS_FAILPOINT_KEYED("store.read", Key)) {
    CLGS_COUNT("clgen.cache.misses");
    return std::nullopt;
  }
  auto Opened = ArchiveReader::open(entryPath(Key),
                                    ArchiveKind::Measurement);
  if (!Opened.ok()) {
    CLGS_COUNT("clgen.cache.misses");
    // Present but unreadable: a bad entry, and still a miss.
    std::error_code Ec;
    if (DirOk && std::filesystem::exists(entryPath(Key), Ec))
      CLGS_COUNT("clgen.cache.bad_entries");
    return std::nullopt;
  }
  ArchiveReader R = Opened.take();
  Measurement M = deserializeMeasurement(R);
  if (!R.finish().ok()) {
    CLGS_COUNT("clgen.cache.misses");
    CLGS_COUNT("clgen.cache.bad_entries");
    return std::nullopt;
  }
  CLGS_COUNT("clgen.cache.hits");
  return M;
}

Status ResultCache::store(uint64_t Key, const Measurement &M) {
  CLGS_TRACE_SPAN("cache.write");
  CLGS_COUNT("clgen.cache.writes");
  Status S;
  if (!DirOk) {
    S = Status::error("cache directory unavailable: " + Dir,
                      TrapKind::IoError);
  } else if (CLGS_FAILPOINT_KEYED("store.write", Key)) {
    // Injected write fault: degrades exactly like a failed disk write —
    // nothing is stored and the pipeline carries on.
    S = Status::error("injected fault at store.write", TrapKind::Injected);
  } else {
    ArchiveWriter W(ArchiveKind::Measurement);
    serializeMeasurement(W, M);
    S = W.saveTo(entryPath(Key));
  }
  if (!S.ok())
    CLGS_COUNT_V("clgen.cache.write_failures");
  return S;
}
