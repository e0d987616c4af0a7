//===- runtime/HostDriver.h - Benchmark execution driver ---------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host driver of section 5: accepts an OpenCL kernel, generates
/// payloads of configurable size, optionally validates the kernel with
/// the dynamic checker, executes it with instrumentation and reports
/// per-device estimated runtimes for CPU vs. GPU mapping decisions.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_RUNTIME_HOSTDRIVER_H
#define CLGEN_RUNTIME_HOSTDRIVER_H

#include "runtime/Device.h"
#include "runtime/DynamicChecker.h"
#include "runtime/Payload.h"
#include "runtime/PerfModel.h"
#include "support/Channel.h"
#include "support/Result.h"
#include "support/Rng.h"
#include "vm/Bytecode.h"
#include "vm/Interpreter.h"
#include "vm/Profile.h"

#include <string>
#include <vector>

namespace clgen {
namespace store {
class ResultCache;
} // namespace store
namespace runtime {

/// The measurements for one (kernel, dataset) pair on one platform.
struct Measurement {
  double CpuTime = 0.0; // Seconds.
  double GpuTime = 0.0;
  vm::ExecCounters Counters;
  TransferProfile Transfer;
  size_t GlobalSize = 0;
  size_t LocalSize = 0;

  /// True when the GPU mapping is faster.
  bool gpuIsBest() const { return GpuTime < CpuTime; }
  double bestTime() const { return GpuTime < CpuTime ? GpuTime : CpuTime; }
  double timeOn(bool Gpu) const { return Gpu ? GpuTime : CpuTime; }
};

struct DriverOptions {
  size_t GlobalSize = 64 * 1024;
  size_t LocalSize = 64;
  /// Run the section 5.2 dynamic checker before measuring.
  bool RunDynamicCheck = false;
  /// Cap simulated work-groups per launch; counters are rescaled. Keeps
  /// large NDRanges affordable on the simulator.
  size_t MaxSimulatedGroups = 64;
  uint64_t MaxInstructions = 400ull * 1000 * 1000;
  uint64_t Seed = 0xC16E5EED;
  /// Wall-clock watchdog per launch, in milliseconds (0 = off). Catches
  /// hangs the instruction budget cannot — a stalled worker fails with
  /// TrapKind::WatchdogTimeout instead of wedging the batch. Excluded
  /// from cache keys: it can only turn a measurement into a failure,
  /// and failures are never cached.
  uint64_t WatchdogMs = 0;
  /// Bounded retries for transient failure classes (injected faults,
  /// I/O); deterministic classes fail fast. Excluded from cache keys.
  uint32_t MaxRetries = 2;
  /// Base backoff between retries; attempt n sleeps
  /// retryBackoffMs(RetryBackoffMs, n) — exponential (base << n),
  /// deterministic, no jitter, saturating at MaxRetrySleepMs (the shift
  /// is clamped, so large attempt counts neither overflow nor hit
  /// shift-width UB). 0 = retry immediately. Excluded from cache keys.
  uint32_t RetryBackoffMs = 0;
  /// Trap integer division/remainder by zero (TrapKind::DivByZero)
  /// instead of OpenCL's silent zero. Changes kernel-visible semantics,
  /// so it IS part of the measurement cache/ledger key recipe.
  bool TrapDivZero = false;
  /// When non-null, every launch this driver executes, the dynamic
  /// checker's included, accumulates its opcode/opcode-pair profile
  /// here (vm/Profile.h), and so runs the VM's switch loop, which
  /// carries the profile hook. Pure observation — excluded from cache
  /// keys, never affects measurements — and the aggregate is identical
  /// for any worker count (commutative merges). Note cache/ledger hits
  /// skip execution, so a warm run profiles only what it actually
  /// executed.
  vm::SharedOpcodeProfile *Profile = nullptr;
};

/// Compiles and measures \p Source's first kernel on \p P's two devices.
/// Fails when the kernel does not compile, the launch fails, or (when
/// enabled) the dynamic checker rejects it.
Result<Measurement> runBenchmark(const std::string &Source,
                                 const Platform &P,
                                 const DriverOptions &Opts);

/// Same, for an already compiled kernel.
Result<Measurement> runBenchmark(const vm::CompiledKernel &Kernel,
                                 const Platform &P,
                                 const DriverOptions &Opts);

/// runBenchmark with the retry policy applied: transient failures
/// (isTransientTrap — injected faults, I/O) are retried up to
/// Opts.MaxRetries times with deterministic backoff; deterministic
/// failures return immediately. Every batch/streaming path measures
/// through this wrapper. \p AttemptsOut, when given, receives the
/// number of attempts consumed (1 = no retry).
Result<Measurement> runBenchmarkWithRetry(const vm::CompiledKernel &Kernel,
                                          const Platform &P,
                                          const DriverOptions &Opts,
                                          uint32_t *AttemptsOut = nullptr);

/// Ceiling on one retry backoff sleep (30 s): a misconfigured or
/// pathological retry budget degrades to bounded waiting, never to a
/// multi-hour stall.
inline constexpr uint64_t MaxRetrySleepMs = 30'000;

/// The retry backoff schedule: BackoffMs << Attempt, with the shift
/// clamped below the 64-bit width and the product saturated at
/// MaxRetrySleepMs. A plain `BackoffMs << Attempt` is undefined for
/// Attempt >= 32 on the uint32 field (and overflows long before the
/// shift-width limit); this helper is total over the full input range.
uint64_t retryBackoffMs(uint32_t BackoffMs, uint32_t Attempt);

/// Per-kernel effective options for batch position \p I: the payload
/// RNG seed is drawn from the counter-keyed stream I of \p Base (the
/// batch seed). This is THE batch seed derivation — runBenchmarkBatch,
/// the streaming pipeline and the result-cache key recipe all share it,
/// so a kernel's measurement (and cache entry) is a pure function of
/// its batch index regardless of which path ran it.
DriverOptions batchDriverOptions(const DriverOptions &Opts, const Rng &Base,
                                 size_t I);

/// Measures a batch of kernels, fanned out across a worker pool so
/// driver-side execution keeps pace with the parallel synthesizer
/// (\p Workers: 1 = serial, 0 = hardware concurrency). Results are
/// index-aligned with \p Kernels and deterministic regardless of worker
/// count: kernel i derives its payload RNG by splitting \p Opts.Seed
/// with stream id i.
std::vector<Result<Measurement>>
runBenchmarkBatch(const std::vector<vm::CompiledKernel> &Kernels,
                  const Platform &P, const DriverOptions &Opts,
                  unsigned Workers = 0);

/// Store tally of one streaming pipeline run (StreamingResult::
/// CacheStats); the process-wide tallies are the `clgen.cache.*` and
/// `clgen.ledger.*` registry counters.
struct BatchCacheStats {
  size_t Hits = 0;
  size_t Misses = 0;
  /// Kernels skipped as failure-ledger negative hits (neither measured
  /// nor counted as cache hits).
  size_t LedgerHits = 0;
  /// Deterministic failures newly recorded in the ledger by this run.
  size_t LedgerRecords = 0;
};

/// One unit of driver-side work in the streaming pipeline: a kernel to
/// measure, the per-kernel effective options (already derived via
/// batchDriverOptions from the kernel's accept index), and where the
/// result lands. Jobs own their kernel copy so producers can keep
/// growing their own vectors without invalidating in-flight work.
struct MeasureJob {
  vm::CompiledKernel Kernel;
  DriverOptions Opts;
  /// Where the outcome lands. The producer owns slot storage with
  /// stable addresses (e.g. a deque it grows per accepted kernel, in
  /// accept order — which is what keeps memory proportional to actual
  /// output, not the requested target); slots are unique per job, so
  /// concurrent workers write disjoint memory without locking.
  Result<Measurement> *Slot = nullptr;
  /// Result-cache key when the producer probed the cache at enqueue
  /// time (WriteBack true); ignored otherwise. Hits are resolved by the
  /// producer and never become jobs — a cached measurement must not
  /// occupy a measurement slot.
  uint64_t CacheKey = 0;
  bool WriteBack = false;
  /// The kernel's accept index: stable identity for failpoint keying
  /// and diagnostics, independent of scheduling.
  size_t Index = 0;
};

/// Pull-based measurement loop: pops jobs from \p Jobs until the
/// channel is closed and drained, measuring each kernel and writing the
/// result through job.Slot. Successful measurements of jobs flagged
/// WriteBack are stored to \p Cache under their CacheKey. Intended to
/// run on one or more dedicated consumer threads, overlapped with the
/// producer that feeds the channel.
void runMeasurementLoop(support::Channel<MeasureJob> &Jobs,
                        const Platform &P,
                        store::ResultCache *Cache = nullptr);

} // namespace runtime
} // namespace clgen

#endif // CLGEN_RUNTIME_HOSTDRIVER_H
