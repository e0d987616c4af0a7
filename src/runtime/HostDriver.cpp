//===- runtime/HostDriver.cpp - Benchmark execution driver -------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostDriver.h"

#include "store/ResultCache.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "vm/Compiler.h"
#include "vm/Profile.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace clgen;
using namespace clgen::runtime;
using namespace clgen::vm;

DriverOptions runtime::batchDriverOptions(const DriverOptions &Opts,
                                          const Rng &Base, size_t I) {
  DriverOptions KOpts = Opts;
  KOpts.Seed = Base.split(I).next();
  return KOpts;
}

namespace {

/// runBenchmark's body; every launch it makes profiles into \p Prof
/// when non-null.
Result<Measurement> measure(const CompiledKernel &Kernel, const Platform &P,
                            const DriverOptions &Opts, OpcodeProfile *Prof) {
  Rng R(Opts.Seed);

  if (Opts.RunDynamicCheck) {
    CheckOptions COpts;
    COpts.Profile = Prof;
    Rng CheckRng = R.fork();
    CheckResult CR = checkKernel(Kernel, COpts, CheckRng);
    if (!CR.useful())
      return Result<Measurement>::error(
          std::string("dynamic check failed: ") +
              checkOutcomeName(CR.Outcome) +
              (CR.Detail.empty() ? "" : " (" + CR.Detail + ")"),
          CR.Trap);
  }

  // Injected payload-generation failure (transient class: a retry
  // re-rolls and can clear).
  if (CLGS_FAILPOINT_KEYED("runtime.payload", Opts.Seed))
    return Result<Measurement>::error("injected fault at runtime.payload",
                                      TrapKind::Injected);

  PayloadOptions POpts;
  POpts.GlobalSize = Opts.GlobalSize;
  POpts.LocalSize = Opts.LocalSize;
  Payload Pl = generatePayload(Kernel, POpts, R);

  LaunchConfig Config;
  Config.GlobalSize[0] = Pl.GlobalSize;
  Config.LocalSize[0] = Pl.LocalSize;
  Config.MaxInstructions = Opts.MaxInstructions;
  Config.MaxWorkGroups = Opts.MaxSimulatedGroups;
  Config.WatchdogMs = Opts.WatchdogMs;
  Config.TrapDivZero = Opts.TrapDivZero;
  Config.Profile = Prof;

  auto Run = launchKernel(Kernel, Pl.Args, Pl.Buffers, Config);
  if (!Run.ok())
    return Result<Measurement>::error("launch failed: " +
                                          Run.errorMessage(),
                                      Run.trap());

  Measurement M;
  M.Counters = Run.get();
  M.Transfer = Pl.Transfer;
  M.GlobalSize = Pl.GlobalSize;
  M.LocalSize = Pl.LocalSize;
  M.CpuTime = estimateRuntime(P.Cpu, M.Counters, M.Transfer);
  M.GpuTime = estimateRuntime(P.Gpu, M.Counters, M.Transfer);
  return M;
}

} // namespace

Result<Measurement> runtime::runBenchmark(const CompiledKernel &Kernel,
                                          const Platform &P,
                                          const DriverOptions &Opts) {
  if (!Opts.Profile)
    return measure(Kernel, P, Opts, nullptr);
  // Profile into a run-local buffer, then fold into the shared
  // aggregate exactly once. The dynamic checker's launches and failed
  // launches executed real instructions too, and those counts are part
  // of the corpus's dynamic opcode mix.
  OpcodeProfile LocalProf;
  Result<Measurement> M = measure(Kernel, P, Opts, &LocalProf);
  Opts.Profile->add(LocalProf);
  return M;
}

Result<Measurement> runtime::runBenchmark(const std::string &Source,
                                          const Platform &P,
                                          const DriverOptions &Opts) {
  auto Kernel = compileFirstKernel(Source);
  if (!Kernel.ok())
    return Result<Measurement>::error("compile failed: " +
                                          Kernel.errorMessage(),
                                      TrapKind::CompileError);
  return runBenchmark(Kernel.get(), P, Opts);
}

Result<Measurement>
runtime::runBenchmarkWithRetry(const CompiledKernel &Kernel,
                               const Platform &P, const DriverOptions &Opts,
                               uint32_t *AttemptsOut) {
  uint64_t T0 = support::telemetryNowNs();
  for (uint32_t Attempt = 0;; ++Attempt) {
    Result<Measurement> M = runBenchmark(Kernel, P, Opts);
    if (AttemptsOut)
      *AttemptsOut = Attempt + 1;
    // Deterministic failures cannot clear on retry; retrying them would
    // just triple the cost of every genuinely bad kernel.
    if (M.ok() || Attempt >= Opts.MaxRetries || !isTransientTrap(M.trap())) {
      CLGS_HIST_US("clgen.driver.measure_us",
                   (support::telemetryNowNs() - T0) / 1000);
      if (M.ok()) {
        CLGS_COUNT("clgen.driver.measurements");
      } else {
        CLGS_COUNT("clgen.driver.failures");
        // Watchdog fires on host load, not workload: volatile.
        if (M.trap() == TrapKind::WatchdogTimeout)
          CLGS_COUNT_V("clgen.driver.watchdog_timeouts");
      }
      return M;
    }
    CLGS_COUNT("clgen.driver.retries");
    CLGS_TRACE_INSTANT_IDX("driver.retry", Attempt);
    if (Opts.RetryBackoffMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retryBackoffMs(Opts.RetryBackoffMs, Attempt)));
  }
}

uint64_t runtime::retryBackoffMs(uint32_t BackoffMs, uint32_t Attempt) {
  if (BackoffMs == 0)
    return 0;
  // Shifting a uint64 by >= 64 is UB; anything past 63 saturates long
  // before the shift matters, and past ~35 bits the product exceeds
  // the cap anyway, so one clamped shift plus a compare is total.
  uint32_t Shift = Attempt < 63 ? Attempt : 63;
  uint64_t Sleep = Shift >= 64 - 32
                       ? MaxRetrySleepMs // uint32 base << >=32 bits: over.
                       : static_cast<uint64_t>(BackoffMs) << Shift;
  return Sleep < MaxRetrySleepMs ? Sleep : MaxRetrySleepMs;
}

std::vector<Result<Measurement>>
runtime::runBenchmarkBatch(const std::vector<CompiledKernel> &Kernels,
                           const Platform &P, const DriverOptions &Opts,
                           unsigned Workers) {
  std::vector<Result<Measurement>> Out(
      Kernels.size(), Result<Measurement>::error("not measured"));
  Rng Base(Opts.Seed);
  auto MeasureOne = [&](size_t I) {
    CLGS_TRACE_SPAN_IDX("measure", I);
    Out[I] =
        runBenchmarkWithRetry(Kernels[I], P, batchDriverOptions(Opts, Base, I));
  };
  size_t N =
      std::min(ThreadPool::resolveWorkerCount(Workers), Kernels.size());
  if (N <= 1 || Kernels.size() <= 1) {
    for (size_t I = 0; I < Kernels.size(); ++I)
      MeasureOne(I);
    return Out;
  }
  ThreadPool Pool(N);
  Pool.parallelFor(0, Kernels.size(),
                   [&](size_t, size_t I) { MeasureOne(I); });
  return Out;
}

void runtime::runMeasurementLoop(support::Channel<MeasureJob> &Jobs,
                                 const Platform &P,
                                 store::ResultCache *Cache) {
  // pop() returning nullopt is the shutdown signal: the producer closed
  // the channel and every buffered job has been claimed.
  while (std::optional<MeasureJob> J = Jobs.pop()) {
    CLGS_TRACE_SPAN_IDX("measure", J->Index);
    // Injected dequeue fault: the job is consumed but its measurement is
    // dropped on the floor — the slot records an injected failure, which
    // the refill pass (when enabled) excises and replaces. Keyed by the
    // accept index so the faulting kernel is scheduling-independent.
    Result<Measurement> M =
        CLGS_FAILPOINT_KEYED("pipeline.dequeue", J->Index)
            ? Result<Measurement>::error("injected fault at pipeline.dequeue",
                                         TrapKind::Injected)
            : runBenchmarkWithRetry(J->Kernel, P, J->Opts);
    if (Cache && J->WriteBack && M.ok())
      Cache->store(J->CacheKey, M.get());
    *J->Slot = std::move(M);
  }
}
