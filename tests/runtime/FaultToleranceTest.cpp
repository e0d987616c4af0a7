//===- tests/runtime/FaultToleranceTest.cpp - trap taxonomy + watchdog --------===//
//
// The structured failure taxonomy (support/Trap.h) as carried through
// the measurement path: every rejection class maps to its TrapKind, the
// wall-clock watchdog catches hangs the instruction budget cannot, the
// opt-in div-by-zero trap changes kernel-visible semantics, and the
// retry wrapper retries exactly the transient classes, both on natural
// traps and on faults injected by armed failpoints.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostDriver.h"

#include "../TestUtil.h"
#include "support/Trap.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::runtime;
using testutil::ArmedPlan;

namespace {

vm::CompiledKernel compile(const std::string &Source) {
  auto K = vm::compileFirstKernel(Source);
  EXPECT_TRUE(K.ok()) << K.errorMessage();
  return K.take();
}

DriverOptions smallOpts() {
  DriverOptions Opts;
  Opts.GlobalSize = 512;
  Opts.LocalSize = 64;
  return Opts;
}

TEST(FaultToleranceTest, TrapKindNamesRoundTrip) {
  for (uint8_t Tag = 0; Tag <= 13; ++Tag) {
    TrapKind K = trapKindFromTag(Tag);
    EXPECT_EQ(static_cast<uint8_t>(K), Tag);
    EXPECT_NE(std::string(trapKindName(K)), "");
  }
  // Out-of-range tags decode to Unknown, not garbage: forward
  // compatibility for ledgers written by newer builds.
  EXPECT_EQ(trapKindFromTag(200), TrapKind::Unknown);
  // The policy partitions: no kind is both transient and deterministic.
  for (uint8_t Tag = 0; Tag <= 13; ++Tag) {
    TrapKind K = trapKindFromTag(Tag);
    EXPECT_FALSE(isTransientTrap(K) && isDeterministicTrap(K))
        << trapKindName(K);
  }
}

TEST(FaultToleranceTest, OutOfBoundsClassified) {
  auto M = runBenchmark(
      compile("__kernel void oob(__global float* a, const int n) {\n"
              "  a[get_global_id(0) + n] = 1.0f;\n"
              "}\n"),
      amdPlatform(), smallOpts());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::OutOfBounds);
  EXPECT_NE(M.errorMessage().find("out-of-bounds"), std::string::npos);
}

TEST(FaultToleranceTest, InstructionBudgetClassified) {
  DriverOptions Opts = smallOpts();
  Opts.MaxInstructions = 10000; // The spin kernel blows this instantly.
  auto M = runBenchmark(
      compile("__kernel void spin(__global float* a, const int n) {\n"
              "  while (1) { a[0] += 1.0f; }\n"
              "}\n"),
      amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::InstructionBudget);
}

TEST(FaultToleranceTest, WatchdogCatchesWallClockHang) {
  DriverOptions Opts = smallOpts();
  // Budget far beyond what the watchdog window can execute: without the
  // watchdog this would grind for seconds; with it the launch fails in
  // ~30ms wall time as a classified timeout.
  Opts.MaxInstructions = 4000ull * 1000 * 1000;
  Opts.WatchdogMs = 30;
  auto M = runBenchmark(
      compile("__kernel void spin(__global float* a, const int n) {\n"
              "  while (1) { a[0] += 1.0f; }\n"
              "}\n"),
      amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::WatchdogTimeout);
  EXPECT_NE(M.errorMessage().find("watchdog"), std::string::npos);
  // Watchdog timeouts are environment-dependent: never ledgerable.
  EXPECT_FALSE(isDeterministicTrap(M.trap()));
}

TEST(FaultToleranceTest, BarrierDivergenceClassified) {
  auto M = runBenchmark(
      compile("__kernel void bd(__global float* a, const int n) {\n"
              "  int l = get_local_id(0);\n"
              "  if (l < 2) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
              "  a[get_global_id(0)] = (float)l;\n"
              "}\n"),
      amdPlatform(), smallOpts());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::BarrierDivergence);
}

TEST(FaultToleranceTest, CompileErrorClassified) {
  auto M = runBenchmark(std::string("__kernel void broken(__global float* "
                                    "a) { a[0] = MISSING; }\n"),
                        amdPlatform(), smallOpts());
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::CompileError);
}

TEST(FaultToleranceTest, DivByZeroTrapIsOptIn) {
  const char *Source =
      "__kernel void dz(__global int* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { a[i] = n / (a[i] - a[i]); }\n"
      "}\n";
  // Default: OpenCL's undefined-but-silent integer division; the
  // simulator evaluates it to a defined value and the launch succeeds.
  auto Silent = runBenchmark(compile(Source), amdPlatform(), smallOpts());
  EXPECT_TRUE(Silent.ok()) << Silent.errorMessage();
  EXPECT_EQ(Silent.trap(), TrapKind::None);

  // Opted in: the same kernel is a classified deterministic trap.
  DriverOptions Opts = smallOpts();
  Opts.TrapDivZero = true;
  auto Trapped = runBenchmark(compile(Source), amdPlatform(), Opts);
  ASSERT_FALSE(Trapped.ok());
  EXPECT_EQ(Trapped.trap(), TrapKind::DivByZero);
  EXPECT_NE(Trapped.errorMessage().find("division by zero"),
            std::string::npos);
  EXPECT_TRUE(isDeterministicTrap(Trapped.trap()));
}

TEST(FaultToleranceTest, SuccessfulRunHasNoTrap) {
  auto M = runBenchmark(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] * 2.0f; }\n"
              "}\n"),
      amdPlatform(), smallOpts());
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  EXPECT_EQ(M.trap(), TrapKind::None);
}

//===----------------------------------------------------------------------===//
// Retry policy
//===----------------------------------------------------------------------===//

TEST(FaultToleranceTest, DeterministicFailuresNeverRetry) {
  DriverOptions Opts = smallOpts();
  Opts.MaxRetries = 5;
  uint32_t Attempts = 0;
  auto M = runBenchmarkWithRetry(
      compile("__kernel void oob(__global float* a, const int n) {\n"
              "  a[get_global_id(0) + n] = 1.0f;\n"
              "}\n"),
      amdPlatform(), Opts, &Attempts);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::OutOfBounds);
  EXPECT_EQ(Attempts, 1u); // Retrying a deterministic trap is waste.
}

TEST(FaultToleranceTest, RetryBackoffClampsAndSaturates) {
  // The schedule is exponential until the 30 s ceiling. A plain
  // `BackoffMs << Attempt` is UB from attempt 32 on a 32-bit base;
  // the helper must be total and monotone over the whole input range.
  EXPECT_EQ(retryBackoffMs(0, 0), 0u);
  EXPECT_EQ(retryBackoffMs(0, 1000), 0u); // Zero base stays zero.
  EXPECT_EQ(retryBackoffMs(1, 0), 1u);
  EXPECT_EQ(retryBackoffMs(1, 4), 16u);
  EXPECT_EQ(retryBackoffMs(100, 3), 800u);
  EXPECT_EQ(retryBackoffMs(1, 14), 16384u);
  // 1 << 15 = 32768 > 30000: first saturated step.
  EXPECT_EQ(retryBackoffMs(1, 15), MaxRetrySleepMs);
  // The former UB boundaries: shift counts 31, 32, 63, 64 and beyond
  // must all hit the ceiling, not wrap, zero out, or trap.
  for (uint32_t Attempt : {31u, 32u, 33u, 63u, 64u, 65u, 1000u,
                           0xFFFFFFFFu}) {
    EXPECT_EQ(retryBackoffMs(1, Attempt), MaxRetrySleepMs)
        << "attempt " << Attempt;
    EXPECT_EQ(retryBackoffMs(0xFFFFFFFFu, Attempt), MaxRetrySleepMs)
        << "attempt " << Attempt << " (max base)";
  }
  // Large base saturates immediately even with no shift.
  EXPECT_EQ(retryBackoffMs(0xFFFFFFFFu, 0), MaxRetrySleepMs);
  // Monotone: no attempt sleeps less than the one before it.
  uint64_t Prev = 0;
  for (uint32_t Attempt = 0; Attempt < 80; ++Attempt) {
    uint64_t Cur = retryBackoffMs(3, Attempt);
    EXPECT_GE(Cur, Prev) << "attempt " << Attempt;
    Prev = Cur;
  }
}

TEST(FaultToleranceTest, SuccessTakesOneAttempt) {
  uint32_t Attempts = 0;
  auto M = runBenchmarkWithRetry(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n"),
      amdPlatform(), smallOpts(), &Attempts);
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  EXPECT_EQ(Attempts, 1u);
}

TEST(FaultToleranceTest, TransientInjectedFaultClearsOnRetry) {
  // One guaranteed fire at the payload site, then the cap stops
  // injection: attempt 1 fails transiently, attempt 2 measures.
  support::FailPlan Plan;
  Plan.Probability = 1.0;
  Plan.MaxFiresPerSite = 1;
  Plan.Sites = {"runtime.payload"};
  vm::CompiledKernel K =
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n");
  uint32_t Attempts = 0;
  {
    ArmedPlan Armed(Plan);
    auto M = runBenchmarkWithRetry(K, amdPlatform(), smallOpts(), &Attempts);
    ASSERT_TRUE(M.ok()) << M.errorMessage();
    EXPECT_EQ(Attempts, 2u);
  }

  // With retries disabled the same schedule is a hard failure.
  ArmedPlan Armed(Plan);
  DriverOptions NoRetry = smallOpts();
  NoRetry.MaxRetries = 0;
  auto Hard = runBenchmarkWithRetry(K, amdPlatform(), NoRetry, &Attempts);
  ASSERT_FALSE(Hard.ok());
  EXPECT_EQ(Hard.trap(), TrapKind::Injected);
  EXPECT_EQ(Attempts, 1u);
}

TEST(FaultToleranceTest, InjectedStallTripsWatchdog) {
  // The vm.stall site sleeps past the watchdog budget; the launch must
  // come back classified as a timeout rather than wedging.
  support::FailPlan Plan;
  Plan.Probability = 1.0;
  Plan.StallMs = 50;
  Plan.Sites = {"vm.stall"};
  ArmedPlan Armed(Plan);
  DriverOptions Opts = smallOpts();
  Opts.WatchdogMs = 10;
  auto M = runBenchmark(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n"),
      amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::WatchdogTimeout);
}

} // namespace
