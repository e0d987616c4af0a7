//===- tests/failpoints/FaultToleranceInjectionTest.cpp - armed retry -----===//
//
// The measurement path under armed failpoints: a transient injected
// fault clears on retry (and is a hard failure with retries off), and
// an injected stall comes back as a classified watchdog timeout. Builds
// into clgen_failpoint_tests, which links a library with the sites
// compiled in.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostDriver.h"

#include "support/FailPoint.h"
#include "support/Trap.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::runtime;

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

TEST(FaultToleranceTest, TransientInjectedFaultClearsOnRetry) {
  ASSERT_TRUE(support::FailPoints::sitesCompiledIn())
      << "clgen_failpoint_tests must link a library with the sites in";
  // One guaranteed fire at the payload site, then the cap stops
  // injection: attempt 1 fails transiently, attempt 2 measures.
  support::FailPlan Plan;
  Plan.Probability = 1.0;
  Plan.MaxFiresPerSite = 1;
  Plan.Sites = {"runtime.payload"};
  support::FailPoints::arm(Plan);
  uint32_t Attempts = 0;
  auto M = runBenchmarkWithRetry(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n"),
      amdPlatform(), smallOpts(), &Attempts);
  support::FailPoints::disarm();
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  EXPECT_EQ(Attempts, 2u);

  // With retries disabled the same schedule is a hard failure.
  support::FailPoints::arm(Plan);
  DriverOptions NoRetry = smallOpts();
  NoRetry.MaxRetries = 0;
  auto Hard = runBenchmarkWithRetry(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n"),
      amdPlatform(), NoRetry, &Attempts);
  support::FailPoints::disarm();
  ASSERT_FALSE(Hard.ok());
  EXPECT_EQ(Hard.trap(), TrapKind::Injected);
  EXPECT_EQ(Attempts, 1u);
}

TEST(FaultToleranceTest, InjectedStallTripsWatchdog) {
  ASSERT_TRUE(support::FailPoints::sitesCompiledIn())
      << "clgen_failpoint_tests must link a library with the sites in";
  // The vm.stall site sleeps past the watchdog budget; the launch must
  // come back classified as a timeout rather than wedging.
  support::FailPlan Plan;
  Plan.Probability = 1.0;
  Plan.StallMs = 50;
  Plan.Sites = {"vm.stall"};
  support::FailPoints::arm(Plan);
  DriverOptions Opts = smallOpts();
  Opts.WatchdogMs = 10;
  auto M = runBenchmark(
      compile("__kernel void ok(__global float* a, const int n) {\n"
              "  int i = get_global_id(0);\n"
              "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
              "}\n"),
      amdPlatform(), Opts);
  support::FailPoints::disarm();
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::WatchdogTimeout);
}

} // namespace
