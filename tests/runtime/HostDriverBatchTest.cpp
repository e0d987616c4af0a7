//===- tests/runtime/HostDriverBatchTest.cpp - batched driver tests ----------===//

#include "runtime/HostDriver.h"

#include "vm/Compiler.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::runtime;

namespace {

std::vector<vm::CompiledKernel> sampleBatch() {
  const char *Sources[] = {
      "__kernel void a(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] * 2.0f + 1.0f; }\n"
      "}\n",
      "__kernel void b(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] + 3.0f; }\n"
      "}\n",
      "__kernel void c(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] * x[i]; }\n"
      "}\n",
  };
  std::vector<vm::CompiledKernel> Kernels;
  for (const char *S : Sources)
    Kernels.push_back(vm::compileFirstKernel(S).take());
  return Kernels;
}

} // namespace

TEST(HostDriverBatchTest, MeasuresEveryKernel) {
  auto Kernels = sampleBatch();
  DriverOptions Opts;
  Opts.GlobalSize = 1024;
  auto Results = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 2);
  ASSERT_EQ(Results.size(), Kernels.size());
  for (const auto &R : Results) {
    ASSERT_TRUE(R.ok()) << R.errorMessage();
    EXPECT_GT(R.get().Counters.Instructions, 0u);
    EXPECT_GT(R.get().CpuTime, 0.0);
  }
}

TEST(HostDriverBatchTest, DeterministicAcrossWorkerCounts) {
  auto Kernels = sampleBatch();
  DriverOptions Opts;
  Opts.GlobalSize = 512;
  auto Serial = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 1);
  auto Parallel = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    ASSERT_TRUE(Serial[I].ok());
    ASSERT_TRUE(Parallel[I].ok());
    EXPECT_EQ(Serial[I].get().Counters.Instructions,
              Parallel[I].get().Counters.Instructions);
    EXPECT_DOUBLE_EQ(Serial[I].get().CpuTime, Parallel[I].get().CpuTime);
    EXPECT_DOUBLE_EQ(Serial[I].get().GpuTime, Parallel[I].get().GpuTime);
  }
}
