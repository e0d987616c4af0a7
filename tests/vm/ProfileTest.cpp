//===- tests/vm/ProfileTest.cpp - VM opcode profiling tests -------------------===//
//
// Coverage for vm/Profile.h and the interpreter's pointer-gated
// profiling hooks: per-opcode counts agree with ExecCounters when
// work-group sampling is off, pairs never cross work-items, profiling
// never changes execution results, merges commute (the worker-count
// determinism argument), and the top-pair report is byte-stable.
//
//===----------------------------------------------------------------------===//

#include "vm/Profile.h"

#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::vm;

namespace {

CompiledKernel compile(const std::string &Src) {
  auto R = compileFirstKernel(Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.errorMessage());
  return R.ok() ? R.take() : CompiledKernel();
}

LaunchConfig config1D(size_t Global, size_t Local) {
  LaunchConfig C;
  C.GlobalSize[0] = Global;
  C.LocalSize[0] = Local;
  return C;
}

BufferData iota(size_t N) {
  BufferData B = BufferData::zeros(N, 1);
  for (size_t I = 0; I < N; ++I)
    B.Data[I] = static_cast<double>(I);
  return B;
}

const char *ScaleSrc = "__kernel void A(__global float* a, const int n) {\n"
                       "  int i = get_global_id(0);\n"
                       "  if (i < n) { a[i] = a[i] * 2.0f + 1.0f; }\n"
                       "}";

/// Runs ScaleSrc over \p Global items profiling into \p Prof; returns
/// the interpreter's ExecCounters.
ExecCounters runProfiled(size_t Global, size_t Local, OpcodeProfile *Prof) {
  CompiledKernel K = compile(ScaleSrc);
  std::vector<BufferData> Bufs = {iota(Global)};
  LaunchConfig C = config1D(Global, Local);
  C.Profile = Prof;
  auto R = launchKernel(
      K, {KernelArg::buffer(0), KernelArg::scalar(static_cast<int>(Global))},
      Bufs, C);
  EXPECT_TRUE(R.ok()) << R.errorMessage();
  return R.ok() ? R.get() : ExecCounters();
}

} // namespace

TEST(ProfileTest, CountsAgreeWithExecCounters) {
  // With every work-group simulated (no MaxWorkGroups sampling in
  // launchKernel), the profile's raw instruction total must equal the
  // interpreter's own count.
  OpcodeProfile P;
  ExecCounters C = runProfiled(64, 8, &P);
  EXPECT_GT(P.instructionTotal(), 0u);
  EXPECT_EQ(P.instructionTotal(), C.Instructions);
  EXPECT_EQ(P.branchTotal(),
            P.Count[static_cast<size_t>(Opcode::Jz)] +
                P.Count[static_cast<size_t>(Opcode::Jnz)]);
  EXPECT_EQ(P.Launches, 1u);
  // Every work-item halts exactly once.
  EXPECT_EQ(P.Count[static_cast<size_t>(Opcode::Halt)], 64u);
}

TEST(ProfileTest, PairsStayWithinWorkItems) {
  // Pair totals count transitions within a work-item, so each item
  // contributes (instructions - 1) pairs: the first instruction of
  // every item has no predecessor. 64 items ⇒ pair total is exactly
  // instructions - 64. A profiler that let pairs cross items would
  // count instructions - 1.
  OpcodeProfile P;
  runProfiled(64, 8, &P);
  uint64_t PairTotal = 0;
  for (size_t A = 0; A < NumOpcodes; ++A)
    for (size_t B = 0; B < NumOpcodes; ++B)
      PairTotal += P.Pair[A][B];
  EXPECT_EQ(PairTotal, P.instructionTotal() - 64);
  // Nothing follows Halt within an item.
  for (size_t B = 0; B < NumOpcodes; ++B)
    EXPECT_EQ(P.Pair[static_cast<size_t>(Opcode::Halt)][B], 0u);
}

TEST(ProfileTest, ProfilingDoesNotPerturbExecution) {
  CompiledKernel K = compile(ScaleSrc);
  std::vector<BufferData> Plain = {iota(32)}, Profiled = {iota(32)};
  LaunchConfig C = config1D(32, 8);
  auto R1 = launchKernel(K, {KernelArg::buffer(0), KernelArg::scalar(32)},
                         Plain, C);
  OpcodeProfile P;
  C.Profile = &P;
  auto R2 = launchKernel(K, {KernelArg::buffer(0), KernelArg::scalar(32)},
                         Profiled, C);
  ASSERT_TRUE(R1.ok() && R2.ok());
  EXPECT_EQ(Plain[0].Data, Profiled[0].Data);
  EXPECT_EQ(R1.get().Instructions, R2.get().Instructions);
}

TEST(ProfileTest, LaunchesAreDeterministic) {
  OpcodeProfile A, B;
  runProfiled(64, 8, &A);
  runProfiled(64, 8, &B);
  EXPECT_EQ(A.instructionTotal(), B.instructionTotal());
  for (size_t I = 0; I < NumOpcodes; ++I)
    EXPECT_EQ(A.Count[I], B.Count[I]) << opcodeName(static_cast<Opcode>(I));
}

TEST(ProfileTest, MergeCommutesAndAccumulates) {
  // The worker-count determinism argument: per-launch profiles merged
  // in any order give the same aggregate.
  OpcodeProfile A, B;
  runProfiled(16, 4, &A);
  runProfiled(64, 8, &B);
  OpcodeProfile AB, BA;
  AB.merge(A);
  AB.merge(B);
  BA.merge(B);
  BA.merge(A);
  EXPECT_EQ(AB.Launches, 2u);
  EXPECT_EQ(AB.instructionTotal(),
            A.instructionTotal() + B.instructionTotal());
  for (size_t I = 0; I < NumOpcodes; ++I)
    EXPECT_EQ(AB.Count[I], BA.Count[I]);
  for (size_t X = 0; X < NumOpcodes; ++X)
    for (size_t Y = 0; Y < NumOpcodes; ++Y)
      EXPECT_EQ(AB.Pair[X][Y], BA.Pair[X][Y]);
}

TEST(ProfileTest, SharedProfileAggregates) {
  SharedOpcodeProfile Shared;
  OpcodeProfile A, B;
  runProfiled(16, 4, &A);
  runProfiled(16, 4, &B);
  Shared.add(A);
  Shared.add(B);
  OpcodeProfile Total = Shared.snapshot();
  EXPECT_EQ(Total.Launches, 2u);
  EXPECT_EQ(Total.instructionTotal(), 2 * A.instructionTotal());
}

TEST(ProfileTest, TopPairsRankedAndBounded) {
  OpcodeProfile P;
  P.Pair[static_cast<size_t>(Opcode::LoadConst)]
       [static_cast<size_t>(Opcode::BinOp)] = 50;
  P.Pair[static_cast<size_t>(Opcode::BinOp)]
       [static_cast<size_t>(Opcode::StoreMem)] = 70;
  P.Pair[static_cast<size_t>(Opcode::Mov)]
       [static_cast<size_t>(Opcode::Mov)] = 70;
  auto Top = topPairs(P, 2);
  ASSERT_EQ(Top.size(), 2u);
  // Descending count; the 70/70 tie breaks on (First, Second) enum
  // order, and Mov precedes BinOp in the opcode enum or not — either
  // way the order is fixed, so assert it exactly.
  EXPECT_EQ(Top[0].Count, 70u);
  EXPECT_EQ(Top[1].Count, 70u);
  bool MovFirst = static_cast<size_t>(Opcode::Mov) <
                   static_cast<size_t>(Opcode::BinOp);
  EXPECT_EQ(Top[0].First, MovFirst ? Opcode::Mov : Opcode::BinOp);
  auto All = topPairs(P, 100);
  EXPECT_EQ(All.size(), 3u) << "zero-count pairs must not be returned";
}

TEST(ProfileTest, ReportIsByteStable) {
  OpcodeProfile P;
  runProfiled(64, 8, &P);
  std::string R1 = formatOpcodeReport(P, 5);
  std::string R2 = formatOpcodeReport(P, 5);
  EXPECT_EQ(R1, R2);
  EXPECT_NE(R1.find("vm profile:"), std::string::npos) << R1;
  EXPECT_NE(R1.find("top opcodes:"), std::string::npos);
  EXPECT_NE(R1.find("top opcode pairs:"), std::string::npos);
  EXPECT_NE(R1.find("ldc"), std::string::npos)
      << "mnemonics come from opcodeName(): " << R1;
}

TEST(ProfileTest, ProfiledLaunchMatchesUnprofiled) {
  // A profiled launch runs the portable switch build of the execution
  // loop, which holds the profile hook; an unprofiled launch on GCC/Clang
  // runs the computed-goto build. Both must leave the same buffer bytes
  // and report the same counters or the same trap. The kernels cover a
  // divergent guard, barrier phases (which interleave work-items) and an
  // out-of-bounds trap part-way through the NDRange.
  const char *Kernels[] = {
      ScaleSrc,
      "__kernel void A(__global float* a, const int n) {\n"
      "  __local float tmp[8];\n"
      "  int l = get_local_id(0);\n"
      "  tmp[l] = a[get_global_id(0)] * n;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  a[get_global_id(0)] = tmp[7 - l];\n"
      "}",
      "__kernel void A(__global float* a, const int n) {\n"
      "  a[get_global_id(0) + n] = 1.0f;\n"
      "}",
  };
  for (const char *Src : Kernels) {
    SCOPED_TRACE(Src);
    CompiledKernel K = compile(Src);
    std::vector<KernelArg> Args = {KernelArg::buffer(0),
                                   KernelArg::scalar(48)};
    std::vector<BufferData> Plain = {iota(64)}, Profiled = {iota(64)};
    LaunchConfig C = config1D(64, 8);
    auto R1 = launchKernel(K, Args, Plain, C);
    OpcodeProfile P;
    C.Profile = &P;
    auto R2 = launchKernel(K, Args, Profiled, C);
    EXPECT_EQ(Plain[0].Data, Profiled[0].Data);
    ASSERT_EQ(R1.ok(), R2.ok());
    EXPECT_EQ(R1.trap(), R2.trap());
    EXPECT_GT(P.instructionTotal(), 0u);
    if (!R1.ok()) {
      EXPECT_EQ(R1.errorMessage(), R2.errorMessage());
      continue;
    }
    const ExecCounters &A = R1.get(), &B = R2.get();
    EXPECT_EQ(A.Instructions, B.Instructions);
    EXPECT_EQ(A.ComputeOps, B.ComputeOps);
    EXPECT_EQ(A.MathCalls, B.MathCalls);
    EXPECT_EQ(A.GlobalLoads, B.GlobalLoads);
    EXPECT_EQ(A.GlobalStores, B.GlobalStores);
    EXPECT_EQ(A.CoalescedGlobal, B.CoalescedGlobal);
    EXPECT_EQ(A.LocalAccesses, B.LocalAccesses);
    EXPECT_EQ(A.PrivateAccesses, B.PrivateAccesses);
    EXPECT_EQ(A.Branches, B.Branches);
    EXPECT_EQ(A.AtomicOps, B.AtomicOps);
    EXPECT_EQ(A.Barriers, B.Barriers);
    EXPECT_EQ(A.ItemsTotal, B.ItemsTotal);
    EXPECT_EQ(A.ItemsExecuted, B.ItemsExecuted);
    EXPECT_EQ(A.Divergence, B.Divergence);
    EXPECT_EQ(P.instructionTotal(), B.Instructions);
  }
}

TEST(ProfileTest, EmptyProfileReport) {
  OpcodeProfile P;
  std::string R = formatOpcodeReport(P, 5);
  EXPECT_NE(R.find("vm profile: 0 instructions"), std::string::npos) << R;
}
