//===- tests/vm/DispatchParityTest.cpp - VM verdicts vs the reference -----===//
//
// The VM's one execution loop against the verdicts of the reference
// switch loop it replaced. Every expectation below was recorded by
// running the kernel through that reference loop: the ok flag, the
// TrapKind and detail string, every ExecCounters field, and an FNV-1a
// digest of each buffer after the launch. Both instantiations of the
// loop must reproduce them exactly, so every case launches twice: once
// plain, which runs the computed-goto loop on GCC and Clang, and once
// with an OpcodeProfile attached, which runs the portable switch loop
// that carries the profile hook. Coverage: a
// catalog of well-formed kernels over randomized payloads, vector,
// local-memory and atomic kernels, one kernel per trap class, and the
// launch-time Aux-range validation.
//
//===----------------------------------------------------------------------===//

#include "store/Archive.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"
#include "vm/Profile.h"

#include <gtest/gtest.h>

#include <cstdint>
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

/// Deterministic pseudo-random payload (xorshift; no global RNG state so
/// every run replays the identical bytes).
BufferData randomBuffer(size_t Elements, uint8_t ElemWidth, uint64_t Seed) {
  BufferData B = BufferData::zeros(Elements, ElemWidth);
  uint64_t S = Seed * 2654435769u + 1;
  for (double &D : B.Data) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    // Small integral doubles: valid as float data, as int data and as
    // in-range indices alike.
    D = static_cast<double>(S % 64);
  }
  return B;
}

/// What the reference loop reported for one launch.
struct Verdict {
  bool Ok;
  TrapKind Trap;
  const char *Detail;
  /// ExecCounters of a successful launch, Instructions through
  /// ItemsExecuted in declaration order; a failed launch returns none.
  uint64_t Counts[13];
  double Divergence;
  /// fnv1a64 over each buffer's bytes after the launch.
  std::vector<uint64_t> Digests;
};

const char *const CounterNames[13] = {
    "Instructions",    "ComputeOps",    "MathCalls",  "GlobalLoads",
    "GlobalStores",    "CoalescedGlobal", "LocalAccesses",
    "PrivateAccesses", "Branches",      "AtomicOps",  "Barriers",
    "ItemsTotal",      "ItemsExecuted"};

/// The two ways every case launches: unprofiled (the computed-goto
/// loop where the compiler has it) and profiled (the switch loop).
const bool ProfiledModes[] = {false, true};

const char *loopName(bool Profiled) {
  return Profiled ? "profiled launch (switch loop)" : "unprofiled launch";
}

/// Launches \p K on a fresh copy of \p Input in each mode and checks
/// everything observable against \p Want.
void expectVerdict(const CompiledKernel &K, const std::vector<KernelArg> &Args,
                   const std::vector<BufferData> &Input,
                   const LaunchConfig &Config, const Verdict &Want) {
  for (bool Profiled : ProfiledModes) {
    SCOPED_TRACE(loopName(Profiled));
    std::vector<BufferData> Bufs = Input;
    OpcodeProfile Profile;
    LaunchConfig C = Config;
    C.Profile = Profiled ? &Profile : nullptr;
    auto R = launchKernel(K, Args, Bufs, C);
    EXPECT_EQ(R.ok(), Want.Ok) << (R.ok() ? "" : R.errorMessage());
    EXPECT_EQ(R.trap(), Want.Trap)
        << trapKindName(R.trap()) << " vs " << trapKindName(Want.Trap);
    EXPECT_EQ(R.ok() ? std::string() : R.errorMessage(), Want.Detail);
    if (R.ok() && Want.Ok) {
      const ExecCounters &E = R.get();
      const uint64_t Got[13] = {
          E.Instructions,  E.ComputeOps,      E.MathCalls,  E.GlobalLoads,
          E.GlobalStores,  E.CoalescedGlobal, E.LocalAccesses,
          E.PrivateAccesses, E.Branches,      E.AtomicOps,  E.Barriers,
          E.ItemsTotal,    E.ItemsExecuted};
      for (size_t I = 0; I < 13; ++I)
        EXPECT_EQ(Got[I], Want.Counts[I]) << CounterNames[I];
      EXPECT_EQ(E.Divergence, Want.Divergence);
      if (Profiled) {
        EXPECT_GT(Profile.instructionTotal(), 0u)
            << "the profiled launch did not run the profiling loop";
      }
    }
    ASSERT_EQ(Bufs.size(), Want.Digests.size());
    for (size_t I = 0; I < Bufs.size(); ++I)
      EXPECT_EQ(store::fnv1a64(Bufs[I].Data.data(),
                               Bufs[I].Data.size() * sizeof(double)),
                Want.Digests[I])
          << "buffer " << I;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Successful launches: counters and buffer bytes.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, KernelCatalog) {
  // Each entry leans on the opcode sequences the synthesized workload
  // executes most: constant-operand arithmetic and stores (scale),
  // load chains (stencil), compare-branches (guards, loops), expression
  // trees and loop latches, casts and builtin calls, and divergent
  // control flow whose per-site branch stats feed Divergence.
  const char *Catalog[] = {
      "__kernel void A(__global float* a) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] * 2.0f + 1.0f;\n"
      "}",
      "__kernel void A(__global float* x, __global float* y, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { y[i] = y[i] + 3.0f * x[i]; }\n"
      "}",
      "__kernel void A(__global float* a, __global float* o, const int n) {\n"
      "  float s = 0.0f;\n"
      "  int parity = 0;\n"
      "  for (int i = 0; i < n; i++) { s += a[i]; parity = (parity + i) % 7; }\n"
      "  o[get_global_id(0)] = s + parity;\n"
      "}",
      "__kernel void A(__global float* a) {\n"
      "  int i = get_global_id(0);\n"
      "  float v = a[i];\n"
      "  a[i] = sqrt(fabs(v)) + (float)max((int)v, 3);\n"
      "}",
      "__kernel void A(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i % 3 == 0) { a[i] = a[i] * 2.0f; }\n"
      "  else if (i % 3 == 1) { a[i] = a[i] - 5.0f; }\n"
      "  else { a[i] = (float)(n - i); }\n"
      "}",
  };
  // Indexed [kernel][seed - 1].
  const Verdict Want[5][3] = {
      {{true, TrapKind::None, "",
        {384, 96, 0, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0x24e5903d0bc641feull}},
       {true, TrapKind::None, "",
        {384, 96, 0, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0x7ba0528ba44f44e8ull}},
       {true, TrapKind::None, "",
        {384, 96, 0, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0xee1c85cbfadf6612ull}}},
      {{true, TrapKind::None, "",
        {352, 96, 0, 32, 16, 48, 0, 0, 32, 0, 0, 32, 32},
        0, {0x1393ec08d69cd8e2ull, 0x3d52174d791ca7f9ull}},
       {true, TrapKind::None, "",
        {352, 96, 0, 32, 16, 48, 0, 0, 32, 0, 0, 32, 32},
        0, {0xa11da36c505ab38dull, 0xd056002fbd73cdf3ull}},
       {true, TrapKind::None, "",
        {352, 96, 0, 32, 16, 48, 0, 0, 32, 0, 0, 32, 32},
        0, {0x76ba19cf0cc1c493ull, 0x7b0d3a60694f0c83ull}}},
      {{true, TrapKind::None, "",
        {7616, 2624, 0, 512, 32, 32, 0, 0, 544, 0, 0, 32, 32},
        0.11764705882352941, {0x1393ec08d69cd8e2ull, 0x40766e0b48070aa8ull}},
       {true, TrapKind::None, "",
        {7616, 2624, 0, 512, 32, 32, 0, 0, 544, 0, 0, 32, 32},
        0.11764705882352941, {0xa11da36c505ab38dull, 0x0988631e7654fe5bull}},
       {true, TrapKind::None, "",
        {7616, 2624, 0, 512, 32, 32, 0, 0, 544, 0, 0, 32, 32},
        0.11764705882352941, {0x76ba19cf0cc1c493ull, 0xafd0c9d9357a98a1ull}}},
      {{true, TrapKind::None, "",
        {512, 224, 96, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0xfa5e5b36d12386a2ull}},
       {true, TrapKind::None, "",
        {512, 224, 96, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0x9e957c6bbf1c56ebull}},
       {true, TrapKind::None, "",
        {512, 224, 96, 32, 32, 64, 0, 0, 0, 0, 0, 32, 32},
        0, {0x4c7c7c7e21cd3c2aull}}},
      {{true, TrapKind::None, "",
        {597, 180, 0, 22, 32, 54, 0, 0, 53, 0, 0, 32, 32},
        0.75471698113207553, {0xf00110e2975c5eceull}},
       {true, TrapKind::None, "",
        {597, 180, 0, 22, 32, 54, 0, 0, 53, 0, 0, 32, 32},
        0.75471698113207553, {0xec1f6e5d98f1135full}},
       {true, TrapKind::None, "",
        {597, 180, 0, 22, 32, 54, 0, 0, 53, 0, 0, 32, 32},
        0.75471698113207553, {0x5ddeb0b9b2dd3175ull}}},
  };
  for (size_t KI = 0; KI < 5; ++KI) {
    SCOPED_TRACE("catalog kernel " + std::to_string(KI));
    CompiledKernel K = compile(Catalog[KI]);
    size_t NumBufs = K.bufferParamCount();
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      std::vector<BufferData> Bufs;
      std::vector<KernelArg> Args;
      for (size_t B = 0; B < NumBufs; ++B) {
        Bufs.push_back(randomBuffer(64, 1, Seed * 17 + B));
        Args.push_back(KernelArg::buffer(static_cast<int>(B)));
      }
      if (K.Params.size() > NumBufs)
        Args.push_back(KernelArg::scalar(16));
      expectVerdict(K, Args, Bufs, config1D(32, 8), Want[KI][Seed - 1]);
    }
  }
}

TEST(DispatchParityTest, VectorLocalAndAtomicKernels) {
  // Vector lanes, __local + barrier phases and atomics all bypass the
  // scalar fast paths of the loop.
  CompiledKernel Vec = compile(
      "__kernel void A(__global float4* a) {\n"
      "  int i = get_global_id(0);\n"
      "  float4 v = a[i];\n"
      "  a[i] = v.wzyx * 2.0f;\n"
      "}");
  expectVerdict(Vec, {KernelArg::buffer(0)}, {randomBuffer(16, 4, 5)},
                config1D(16, 4),
                {true, TrapKind::None, "",
                 {208, 32, 0, 16, 16, 32, 0, 0, 0, 0, 0, 16, 16},
                 0, {0x5f092db202aa0e58ull}});

  CompiledKernel Loc = compile(
      "__kernel void A(__global float* a, __local float* tmp) {\n"
      "  int l = get_local_id(0);\n"
      "  int i = get_global_id(0);\n"
      "  tmp[l] = a[i];\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  a[i] = tmp[get_local_size(0) - 1 - l];\n"
      "}");
  expectVerdict(Loc, {KernelArg::buffer(0), KernelArg::localSize(8)},
                {randomBuffer(32, 1, 6)}, config1D(32, 8),
                {true, TrapKind::None, "",
                 {640, 128, 0, 32, 32, 64, 64, 0, 0, 0, 32, 32, 32},
                 0, {0x60b461b31fb70315ull}});

  CompiledKernel Hist = compile(
      "__kernel void A(__global int* hist, __global int* data) {\n"
      "  atomic_add(&hist[data[get_global_id(0)] % 8], 1);\n"
      "}");
  expectVerdict(Hist, {KernelArg::buffer(0), KernelArg::buffer(1)},
                {BufferData::zeros(8, 1), randomBuffer(32, 1, 7)},
                config1D(32, 8),
                {true, TrapKind::None, "",
                 {320, 64, 0, 32, 0, 32, 0, 0, 0, 32, 0, 32, 32},
                 0, {0xa9af8d0404192fa5ull, 0x893873ddd282fe70ull}});
}

//===----------------------------------------------------------------------===//
// Trap classes: the same TrapKind and detail string, and the same bytes
// left behind in the buffers.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, OutOfBoundsTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  a[get_global_id(0) + 100] = 1.0f;\n"
      "}");
  expectVerdict(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
                config1D(4, 4),
                {false, TrapKind::OutOfBounds,
                 "out-of-bounds global access (index 100 of 4 elements)", {}, 0,
                 {0x68d107204cc51ab8ull}});
}

TEST(DispatchParityTest, DivByZeroTrapParity) {
  // The divisor arrives via buffer data, so the DivI handler (not the
  // compiler) must raise the trap.
  CompiledKernel K = compile(
      "__kernel void A(__global int* a, __global int* d) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] / d[i];\n"
      "}");
  LaunchConfig C = config1D(4, 4);
  C.TrapDivZero = true;
  expectVerdict(K, {KernelArg::buffer(0), KernelArg::buffer(1)},
                {randomBuffer(4, 1, 2), BufferData::zeros(4, 1)}, C,
                {false, TrapKind::DivByZero,
                 "integer division by zero", {}, 0,
                 {0xcbb639d4a828704cull, 0x0c8210784d8af5a5ull}});

  // Without strict trapping the result is the OpenCL-style silent zero.
  C.TrapDivZero = false;
  expectVerdict(K, {KernelArg::buffer(0), KernelArg::buffer(1)},
                {randomBuffer(4, 1, 2), BufferData::zeros(4, 1)}, C,
                {true, TrapKind::None, "",
                 {40, 8, 0, 8, 4, 12, 0, 0, 0, 0, 0, 4, 4},
                 0, {0x0c8210784d8af5a5ull, 0x0c8210784d8af5a5ull}});
}

TEST(DispatchParityTest, InstructionBudgetTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  while (1) { a[0] = a[0] + 1.0f; }\n"
      "}");
  LaunchConfig C = config1D(1, 1);
  C.MaxInstructions = 9999;
  // The buffer digest pins how many loop iterations retired before the
  // budget trap.
  expectVerdict(K, {KernelArg::buffer(0)}, {randomBuffer(1, 1, 3)}, C,
                {false, TrapKind::InstructionBudget,
                 "kernel exceeded instruction budget (timeout)", {}, 0,
                 {0x27d90833019f1fcbull}});
}

TEST(DispatchParityTest, BarrierDivergenceTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  if (get_local_id(0) < 2) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
      "  a[get_global_id(0)] = 1.0f;\n"
      "}");
  expectVerdict(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 4)},
                config1D(4, 4),
                {false, TrapKind::BarrierDivergence,
                 "barrier divergence: not all work-items reached the "
                 "barrier",
                 {}, 0,
                 {0x65be43290a2dbfe1ull}});
}

TEST(DispatchParityTest, BadLaunchTrapParity) {
  // Argument-count mismatch fails before execution.
  CompiledKernel K = compile(
      "__kernel void A(__global float* a, int n) { a[0] = n; }");
  expectVerdict(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
                config1D(1, 1),
                {false, TrapKind::BadLaunch,
                 "kernel 'A' expects 2 arguments, got 1", {}, 0,
                 {0x68d107204cc51ab8ull}});
}

TEST(DispatchParityTest, WatchdogTrapParity) {
  // Wall-clock watchdog: the instruction count at abort is timing-
  // dependent, so only the classification is asserted, not counters or
  // buffer bytes.
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  while (1) { a[0] = a[0] + 1.0f; }\n"
      "}");
  for (bool Profiled : ProfiledModes) {
    SCOPED_TRACE(loopName(Profiled));
    OpcodeProfile Profile;
    LaunchConfig C = config1D(1, 1);
    C.WatchdogMs = 20;
    C.MaxInstructions = ~0ull;
    C.Profile = Profiled ? &Profile : nullptr;
    std::vector<BufferData> Bufs = {randomBuffer(1, 1, 1)};
    auto R = launchKernel(K, {KernelArg::buffer(0)}, Bufs, C);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.trap(), TrapKind::WatchdogTimeout)
        << trapKindName(R.trap()) << ": " << R.errorMessage();
  }
}

//===----------------------------------------------------------------------===//
// Launch-time enum-range validation (the BadLaunch firewall in front of
// the computed-goto table).
//===----------------------------------------------------------------------===//

namespace {

/// A structurally minimal kernel around one instruction with a
/// poisoned enum payload. Never produced by the compiler; models a
/// corrupted or adversarial CompiledKernel arriving at launchKernel.
CompiledKernel poisonedKernel(Opcode Op, uint8_t Aux) {
  CompiledKernel K;
  K.Name = "poisoned";
  K.RegisterCount = 2;
  Instr I;
  I.Op = Op;
  I.Aux = Aux;
  I.Dst = 0;
  I.A = 0;
  I.B = 1;
  K.Code.push_back(I);
  Instr H;
  H.Op = Opcode::Halt;
  K.Code.push_back(H);
  return K;
}

} // namespace

TEST(DispatchParityTest, OutOfRangeAuxIsBadLaunchInEveryMode) {
  // An Aux beyond the enum range must be rejected by launch-time
  // verification as TrapKind::BadLaunch before either loop runs.
  // prepareExecProgram specializes BinOp handlers by adding Aux to
  // ExtOp::BinAdd, so an unvalidated Aux of 200 would index the
  // label-address table out of range — undefined behavior, not a
  // diagnostic.
  struct {
    Opcode Op;
    uint8_t Aux;
    Verdict Want;
  } Cases[] = {
      {Opcode::BinOp, 200, // > MaxI
       {false, TrapKind::BadLaunch,
        "malformed kernel bytecode: instr 0 (bin): binop aux out of range",
        {}, 0, {}}},
      {Opcode::BinOp, static_cast<uint8_t>(VmBinOp::MaxI) + 1, // first bad
       {false, TrapKind::BadLaunch,
        "malformed kernel bytecode: instr 0 (bin): binop aux out of range",
        {}, 0, {}}},
      {Opcode::UnOp, 17, // > LogicNot
       {false, TrapKind::BadLaunch,
        "malformed kernel bytecode: instr 0 (un): unop aux out of range",
        {}, 0, {}}},
      {Opcode::LoadMem, 9, // bad MemSpace
       {false, TrapKind::BadLaunch,
        "malformed kernel bytecode: instr 0 (ld): address space out of range",
        {}, 0, {}}},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE("Aux " + std::to_string(Case.Aux));
    CompiledKernel K = poisonedKernel(Case.Op, Case.Aux);
    if (Case.Op == Opcode::LoadMem)
      K.Code[0].Space = static_cast<MemSpace>(Case.Aux);
    expectVerdict(K, {}, {}, config1D(1, 1), Case.Want);
  }
  // Control: the largest in-range Aux is not rejected as BadLaunch.
  CompiledKernel K = poisonedKernel(Opcode::BinOp,
                                    static_cast<uint8_t>(VmBinOp::MaxI));
  expectVerdict(K, {}, {}, config1D(1, 1),
                {true, TrapKind::None, "",
                 {2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
                 0, {}});
}

TEST(DispatchParityTest, ExecProgramMapsOnePcPerSlot) {
  // The execution form keeps one slot per bytecode pc plus a trailing
  // Halt sentinel, and numbers branch sites as the compiler does.
  CompiledKernel K = compile(
      "__kernel void A(__global float* a, const int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) { s = s * 0.5f + a[i % 4]; }\n"
      "  a[get_global_id(0)] = s;\n"
      "}");
  ExecProgram P;
  prepareExecProgram(K, P);
  ASSERT_EQ(P.Code.size(), K.Code.size() + 1);
  EXPECT_EQ(static_cast<ExtOp>(P.Code.back().Ext), ExtOp::Halt);
  EXPECT_EQ(P.BranchSiteCount, K.BranchSites);
  for (size_t Pc = 0; Pc < K.Code.size(); ++Pc)
    EXPECT_EQ(P.Code[Pc].I.Op, K.Code[Pc].Op) << "pc " << Pc;
}
