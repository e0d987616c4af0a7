//===- tests/vm/DispatchParityTest.cpp - VM verdicts vs the reference -----===//
//
// The VM's execution loop against recorded verdicts: the ok flag, the
// TrapKind and detail string, every ExecCounters field, and an FNV-1a
// digest of each buffer after the launch. The verdicts were recorded
// with the portable switch loop the computed-goto loop replaced; the
// handler cases' verdicts with both loops, which agreed. The handler
// cases also check every output value against the same operation
// computed in C++. Coverage: a catalog of well-formed kernels over
// randomized payloads, vector, local-memory and atomic kernels, a case
// for every handler the others miss (CasesReachEveryHandler keeps all
// of them reached), one kernel per trap class, and the launch-time
// Aux-range validation.
//
//===----------------------------------------------------------------------===//

#include "store/Archive.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <cmath>
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

//===----------------------------------------------------------------------===//
// The kernels the cases launch. CasesReachEveryHandler compiles every
// one of them, so a new kernel must be added to its list too.
//===----------------------------------------------------------------------===//

/// Each entry leans on the opcode sequences the synthesized workload
/// executes most: constant-operand arithmetic and stores (scale), load
/// chains (stencil), compare-branches (guards, loops), expression trees
/// and loop latches, casts and builtin calls, and divergent control flow
/// whose per-site branch stats feed Divergence.
const char *const CatalogKernels[] = {
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

const char *const VectorSwizzleKernel =
    "__kernel void A(__global float4* a) {\n"
    "  int i = get_global_id(0);\n"
    "  float4 v = a[i];\n"
    "  a[i] = v.wzyx * 2.0f;\n"
    "}";

const char *const LocalReverseKernel =
    "__kernel void A(__global float* a, __local float* tmp) {\n"
    "  int l = get_local_id(0);\n"
    "  int i = get_global_id(0);\n"
    "  tmp[l] = a[i];\n"
    "  barrier(CLK_LOCAL_MEM_FENCE);\n"
    "  a[i] = tmp[get_local_size(0) - 1 - l];\n"
    "}";

const char *const HistogramKernel =
    "__kernel void A(__global int* hist, __global int* data) {\n"
    "  atomic_add(&hist[data[get_global_id(0)] % 8], 1);\n"
    "}";

/// Shifts, bitwise operators, the comparisons the catalog lacks and all
/// three unary operators, one output element each.
const char *const IntegerOperatorsKernel =
    "__kernel void A(__global int* a, __global int* b, __global int* o) {\n"
    "  int i = get_global_id(0);\n"
    "  int x = a[i];\n"
    "  int y = b[i];\n"
    "  o[12 * i] = x << (y & 7);\n"
    "  o[12 * i + 1] = x >> (y & 3);\n"
    "  o[12 * i + 2] = x & y;\n"
    "  o[12 * i + 3] = x | y;\n"
    "  o[12 * i + 4] = x ^ y;\n"
    "  o[12 * i + 5] = x <= y;\n"
    "  o[12 * i + 6] = x > y;\n"
    "  o[12 * i + 7] = x >= y;\n"
    "  o[12 * i + 8] = x != y;\n"
    "  o[12 * i + 9] = -x;\n"
    "  o[12 * i + 10] = ~x;\n"
    "  o[12 * i + 11] = !x;\n"
    "}";

/// Float division, and float remainder, which the compiler emits only
/// for a compound `%=` (Sema rejects a plain float `%`).
const char *const FloatDivisionKernel =
    "__kernel void A(__global float* a, __global float* b, __global float* o) {\n"
    "  int i = get_global_id(0);\n"
    "  float x = a[i];\n"
    "  float y = b[i] + 1.0f;\n"
    "  float r = x;\n"
    "  r %= y;\n"
    "  o[2 * i] = x / y;\n"
    "  o[2 * i + 1] = r;\n"
    "}";

/// vload4/vstore4, a vector literal and a lane assignment.
const char *const VectorBuildKernel =
    "__kernel void A(__global float* a, __global float* o) {\n"
    "  int i = get_global_id(0);\n"
    "  float4 v = vload4(i, a);\n"
    "  float4 w = (float4)(v.y, v.x, v.w, v.z);\n"
    "  w.x = v.x + v.y;\n"
    "  vstore4(w, i, o);\n"
    "}";

/// Vector && and || lower to lane-wise min and max of the normalized
/// operands.
const char *const VectorLogicKernel =
    "__kernel void A(__global int* a, __global int* b, __global int* o) {\n"
    "  int i = get_global_id(0);\n"
    "  int4 p = vload4(i, a);\n"
    "  int4 q = vload4(i, b);\n"
    "  vstore4(p && q, 2 * i, o);\n"
    "  vstore4(p || q, 2 * i + 1, o);\n"
    "}";

/// A do-while latch and a scalar || both branch with Jnz.
const char *const DoWhileKernel =
    "__kernel void A(__global int* a, __global int* o) {\n"
    "  int i = get_global_id(0);\n"
    "  int x = a[i];\n"
    "  int n = 0;\n"
    "  do { n = n + 1; x = x / 2; } while (x > 3 || n < 2);\n"
    "  o[i] = n;\n"
    "}";

const char *const OutOfBoundsKernel =
    "__kernel void A(__global float* a) {\n"
    "  a[get_global_id(0) + 100] = 1.0f;\n"
    "}";

const char *const IntDivisionKernel =
    "__kernel void A(__global int* a, __global int* d) {\n"
    "  int i = get_global_id(0);\n"
    "  a[i] = a[i] / d[i];\n"
    "}";

const char *const SpinKernel =
    "__kernel void A(__global float* a) {\n"
    "  while (1) { a[0] = a[0] + 1.0f; }\n"
    "}";

const char *const DivergentBarrierKernel =
    "__kernel void A(__global float* a) {\n"
    "  if (get_local_id(0) < 2) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
    "  a[get_global_id(0)] = 1.0f;\n"
    "}";

const char *const TwoParamKernel =
    "__kernel void A(__global float* a, int n) { a[0] = n; }";

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

/// Launches \p K on a copy of \p Input and checks everything
/// observable against \p Want. Returns the buffers as the launch left
/// them.
std::vector<BufferData> expectVerdict(const CompiledKernel &K,
                                      const std::vector<KernelArg> &Args,
                                      const std::vector<BufferData> &Input,
                                      const LaunchConfig &Config,
                                      const Verdict &Want) {
  std::vector<BufferData> Bufs = Input;
  auto R = launchKernel(K, Args, Bufs, Config);
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
  }
  EXPECT_EQ(Bufs.size(), Want.Digests.size());
  for (size_t I = 0; I < Bufs.size() && I < Want.Digests.size(); ++I)
    EXPECT_EQ(store::fnv1a64(Bufs[I].Data.data(),
                             Bufs[I].Data.size() * sizeof(double)),
              Want.Digests[I])
        << "buffer " << I;
  return Bufs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Successful launches: counters and buffer bytes.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, KernelCatalog) {
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
    CompiledKernel K = compile(CatalogKernels[KI]);
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
  CompiledKernel Vec = compile(VectorSwizzleKernel);
  expectVerdict(Vec, {KernelArg::buffer(0)}, {randomBuffer(16, 4, 5)},
                config1D(16, 4),
                {true, TrapKind::None, "",
                 {208, 32, 0, 16, 16, 32, 0, 0, 0, 0, 0, 16, 16},
                 0, {0x5f092db202aa0e58ull}});

  CompiledKernel Loc = compile(LocalReverseKernel);
  expectVerdict(Loc, {KernelArg::buffer(0), KernelArg::localSize(8)},
                {randomBuffer(32, 1, 6)}, config1D(32, 8),
                {true, TrapKind::None, "",
                 {640, 128, 0, 32, 32, 64, 64, 0, 0, 0, 32, 32, 32},
                 0, {0x60b461b31fb70315ull}});

  CompiledKernel Hist = compile(HistogramKernel);
  expectVerdict(Hist, {KernelArg::buffer(0), KernelArg::buffer(1)},
                {BufferData::zeros(8, 1), randomBuffer(32, 1, 7)},
                config1D(32, 8),
                {true, TrapKind::None, "",
                 {320, 64, 0, 32, 0, 32, 0, 0, 0, 32, 0, 32, 32},
                 0, {0xa9af8d0404192fa5ull, 0x893873ddd282fe70ull}});
}

//===----------------------------------------------------------------------===//
// The handlers the kernels above miss: verdicts, and every output value
// against the same operation computed here.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, IntegerOperatorHandlers) {
  CompiledKernel K = compile(IntegerOperatorsKernel);
  std::vector<BufferData> In = {randomBuffer(16, 1, 8), randomBuffer(16, 1, 9),
                                BufferData::zeros(16 * 12, 1)};
  In[0].Data[0] = 0.0;          // !x of zero.
  In[1].Data[1] = In[0].Data[1]; // x == y.
  std::vector<BufferData> Out = expectVerdict(
      K, {KernelArg::buffer(0), KernelArg::buffer(1), KernelArg::buffer(2)},
      In, config1D(16, 4), {true, TrapKind::None, "",
                    {1344, 608, 0, 32, 192, 32, 0, 0, 0, 0, 0, 16, 16},
                    0,
                    {0x259ead937a0611d7ull, 0xd771e44ff8c2b6ebull,
                     0x508ab0d5d932c8e6ull}});
  ASSERT_EQ(Out.size(), 3u);
  for (size_t I = 0; I < 16; ++I) {
    const int64_t X = static_cast<int64_t>(In[0].Data[I]);
    const int64_t Y = static_cast<int64_t>(In[1].Data[I]);
    const int64_t Want[12] = {X << (Y & 7), X >> (Y & 3), X & Y,  X | Y,
                              X ^ Y,        X <= Y,       X > Y,  X >= Y,
                              X != Y,       -X,           ~X,     X == 0};
    for (size_t J = 0; J < 12; ++J)
      EXPECT_EQ(Out[2].Data[12 * I + J], static_cast<double>(Want[J]))
          << "item " << I << ", output " << J;
  }
}

TEST(DispatchParityTest, FloatDivisionHandlers) {
  CompiledKernel K = compile(FloatDivisionKernel);
  std::vector<BufferData> In = {randomBuffer(16, 1, 10),
                                randomBuffer(16, 1, 11),
                                BufferData::zeros(16 * 2, 1)};
  std::vector<BufferData> Out = expectVerdict(
      K, {KernelArg::buffer(0), KernelArg::buffer(1), KernelArg::buffer(2)},
      In, config1D(16, 4), {true, TrapKind::None, "",
                    {384, 112, 0, 32, 32, 32, 0, 0, 0, 0, 0, 16, 16},
                    0,
                    {0xc497059afa22616bull, 0x1a204bfc66858309ull,
                     0xda2075fc24f08642ull}});
  ASSERT_EQ(Out.size(), 3u);
  for (size_t I = 0; I < 16; ++I) {
    const double X = In[0].Data[I];
    const double Y = In[1].Data[I] + 1.0;
    EXPECT_EQ(Out[2].Data[2 * I], X / Y) << "item " << I;
    EXPECT_EQ(Out[2].Data[2 * I + 1], std::fmod(X, Y)) << "item " << I;
  }
}

TEST(DispatchParityTest, VectorBuildAndLaneHandlers) {
  CompiledKernel Build = compile(VectorBuildKernel);
  std::vector<BufferData> In = {randomBuffer(32, 1, 12),
                                BufferData::zeros(32, 1)};
  std::vector<BufferData> Out =
      expectVerdict(Build, {KernelArg::buffer(0), KernelArg::buffer(1)}, In,
                    config1D(8, 4), {true, TrapKind::None, "",
                     {184, 32, 0, 8, 8, 16, 0, 0, 0, 0, 0, 8, 8},
                     0, {0x19a2564705821176ull, 0xbc39e615649bfba6ull}});
  ASSERT_EQ(Out.size(), 2u);
  for (size_t I = 0; I < 8; ++I) {
    const double *V = &In[0].Data[4 * I];
    const double Want[4] = {V[0] + V[1], V[0], V[3], V[2]};
    for (size_t L = 0; L < 4; ++L)
      EXPECT_EQ(Out[1].Data[4 * I + L], Want[L])
          << "item " << I << ", lane " << L;
  }

  CompiledKernel Logic = compile(VectorLogicKernel);
  // Operands in {0, 1, 2}, so both normalized values occur in every
  // lane position.
  In = {randomBuffer(32, 1, 13), randomBuffer(32, 1, 14),
        BufferData::zeros(64, 1)};
  for (size_t B = 0; B < 2; ++B)
    for (double &D : In[B].Data)
      D = std::fmod(D, 3.0);
  Out = expectVerdict(
      Logic, {KernelArg::buffer(0), KernelArg::buffer(1), KernelArg::buffer(2)},
      In, config1D(8, 4), {true, TrapKind::None, "",
                    {288, 112, 0, 16, 16, 32, 0, 0, 0, 0, 0, 8, 8},
                    0,
                    {0x7d0731776c4fbf58ull, 0x047bb0ae4c3d60a5ull,
                     0x8b2cd37c80efa058ull}});
  ASSERT_EQ(Out.size(), 3u);
  for (size_t I = 0; I < 8; ++I)
    for (size_t L = 0; L < 4; ++L) {
      const bool P = In[0].Data[4 * I + L] != 0.0;
      const bool Q = In[1].Data[4 * I + L] != 0.0;
      EXPECT_EQ(Out[2].Data[8 * I + L], P && Q ? 1.0 : 0.0)
          << "item " << I << ", lane " << L;
      EXPECT_EQ(Out[2].Data[8 * I + 4 + L], P || Q ? 1.0 : 0.0)
          << "item " << I << ", lane " << L;
    }
}

TEST(DispatchParityTest, DoWhileAndShortCircuitOrHandlers) {
  CompiledKernel K = compile(DoWhileKernel);
  std::vector<BufferData> In = {randomBuffer(16, 1, 15),
                                BufferData::zeros(16, 1)};
  std::vector<BufferData> Out =
      expectVerdict(K, {KernelArg::buffer(0), KernelArg::buffer(1)}, In,
                    config1D(16, 4), {true, TrapKind::None, "",
                     {849, 197, 0, 16, 16, 32, 0, 0, 98, 0, 0, 16, 16},
                     0.67346938775510201,
                     {0x79edac49be6ad3fbull, 0x082880ee899a9b5dull}});
  ASSERT_EQ(Out.size(), 2u);
  for (size_t I = 0; I < 16; ++I) {
    int64_t X = static_cast<int64_t>(In[0].Data[I]);
    int64_t N = 0;
    do {
      N = N + 1;
      X = X / 2;
    } while (X > 3 || N < 2);
    EXPECT_EQ(Out[1].Data[I], static_cast<double>(N)) << "item " << I;
  }
}

//===----------------------------------------------------------------------===//
// Trap classes: the same TrapKind and detail string, and the same bytes
// left behind in the buffers.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, OutOfBoundsTrapParity) {
  CompiledKernel K = compile(OutOfBoundsKernel);
  expectVerdict(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
                config1D(4, 4),
                {false, TrapKind::OutOfBounds,
                 "out-of-bounds global access (index 100 of 4 elements)", {}, 0,
                 {0x68d107204cc51ab8ull}});
}

TEST(DispatchParityTest, DivByZeroTrapParity) {
  // The divisor arrives via buffer data, so the DivI handler (not the
  // compiler) must raise the trap.
  CompiledKernel K = compile(IntDivisionKernel);
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
  CompiledKernel K = compile(SpinKernel);
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
  CompiledKernel K = compile(DivergentBarrierKernel);
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
  CompiledKernel K = compile(TwoParamKernel);
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
  CompiledKernel K = compile(SpinKernel);
  LaunchConfig C = config1D(1, 1);
  C.WatchdogMs = 20;
  C.MaxInstructions = ~0ull;
  std::vector<BufferData> Bufs = {randomBuffer(1, 1, 1)};
  auto R = launchKernel(K, {KernelArg::buffer(0)}, Bufs, C);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.trap(), TrapKind::WatchdogTimeout)
      << trapKindName(R.trap()) << ": " << R.errorMessage();
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
  // verification as TrapKind::BadLaunch before the loop runs.
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

TEST(DispatchParityTest, CasesReachEveryHandler) {
  // The verdicts above pin a handler's computed values only for the
  // handlers some case executes; this keeps every ExtOp among them.
  std::vector<CompiledKernel> Kernels;
  for (const char *Src : CatalogKernels)
    Kernels.push_back(compile(Src));
  for (const char *Src :
       {VectorSwizzleKernel, LocalReverseKernel, HistogramKernel,
        IntegerOperatorsKernel, FloatDivisionKernel, VectorBuildKernel,
        VectorLogicKernel, DoWhileKernel, OutOfBoundsKernel,
        IntDivisionKernel, SpinKernel, DivergentBarrierKernel,
        TwoParamKernel})
    Kernels.push_back(compile(Src));
  Kernels.push_back(
      poisonedKernel(Opcode::BinOp, static_cast<uint8_t>(VmBinOp::MaxI)));

  static const char *const ExtOpNames[] = {
#define CLGS_EXT_OP_NAME(Name) #Name,
      CLGS_VM_EXT_OPS(CLGS_EXT_OP_NAME)
#undef CLGS_EXT_OP_NAME
  };
  bool Reached[NumExtOps] = {};
  for (const CompiledKernel &K : Kernels) {
    ExecProgram P;
    prepareExecProgram(K, P);
    for (const ExecInstr &E : P.Code)
      Reached[E.Ext] = true;
  }
  size_t Count = 0;
  std::string Missing;
  for (size_t Op = 0; Op < NumExtOps; ++Op) {
    if (Reached[Op])
      ++Count;
    else
      Missing += std::string(" ") + ExtOpNames[Op];
  }
  EXPECT_EQ(Count, NumExtOps) << "handlers no case reaches:" << Missing;
}
