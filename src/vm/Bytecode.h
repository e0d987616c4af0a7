//===- vm/Bytecode.h - Register bytecode for OpenCL kernels ------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register bytecode that kernels are lowered to. This plays the role
/// of NVIDIA PTX in the paper's pipeline: the rejection filter's "compiles
/// and has a static instruction count of at least three" check (section
/// 4.1) is evaluated against this representation, and the execution engine
/// interprets it with full instrumentation.
///
/// Design notes:
///  - unlimited virtual registers, each holding a scalar or vector value
///    (up to 16 lanes);
///  - memory is addressed as (address space, buffer slot, element index);
///    pointer provenance is resolved statically by the compiler, so no
///    runtime pointer values exist;
///  - user functions are inlined during lowering (Sema rejects recursion),
///    so there is no call stack.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_VM_BYTECODE_H
#define CLGEN_VM_BYTECODE_H

#include "ocl/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace clgen {
namespace vm {

/// Runtime value: up to 16 double lanes. Integers are represented exactly
/// in doubles (all workloads stay far below 2^53); bitwise operations go
/// through int64 conversion.
struct Value {
  double Lanes[16] = {0};
  uint8_t Width = 1;

  static Value scalar(double X) {
    Value V;
    V.Lanes[0] = X;
    return V;
  }
  static Value splat(double X, uint8_t Width) {
    Value V;
    V.Width = Width;
    for (int I = 0; I < Width; ++I)
      V.Lanes[I] = X;
    return V;
  }
  double x() const { return Lanes[0]; }
};

/// Address spaces a memory instruction can target.
enum class MemSpace : uint8_t { Global, Local, Private };

/// VM-level binary operations (Aux field of BinOp).
enum class VmBinOp : uint8_t {
  Add, Sub, Mul, DivF, DivI, RemI, RemF,
  Shl, Shr, And, Or, Xor,
  Lt, Le, Gt, Ge, Eq, Ne,
  MinI, MaxI, // used by builtin lowering
};

/// VM-level unary operations.
enum class VmUnOp : uint8_t { Neg, BitNot, LogicNot };

enum class Opcode : uint8_t {
  LoadConst, // Dst = Consts[Imm]
  Mov,       // Dst = R[A]
  BinOp,     // Dst = R[A] <Aux:VmBinOp> R[B]
  UnOp,      // Dst = <Aux:VmUnOp> R[A]
  Cast,      // Dst = convert R[A] to scalar kind Aux (element-wise)
  Broadcast, // Dst = splat(R[A].x, width=B)
  Swizzle,   // Dst = R[A] lanes selected by Masks[Imm]
  InsertLanes, // R[Dst] lanes Masks[Imm] = lanes of R[B] (in place)
  BuildVec,  // Dst = vector assembled from registers in ArgLists[Imm]
  LoadMem,   // Dst = buffer<Aux:MemSpace, slot Imm>[R[A]]
  StoreMem,  // buffer<Aux:MemSpace, slot Imm>[R[A]] = R[B]
  VLoad,     // Dst = W consecutive scalars at R[A]*W (W = Flags width)
  VStore,    // store R[B] (width W) at R[A]*W
  CallB,     // Dst = builtin Aux(BuiltinOp) with args ArgLists[Imm]
  Atomic,    // Dst = old; buffer[R[A]] = op(old, R[B]); Aux = BuiltinOp
  Jmp,       // pc = Imm
  Jz,        // if R[A] == 0: pc = Imm
  Jnz,       // if R[A] != 0: pc = Imm
  Barrier,   // work-group barrier
  Halt,      // end of kernel for this work-item
};

/// One bytecode instruction. Field use depends on Opcode (see above).
struct Instr {
  Opcode Op;
  uint8_t Aux = 0;   // VmBinOp / VmUnOp / Scalar / MemSpace / BuiltinOp.
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  int32_t Imm = 0;
  /// For memory ops: static coalescing classification of the access site.
  bool Coalesced = false;
  /// For VLoad/VStore: vector width. For Cast: target width.
  uint8_t WidthField = 0;
  /// For memory ops and Atomic: the address space.
  MemSpace Space = MemSpace::Global;
};

/// Kernel parameter descriptor: either a scalar bound at launch, or a
/// buffer bound to a slot.
struct ParamInfo {
  ocl::QualType Ty;
  std::string Name;
  bool IsBuffer = false;
  /// For buffers: slot index (position among buffer params).
  int BufferSlot = -1;
  /// For scalars: the register the engine preloads.
  uint16_t Reg = 0;
};

/// Local (work-group shared) buffer requirement: from __local arrays or
/// __local pointer parameters.
struct LocalBufferInfo {
  /// Element lane width.
  uint8_t ElemWidth = 1;
  /// Static element count; 0 means "sized by the driver" (pointer param).
  int64_t Elements = 0;
};

/// Private (per work-item) array.
struct PrivateBufferInfo {
  uint8_t ElemWidth = 1;
  int64_t Elements = 0;
};

/// Static classification of one memory access site (used both by the
/// paper's static features and by diagnostics).
struct AccessSite {
  MemSpace Space;
  bool IsStore;
  bool Coalesced;
};

/// A fully lowered kernel ready for execution.
struct CompiledKernel {
  std::string Name;
  std::vector<Instr> Code;
  std::vector<Value> Consts;
  std::vector<std::vector<uint8_t>> Masks;
  std::vector<std::vector<uint16_t>> ArgLists;
  std::vector<ParamInfo> Params;
  std::vector<LocalBufferInfo> LocalBuffers;
  std::vector<PrivateBufferInfo> PrivateBuffers;
  std::vector<AccessSite> AccessSites;
  uint16_t RegisterCount = 0;
  /// Number of conditional-branch sites (for divergence bookkeeping).
  int BranchSites = 0;
  /// True when the kernel contains at least one barrier instruction.
  bool HasBarrier = false;

  /// Number of buffer parameters (== number of global buffer slots).
  size_t bufferParamCount() const {
    size_t N = 0;
    for (const ParamInfo &P : Params)
      N += P.IsBuffer && P.Ty.AS == ocl::AddrSpace::Global;
    return N;
  }

  /// The paper's static instruction count (rejection filter threshold).
  size_t staticInstructionCount() const { return Code.size(); }
};

/// Short mnemonic for \p Op ("ldc", "bin", "jz", ...), as used by the
/// disassembler and verifyKernel's diagnostics.
const char *opcodeName(Opcode Op);

/// Validates internal consistency of \p K (register bounds, jump targets,
/// table indices). Returns an empty string when valid, else a diagnostic.
std::string verifyKernel(const CompiledKernel &K);

/// Renders a human-readable disassembly (used in tests and debugging).
std::string disassemble(const CompiledKernel &K);

} // namespace vm
} // namespace clgen

#endif // CLGEN_VM_BYTECODE_H
