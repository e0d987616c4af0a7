//===- vm/Compiler.h - AST to bytecode lowering ------------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a type-checked kernel (plus the helper functions it calls) to
/// CompiledKernel bytecode. User function calls are inlined; pointer
/// provenance is resolved statically; each memory access site is
/// classified as coalesced (index affine in get_global_id(0) with unit
/// stride) or not, which feeds both the performance model and the
/// Grewe et al. "coalesced" static feature.
///
/// The second lowering stage lives here too: prepareExecProgram turns
/// CompiledKernel bytecode into the dispatch-resolved execution form the
/// interpreter runs (vm/Interpreter.cpp) — binary operations are
/// specialized into per-operation extended opcodes and conditional
/// branches carry their dense divergence-site index.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_VM_COMPILER_H
#define CLGEN_VM_COMPILER_H

#include "ocl/Ast.h"
#include "support/Result.h"
#include "vm/Bytecode.h"

namespace clgen {
namespace vm {

//===----------------------------------------------------------------------===//
// Dispatch-resolved execution form
//===----------------------------------------------------------------------===//

/// Extended opcodes of the execution form. The X-macro keeps the enum,
/// the computed-goto label table and the portable switch in lockstep:
/// the interpreter instantiates one handler body per entry, so adding
/// an entry without a handler fails to compile.
///
/// Order matters twice: the Bin* block must mirror VmBinOp exactly
/// (decode maps the Aux by offset), and the interpreter's label table
/// is indexed by the enum value.
#define CLGS_VM_EXT_OPS(X)                                                     \
  X(LoadConst) X(Mov)                                                          \
  X(BinAdd) X(BinSub) X(BinMul) X(BinDivF) X(BinDivI) X(BinRemI)               \
  X(BinRemF) X(BinShl) X(BinShr) X(BinAnd) X(BinOr) X(BinXor)                  \
  X(BinLt) X(BinLe) X(BinGt) X(BinGe) X(BinEq) X(BinNe)                        \
  X(BinMinI) X(BinMaxI)                                                        \
  X(UnOp) X(Cast) X(Broadcast) X(Swizzle) X(InsertLanes) X(BuildVec)           \
  X(LoadMem) X(StoreMem) X(VLoad) X(VStore) X(CallB) X(Atomic)                 \
  X(Jmp) X(Jz) X(Jnz) X(Barrier) X(Halt)

enum class ExtOp : uint8_t {
#define CLGS_VM_EXT_ENUM(Name) Name,
  CLGS_VM_EXT_OPS(CLGS_VM_EXT_ENUM)
#undef CLGS_VM_EXT_ENUM
};

constexpr size_t NumExtOps = static_cast<size_t>(ExtOp::Halt) + 1;

/// One slot of the execution form: the bytecode instruction plus its
/// resolved handler.
struct ExecInstr {
  /// Index into the interpreter's handler table.
  uint8_t Ext = 0;
  /// Dense divergence-site index for Jz/Jnz (pc order); -1 elsewhere.
  int32_t BranchSite = -1;
  Instr I;
};

/// The dispatch-resolved program prepareExecProgram builds at launch.
/// Code maps 1:1 onto bytecode pcs, so jump targets and barrier-resume
/// pcs need no remapping. Code has one extra trailing Halt sentinel slot
/// so a jump to Code.size() — which verifyKernel permits — halts
/// instead of running off the program.
struct ExecProgram {
  std::vector<ExecInstr> Code;
  /// Conditional-branch sites numbered (Jz/Jnz in pc order).
  int BranchSiteCount = 0;
};

/// Lowers \p K (which must satisfy verifyKernel) into \p Out, reusing
/// Out's storage across launches.
void prepareExecProgram(const CompiledKernel &K, ExecProgram &Out);

/// Compiles kernel \p Kernel of program \p P (which must have passed
/// ocl::analyze). On failure returns a diagnostic; constructs the paper's
/// "does not compile to PTX" rejection condition together with the parser
/// and Sema.
Result<CompiledKernel> compileKernel(const ocl::Program &P,
                                     const ocl::FunctionDecl &Kernel);

/// Convenience: parse + analyze + compile the first kernel in \p Source.
Result<CompiledKernel> compileFirstKernel(const std::string &Source);

} // namespace vm
} // namespace clgen

#endif // CLGEN_VM_COMPILER_H
