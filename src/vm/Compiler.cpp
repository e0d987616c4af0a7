//===- vm/Compiler.cpp - AST to bytecode lowering ------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "ocl/Builtins.h"
#include "ocl/Casting.h"
#include "ocl/Parser.h"
#include "ocl/Sema.h"
#include "support/StringUtils.h"

#include <optional>
#include <unordered_map>

using namespace clgen;
using namespace clgen::ocl;
using namespace clgen::vm;

namespace {

/// Where a pointer-typed value lives: statically resolved provenance.
struct PointerInfo {
  MemSpace Space = MemSpace::Global;
  int Slot = 0;
  /// Register holding the element offset added to every index.
  uint16_t OffsetReg = 0;
};

/// What a name binds to during compilation.
struct Binding {
  bool IsPointer = false;
  QualType Ty;
  uint16_t Reg = 0;      // Scalar/vector value register.
  PointerInfo Ptr;       // Valid when IsPointer.
  /// Stride of this variable's value w.r.t. get_global_id(0); nullopt =
  /// unknown / nonlinear. Used for static coalescing classification.
  std::optional<int64_t> GidStride;
};

struct LoopContext {
  std::vector<size_t> BreakJumps;
  std::vector<size_t> ContinueJumps;
};

struct InlineContext {
  uint16_t ResultReg = 0;
  bool HasResult = false;
  std::vector<size_t> ReturnJumps;
};

class KernelCompiler {
public:
  KernelCompiler(const Program &P, const FunctionDecl &Kernel)
      : P(P), Kernel(Kernel) {}

  Result<CompiledKernel> run();

private:
  const Program &P;
  const FunctionDecl &Kernel;
  CompiledKernel K;
  bool Failed = false;
  std::string Diagnostic;
  std::vector<std::unordered_map<std::string, Binding>> Scopes;
  std::vector<LoopContext> Loops;
  std::vector<InlineContext> Inlines;
  int InlineDepth = 0;

  //===------------------------------------------------------------------===//
  // Infrastructure
  //===------------------------------------------------------------------===//

  uint16_t fail(int Line, const std::string &Message) {
    if (!Failed) {
      Failed = true;
      Diagnostic = formatString("line %d: %s", Line, Message.c_str());
    }
    return 0;
  }

  uint16_t newReg() {
    assert(K.RegisterCount < 0xFFFF && "register file exhausted");
    return K.RegisterCount++;
  }

  size_t emit(Instr I) {
    K.Code.push_back(I);
    return K.Code.size() - 1;
  }

  size_t emitJump(Opcode Op, uint16_t CondReg = 0) {
    Instr I;
    I.Op = Op;
    I.A = CondReg;
    I.Imm = -1; // Patched later.
    return emit(I);
  }

  void patchJump(size_t At, size_t Target) {
    K.Code[At].Imm = static_cast<int32_t>(Target);
  }

  size_t here() const { return K.Code.size(); }

  uint16_t emitConst(Value V) {
    K.Consts.push_back(V);
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::LoadConst;
    I.Dst = Dst;
    I.Imm = static_cast<int32_t>(K.Consts.size() - 1);
    emit(I);
    return Dst;
  }

  uint16_t emitConstScalar(double X) { return emitConst(Value::scalar(X)); }

  int addMask(std::vector<uint8_t> Mask) {
    K.Masks.push_back(std::move(Mask));
    return static_cast<int>(K.Masks.size() - 1);
  }

  int addArgList(std::vector<uint16_t> Args) {
    K.ArgLists.push_back(std::move(Args));
    return static_cast<int>(K.ArgLists.size() - 1);
  }

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  Binding *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }

  void bind(const std::string &Name, Binding B) {
    assert(!Scopes.empty());
    Scopes.back()[Name] = std::move(B);
  }

  //===------------------------------------------------------------------===//
  // Coalescing analysis
  //===------------------------------------------------------------------===//

  /// Stride of \p E with respect to get_global_id(0). nullopt = nonlinear.
  std::optional<int64_t> gidStride(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
    case Expr::Kind::FloatLiteral:
      return 0;
    case Expr::Kind::VarRef: {
      Binding *B = lookup(cast<VarRefExpr>(E)->Name);
      if (!B)
        return 0;
      return B->GidStride;
    }
    case Expr::Kind::Call: {
      const auto *CE = cast<CallExpr>(E);
      if (CE->Callee == "get_global_id" && CE->Args.size() == 1) {
        if (const auto *IL = dyn_cast<IntLiteralExpr>(CE->Args[0].get()))
          return IL->Value == 0 ? std::optional<int64_t>(1)
                                : std::optional<int64_t>(0);
      }
      return std::nullopt;
    }
    case Expr::Kind::Cast:
      return gidStride(cast<CastExpr>(E)->Operand.get());
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      if (UE->Op == UnaryOp::Plus)
        return gidStride(UE->Operand.get());
      if (UE->Op == UnaryOp::Neg) {
        auto S = gidStride(UE->Operand.get());
        if (S)
          return -*S;
        return std::nullopt;
      }
      return std::nullopt;
    }
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      auto L = gidStride(BE->Lhs.get());
      auto R = gidStride(BE->Rhs.get());
      if (!L || !R)
        return std::nullopt;
      switch (BE->Op) {
      case BinaryOp::Add: return *L + *R;
      case BinaryOp::Sub: return *L - *R;
      case BinaryOp::Mul:
        // Linear only when one side is gid-invariant; we cannot know the
        // dynamic multiplier, so only 0 * x stays linear.
        if (*L == 0 && *R == 0)
          return 0;
        if (const auto *IL = dyn_cast<IntLiteralExpr>(BE->Lhs.get()))
          return IL->Value * *R;
        if (const auto *IR = dyn_cast<IntLiteralExpr>(BE->Rhs.get()))
          return *L * IR->Value;
        return std::nullopt;
      default:
        return *L == 0 && *R == 0 ? std::optional<int64_t>(0) : std::nullopt;
      }
    }
    default:
      return std::nullopt;
    }
  }

  bool isCoalescedIndex(const Expr *IndexE) {
    auto S = gidStride(IndexE);
    return S && (*S == 1 || *S == -1);
  }

  //===------------------------------------------------------------------===//
  // Pointer provenance
  //===------------------------------------------------------------------===//

  /// Resolves the provenance of a pointer-typed expression. Emits the
  /// offset-combination arithmetic as needed. Returns nullopt on failure.
  std::optional<PointerInfo> resolvePointer(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::VarRef: {
      Binding *B = lookup(cast<VarRefExpr>(E)->Name);
      if (!B || !B->IsPointer) {
        fail(E->line(), "cannot resolve pointer provenance");
        return std::nullopt;
      }
      return B->Ptr;
    }
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      // ptr + int / ptr - int / int + ptr.
      const Expr *PtrE = nullptr, *IntE = nullptr;
      bool Negate = false;
      if (BE->Op == BinaryOp::Add || BE->Op == BinaryOp::Sub) {
        if (BE->Lhs->Ty.Pointer) {
          PtrE = BE->Lhs.get();
          IntE = BE->Rhs.get();
          Negate = BE->Op == BinaryOp::Sub;
        } else if (BE->Rhs->Ty.Pointer && BE->Op == BinaryOp::Add) {
          PtrE = BE->Rhs.get();
          IntE = BE->Lhs.get();
        }
      }
      if (!PtrE) {
        fail(E->line(), "unsupported pointer expression");
        return std::nullopt;
      }
      auto Base = resolvePointer(PtrE);
      if (!Base)
        return std::nullopt;
      uint16_t Off = compileExpr(IntE);
      if (Failed)
        return std::nullopt;
      if (Negate) {
        uint16_t Neg = newReg();
        Instr I;
        I.Op = Opcode::UnOp;
        I.Aux = static_cast<uint8_t>(VmUnOp::Neg);
        I.Dst = Neg;
        I.A = Off;
        emit(I);
        Off = Neg;
      }
      uint16_t Sum = newReg();
      Instr I;
      I.Op = Opcode::BinOp;
      I.Aux = static_cast<uint8_t>(VmBinOp::Add);
      I.Dst = Sum;
      I.A = Base->OffsetReg;
      I.B = Off;
      emit(I);
      PointerInfo Out = *Base;
      Out.OffsetReg = Sum;
      return Out;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      if (UE->Op == UnaryOp::AddrOf) {
        // &lvalue where lvalue is buffer[index].
        if (const auto *IE = dyn_cast<IndexExpr>(UE->Operand.get())) {
          auto Base = resolvePointer(IE->Base.get());
          if (!Base)
            return std::nullopt;
          uint16_t Idx = compileExpr(IE->Index.get());
          if (Failed)
            return std::nullopt;
          uint16_t Sum = newReg();
          Instr I;
          I.Op = Opcode::BinOp;
          I.Aux = static_cast<uint8_t>(VmBinOp::Add);
          I.Dst = Sum;
          I.A = Base->OffsetReg;
          I.B = Idx;
          emit(I);
          PointerInfo Out = *Base;
          Out.OffsetReg = Sum;
          return Out;
        }
        fail(E->line(), "unsupported address-of target");
        return std::nullopt;
      }
      fail(E->line(), "unsupported pointer expression");
      return std::nullopt;
    }
    case Expr::Kind::Conditional:
      fail(E->line(), "pointer provenance must be static (no conditional "
                      "pointers)");
      return std::nullopt;
    default:
      fail(E->line(), "unsupported pointer expression");
      return std::nullopt;
    }
  }

  //===------------------------------------------------------------------===//
  // LValues
  //===------------------------------------------------------------------===//

  struct LValue {
    enum class Kind {
      VarReg,   // Whole variable register.
      MemElem,  // buffer[index].
      VarLanes, // Lanes of a variable register (swizzle target).
      MemLanes, // Lanes of a buffer element.
    };
    Kind K;
    Binding *Var = nullptr;    // VarReg / VarLanes.
    PointerInfo Ptr;           // MemElem / MemLanes.
    uint16_t IndexReg = 0;     // MemElem / MemLanes.
    bool CoalescedIdx = false; // MemElem / MemLanes.
    std::vector<uint8_t> Lanes; // VarLanes / MemLanes.
    QualType ValueTy;          // Type of the stored value.
  };

  std::optional<LValue> compileLValue(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::VarRef: {
      Binding *B = lookup(cast<VarRefExpr>(E)->Name);
      if (!B) {
        fail(E->line(), "unbound variable");
        return std::nullopt;
      }
      LValue LV;
      if (B->IsPointer && !B->Ty.Pointer) {
        fail(E->line(), "cannot assign to array variable");
        return std::nullopt;
      }
      LV.K = LValue::Kind::VarReg;
      LV.Var = B;
      LV.ValueTy = E->Ty;
      return LV;
    }
    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      auto Ptr = resolvePointer(IE->Base.get());
      if (!Ptr)
        return std::nullopt;
      uint16_t Raw = compileExpr(IE->Index.get());
      if (Failed)
        return std::nullopt;
      LValue LV;
      LV.K = LValue::Kind::MemElem;
      LV.Ptr = *Ptr;
      LV.IndexReg = addOffset(Raw, Ptr->OffsetReg);
      LV.CoalescedIdx = isCoalescedIndex(IE->Index.get());
      LV.ValueTy = E->Ty;
      return LV;
    }
    case Expr::Kind::Member: {
      const auto *ME = cast<MemberExpr>(E);
      auto Base = compileLValue(ME->Base.get());
      if (!Base)
        return std::nullopt;
      if (Base->K == LValue::Kind::VarReg) {
        LValue LV = *Base;
        LV.K = LValue::Kind::VarLanes;
        LV.Lanes = ME->Lanes;
        LV.ValueTy = E->Ty;
        return LV;
      }
      if (Base->K == LValue::Kind::MemElem) {
        LValue LV = *Base;
        LV.K = LValue::Kind::MemLanes;
        LV.Lanes = ME->Lanes;
        LV.ValueTy = E->Ty;
        return LV;
      }
      fail(E->line(), "nested swizzle assignment is not supported");
      return std::nullopt;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      if (UE->Op == UnaryOp::Deref) {
        auto Ptr = resolvePointer(UE->Operand.get());
        if (!Ptr)
          return std::nullopt;
        LValue LV;
        LV.K = LValue::Kind::MemElem;
        LV.Ptr = *Ptr;
        LV.IndexReg = Ptr->OffsetReg;
        LV.CoalescedIdx = false;
        LV.ValueTy = E->Ty;
        return LV;
      }
      fail(E->line(), "invalid assignment target");
      return std::nullopt;
    }
    default:
      fail(E->line(), "invalid assignment target");
      return std::nullopt;
    }
  }

  /// Combines a base pointer offset register with an index register.
  /// Returns the index register unchanged when the offset register is the
  /// canonical zero register.
  uint16_t addOffset(uint16_t IndexReg, uint16_t OffsetReg) {
    if (OffsetReg == ZeroReg)
      return IndexReg;
    uint16_t Sum = newReg();
    Instr I;
    I.Op = Opcode::BinOp;
    I.Aux = static_cast<uint8_t>(VmBinOp::Add);
    I.Dst = Sum;
    I.A = IndexReg;
    I.B = OffsetReg;
    emit(I);
    return Sum;
  }

  uint16_t loadLValue(const LValue &LV) {
    switch (LV.K) {
    case LValue::Kind::VarReg:
      return LV.Var->Reg;
    case LValue::Kind::MemElem:
      return emitLoad(LV);
    case LValue::Kind::VarLanes: {
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Swizzle;
      I.Dst = Dst;
      I.A = LV.Var->Reg;
      I.Imm = addMask(LV.Lanes);
      emit(I);
      return Dst;
    }
    case LValue::Kind::MemLanes: {
      uint16_t Elem = emitLoad(LV);
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Swizzle;
      I.Dst = Dst;
      I.A = Elem;
      I.Imm = addMask(LV.Lanes);
      emit(I);
      return Dst;
    }
    }
    return 0;
  }

  uint16_t emitLoad(const LValue &LV) {
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::LoadMem;
    I.Dst = Dst;
    I.A = LV.IndexReg;
    I.Imm = LV.Ptr.Slot;
    I.Space = LV.Ptr.Space;
    I.Coalesced = LV.CoalescedIdx;
    emit(I);
    K.AccessSites.push_back({LV.Ptr.Space, false, LV.CoalescedIdx});
    return Dst;
  }

  void storeLValue(const LValue &LV, uint16_t ValueReg) {
    switch (LV.K) {
    case LValue::Kind::VarReg: {
      Instr I;
      I.Op = Opcode::Mov;
      I.Dst = LV.Var->Reg;
      I.A = ValueReg;
      emit(I);
      LV.Var->GidStride = std::nullopt; // Conservatively invalidated.
      return;
    }
    case LValue::Kind::MemElem: {
      Instr I;
      I.Op = Opcode::StoreMem;
      I.A = LV.IndexReg;
      I.B = ValueReg;
      I.Imm = LV.Ptr.Slot;
      I.Space = LV.Ptr.Space;
      I.Coalesced = LV.CoalescedIdx;
      emit(I);
      K.AccessSites.push_back({LV.Ptr.Space, true, LV.CoalescedIdx});
      return;
    }
    case LValue::Kind::VarLanes: {
      Instr I;
      I.Op = Opcode::InsertLanes;
      I.Dst = LV.Var->Reg;
      I.B = ValueReg;
      I.Imm = addMask(LV.Lanes);
      emit(I);
      LV.Var->GidStride = std::nullopt;
      return;
    }
    case LValue::Kind::MemLanes: {
      // Read-modify-write of the buffer element.
      uint16_t Elem = emitLoad(LV);
      Instr Ins;
      Ins.Op = Opcode::InsertLanes;
      Ins.Dst = Elem;
      Ins.B = ValueReg;
      Ins.Imm = addMask(LV.Lanes);
      emit(Ins);
      Instr St;
      St.Op = Opcode::StoreMem;
      St.A = LV.IndexReg;
      St.B = Elem;
      St.Imm = LV.Ptr.Slot;
      St.Space = LV.Ptr.Space;
      St.Coalesced = LV.CoalescedIdx;
      emit(St);
      K.AccessSites.push_back({LV.Ptr.Space, true, LV.CoalescedIdx});
      return;
    }
    }
  }

  //===------------------------------------------------------------------===//
  // Width / type coercion
  //===------------------------------------------------------------------===//

  /// Broadcasts \p Reg (scalar) to \p Width lanes when needed.
  uint16_t coerceWidth(uint16_t Reg, uint8_t FromWidth, uint8_t ToWidth) {
    if (FromWidth == ToWidth || ToWidth == 1)
      return Reg;
    assert(FromWidth == 1 && "invalid width coercion");
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::Broadcast;
    I.Dst = Dst;
    I.A = Reg;
    I.B = ToWidth;
    emit(I);
    return Dst;
  }

  /// Converts \p Reg from \p From to \p To (width broadcast + scalar-kind
  /// cast when integer semantics change).
  uint16_t coerce(uint16_t Reg, const QualType &From, const QualType &To) {
    uint16_t R = coerceWidth(Reg, From.VecWidth, To.VecWidth);
    // Float -> int needs truncation; int width changes need wrapping.
    bool NeedCast = (From.isFloating() && To.isInteger()) ||
                    (From.isInteger() && To.isInteger() && From.S != To.S);
    if (!NeedCast)
      return R;
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::Cast;
    I.Dst = Dst;
    I.A = R;
    I.Aux = static_cast<uint8_t>(To.S);
    emit(I);
    return Dst;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  uint16_t compileExpr(const Expr *E) {
    if (Failed)
      return 0;
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
      return emitConstScalar(
          static_cast<double>(cast<IntLiteralExpr>(E)->Value));
    case Expr::Kind::FloatLiteral:
      return emitConstScalar(cast<FloatLiteralExpr>(E)->Value);
    case Expr::Kind::VarRef: {
      Binding *B = lookup(cast<VarRefExpr>(E)->Name);
      if (!B) {
        // Builtin constant.
        if (auto C = lookupBuiltinConstant(cast<VarRefExpr>(E)->Name))
          return emitConstScalar(C->Value);
        return fail(E->line(), "unbound variable '" +
                                   cast<VarRefExpr>(E)->Name + "'");
      }
      if (B->IsPointer)
        return fail(E->line(),
                    "pointer value used in non-pointer context");
      return B->Reg;
    }
    case Expr::Kind::Binary:
      return compileBinary(cast<BinaryExpr>(E));
    case Expr::Kind::Unary:
      return compileUnary(cast<UnaryExpr>(E));
    case Expr::Kind::Call:
      return compileCall(cast<CallExpr>(E));
    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      auto LV = compileLValue(E);
      if (!LV)
        return 0;
      (void)IE;
      return loadLValue(*LV);
    }
    case Expr::Kind::Member: {
      const auto *ME = cast<MemberExpr>(E);
      uint16_t Base = compileExpr(ME->Base.get());
      if (Failed)
        return 0;
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Swizzle;
      I.Dst = Dst;
      I.A = Base;
      I.Imm = addMask(ME->Lanes);
      emit(I);
      return Dst;
    }
    case Expr::Kind::Cast: {
      const auto *CE = cast<CastExpr>(E);
      uint16_t Operand = compileExpr(CE->Operand.get());
      if (Failed)
        return 0;
      uint16_t Widened =
          coerceWidth(Operand, CE->Operand->Ty.VecWidth, CE->Target.VecWidth);
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Cast;
      I.Dst = Dst;
      I.A = Widened;
      I.Aux = static_cast<uint8_t>(CE->Target.S);
      emit(I);
      return Dst;
    }
    case Expr::Kind::VectorLiteral: {
      const auto *VL = cast<VectorLiteralExpr>(E);
      if (VL->Elements.size() == 1) {
        uint16_t Elem = compileExpr(VL->Elements[0].get());
        if (Failed)
          return 0;
        return coerceWidth(Elem, 1, VL->Target.VecWidth);
      }
      std::vector<uint16_t> Regs;
      Regs.reserve(VL->Elements.size());
      for (const auto &Elem : VL->Elements) {
        Regs.push_back(compileExpr(Elem.get()));
        if (Failed)
          return 0;
      }
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::BuildVec;
      I.Dst = Dst;
      I.Imm = addArgList(std::move(Regs));
      emit(I);
      return Dst;
    }
    case Expr::Kind::Conditional: {
      const auto *CE = cast<ConditionalExpr>(E);
      uint16_t Cond = compileCondition(CE->Cond.get());
      if (Failed)
        return 0;
      uint16_t Dst = newReg();
      size_t ElseJump = emitJump(Opcode::Jz, Cond);
      uint16_t TrueR = compileExpr(CE->TrueExpr.get());
      if (Failed)
        return 0;
      TrueR = coerce(TrueR, CE->TrueExpr->Ty, E->Ty);
      emitMov(Dst, TrueR);
      size_t EndJump = emitJump(Opcode::Jmp);
      patchJump(ElseJump, here());
      uint16_t FalseR = compileExpr(CE->FalseExpr.get());
      if (Failed)
        return 0;
      FalseR = coerce(FalseR, CE->FalseExpr->Ty, E->Ty);
      emitMov(Dst, FalseR);
      patchJump(EndJump, here());
      K.BranchSites += 1;
      return Dst;
    }
    }
    return fail(E->line(), "unsupported expression");
  }

  void emitMov(uint16_t Dst, uint16_t Src) {
    if (Dst == Src)
      return;
    Instr I;
    I.Op = Opcode::Mov;
    I.Dst = Dst;
    I.A = Src;
    emit(I);
  }

  /// Compiles a branch condition to a scalar 0/1 register. Vector
  /// conditions reduce with "any lane nonzero".
  uint16_t compileCondition(const Expr *E) {
    uint16_t R = compileExpr(E);
    if (Failed)
      return 0;
    if (E->Ty.VecWidth > 1) {
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::CallB;
      I.Aux = static_cast<uint8_t>(BuiltinOp::Any);
      I.Dst = Dst;
      I.Imm = addArgList({R});
      emit(I);
      return Dst;
    }
    return R;
  }

  static std::optional<VmBinOp> vmBinOpFor(BinaryOp Op, bool FloatTy) {
    switch (Op) {
    case BinaryOp::Add: return VmBinOp::Add;
    case BinaryOp::Sub: return VmBinOp::Sub;
    case BinaryOp::Mul: return VmBinOp::Mul;
    case BinaryOp::Div: return FloatTy ? VmBinOp::DivF : VmBinOp::DivI;
    case BinaryOp::Rem: return FloatTy ? VmBinOp::RemF : VmBinOp::RemI;
    case BinaryOp::Shl: return VmBinOp::Shl;
    case BinaryOp::Shr: return VmBinOp::Shr;
    case BinaryOp::BitAnd: return VmBinOp::And;
    case BinaryOp::BitOr: return VmBinOp::Or;
    case BinaryOp::BitXor: return VmBinOp::Xor;
    case BinaryOp::Lt: return VmBinOp::Lt;
    case BinaryOp::Le: return VmBinOp::Le;
    case BinaryOp::Gt: return VmBinOp::Gt;
    case BinaryOp::Ge: return VmBinOp::Ge;
    case BinaryOp::Eq: return VmBinOp::Eq;
    case BinaryOp::Ne: return VmBinOp::Ne;
    default: return std::nullopt;
    }
  }

  uint16_t compileBinary(const BinaryExpr *E) {
    if (isAssignmentOp(E->Op))
      return compileAssignment(E);

    // Short-circuit logical operators on scalars.
    if ((E->Op == BinaryOp::LAnd || E->Op == BinaryOp::LOr) &&
        E->Lhs->Ty.VecWidth == 1 && E->Rhs->Ty.VecWidth == 1) {
      uint16_t Dst = newReg();
      uint16_t L = compileCondition(E->Lhs.get());
      if (Failed)
        return 0;
      if (E->Op == BinaryOp::LAnd) {
        emitMov(Dst, emitConstScalar(0.0));
        size_t SkipJump = emitJump(Opcode::Jz, L);
        uint16_t R = compileCondition(E->Rhs.get());
        if (Failed)
          return 0;
        uint16_t Norm = normalizeBool(R);
        emitMov(Dst, Norm);
        patchJump(SkipJump, here());
      } else {
        emitMov(Dst, emitConstScalar(1.0));
        size_t SkipJump = emitJump(Opcode::Jnz, L);
        uint16_t R = compileCondition(E->Rhs.get());
        if (Failed)
          return 0;
        uint16_t Norm = normalizeBool(R);
        emitMov(Dst, Norm);
        patchJump(SkipJump, here());
      }
      K.BranchSites += 1;
      return Dst;
    }

    // Vector logical and/or: eager elementwise (no side-effect risk for
    // the kernels we accept; semantics match OpenCL's elementwise ops).
    if (E->Op == BinaryOp::LAnd || E->Op == BinaryOp::LOr) {
      uint16_t L = compileExpr(E->Lhs.get());
      uint16_t R = compileExpr(E->Rhs.get());
      if (Failed)
        return 0;
      uint16_t LN = normalizeBool(L);
      uint16_t RN = normalizeBool(R);
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::BinOp;
      I.Aux = static_cast<uint8_t>(E->Op == BinaryOp::LAnd ? VmBinOp::MinI
                                                           : VmBinOp::MaxI);
      I.Dst = Dst;
      I.A = LN;
      I.B = RN;
      emit(I);
      return Dst;
    }

    uint16_t L = compileExpr(E->Lhs.get());
    uint16_t R = compileExpr(E->Rhs.get());
    if (Failed)
      return 0;

    // Pointer arithmetic reaches compileExpr only via resolvePointer;
    // pointer compares are unsupported at runtime for provenance reasons.
    if (E->Lhs->Ty.Pointer || E->Rhs->Ty.Pointer)
      return fail(E->line(), "pointer comparison is not supported");

    uint8_t Width = std::max(E->Lhs->Ty.VecWidth, E->Rhs->Ty.VecWidth);
    L = coerceWidth(L, E->Lhs->Ty.VecWidth, Width);
    R = coerceWidth(R, E->Rhs->Ty.VecWidth, Width);

    bool FloatTy = E->Lhs->Ty.isFloating() || E->Rhs->Ty.isFloating();
    auto Op = vmBinOpFor(E->Op, FloatTy);
    if (!Op)
      return fail(E->line(), "unsupported binary operator");
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::BinOp;
    I.Aux = static_cast<uint8_t>(*Op);
    I.Dst = Dst;
    I.A = L;
    I.B = R;
    emit(I);
    return Dst;
  }

  /// Normalises a truthy value to exactly 0/1 per lane (x != 0).
  uint16_t normalizeBool(uint16_t Reg) {
    uint16_t Zero = emitConstScalar(0.0);
    uint16_t Dst = newReg();
    Instr I;
    I.Op = Opcode::BinOp;
    I.Aux = static_cast<uint8_t>(VmBinOp::Ne);
    I.Dst = Dst;
    I.A = Reg;
    I.B = Zero;
    emit(I);
    return Dst;
  }

  uint16_t compileAssignment(const BinaryExpr *E) {
    // Pointer assignment: rebinding a pointer variable's provenance.
    if (E->Lhs->Ty.Pointer) {
      if (E->Op != BinaryOp::Assign && E->Op != BinaryOp::AddAssign &&
          E->Op != BinaryOp::SubAssign)
        return fail(E->line(), "unsupported pointer assignment");
      const auto *VR = dyn_cast<VarRefExpr>(E->Lhs.get());
      if (!VR)
        return fail(E->line(), "unsupported pointer assignment target");
      Binding *B = lookup(VR->Name);
      if (!B || !B->IsPointer)
        return fail(E->line(), "unsupported pointer assignment target");
      if (E->Op == BinaryOp::Assign) {
        auto NewPtr = resolvePointer(E->Rhs.get());
        if (!NewPtr)
          return 0;
        // Provenance must stay on the same buffer once established unless
        // the variable was never read: we allow full rebinding here since
        // the binding carries provenance.
        B->Ptr = *NewPtr;
        return 0;
      }
      // p += n / p -= n.
      uint16_t Delta = compileExpr(E->Rhs.get());
      if (Failed)
        return 0;
      if (E->Op == BinaryOp::SubAssign) {
        uint16_t Neg = newReg();
        Instr NI;
        NI.Op = Opcode::UnOp;
        NI.Aux = static_cast<uint8_t>(VmUnOp::Neg);
        NI.Dst = Neg;
        NI.A = Delta;
        emit(NI);
        Delta = Neg;
      }
      uint16_t Sum = newReg();
      Instr I;
      I.Op = Opcode::BinOp;
      I.Aux = static_cast<uint8_t>(VmBinOp::Add);
      I.Dst = Sum;
      I.A = B->Ptr.OffsetReg;
      I.B = Delta;
      emit(I);
      B->Ptr.OffsetReg = Sum;
      return 0;
    }

    auto LV = compileLValue(E->Lhs.get());
    if (!LV)
      return 0;

    uint16_t Result;
    if (E->Op == BinaryOp::Assign) {
      uint16_t R = compileExpr(E->Rhs.get());
      if (Failed)
        return 0;
      Result = coerce(R, E->Rhs->Ty, LV->ValueTy);
    } else {
      uint16_t Old = loadLValue(*LV);
      uint16_t R = compileExpr(E->Rhs.get());
      if (Failed)
        return 0;
      uint8_t Width = LV->ValueTy.VecWidth;
      R = coerceWidth(R, E->Rhs->Ty.VecWidth, Width);
      bool FloatTy = LV->ValueTy.isFloating() || E->Rhs->Ty.isFloating();
      auto Op = vmBinOpFor(underlyingOp(E->Op), FloatTy);
      if (!Op)
        return fail(E->line(), "unsupported compound assignment");
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::BinOp;
      I.Aux = static_cast<uint8_t>(*Op);
      I.Dst = Dst;
      I.A = Old;
      I.B = R;
      emit(I);
      Result = coerce(Dst, LV->ValueTy, LV->ValueTy);
    }
    storeLValue(*LV, Result);

    // Track gid-affinity for scalar variable assignments so coalescing
    // analysis can see through `int i = get_global_id(0); a[i] = ...`.
    if (LV->K == LValue::Kind::VarReg && E->Op == BinaryOp::Assign)
      LV->Var->GidStride = gidStride(E->Rhs.get());
    return Result;
  }

  uint16_t compileUnary(const UnaryExpr *E) {
    switch (E->Op) {
    case UnaryOp::Plus:
      return compileExpr(E->Operand.get());
    case UnaryOp::Neg:
    case UnaryOp::BitNot:
    case UnaryOp::LNot: {
      uint16_t A = compileExpr(E->Operand.get());
      if (Failed)
        return 0;
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::UnOp;
      I.Aux = static_cast<uint8_t>(E->Op == UnaryOp::Neg ? VmUnOp::Neg
                                   : E->Op == UnaryOp::BitNot
                                       ? VmUnOp::BitNot
                                       : VmUnOp::LogicNot);
      I.Dst = Dst;
      I.A = A;
      emit(I);
      return Dst;
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      // Pointer stepping: p++ advances the offset.
      if (E->Operand->Ty.Pointer) {
        const auto *VR = dyn_cast<VarRefExpr>(E->Operand.get());
        if (!VR)
          return fail(E->line(), "unsupported pointer increment");
        Binding *B = lookup(VR->Name);
        if (!B || !B->IsPointer)
          return fail(E->line(), "unsupported pointer increment");
        bool Inc = E->Op == UnaryOp::PreInc || E->Op == UnaryOp::PostInc;
        uint16_t One = emitConstScalar(Inc ? 1.0 : -1.0);
        uint16_t Sum = newReg();
        Instr I;
        I.Op = Opcode::BinOp;
        I.Aux = static_cast<uint8_t>(VmBinOp::Add);
        I.Dst = Sum;
        I.A = B->Ptr.OffsetReg;
        I.B = One;
        emit(I);
        B->Ptr.OffsetReg = Sum;
        return 0;
      }
      auto LV = compileLValue(E->Operand.get());
      if (!LV)
        return 0;
      uint16_t Old = loadLValue(*LV);
      bool Inc = E->Op == UnaryOp::PreInc || E->Op == UnaryOp::PostInc;
      bool Post = E->Op == UnaryOp::PostInc || E->Op == UnaryOp::PostDec;
      uint16_t OldCopy = Old;
      if (Post) {
        // Preserve the pre-increment value (Old may alias the variable's
        // own register).
        OldCopy = newReg();
        emitMov(OldCopy, Old);
      }
      uint16_t One = emitConstScalar(1.0);
      uint16_t NewVal = newReg();
      Instr I;
      I.Op = Opcode::BinOp;
      I.Aux = static_cast<uint8_t>(Inc ? VmBinOp::Add : VmBinOp::Sub);
      I.Dst = NewVal;
      I.A = Old;
      I.B = One;
      emit(I);
      storeLValue(*LV, NewVal);
      return Post ? OldCopy : NewVal;
    }
    case UnaryOp::Deref: {
      auto LV = compileLValue(E);
      if (!LV)
        return 0;
      return loadLValue(*LV);
    }
    case UnaryOp::AddrOf:
      return fail(E->line(), "address-of is only supported as an atomic "
                             "operand");
    }
    return fail(E->line(), "unsupported unary operator");
  }

  uint16_t compileCall(const CallExpr *E) {
    if (E->IsBuiltin)
      return compileBuiltinCall(E);

    // Inline the user function.
    FunctionDecl *Callee = P.findFunction(E->Callee);
    if (!Callee)
      return fail(E->line(), "call to unknown function");
    if (InlineDepth > 16)
      return fail(E->line(), "inline depth exceeded");

    pushScope();
    for (size_t I = 0; I < Callee->Params.size(); ++I) {
      const ParamDecl &Param = Callee->Params[I];
      const Expr *Arg = E->Args[I].get();
      if (Param.Ty.Pointer) {
        auto Ptr = resolvePointer(Arg);
        if (!Ptr) {
          popScope();
          return 0;
        }
        Binding B;
        B.IsPointer = true;
        B.Ty = Param.Ty;
        B.Ptr = *Ptr;
        bind(Param.Name, B);
      } else {
        uint16_t R = compileExpr(Arg);
        if (Failed) {
          popScope();
          return 0;
        }
        R = coerce(R, Arg->Ty, Param.Ty);
        // Copy into a fresh register: the callee may mutate its params.
        uint16_t Copy = newReg();
        emitMov(Copy, R);
        Binding B;
        B.Ty = Param.Ty;
        B.Reg = Copy;
        bind(Param.Name, B);
      }
    }

    InlineContext Ctx;
    Ctx.HasResult = !Callee->ReturnTy.isVoid();
    if (Ctx.HasResult)
      Ctx.ResultReg = newReg();
    Inlines.push_back(Ctx);
    ++InlineDepth;
    compileStmt(Callee->Body.get());
    --InlineDepth;
    InlineContext Done = Inlines.back();
    Inlines.pop_back();
    popScope();
    if (Failed)
      return 0;
    for (size_t Jump : Done.ReturnJumps)
      patchJump(Jump, here());
    return Done.HasResult ? Done.ResultReg : 0;
  }

  uint16_t compileBuiltinCall(const CallExpr *E) {
    auto Info = lookupBuiltin(E->Callee);
    assert(Info && "sema accepted an unknown builtin");

    switch (Info->Op) {
    case BuiltinOp::AtomicAdd: case BuiltinOp::AtomicSub:
    case BuiltinOp::AtomicInc: case BuiltinOp::AtomicDec:
    case BuiltinOp::AtomicMin: case BuiltinOp::AtomicMax:
    case BuiltinOp::AtomicXchg: {
      auto Ptr = resolvePointer(E->Args[0].get());
      if (!Ptr)
        return 0;
      uint16_t ValReg = 0;
      if (E->Args.size() > 1) {
        ValReg = compileExpr(E->Args[1].get());
        if (Failed)
          return 0;
      } else {
        ValReg = emitConstScalar(1.0);
      }
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Atomic;
      I.Aux = static_cast<uint8_t>(Info->Op);
      I.Dst = Dst;
      I.A = Ptr->OffsetReg;
      I.B = ValReg;
      I.Imm = Ptr->Slot;
      I.Space = Ptr->Space;
      emit(I);
      K.AccessSites.push_back({Ptr->Space, true, false});
      return Dst;
    }

    case BuiltinOp::VLoad: {
      uint16_t Off = compileExpr(E->Args[0].get());
      if (Failed)
        return 0;
      auto Ptr = resolvePointer(E->Args[1].get());
      if (!Ptr)
        return 0;
      // Element index = (ptrOffset + off * W).
      uint16_t WReg = emitConstScalar(Info->VectorWidth);
      uint16_t Scaled = newReg();
      Instr Mul;
      Mul.Op = Opcode::BinOp;
      Mul.Aux = static_cast<uint8_t>(VmBinOp::Mul);
      Mul.Dst = Scaled;
      Mul.A = Off;
      Mul.B = WReg;
      emit(Mul);
      uint16_t Index = addOffset(Scaled, Ptr->OffsetReg);
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::VLoad;
      I.Dst = Dst;
      I.A = Index;
      I.Imm = Ptr->Slot;
      I.Space = Ptr->Space;
      I.WidthField = static_cast<uint8_t>(Info->VectorWidth);
      I.Coalesced = true; // Wide contiguous access.
      emit(I);
      K.AccessSites.push_back({Ptr->Space, false, true});
      return Dst;
    }
    case BuiltinOp::VStore: {
      uint16_t Val = compileExpr(E->Args[0].get());
      uint16_t Off = compileExpr(E->Args[1].get());
      if (Failed)
        return 0;
      auto Ptr = resolvePointer(E->Args[2].get());
      if (!Ptr)
        return 0;
      uint16_t WReg = emitConstScalar(Info->VectorWidth);
      uint16_t Scaled = newReg();
      Instr Mul;
      Mul.Op = Opcode::BinOp;
      Mul.Aux = static_cast<uint8_t>(VmBinOp::Mul);
      Mul.Dst = Scaled;
      Mul.A = Off;
      Mul.B = WReg;
      emit(Mul);
      uint16_t Index = addOffset(Scaled, Ptr->OffsetReg);
      Instr I;
      I.Op = Opcode::VStore;
      I.A = Index;
      I.B = Val;
      I.Imm = Ptr->Slot;
      I.Space = Ptr->Space;
      I.WidthField = static_cast<uint8_t>(Info->VectorWidth);
      I.Coalesced = true;
      emit(I);
      K.AccessSites.push_back({Ptr->Space, true, true});
      return 0;
    }

    case BuiltinOp::Barrier: {
      Instr I;
      I.Op = Opcode::Barrier;
      emit(I);
      K.HasBarrier = true;
      return 0;
    }
    case BuiltinOp::MemFence:
      return 0; // No-op under sequential interleaving.

    case BuiltinOp::Convert: {
      uint16_t A = compileExpr(E->Args[0].get());
      if (Failed)
        return 0;
      uint16_t Widened = coerceWidth(A, E->Args[0]->Ty.VecWidth,
                                     Info->ConvertTarget.VecWidth);
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::Cast;
      I.Dst = Dst;
      I.A = Widened;
      I.Aux = static_cast<uint8_t>(Info->ConvertTarget.S);
      emit(I);
      return Dst;
    }

    default: {
      // Generic builtin: compile args, align widths, emit CallB.
      std::vector<uint16_t> Args;
      uint8_t Width = E->Ty.VecWidth;
      for (const auto &Arg : E->Args) {
        uint16_t R = compileExpr(Arg.get());
        if (Failed)
          return 0;
        if (Arg->Ty.VecWidth == 1 && Width > 1 &&
            widthSensitiveBuiltin(Info->Op))
          R = coerceWidth(R, 1, Width);
        Args.push_back(R);
      }
      uint16_t Dst = newReg();
      Instr I;
      I.Op = Opcode::CallB;
      I.Aux = static_cast<uint8_t>(Info->Op);
      I.Dst = Dst;
      I.Imm = addArgList(std::move(Args));
      emit(I);
      return Dst;
    }
    }
  }

  /// Builtins whose lanes must be pre-broadcast so all args share the
  /// result width (math ops); geometric reductions keep their own widths.
  static bool widthSensitiveBuiltin(BuiltinOp Op) {
    switch (Op) {
    case BuiltinOp::Dot:
    case BuiltinOp::Length:
    case BuiltinOp::Distance:
    case BuiltinOp::Any:
    case BuiltinOp::All:
      return false;
    default:
      return true;
    }
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void compileStmt(const Stmt *S) {
    if (Failed)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Compound: {
      pushScope();
      for (const auto &Child : cast<CompoundStmt>(S)->Body)
        compileStmt(Child.get());
      popScope();
      return;
    }
    case Stmt::Kind::Decl:
      compileDecl(cast<DeclStmt>(S));
      return;
    case Stmt::Kind::Expr:
      compileExpr(cast<ExprStmt>(S)->E.get());
      return;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S);
      uint16_t Cond = compileCondition(IS->Cond.get());
      if (Failed)
        return;
      K.BranchSites += 1;
      size_t ElseJump = emitJump(Opcode::Jz, Cond);
      compileStmt(IS->Then.get());
      if (IS->Else) {
        size_t EndJump = emitJump(Opcode::Jmp);
        patchJump(ElseJump, here());
        compileStmt(IS->Else.get());
        patchJump(EndJump, here());
      } else {
        patchJump(ElseJump, here());
      }
      return;
    }
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      pushScope();
      if (FS->Init)
        compileStmt(FS->Init.get());
      size_t CondAt = here();
      size_t ExitJump = SIZE_MAX;
      if (FS->Cond) {
        uint16_t Cond = compileCondition(FS->Cond.get());
        if (Failed) {
          popScope();
          return;
        }
        K.BranchSites += 1;
        ExitJump = emitJump(Opcode::Jz, Cond);
      }
      Loops.emplace_back();
      compileStmt(FS->Body.get());
      size_t ContinueAt = here();
      if (FS->Step)
        compileExpr(FS->Step.get());
      Instr Back;
      Back.Op = Opcode::Jmp;
      Back.Imm = static_cast<int32_t>(CondAt);
      emit(Back);
      size_t EndAt = here();
      if (ExitJump != SIZE_MAX)
        patchJump(ExitJump, EndAt);
      for (size_t Jump : Loops.back().BreakJumps)
        patchJump(Jump, EndAt);
      for (size_t Jump : Loops.back().ContinueJumps)
        patchJump(Jump, ContinueAt);
      Loops.pop_back();
      popScope();
      return;
    }
    case Stmt::Kind::While: {
      const auto *WS = cast<WhileStmt>(S);
      size_t CondAt = here();
      uint16_t Cond = compileCondition(WS->Cond.get());
      if (Failed)
        return;
      K.BranchSites += 1;
      size_t ExitJump = emitJump(Opcode::Jz, Cond);
      Loops.emplace_back();
      compileStmt(WS->Body.get());
      Instr Back;
      Back.Op = Opcode::Jmp;
      Back.Imm = static_cast<int32_t>(CondAt);
      emit(Back);
      size_t EndAt = here();
      patchJump(ExitJump, EndAt);
      for (size_t Jump : Loops.back().BreakJumps)
        patchJump(Jump, EndAt);
      for (size_t Jump : Loops.back().ContinueJumps)
        patchJump(Jump, CondAt);
      Loops.pop_back();
      return;
    }
    case Stmt::Kind::Do: {
      const auto *DS = cast<DoStmt>(S);
      size_t BodyAt = here();
      Loops.emplace_back();
      compileStmt(DS->Body.get());
      size_t CondAt = here();
      uint16_t Cond = compileCondition(DS->Cond.get());
      if (Failed)
        return;
      K.BranchSites += 1;
      Instr Back;
      Back.Op = Opcode::Jnz;
      Back.A = Cond;
      Back.Imm = static_cast<int32_t>(BodyAt);
      emit(Back);
      size_t EndAt = here();
      for (size_t Jump : Loops.back().BreakJumps)
        patchJump(Jump, EndAt);
      for (size_t Jump : Loops.back().ContinueJumps)
        patchJump(Jump, CondAt);
      Loops.pop_back();
      return;
    }
    case Stmt::Kind::Return: {
      const auto *RS = cast<ReturnStmt>(S);
      if (!Inlines.empty()) {
        // Note: compiling the return value may inline further calls and
        // reallocate `Inlines`, so re-index the context afterwards.
        size_t CtxIndex = Inlines.size() - 1;
        if (RS->Value) {
          uint16_t R = compileExpr(RS->Value.get());
          if (Failed)
            return;
          emitMov(Inlines[CtxIndex].ResultReg, R);
        }
        Inlines[CtxIndex].ReturnJumps.push_back(emitJump(Opcode::Jmp));
        return;
      }
      // Kernel-level return: end this work-item.
      Instr I;
      I.Op = Opcode::Halt;
      emit(I);
      return;
    }
    case Stmt::Kind::Break: {
      if (Loops.empty()) {
        fail(S->line(), "break outside loop");
        return;
      }
      Loops.back().BreakJumps.push_back(emitJump(Opcode::Jmp));
      return;
    }
    case Stmt::Kind::Continue: {
      if (Loops.empty()) {
        fail(S->line(), "continue outside loop");
        return;
      }
      Loops.back().ContinueJumps.push_back(emitJump(Opcode::Jmp));
      return;
    }
    case Stmt::Kind::Empty:
      return;
    }
  }

  void compileDecl(const DeclStmt *D) {
    // Arrays become buffers.
    if (D->ArraySize > 0) {
      Binding B;
      B.IsPointer = true;
      B.Ty = D->Ty; // Element type info (Pointer flag unset for arrays).
      B.Ptr.OffsetReg = ZeroReg;
      if (D->Ty.AS == AddrSpace::Local) {
        B.Ptr.Space = MemSpace::Local;
        B.Ptr.Slot = static_cast<int>(K.LocalBuffers.size());
        K.LocalBuffers.push_back(
            {D->Ty.VecWidth, D->ArraySize});
      } else {
        B.Ptr.Space = MemSpace::Private;
        B.Ptr.Slot = static_cast<int>(K.PrivateBuffers.size());
        K.PrivateBuffers.push_back(
            {D->Ty.VecWidth, D->ArraySize});
      }
      bind(D->Name, B);
      return;
    }

    if (D->Ty.Pointer) {
      // Pointer variable: needs an initialiser with static provenance.
      Binding B;
      B.IsPointer = true;
      B.Ty = D->Ty;
      if (D->Init) {
        auto Ptr = resolvePointer(D->Init.get());
        if (!Ptr)
          return;
        B.Ptr = *Ptr;
      } else {
        fail(D->line(), "pointer variables must be initialised");
        return;
      }
      bind(D->Name, B);
      return;
    }

    Binding B;
    B.Ty = D->Ty;
    B.Reg = newReg();
    if (D->Init) {
      uint16_t R = compileExpr(D->Init.get());
      if (Failed)
        return;
      R = coerce(R, D->Init->Ty, D->Ty);
      emitMov(B.Reg, R);
      B.GidStride = gidStride(D->Init.get());
    } else {
      emitMov(B.Reg, emitConstScalar(0.0));
      B.GidStride = 0;
    }
    bind(D->Name, B);
  }

  //===------------------------------------------------------------------===//
  // Top level
  //===------------------------------------------------------------------===//

  uint16_t ZeroReg = 0;

public:
  Result<CompiledKernel> runImpl() {
    K.Name = Kernel.Name;
    pushScope();

    // Canonical zero register (offset base for direct buffer access).
    ZeroReg = emitConstScalar(0.0);

    // Parameters.
    int GlobalSlots = 0;
    for (const ParamDecl &Param : Kernel.Params) {
      ParamInfo PI;
      PI.Ty = Param.Ty;
      PI.Name = Param.Name;
      Binding B;
      B.Ty = Param.Ty;
      if (Param.Ty.Pointer) {
        B.IsPointer = true;
        B.Ptr.OffsetReg = ZeroReg;
        PI.IsBuffer = true;
        if (Param.Ty.AS == AddrSpace::Local) {
          B.Ptr.Space = MemSpace::Local;
          B.Ptr.Slot = static_cast<int>(K.LocalBuffers.size());
          K.LocalBuffers.push_back({Param.Ty.VecWidth, 0});
          PI.BufferSlot = B.Ptr.Slot;
        } else {
          // Global and __constant pointers both bind to global slots.
          B.Ptr.Space = MemSpace::Global;
          B.Ptr.Slot = GlobalSlots++;
          PI.BufferSlot = B.Ptr.Slot;
        }
      } else {
        B.Reg = newReg();
        PI.Reg = B.Reg;
        B.GidStride = 0;
      }
      K.Params.push_back(PI);
      bind(Param.Name, B);
    }

    // File-scope constants are evaluated in the prologue.
    for (const auto &GC : P.Constants) {
      Binding B;
      B.Ty = GC.Ty;
      B.Reg = newReg();
      B.GidStride = 0;
      if (GC.Init) {
        uint16_t R = compileExpr(GC.Init.get());
        if (Failed)
          return Result<CompiledKernel>::error(Diagnostic);
        emitMov(B.Reg, R);
      } else {
        emitMov(B.Reg, emitConstScalar(0.0));
      }
      bind(GC.Name, B);
    }

    compileStmt(Kernel.Body.get());
    if (Failed)
      return Result<CompiledKernel>::error(Diagnostic);

    Instr End;
    End.Op = Opcode::Halt;
    emit(End);
    popScope();

    std::string VerifyError = verifyKernel(K);
    if (!VerifyError.empty())
      return Result<CompiledKernel>::error("internal: " + VerifyError);
    return K;
  }
};

} // namespace

Result<CompiledKernel> KernelCompiler::run() { return runImpl(); }

Result<CompiledKernel> vm::compileKernel(const Program &P,
                                         const FunctionDecl &Kernel) {
  KernelCompiler C(P, Kernel);
  return C.run();
}

Result<CompiledKernel> vm::compileFirstKernel(const std::string &Source) {
  auto Parsed = parseProgram(Source);
  if (!Parsed.ok())
    return Result<CompiledKernel>::error(Parsed.errorMessage());
  auto Prog = Parsed.take();
  Status S = analyze(*Prog);
  if (!S.ok())
    return Result<CompiledKernel>::error(S.errorMessage());
  FunctionDecl *Kernel = Prog->firstKernel();
  if (!Kernel)
    return Result<CompiledKernel>::error("no kernel function found");
  return compileKernel(*Prog, *Kernel);
}

//===----------------------------------------------------------------------===//
// Launch-time lowering to the dispatch-resolved execution form
//===----------------------------------------------------------------------===//

namespace {

/// Decodes one bytecode instruction into its extended opcode.
ExtOp decodeExtOp(const Instr &In) {
  switch (In.Op) {
  case Opcode::LoadConst: return ExtOp::LoadConst;
  case Opcode::Mov: return ExtOp::Mov;
  case Opcode::BinOp:
    // The Bin* block mirrors VmBinOp, so specialization is an offset.
    return static_cast<ExtOp>(static_cast<uint8_t>(ExtOp::BinAdd) + In.Aux);
  case Opcode::UnOp: return ExtOp::UnOp;
  case Opcode::Cast: return ExtOp::Cast;
  case Opcode::Broadcast: return ExtOp::Broadcast;
  case Opcode::Swizzle: return ExtOp::Swizzle;
  case Opcode::InsertLanes: return ExtOp::InsertLanes;
  case Opcode::BuildVec: return ExtOp::BuildVec;
  case Opcode::LoadMem: return ExtOp::LoadMem;
  case Opcode::StoreMem: return ExtOp::StoreMem;
  case Opcode::VLoad: return ExtOp::VLoad;
  case Opcode::VStore: return ExtOp::VStore;
  case Opcode::CallB: return ExtOp::CallB;
  case Opcode::Atomic: return ExtOp::Atomic;
  case Opcode::Jmp: return ExtOp::Jmp;
  case Opcode::Jz: return ExtOp::Jz;
  case Opcode::Jnz: return ExtOp::Jnz;
  case Opcode::Barrier: return ExtOp::Barrier;
  case Opcode::Halt: return ExtOp::Halt;
  }
  return ExtOp::Halt;
}

} // namespace

void vm::prepareExecProgram(const CompiledKernel &K, ExecProgram &Out) {
  size_t N = K.Code.size();
  Out.Code.resize(N + 1); // +1: sentinel Halt (jump target == N is legal).
  Out.BranchSiteCount = 0;
  for (size_t I = 0; I < N; ++I) {
    ExecInstr &E = Out.Code[I];
    const Instr &In = K.Code[I];
    E.Ext = static_cast<uint8_t>(decodeExtOp(In));
    E.I = In;
    E.BranchSite = -1;
    if (In.Op == Opcode::Jz || In.Op == Opcode::Jnz)
      E.BranchSite = Out.BranchSiteCount++;
  }
  ExecInstr &Sentinel = Out.Code[N];
  Sentinel.Ext = static_cast<uint8_t>(ExtOp::Halt);
  Sentinel.BranchSite = -1;
  Sentinel.I = Instr();
  Sentinel.I.Op = Opcode::Halt;
}
