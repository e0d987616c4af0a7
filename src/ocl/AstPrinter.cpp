//===- ocl/AstPrinter.cpp - Style-normalised source printer ------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ocl/AstPrinter.h"

#include "ocl/Casting.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace clgen;
using namespace clgen::ocl;

namespace {

/// Precedence levels used to decide where parentheses are required when
/// printing nested expressions. Higher binds tighter.
int exprPrecedence(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::FloatLiteral:
  case Expr::Kind::VarRef:
  case Expr::Kind::Call:
  case Expr::Kind::Index:
  case Expr::Kind::Member:
  case Expr::Kind::VectorLiteral:
    return 100;
  case Expr::Kind::Unary:
  case Expr::Kind::Cast:
    return 50;
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    if (isAssignmentOp(BE->Op))
      return 1;
    switch (BE->Op) {
    case BinaryOp::Mul: case BinaryOp::Div: case BinaryOp::Rem: return 20;
    case BinaryOp::Add: case BinaryOp::Sub: return 19;
    case BinaryOp::Shl: case BinaryOp::Shr: return 18;
    case BinaryOp::Lt: case BinaryOp::Gt:
    case BinaryOp::Le: case BinaryOp::Ge: return 17;
    case BinaryOp::Eq: case BinaryOp::Ne: return 16;
    case BinaryOp::BitAnd: return 15;
    case BinaryOp::BitXor: return 14;
    case BinaryOp::BitOr: return 13;
    case BinaryOp::LAnd: return 12;
    case BinaryOp::LOr: return 11;
    default: return 1;
    }
  }
  case Expr::Kind::Conditional:
    return 2;
  }
  return 0;
}

std::string formatFloatLiteral(double Value, bool IsDouble) {
  // Round-trip-safe formatting: pick the shortest precision that parses
  // back to the identical value, so rewriting never perturbs constants.
  std::string Text;
  for (int Precision : {6, 9, 17}) {
    Text = formatString("%.*g", Precision, Value);
    if (std::strtod(Text.c_str(), nullptr) == Value)
      break;
  }
  if (Text.find('.') == std::string::npos &&
      Text.find('e') == std::string::npos &&
      Text.find("inf") == std::string::npos &&
      Text.find("nan") == std::string::npos)
    Text += ".0";
  if (!IsDouble)
    Text += "f";
  return Text;
}

class PrinterImpl {
public:
  std::string renderExpr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLiteral: {
      const auto *IL = cast<IntLiteralExpr>(E);
      std::string Text = std::to_string(IL->Value);
      if (IL->IsUnsigned)
        Text += "u";
      return Text;
    }
    case Expr::Kind::FloatLiteral: {
      const auto *FL = cast<FloatLiteralExpr>(E);
      return formatFloatLiteral(FL->Value, FL->IsDoublePrecision);
    }
    case Expr::Kind::VarRef:
      return cast<VarRefExpr>(E)->Name;
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      int Prec = exprPrecedence(E);
      // Left operand: parenthesise if strictly weaker. Right operand:
      // parenthesise if weaker-or-equal (left associativity), except for
      // assignments which associate right.
      bool Assign = isAssignmentOp(BE->Op);
      std::string L = renderChild(BE->Lhs.get(), Assign ? Prec + 1 : Prec);
      std::string R = renderChild(BE->Rhs.get(), Assign ? Prec : Prec + 1);
      return L + " " + binaryOpSpelling(BE->Op) + " " + R;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      std::string Operand = renderChild(UE->Operand.get(), 50);
      if (UE->Op == UnaryOp::PostInc)
        return Operand + "++";
      if (UE->Op == UnaryOp::PostDec)
        return Operand + "--";
      return std::string(unaryOpSpelling(UE->Op)) + Operand;
    }
    case Expr::Kind::Call: {
      const auto *CE = cast<CallExpr>(E);
      std::vector<std::string> Args;
      Args.reserve(CE->Args.size());
      for (const auto &Arg : CE->Args)
        Args.push_back(renderExpr(Arg.get()));
      return CE->Callee + "(" + joinStrings(Args, ", ") + ")";
    }
    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      return renderChild(IE->Base.get(), 100) + "[" +
             renderExpr(IE->Index.get()) + "]";
    }
    case Expr::Kind::Member: {
      const auto *ME = cast<MemberExpr>(E);
      return renderChild(ME->Base.get(), 100) + "." + ME->Component;
    }
    case Expr::Kind::Cast: {
      const auto *CE = cast<CastExpr>(E);
      std::string S = "(";
      S += typeName(CE->Target);
      S += ")";
      S += renderChild(CE->Operand.get(), 50);
      return S;
    }
    case Expr::Kind::VectorLiteral: {
      const auto *VL = cast<VectorLiteralExpr>(E);
      std::vector<std::string> Elems;
      Elems.reserve(VL->Elements.size());
      for (const auto &Elem : VL->Elements)
        Elems.push_back(renderExpr(Elem.get()));
      std::string S = "(";
      S += scalarTypeName(VL->Target.S, VL->Target.VecWidth);
      S += ")(";
      S += joinStrings(Elems, ", ");
      S += ")";
      return S;
    }
    case Expr::Kind::Conditional: {
      const auto *CE = cast<ConditionalExpr>(E);
      return renderChild(CE->Cond.get(), 3) + " ? " +
             renderExpr(CE->TrueExpr.get()) + " : " +
             renderExpr(CE->FalseExpr.get());
    }
    }
    return "<expr>";
  }

  std::string renderChild(const Expr *E, int ParentPrec) {
    std::string Text = renderExpr(E);
    if (exprPrecedence(E) < ParentPrec)
      return "(" + Text + ")";
    return Text;
  }

  void renderStmt(const Stmt *S, std::string &Out, int Indent) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (S->kind()) {
    case Stmt::Kind::Compound: {
      const auto *CS = cast<CompoundStmt>(S);
      for (const auto &Child : CS->Body)
        renderStmt(Child.get(), Out, Indent);
      return;
    }
    case Stmt::Kind::Decl: {
      const auto *DS = cast<DeclStmt>(S);
      Out += Pad + renderDecl(DS) + ";\n";
      return;
    }
    case Stmt::Kind::Expr:
      Out += Pad + renderExpr(cast<ExprStmt>(S)->E.get()) + ";\n";
      return;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S);
      Out += Pad + "if (" + renderExpr(IS->Cond.get()) + ") {\n";
      renderStmt(IS->Then.get(), Out, Indent + 1);
      if (IS->Else) {
        Out += Pad + "} else {\n";
        renderStmt(IS->Else.get(), Out, Indent + 1);
      }
      Out += Pad + "}\n";
      return;
    }
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      std::string Init;
      if (FS->Init) {
        if (const auto *DS = dyn_cast<DeclStmt>(FS->Init.get()))
          Init = renderDecl(DS);
        else if (const auto *ES = dyn_cast<ExprStmt>(FS->Init.get()))
          Init = renderExpr(ES->E.get());
        else if (const auto *CS = dyn_cast<CompoundStmt>(FS->Init.get())) {
          // Multi-declarator init: type name = v, name2 = v2.
          std::vector<std::string> Parts;
          for (const auto &Child : CS->Body)
            if (const auto *D = dyn_cast<DeclStmt>(Child.get()))
              Parts.push_back(renderDecl(D));
          Init = joinStrings(Parts, ", ");
        }
      }
      std::string Cond = FS->Cond ? renderExpr(FS->Cond.get()) : "";
      std::string Step = FS->Step ? renderExpr(FS->Step.get()) : "";
      Out += Pad + "for (" + Init + "; " + Cond + "; " + Step + ") {\n";
      renderStmt(FS->Body.get(), Out, Indent + 1);
      Out += Pad + "}\n";
      return;
    }
    case Stmt::Kind::While: {
      const auto *WS = cast<WhileStmt>(S);
      Out += Pad + "while (" + renderExpr(WS->Cond.get()) + ") {\n";
      renderStmt(WS->Body.get(), Out, Indent + 1);
      Out += Pad + "}\n";
      return;
    }
    case Stmt::Kind::Do: {
      const auto *DS = cast<DoStmt>(S);
      Out += Pad + "do {\n";
      renderStmt(DS->Body.get(), Out, Indent + 1);
      Out += Pad + "} while (" + renderExpr(DS->Cond.get()) + ");\n";
      return;
    }
    case Stmt::Kind::Return: {
      const auto *RS = cast<ReturnStmt>(S);
      if (RS->Value)
        Out += Pad + "return " + renderExpr(RS->Value.get()) + ";\n";
      else
        Out += Pad + "return;\n";
      return;
    }
    case Stmt::Kind::Break:
      Out += Pad + "break;\n";
      return;
    case Stmt::Kind::Continue:
      Out += Pad + "continue;\n";
      return;
    case Stmt::Kind::Empty:
      return;
    }
  }

  std::string renderDecl(const DeclStmt *DS) {
    QualType Ty = DS->Ty;
    std::string Text;
    // Address space comes first even for arrays ("__local float t[64]").
    if (DS->ArraySize > 0) {
      switch (Ty.AS) {
      case AddrSpace::Local: Text += "__local "; break;
      case AddrSpace::Constant: Text += "__constant "; break;
      default: break;
      }
      if (Ty.Const)
        Text += "const ";
      Text += scalarTypeName(Ty.S, Ty.VecWidth);
      Text += " " + DS->Name + "[" + std::to_string(DS->ArraySize) + "]";
    } else {
      Text += typeName(Ty);
      Text += Ty.Pointer ? " " : " ";
      Text += DS->Name;
    }
    if (DS->Init)
      Text += " = " + renderExpr(DS->Init.get());
    return Text;
  }

  std::string renderFunction(const FunctionDecl &F) {
    std::string Out;
    if (F.IsKernel)
      Out += "__kernel ";
    else if (F.IsInline)
      Out += "inline ";
    Out += typeName(F.ReturnTy) + " " + F.Name + "(";
    std::vector<std::string> Params;
    Params.reserve(F.Params.size());
    for (const ParamDecl &P : F.Params)
      Params.push_back(typeName(P.Ty) + " " + P.Name);
    Out += joinStrings(Params, ", ") + ") {\n";
    if (F.Body)
      renderStmt(F.Body.get(), Out, 1);
    Out += "}";
    return Out;
  }
};

} // namespace

std::string ocl::printExpr(const Expr &E) {
  PrinterImpl Impl;
  return Impl.renderExpr(&E);
}

std::string ocl::printFunction(const FunctionDecl &F) {
  PrinterImpl Impl;
  return Impl.renderFunction(F);
}

std::string ocl::printProgram(const Program &P) {
  PrinterImpl Impl;
  std::string Out;
  for (const auto &GC : P.Constants) {
    Out += typeName(GC.Ty) + " " + GC.Name;
    if (GC.Init)
      Out += " = " + Impl.renderExpr(GC.Init.get());
    Out += ";\n\n";
  }
  for (size_t I = 0; I < P.Functions.size(); ++I) {
    Out += Impl.renderFunction(*P.Functions[I]);
    Out += "\n";
    if (I + 1 < P.Functions.size())
      Out += "\n";
  }
  return Out;
}
