//===- ir/Ir.cpp - Intermediate representation -----------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/Ir.h"

#include <sstream>

using namespace astral;
using namespace astral::ir;

static const char *unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg: return "-";
  case UnOp::LogicalNot: return "!";
  case UnOp::BitNot: return "~";
  }
  return "?";
}

static const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add: return "+";
  case BinOp::Sub: return "-";
  case BinOp::Mul: return "*";
  case BinOp::Div: return "/";
  case BinOp::Rem: return "%";
  case BinOp::Shl: return "<<";
  case BinOp::Shr: return ">>";
  case BinOp::And: return "&";
  case BinOp::Or: return "|";
  case BinOp::Xor: return "^";
  case BinOp::Lt: return "<";
  case BinOp::Le: return "<=";
  case BinOp::Gt: return ">";
  case BinOp::Ge: return ">=";
  case BinOp::Eq: return "==";
  case BinOp::Ne: return "!=";
  case BinOp::LogicalAnd: return "&&";
  case BinOp::LogicalOr: return "||";
  }
  return "?";
}

std::string ir::lvalueToString(const Program &P, const LValue &Lv) {
  std::string Out = Lv.Base < P.Vars.size() ? P.Vars[Lv.Base].Name
                                            : "<badvar>";
  for (const Access &A : Lv.Path) {
    switch (A.K) {
    case Access::Kind::Field:
      Out += ".f" + std::to_string(A.FieldIdx);
      break;
    case Access::Kind::Index:
      Out.append("[").append(exprToString(P, A.Index)).append("]");
      break;
    case Access::Kind::Deref:
      Out = "*" + Out;
      break;
    }
  }
  return Out;
}

std::string ir::exprToString(const Program &P, const Expr *E) {
  if (!E)
    return "<null>";
  switch (E->Kind) {
  case ExprKind::ConstInt:
    return std::to_string(E->IntVal);
  case ExprKind::ConstFloat: {
    std::ostringstream OS;
    OS.precision(17);
    OS << E->FloatVal;
    return OS.str();
  }
  case ExprKind::Load:
    return lvalueToString(P, E->Lv);
  case ExprKind::Unary:
    return std::string(unOpName(E->UO)) + "(" + exprToString(P, E->A) + ")";
  // The bracketed forms append onto a named string: `"(" + std::string&&`
  // trips a GCC 12 -Wrestrict false positive at -O3.
  case ExprKind::Binary: {
    std::string Out = "(";
    Out.append(exprToString(P, E->A)).append(" ").append(binOpName(E->BO));
    return Out.append(" ").append(exprToString(P, E->B)).append(")");
  }
  case ExprKind::Cast: {
    std::string Out = "(";
    Out.append(E->Ty->toString()).append(")(");
    return Out.append(exprToString(P, E->A)).append(")");
  }
  }
  return "?";
}

std::string ir::stmtToString(const Program &P, const Stmt *S, int Indent) {
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  if (!S)
    return Pad + "<null>\n";
  switch (S->Kind) {
  case StmtKind::Assign:
    return Pad + lvalueToString(P, S->Lhs) + " := " +
           exprToString(P, S->Rhs) + ";\n";
  case StmtKind::If: {
    std::string Out =
        Pad + "if (" + exprToString(P, S->Cond) + ") {\n";
    Out += stmtToString(P, S->Then, Indent + 1);
    if (S->Else) {
      Out += Pad + "} else {\n";
      Out += stmtToString(P, S->Else, Indent + 1);
    }
    Out += Pad + "}\n";
    return Out;
  }
  case StmtKind::While: {
    std::string Out = Pad + "while#" + std::to_string(S->LoopId) + " (" +
                      exprToString(P, S->Cond) + ") {\n";
    Out += stmtToString(P, S->Body, Indent + 1);
    if (S->Step) {
      Out += Pad + "  step:\n";
      Out += stmtToString(P, S->Step, Indent + 1);
    }
    Out += Pad + "}\n";
    return Out;
  }
  case StmtKind::Seq: {
    std::string Out;
    for (const Stmt *Child : S->Stmts)
      Out += stmtToString(P, Child, Indent);
    return Out;
  }
  case StmtKind::Call: {
    std::string Out = Pad;
    if (S->RetTo)
      Out += lvalueToString(P, *S->RetTo) + " := ";
    const Function *F = P.function(S->Callee);
    Out += (F ? F->Name : "<badfn>") + "(";
    for (size_t I = 0; I < S->Args.size(); ++I) {
      if (I)
        Out += ", ";
      if (S->Args[I].IsRef)
        Out.append("&").append(lvalueToString(P, S->Args[I].Ref));
      else
        Out += exprToString(P, S->Args[I].Value);
    }
    return Out + ");\n";
  }
  case StmtKind::Return: {
    std::string Out = Pad + "return";
    if (S->RetVal)
      Out.append(" ").append(exprToString(P, S->RetVal));
    return Out + ";\n";
  }
  case StmtKind::Break:
    return Pad + "break;\n";
  case StmtKind::Continue:
    return Pad + "continue;\n";
  case StmtKind::Wait:
    return Pad + "wait;\n";
  case StmtKind::Assume:
    return Pad + "assume(" + exprToString(P, S->Cond) + ");\n";
  case StmtKind::Assert:
    return Pad + "assert(" + exprToString(P, S->Cond) + ");\n";
  case StmtKind::Nop:
    return Pad + "nop;\n";
  }
  return Pad + "?\n";
}

std::string Program::dump() const {
  std::string Out;
  Out += "program: " + std::to_string(Vars.size()) + " vars, " +
         std::to_string(Functions.size()) + " functions\n";
  if (GlobalInit) {
    Out += "init:\n";
    Out += stmtToString(*this, GlobalInit, 1);
  }
  for (const Function &F : Functions) {
    if (!F.Body)
      continue;
    Out += F.Name + "(";
    for (size_t I = 0; I < F.Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Vars[F.Params[I]].Name;
    }
    Out += "):\n";
    Out += stmtToString(*this, F.Body, 1);
  }
  return Out;
}
