//===- interp/Interpreter.cpp - Tree-walking interpreter ---------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Trace.h"
#include "runtime/Builtins.h"
#include "runtime/Ops.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace majic;
using rt::Indexer;

namespace majic {

/// One activation record: the slot file plus the evaluation logic.
class InterpFrame {
public:
  InterpFrame(Interpreter &I, const Function &F, std::vector<ValuePtr> &Slots)
      : I(I), F(F), Slots(Slots) {}

  enum class Flow : uint8_t { Normal, Break, Continue, Return };

  Flow execBlock(const Block &B);
  Flow execStmt(const Stmt *S);

  ValuePtr evalExpr(const Expr *E);

private:
  /// How a symbol occurrence resolves right now (ambiguous symbols are
  /// decided here, at runtime, as the paper prescribes).
  enum class DynKind { Variable, Builtin, UserFunction };
  DynKind resolveDynamic(const IdentExpr *Id) const;

  ValuePtr &slot(int SlotIdx) {
    assert(SlotIdx >= 0 && static_cast<size_t>(SlotIdx) < Slots.size());
    return Slots[static_cast<size_t>(SlotIdx)];
  }

  /// Variable access through the dynamic symbol table: MATLAB 6 resolved
  /// every occurrence by name at runtime, so the faithful front end pays a
  /// hash lookup per access (Section 2.1). The value storage stays in the
  /// slot file.
  ValuePtr &varAccess(const std::string &Name, int SlotIdx) {
    auto [It, Inserted] = DynTable.try_emplace(Name, SlotIdx);
    return slot(It->second);
  }

  ValuePtr evalIdent(const IdentExpr *Id);
  ValuePtr evalIndexOrCall(const IndexOrCallExpr *IC);
  std::vector<ValuePtr> evalCall(const IndexOrCallExpr *IC, size_t NumOuts);
  Value evalIndexRead(const Value &Base, const std::vector<Expr *> &Args);
  Indexer evalIndexer(const Expr *Arg, const Value &Base, size_t Dim,
                      size_t NumDims);
  ValuePtr evalMatrix(const MatrixExpr *M);

  void execAssign(const AssignStmt *A);
  void assignTo(const LValue &LV, ValuePtr V);
  void display(const std::string &Name, const Value &V);

  Interpreter &I;
  const Function &F;
  std::vector<ValuePtr> &Slots;

  /// Binding for 'end' while evaluating a subscript expression.
  const Value *EndBase = nullptr;
  size_t EndLen = 0;

  /// The dynamic symbol table (name -> slot).
  std::unordered_map<std::string, int> DynTable;
};

} // namespace majic

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

std::vector<ValuePtr> Interpreter::run(const Function &F,
                                       std::vector<ValuePtr> Args,
                                       size_t NumOuts) {
  obs::TraceScope Span("interp.run", "exec", F.name());
  if (Args.size() > F.params().size())
    throw MatlabError(format("too many input arguments to '%s'",
                             F.name().c_str()));
  std::vector<ValuePtr> Slots(F.numSlots());
  for (size_t A = 0; A != Args.size(); ++A) {
    int SlotIdx = F.paramSlots()[A];
    if (SlotIdx >= 0)
      Slots[SlotIdx] = std::move(Args[A]); // CoW: no copy for read-only use
  }
  InterpFrame Frame(*this, F, Slots);
  Frame.execBlock(F.body());

  // nargout = 0 (statement context): no output is required, but the first
  // declared output is returned when assigned so the caller can display it.
  if (NumOuts == 0) {
    if (!F.outs().empty() && F.outSlots()[0] >= 0 && Slots[F.outSlots()[0]])
      return {Slots[F.outSlots()[0]]};
    return {};
  }

  std::vector<ValuePtr> Outs;
  for (size_t O = 0; O != NumOuts; ++O) {
    if (O >= F.outs().size())
      throw MatlabError(format("too many output arguments from '%s'",
                               F.name().c_str()));
    int SlotIdx = F.outSlots()[O];
    ValuePtr V = SlotIdx >= 0 ? Slots[SlotIdx] : nullptr;
    if (!V)
      throw MatlabError(format("output argument '%s' of '%s' not assigned",
                               F.outs()[O].c_str(), F.name().c_str()));
    Outs.push_back(std::move(V));
  }
  return Outs;
}

void Interpreter::runScript(const Function &F,
                            std::vector<ValuePtr> &Workspace) {
  obs::TraceScope Span("interp.script", "exec", F.name());
  Workspace.resize(F.numSlots());
  InterpFrame Frame(*this, F, Workspace);
  Frame.execBlock(F.body());
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

InterpFrame::Flow InterpFrame::execBlock(const Block &B) {
  for (const Stmt *S : B) {
    Flow FlowResult = execStmt(S);
    if (FlowResult != Flow::Normal)
      return FlowResult;
  }
  return Flow::Normal;
}

InterpFrame::Flow InterpFrame::execStmt(const Stmt *S) {
  // Execution-limit poll (op budget + cooperative interrupt): the
  // interpreter's statement granularity is its natural cancellation point.
  I.Ctx.Exec.consume(1);
  switch (S->getKind()) {
  case Stmt::Kind::Expr: {
    const auto *ES = cast<ExprStmt>(S);
    // A bare call with zero desired outputs is effect-only (disp, plot...).
    if (const auto *IC = dyn_cast<IndexOrCallExpr>(ES->expr())) {
      if (resolveDynamic(IC->base()) != DynKind::Variable) {
        // Statement context is nargout = 0: void functions run fine, and a
        // produced first output displays as ans when not suppressed.
        std::vector<ValuePtr> Rs = evalCall(IC, 0);
        if (ES->displays() && !Rs.empty())
          display("ans", *Rs.front());
        return Flow::Normal;
      }
    }
    ValuePtr V = evalExpr(ES->expr());
    if (ES->displays())
      display("ans", *V);
    return Flow::Normal;
  }

  case Stmt::Kind::Assign:
    execAssign(cast<AssignStmt>(S));
    return Flow::Normal;

  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    for (const IfStmt::Branch &Br : If->branches())
      if (evalExpr(Br.Cond)->isTrue())
        return execBlock(Br.Body);
    return execBlock(If->elseBlock());
  }

  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (evalExpr(W->cond())->isTrue()) {
      // Charge each iteration, not just each body statement: an empty-body
      // `while 1, end` must still hit the op budget / interrupt poll.
      I.Ctx.Exec.consume(1);
      Flow FlowResult = execBlock(W->body());
      if (FlowResult == Flow::Break)
        break;
      if (FlowResult == Flow::Return)
        return Flow::Return;
    }
    return Flow::Normal;
  }

  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    ValuePtr Iterand = evalExpr(For->iterand());
    const Value &It = *Iterand;
    int VarSlot = For->loopVarSlot();
    assert(VarSlot >= 0 && "loop variable without a slot");
    // MATLAB iterates over the columns of the iterand.
    size_t NumIter = It.isEmpty() ? 0 : It.cols();
    for (size_t J = 0; J != NumIter; ++J) {
      I.Ctx.Exec.consume(1); // empty-body loops must still poll (see While)
      ValuePtr &LoopVar = varAccess(For->loopVar(), VarSlot);
      if (It.rows() == 1) {
        Value V = Value::scalar(It.re(J));
        if (It.isComplex()) {
          V = Value::complexScalar(It.re(J), It.im(J));
        } else {
          V.setClass(It.mclass() == MClass::String ? MClass::Real
                                                   : It.mclass());
        }
        LoopVar = makeValue(std::move(V));
      } else {
        LoopVar =
            makeValue(rt::index2(It, Indexer::colon(), Indexer::single(J)));
      }
      Flow FlowResult = execBlock(For->body());
      if (FlowResult == Flow::Break)
        break;
      if (FlowResult == Flow::Return)
        return Flow::Return;
    }
    return Flow::Normal;
  }

  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  case Stmt::Kind::Return:
    return Flow::Return;

  case Stmt::Kind::Clear: {
    const auto *C = cast<ClearStmt>(S);
    if (C->names().empty()) {
      for (ValuePtr &V : Slots)
        V = nullptr;
      return Flow::Normal;
    }
    // Specific names were resolved to slots by the disambiguator; names
    // that never denote variables are ignored, like MATLAB does.
    for (int SlotIdx : C->slots())
      if (SlotIdx >= 0)
        slot(SlotIdx) = nullptr;
    return Flow::Normal;
  }
  }
  majic_unreachable("invalid statement kind");
}

void InterpFrame::execAssign(const AssignStmt *A) {
  if (A->isMulti()) {
    const auto *IC = dyn_cast<IndexOrCallExpr>(A->rhs());
    if (!IC || resolveDynamic(IC->base()) == DynKind::Variable)
      throw MatlabError("multiple assignment requires a function call on the "
                        "right-hand side");
    std::vector<ValuePtr> Rs = evalCall(IC, A->targets().size());
    if (Rs.size() < A->targets().size())
      throw MatlabError("not enough output arguments");
    for (size_t T = 0; T != A->targets().size(); ++T) {
      assignTo(A->targets()[T], Rs[T]);
      if (A->displays())
        display(A->targets()[T].Name, *Rs[T]);
    }
    return;
  }
  ValuePtr V = evalExpr(A->rhs());
  assignTo(A->targets().front(), V);
  if (A->displays()) {
    const LValue &LV = A->targets().front();
    display(LV.Name, *slot(LV.VarSlot));
  }
}

void InterpFrame::assignTo(const LValue &LV, ValuePtr V) {
  assert(LV.VarSlot >= 0 && "assignment target without a slot");
  ValuePtr &Dest = varAccess(LV.Name, LV.VarSlot);
  if (!LV.HasParens) {
    Dest = std::move(V);
    return;
  }
  // Indexed assignment with resize-on-write semantics.
  if (!Dest)
    Dest = makeValue(Value()); // auto-vivify as []
  Value &Base = makeUnique(Dest);
  if (LV.Indices.size() == 1) {
    Indexer I = evalIndexer(LV.Indices[0], Base, 0, 1);
    rt::indexAssign1(Base, I, *V);
  } else if (LV.Indices.size() == 2) {
    Indexer R = evalIndexer(LV.Indices[0], Base, 0, 2);
    Indexer C = evalIndexer(LV.Indices[1], Base, 1, 2);
    rt::indexAssign2(Base, R, C, *V);
  } else {
    throw MatlabError("only 1-D and 2-D subscripts are supported");
  }
}

void InterpFrame::display(const std::string &Name, const Value &V) {
  I.Ctx.print(rt::displayValue(V, Name.empty() ? "ans" : Name));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

InterpFrame::DynKind InterpFrame::resolveDynamic(const IdentExpr *Id) const {
  switch (Id->symKind()) {
  case SymKind::Variable:
    return DynKind::Variable;
  case SymKind::Builtin:
    return DynKind::Builtin;
  case SymKind::UserFunction:
    return DynKind::UserFunction;
  case SymKind::Ambiguous: {
    // The runtime decision the compiler deferred (Section 2.1): a live
    // variable wins, then builtins, then user functions.
    int SlotIdx = Id->varSlot();
    if (SlotIdx >= 0 && Slots[SlotIdx])
      return DynKind::Variable;
    if (BuiltinTable::instance().contains(Id->name()))
      return DynKind::Builtin;
    return DynKind::UserFunction;
  }
  case SymKind::Unresolved:
    break;
  }
  majic_unreachable("unresolved symbol reached the interpreter");
}

ValuePtr InterpFrame::evalIdent(const IdentExpr *Id) {
  switch (resolveDynamic(Id)) {
  case DynKind::Variable: {
    ValuePtr V = varAccess(Id->name(), Id->varSlot());
    if (!V)
      throw MatlabError(
          format("undefined function or variable '%s'", Id->name().c_str()),
          Id->getLoc());
    return V;
  }
  case DynKind::Builtin: {
    const BuiltinDef *Def = BuiltinTable::instance().lookup(Id->name());
    std::vector<Value> Rs = BuiltinTable::call(*Def, I.Ctx, {}, 1);
    if (Rs.empty())
      throw MatlabError(format("builtin '%s' returns no value",
                               Id->name().c_str()));
    return makeValue(std::move(Rs.front()));
  }
  case DynKind::UserFunction: {
    std::vector<ValuePtr> Rs =
        I.Resolver.callFunction(Id->name(), {}, 1, Id->getLoc());
    if (Rs.empty())
      throw MatlabError(format("function '%s' returns no value",
                               Id->name().c_str()));
    return Rs.front();
  }
  }
  majic_unreachable("invalid dynamic kind");
}

Indexer InterpFrame::evalIndexer(const Expr *Arg, const Value &Base,
                                 size_t Dim, size_t NumDims) {
  if (isa<ColonWildcardExpr>(Arg))
    return Indexer::colon();
  size_t DimLen;
  if (NumDims == 1)
    DimLen = Base.numel();
  else
    DimLen = Dim == 0 ? Base.rows() : Base.cols();
  // 'end' in this subscript position resolves to DimLen; evaluate with a
  // scoped binding.
  ValuePtr IdxV = [&] {
    struct EndScope {
      InterpFrame &Frame;
      const Value *Saved;
      size_t SavedLen;
      EndScope(InterpFrame &Frame, const Value *B, size_t L)
          : Frame(Frame), Saved(Frame.EndBase), SavedLen(Frame.EndLen) {
        Frame.EndBase = B;
        Frame.EndLen = L;
      }
      ~EndScope() {
        Frame.EndBase = Saved;
        Frame.EndLen = SavedLen;
      }
    } Scope(*this, &Base, DimLen);
    return evalExpr(Arg);
  }();
  return Indexer::fromValue(*IdxV, DimLen);
}

Value InterpFrame::evalIndexRead(const Value &Base,
                                 const std::vector<Expr *> &Args) {
  if (Args.empty())
    return Base; // x() is x
  if (Args.size() == 1) {
    Indexer I1 = evalIndexer(Args[0], Base, 0, 1);
    return rt::index1(Base, I1);
  }
  if (Args.size() == 2) {
    Indexer R = evalIndexer(Args[0], Base, 0, 2);
    Indexer C = evalIndexer(Args[1], Base, 1, 2);
    return rt::index2(Base, R, C);
  }
  throw MatlabError("only 1-D and 2-D subscripts are supported");
}

std::vector<ValuePtr> InterpFrame::evalCall(const IndexOrCallExpr *IC,
                                            size_t NumOuts) {
  std::vector<ValuePtr> Args;
  Args.reserve(IC->args().size());
  for (const Expr *A : IC->args()) {
    if (isa<ColonWildcardExpr>(A) || isa<EndRefExpr>(A))
      throw MatlabError("':' and 'end' are only valid inside subscripts",
                        A->getLoc());
    Args.push_back(evalExpr(A));
  }

  DynKind DK = resolveDynamic(IC->base());
  if (DK == DynKind::Builtin) {
    const BuiltinDef *Def = BuiltinTable::instance().lookup(IC->base()->name());
    std::vector<const Value *> Ptrs;
    Ptrs.reserve(Args.size());
    for (const ValuePtr &P : Args)
      Ptrs.push_back(P.get());
    std::vector<Value> Rs = BuiltinTable::call(*Def, I.Ctx, Ptrs, NumOuts);
    std::vector<ValuePtr> Out;
    for (Value &V : Rs)
      Out.push_back(makeValue(std::move(V)));
    return Out;
  }
  assert(DK == DynKind::UserFunction && "evalCall on a variable");
  return I.Resolver.callFunction(IC->base()->name(), std::move(Args), NumOuts,
                                 IC->getLoc());
}

ValuePtr InterpFrame::evalIndexOrCall(const IndexOrCallExpr *IC) {
  if (resolveDynamic(IC->base()) == DynKind::Variable) {
    ValuePtr Base = varAccess(IC->base()->name(), IC->base()->varSlot());
    if (!Base)
      throw MatlabError(format("undefined function or variable '%s'",
                               IC->base()->name().c_str()),
                        IC->getLoc());
    return makeValue(evalIndexRead(*Base, IC->args()));
  }
  std::vector<ValuePtr> Rs = evalCall(IC, 1);
  if (Rs.empty())
    throw MatlabError(format("function '%s' returns no value",
                             IC->base()->name().c_str()),
                      IC->getLoc());
  return Rs.front();
}

ValuePtr InterpFrame::evalMatrix(const MatrixExpr *M) {
  std::vector<Value> RowValues;
  std::vector<ValuePtr> Keep; // own element results during concatenation
  RowValues.reserve(M->rows().size());
  for (const auto &Row : M->rows()) {
    std::vector<const Value *> Parts;
    std::vector<ValuePtr> RowKeep;
    for (const Expr *Elem : Row) {
      RowKeep.push_back(evalExpr(Elem));
      Parts.push_back(RowKeep.back().get());
    }
    RowValues.push_back(rt::horzcat(Parts));
  }
  if (RowValues.empty())
    return makeValue(Value()); // []
  if (RowValues.size() == 1)
    return makeValue(std::move(RowValues.front()));
  std::vector<const Value *> Parts;
  for (const Value &V : RowValues)
    Parts.push_back(&V);
  return makeValue(rt::vertcat(Parts));
}

ValuePtr InterpFrame::evalExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::Number: {
    const auto *N = cast<NumberExpr>(E);
    if (N->isImaginary())
      return makeValue(Value::complexScalar(0.0, N->value()));
    if (N->isIntegral())
      return makeValue(Value::intScalar(N->value()));
    return makeScalar(N->value());
  }
  case Expr::Kind::String:
    return makeValue(Value::str(cast<StringExpr>(E)->value()));
  case Expr::Kind::Ident:
    return evalIdent(cast<IdentExpr>(E));
  case Expr::Kind::ColonWildcard:
    throw MatlabError("':' is only valid inside subscripts", E->getLoc());
  case Expr::Kind::EndRef: {
    if (!EndBase)
      throw MatlabError("'end' is only valid inside subscripts", E->getLoc());
    return makeValue(Value::intScalar(static_cast<double>(EndLen)));
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    ValuePtr V = evalExpr(U->operand());
    rt::UnOp Op = rt::UnOp::Neg;
    switch (U->op()) {
    case UnaryOpKind::Neg:
      Op = rt::UnOp::Neg;
      break;
    case UnaryOpKind::Plus:
      Op = rt::UnOp::Plus;
      break;
    case UnaryOpKind::Not:
      Op = rt::UnOp::Not;
      break;
    case UnaryOpKind::CTranspose:
      Op = rt::UnOp::CTranspose;
      break;
    case UnaryOpKind::Transpose:
      Op = rt::UnOp::Transpose;
      break;
    }
    return makeValue(rt::unary(Op, *V));
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    ValuePtr L = evalExpr(B->lhs());
    ValuePtr R = evalExpr(B->rhs());
    return makeValue(rt::binary(B->op(), *L, *R));
  }
  case Expr::Kind::ShortCircuit: {
    const auto *B = cast<ShortCircuitExpr>(E);
    bool LTrue = evalExpr(B->lhs())->isTrue();
    if (B->isAnd() && !LTrue)
      return makeBool(false);
    if (!B->isAnd() && LTrue)
      return makeBool(true);
    return makeBool(evalExpr(B->rhs())->isTrue());
  }
  case Expr::Kind::Range: {
    const auto *R = cast<RangeExpr>(E);
    ValuePtr Lo = evalExpr(R->lo());
    ValuePtr Hi = evalExpr(R->hi());
    if (R->step()) {
      ValuePtr Step = evalExpr(R->step());
      return makeValue(rt::colon(*Lo, *Step, *Hi));
    }
    return makeValue(rt::colon(*Lo, *Hi));
  }
  case Expr::Kind::Matrix:
    return evalMatrix(cast<MatrixExpr>(E));
  case Expr::Kind::IndexOrCall:
    return evalIndexOrCall(cast<IndexOrCallExpr>(E));
  }
  majic_unreachable("invalid expression kind");
}

