//===- backend/ExecShared.cpp - Out-of-line shared op bodies ----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/ExecShared.h"

#include "runtime/Blas.h"

using namespace majic;
using rt::Indexer;

void exec::throwEmptyRegister() {
  throw MatlabError("internal: use of an empty value register");
}

void exec::throwOutOfBounds(int64_t I, const Value &V) {
  throw MatlabError(format("index out of bounds: %lld exceeds numel %zu",
                           static_cast<long long>(I + 1), V.numel()));
}

void exec::throwOutOfBounds2(int64_t R, int64_t C, const Value &V) {
  throw MatlabError(format("index (%lld, %lld) out of bounds for %zux%zu "
                           "matrix",
                           static_cast<long long>(R + 1),
                           static_cast<long long>(C + 1), V.rows(), V.cols()));
}

void exec::throwBadSubscript() {
  throw MatlabError("subscript indices must be positive integers");
}

void exec::throwNullArgument() {
  throw MatlabError("internal: null argument value");
}

ValuePtr exec::colSlice(const ValuePtr &P, int64_t C) {
  return makeValue(rt::index2(requireValue(P), Indexer::colon(),
                              Indexer::single(static_cast<size_t>(C))));
}

/// The indexers for subscripts Subs[0, N) of \p Base: a lone subscript
/// indexes linearly, a pair indexes rows then columns.
static std::vector<Indexer> gatherIndexers(const Value &Base,
                                           const ValuePtr *const *Subs,
                                           int32_t N) {
  std::vector<Indexer> Idx;
  Idx.reserve(static_cast<size_t>(N));
  for (int32_t K = 0; K != N; ++K) {
    size_t DimLen =
        N == 1 ? Base.numel() : (K == 0 ? Base.rows() : Base.cols());
    Idx.push_back(Subs[K]
                      ? Indexer::fromValue(exec::requireValue(*Subs[K]), DimLen)
                      : Indexer::colon());
  }
  return Idx;
}

ValuePtr exec::indexLoad(const ValuePtr &Base, const ValuePtr *const *Subs,
                         int32_t N) {
  const Value &B = requireValue(Base);
  std::vector<Indexer> Idx = gatherIndexers(B, Subs, N);
  return makeValue(N == 1 ? rt::index1(B, Idx[0])
                          : rt::index2(B, Idx[0], Idx[1]));
}

void exec::indexAssign(ValuePtr &Base, const ValuePtr *const *Subs,
                       int32_t N, const ValuePtr &Rhs) {
  Value &B = growTarget(Base);
  std::vector<Indexer> Idx = gatherIndexers(B, Subs, N);
  if (N == 1)
    rt::indexAssign1(B, Idx[0], requireValue(Rhs));
  else
    rt::indexAssign2(B, Idx[0], Idx[1], requireValue(Rhs));
}

ValuePtr exec::gemv(const ValuePtr &AP, const ValuePtr &XP) {
  const Value &A = requireValue(AP);
  const Value &X = requireValue(XP);
  if (A.isComplex() || X.isComplex() || !X.isColVector() ||
      A.cols() != X.rows())
    return makeValue(rt::binary(rt::BinOp::MatMul, A, X));
  Value Y = Value::zeros(A.rows(), 1);
  blas::dgemv(A.rows(), A.cols(), 1.0, A.reData(), X.reData(), 0.0,
              Y.reData());
  return makeValue(std::move(Y));
}

ValuePtr exec::axpy(double A, const ValuePtr &XP, const ValuePtr &YP) {
  const Value &X = requireValue(XP);
  const Value &Y = requireValue(YP);
  if (X.isComplex() || Y.isComplex() || X.rows() != Y.rows() ||
      X.cols() != Y.cols()) {
    Value Scaled = rt::binary(rt::BinOp::MatMul, Value::scalar(A), X);
    return makeValue(rt::binary(rt::BinOp::Add, Scaled, Y));
  }
  // Single pass: write a*x + y straight into a fresh array instead of
  // copying Y and updating it in place (daxpyz rounds the multiply and add
  // separately, exactly like the interpreter's two-op form).
  Value Out = Value::zeros(X.rows(), X.cols());
  blas::daxpyz(X.numel(), A, X.reData(), Y.reData(), Out.reData());
  return makeValue(std::move(Out));
}

std::vector<Value> exec::callBuiltin(Context &Ctx, const BuiltinDef *Def,
                                     const char *Name,
                                     std::span<const Value *const> Args,
                                     int32_t NDsts, bool Statement) {
  if (!Def)
    throw MatlabError(format("unknown builtin '%s'", Name));
  for (const Value *A : Args)
    if (!A)
      throwNullArgument();
  std::vector<Value> Rs = BuiltinTable::call(
      *Def, Ctx, Args, Statement ? 0 : static_cast<size_t>(NDsts));
  if (Rs.size() < static_cast<size_t>(NDsts) && !Statement)
    throw MatlabError(
        format("builtin '%s' returned too few values", Def->Name.c_str()));
  return Rs;
}

std::vector<ValuePtr> exec::returnOutputs(std::vector<ValuePtr> Outs,
                                          size_t NumOuts,
                                          const std::string &FnName) {
  if (NumOuts == 0) {
    if (!Outs.empty() && Outs[0])
      return {Outs[0]};
    return {};
  }
  if (NumOuts > std::max<size_t>(Outs.size(), 1))
    throw MatlabError(
        format("too many output arguments from '%s'", FnName.c_str()));
  for (size_t K = 0; K != NumOuts; ++K)
    if (K >= Outs.size() || !Outs[K])
      throw MatlabError(format("output argument %zu of '%s' not assigned",
                               K + 1, FnName.c_str()));
  Outs.resize(NumOuts);
  return Outs;
}
