//===- backend/ExecShared.h - Op bodies shared by the VM and native tier -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantics of every boxed op that both the register VM (VM.cpp)
/// and the native tier's callbacks (native/NativeRuntime.cpp) execute,
/// written once: each VM case and each native shim calls into exec::, so
/// the tiers produce bit-identical values and byte-identical error text by
/// construction. This file owns what an op does - checks, class
/// promotion, fast paths, error messages; NativeRuntime.cpp owns only the
/// C ABI around it (boxing, write caches, va_arg unpacking, the longjmp
/// trampoline). Registers are ValuePtrs on both sides, null = unassigned.
/// Element-access bodies are inline; only their error formatting and the
/// heavier bodies live in ExecShared.cpp. The interpreter, the independent
/// oracle, calls none of this.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_BACKEND_EXECSHARED_H
#define MAJIC_BACKEND_EXECSHARED_H

#include "backend/VM.h"
#include "ir/Instr.h"
#include "runtime/Builtins.h"
#include "runtime/Ops.h"
#include "runtime/Value.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

namespace majic {
namespace exec {

// Error paths (ExecShared.cpp).
[[noreturn]] void throwEmptyRegister();
[[noreturn]] void throwOutOfBounds(int64_t I, const Value &V);
[[noreturn]] void throwOutOfBounds2(int64_t R, int64_t C, const Value &V);
[[noreturn]] void throwBadSubscript();
[[noreturn]] void throwNullArgument();

/// Promotes the array's class tag when storing an element of class \p C.
inline void promoteClass(Value &V, MClass C) {
  if (V.mclass() == MClass::String)
    throw MatlabError("cannot index-assign into a string");
  if (static_cast<int>(C) > static_cast<int>(V.mclass()) &&
      C != MClass::Complex)
    V.setClass(C);
}

/// Stores element \p Idx of class \p C, clearing any imaginary half.
inline void storeElement(Value &V, size_t Idx, double X, MClass C) {
  promoteClass(V, C);
  V.reRef(Idx) = X;
  if (V.isComplex())
    V.imRef(Idx) = 0.0;
}

/// Domain guards for optimistically typed math intrinsics (Section 2.4's
/// guarded-intrinsic story): violation triggers deoptimization.
inline void checkIntrinsicGuard(ScalarIntrinsic Intr, double X) {
  switch (Intr) {
  case ScalarIntrinsic::Sqrt:
  case ScalarIntrinsic::Log:
  case ScalarIntrinsic::Log2:
  case ScalarIntrinsic::Log10:
    if (X < 0)
      throw DeoptError{Intr, X};
    return;
  case ScalarIntrinsic::Asin:
  case ScalarIntrinsic::Acos:
    if (X < -1 || X > 1)
      throw DeoptError{Intr, X};
    return;
  default:
    return;
  }
}

inline Value &requireValue(const ValuePtr &P) {
  if (!P)
    throwEmptyRegister();
  return *P;
}

/// Real-extraction guard: codegen routes a value through F registers only
/// when inference typed it real, and under optimistic real-math that typing
/// is a speculation (sqrt/log/... assumed to stay in domain). A complex
/// value reaching an F extraction means the speculation failed - reading
/// just the real part would silently drop the imaginary half - so
/// deoptimize and let the replay produce the general complex result.
/// Pessimistic code never selects an F path for a possibly-complex value,
/// so this cannot fire twice.
inline const Value &requireRealData(const Value &V) {
  if (V.isComplex())
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  return V;
}

/// UnboxF / get_scalar.
inline double unboxReal(const ValuePtr &P) {
  return requireRealData(requireValue(P)).scalarValue();
}

/// UnboxI / get_int_scalar: the scalar must be integral within 1e-8.
inline int64_t unboxInt(const ValuePtr &P) {
  double X = unboxReal(P);
  double R = std::round(X);
  if (std::abs(X - R) > 1e-8)
    throw MatlabError(format("expected an integer value, got %g", X));
  return static_cast<int64_t>(R);
}

/// UnboxReIm / get_complex.
inline void unboxReIm(const ValuePtr &P, double &Re, double &Im) {
  const Value &V = requireValue(P);
  if (!V.isScalar())
    throw MatlabError("expected a scalar value");
  Re = V.re(0);
  Im = V.im(0);
}

/// CheckDef / check_defined.
inline void checkDefined(const ValuePtr &P, const char *Name) {
  if (!P)
    throw MatlabError(format("undefined function or variable '%s'", Name));
}

/// NewMat / zeros: negative extents clamp to empty.
inline ValuePtr newMat(int64_t R, int64_t C, MClass K) {
  return makeValue(Value::zeros(static_cast<size_t>(std::max<int64_t>(R, 0)),
                                static_cast<size_t>(std::max<int64_t>(C, 0)),
                                K));
}

/// The unshared value a write to an existing array modifies.
inline Value &writeTarget(ValuePtr &P) {
  requireValue(P);
  return makeUnique(P);
}

/// The unshared value a growing write modifies; unassigned starts as [].
inline Value &growTarget(ValuePtr &P) {
  if (!P)
    P = makeValue(Value());
  return makeUnique(P);
}

/// FillF / fill.
inline void fill(ValuePtr &P, double X) {
  Value &V = writeTarget(P);
  std::fill(V.reData(), V.reData() + V.numel(), X);
}

/// LoadElChk / load_chk. Indices are 0-based throughout.
inline double loadElChk(const ValuePtr &P, int64_t I) {
  const Value &V = requireRealData(requireValue(P));
  if (I < 0 || static_cast<size_t>(I) >= V.numel())
    throwOutOfBounds(I, V);
  return V.re(static_cast<size_t>(I));
}

/// LoadEl2Chk / load2_chk.
inline double loadEl2Chk(const ValuePtr &P, int64_t R, int64_t C) {
  const Value &V = requireRealData(requireValue(P));
  if (R < 0 || C < 0 || static_cast<size_t>(R) >= V.rows() ||
      static_cast<size_t>(C) >= V.cols())
    throwOutOfBounds2(R, C, V);
  return V.at(static_cast<size_t>(R), static_cast<size_t>(C));
}

/// StoreEl / store_slow: a store codegen proved in bounds.
inline void storeEl(ValuePtr &P, int64_t I, double X, MClass K) {
  storeElement(writeTarget(P), static_cast<size_t>(I), X, K);
}

/// StoreEl2 / store2_slow.
inline void storeEl2(ValuePtr &P, int64_t R, int64_t C, double X, MClass K) {
  Value &V = writeTarget(P);
  storeElement(V, static_cast<size_t>(C) * V.rows() + static_cast<size_t>(R),
               X, K);
}

/// StoreElChk / store_grow: a store past the end resizes (with
/// oversizing) through the runtime.
inline void storeElChk(ValuePtr &P, int64_t I, double X, MClass K) {
  Value &V = growTarget(P);
  if (I < 0)
    throwBadSubscript();
  if (static_cast<size_t>(I) < V.numel())
    return storeElement(V, static_cast<size_t>(I), X, K);
  Value RHS = Value::scalar(X);
  RHS.setClass(K);
  rt::indexAssign1(V, rt::Indexer::single(static_cast<size_t>(I)), RHS);
}

/// StoreEl2Chk / store2_grow.
inline void storeEl2Chk(ValuePtr &P, int64_t R, int64_t C, double X,
                        MClass K) {
  Value &V = growTarget(P);
  if (R < 0 || C < 0)
    throwBadSubscript();
  size_t Row = static_cast<size_t>(R), Col = static_cast<size_t>(C);
  if (Row < V.rows() && Col < V.cols())
    return storeElement(V, Col * V.rows() + Row, X, K);
  Value RHS = Value::scalar(X);
  RHS.setClass(K);
  rt::indexAssign2(V, rt::Indexer::single(Row), rt::Indexer::single(Col),
                   RHS);
}

// The heavier bodies (ExecShared.cpp).

/// ColSlice / col_slice: all rows of column \p C.
ValuePtr colSlice(const ValuePtr &P, int64_t C);

/// LoadIdxG / index_load: Base(Subs[0]) or Base(Subs[0], Subs[1]); a
/// subscript points at its register, or is null for ':'.
ValuePtr indexLoad(const ValuePtr &Base, const ValuePtr *const *Subs,
                   int32_t N);

/// StoreIdxG / index_assign: Base(Subs...) = Rhs, growing as needed.
void indexAssign(ValuePtr &Base, const ValuePtr *const *Subs, int32_t N,
                 const ValuePtr &Rhs);

/// Gemv / gemv: A*X, through dgemv when both are real and X is a column.
ValuePtr gemv(const ValuePtr &A, const ValuePtr &X);

/// Axpy / axpy: A*X + Y, in one pass when X and Y are real and same-shape.
ValuePtr axpy(double A, const ValuePtr &X, const ValuePtr &Y);

/// CallB / call_builtin: calls \p Def (null if \p Name is no builtin) on
/// \p Args (null = unassigned) for \p NDsts outputs. A statement call
/// (nargout 0) may get fewer - its missing outputs are absent optional
/// ones, null registers (builtinOutput); any other call must get them all.
std::vector<Value> callBuiltin(Context &Ctx, const BuiltinDef *Def,
                               const char *Name,
                               std::span<const Value *const> Args,
                               int32_t NDsts, bool Statement);

/// Output register \p K of a builtin call's results \p Rs.
inline ValuePtr builtinOutput(std::vector<Value> &Rs, int32_t K) {
  size_t I = static_cast<size_t>(K);
  return I < Rs.size() ? makeValue(std::move(Rs[I])) : nullptr;
}

/// CallU / call_function, under callBuiltin's output rules. \p Call(Args,
/// Nargout) runs the user function through the tier's resolver.
template <typename CallFn>
std::vector<ValuePtr> callFunction(CallFn &&Call, std::vector<ValuePtr> Args,
                                   int32_t NDsts, bool Statement) {
  for (const ValuePtr &A : Args)
    if (!A)
      throwNullArgument();
  std::vector<ValuePtr> Rs =
      Call(std::move(Args), Statement ? 0 : static_cast<size_t>(NDsts));
  if (Rs.size() < static_cast<size_t>(NDsts) && !Statement)
    throw MatlabError("not enough output arguments");
  Rs.resize(static_cast<size_t>(NDsts));
  return Rs;
}

/// Display / display. A null register is an absent optional output.
inline void display(Context &Ctx, const ValuePtr &P, const std::string &Name) {
  if (P)
    Ctx.print(rt::displayValue(*P, Name));
}

/// Ret / runNative's return: function \p FnName's output registers \p Outs
/// for a caller asking for \p NumOuts; nargout 0 yields the first output
/// if assigned (ans / display).
std::vector<ValuePtr> returnOutputs(std::vector<ValuePtr> Outs,
                                    size_t NumOuts, const std::string &FnName);

/// The resolved output of a fused elementwise program: shape + class of
/// the Value the executor must allocate.
struct EwPlan {
  size_t Rows = 0;
  size_t Cols = 0;
  MClass Class = MClass::Real;
};

/// Pass 1 of EwFuse execution - the shape/class simulation, mirroring the
/// interpreter's unfused chain: scalars (1x1) broadcast, equal shapes
/// pass, anything else throws the interpreter's exact dimension error at
/// the same operator. Classes follow arithResultClass: int-preserving ops
/// keep int-like (Int/Bool) operands Int; division, power, and math
/// builtins give Real. Operands that are null, complex, or string raise
/// the same errors/deopts the VM's operand gather would, so the native
/// tier's allocation shim and the VM share one failure surface.
inline EwPlan ewSimulate(const Value *const *Ops, int32_t NumOps,
                         const int32_t *Prog, size_t ProgLen) {
  for (int32_t K = 0; K != NumOps; ++K) {
    if (!Ops[K])
      throwEmptyRegister();
    const Value &V = *Ops[K];
    if (V.isComplex() || V.mclass() == MClass::String)
      throw DeoptError{ScalarIntrinsic::None, 0.0};
  }

  struct SimSlot {
    size_t R, C;
    bool Scalar, IntLike;
  };
  SimSlot Sim[ew::kMaxEwStack];
  int SP = 0;
  for (size_t K = 0; K != ProgLen; ++K) {
    int32_t Arg = ew::argOf(Prog[K]);
    switch (ew::opOf(Prog[K])) {
    case ew::EwOp::Push: {
      const Value &V = *Ops[Arg];
      MClass MC = V.mclass();
      Sim[SP++] = {V.rows(), V.cols(), V.isScalar(),
                   MC == MClass::Int || MC == MClass::Bool};
      break;
    }
    case ew::EwOp::Bin: {
      auto Op = static_cast<rt::BinOp>(Arg);
      SimSlot &L = Sim[SP - 2], &R = Sim[SP - 1];
      --SP;
      // MatMul (*) and MatRDiv (/) were fused because one side was typed
      // scalar; if the runtime value disagrees, the op is a real matrix
      // product/solve - deoptimize so the interpreter's general path
      // (and its distinct error messages) takes over.
      if ((Op == rt::BinOp::MatMul && !L.Scalar && !R.Scalar) ||
          (Op == rt::BinOp::MatRDiv && !R.Scalar))
        throw DeoptError{ScalarIntrinsic::None, 0.0};
      size_t RR, RC;
      if (L.Scalar) {
        RR = R.R;
        RC = R.C;
      } else if (R.Scalar) {
        RR = L.R;
        RC = L.C;
      } else if (L.R == R.R && L.C == R.C) {
        RR = L.R;
        RC = L.C;
      } else {
        throw MatlabError(format(
            "matrix dimensions must agree for operator '%s' (%zux%zu vs "
            "%zux%zu)",
            rt::binOpName(Op), L.R, L.C, R.R, R.C));
      }
      bool Preserving = Op == rt::BinOp::Add || Op == rt::BinOp::Sub ||
                        Op == rt::BinOp::ElemMul || Op == rt::BinOp::MatMul;
      L = {RR, RC, RR == 1 && RC == 1,
           Preserving && L.IntLike && R.IntLike};
      break;
    }
    case ew::EwOp::Neg:
      // Negation preserves shape; Bool negates to Int, both int-like.
      break;
    case ew::EwOp::Intr:
      Sim[SP - 1].IntLike = false; // math builtins produce Real arrays
      break;
    }
  }

  return {Sim[0].R, Sim[0].C, Sim[0].IntLike ? MClass::Int : MClass::Real};
}

} // namespace exec
} // namespace majic

#endif // MAJIC_BACKEND_EXECSHARED_H
