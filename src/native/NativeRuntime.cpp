//===- native/NativeRuntime.cpp - Host side of the native tier -------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The C ABI of the native tier: boxes and their write caches, the callback
// table, va_arg unpacking, the setjmp/longjmp error trampoline, and the C
// prelude. What an op does is decided elsewhere: a callback that shares an
// opcode with the VM calls the same exec:: body (backend/ExecShared.h owns
// the checks, fast paths and error text), so the tiers agree bit for bit
// by construction. A shim only maps ABI pointers to registers, runs the
// body, and boxes or re-caches the result - under guarded(), whose longjmp
// crosses only plain-C frames once the C++ unwinder is done.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRuntime.h"

#include "backend/ExecShared.h"
#include "obs/Trace.h"
#include "runtime/Builtins.h"
#include "runtime/Context.h"
#include "runtime/Ops.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <csetjmp>
#include <cstdarg>
#include <deque>

using namespace majic;
using namespace majic::native;

// The prelude bakes these numeric values into generated C (mlfPlus -> 0,
// klass 3 = complex, ...); a drifted enum must fail the build, not
// corrupt arithmetic.
static_assert(static_cast<int>(rt::BinOp::Add) == 0 &&
                  static_cast<int>(rt::BinOp::Or) == 17,
              "rt::BinOp layout is baked into the native prelude");
static_assert(static_cast<int>(MClass::Bool) == 0 &&
                  static_cast<int>(MClass::Int) == 1 &&
                  static_cast<int>(MClass::Real) == 2 &&
                  static_cast<int>(MClass::Complex) == 3 &&
                  static_cast<int>(MClass::String) == 4,
              "MClass layout is baked into the native prelude");

namespace {

/// A boxed value: the C-visible prefix plus the owning reference. Boxes
/// live in the frame's deque, so their addresses stay stable for the
/// whole native call however many the program allocates.
struct Box {
  MxPub Pub;
  ValuePtr V;
};

struct NativeFrame {
  std::jmp_buf Jb;
  std::exception_ptr Err;
  std::deque<Box> Boxes;
  Context *Ctx = nullptr;
  NativeHost *Host = nullptr;
  NativeFrame *Prev = nullptr;

  MxPub *box(ValuePtr P);
  Box *slot(MxPub **PP);
};

/// The active frame of this thread; a chain through Prev supports native
/// -> engine -> native reentrancy.
thread_local NativeFrame *CurFrame = nullptr;

struct FrameGuard {
  explicit FrameGuard(NativeFrame *F) {
    F->Prev = CurFrame;
    CurFrame = F;
  }
  ~FrameGuard() { CurFrame = CurFrame->Prev; }
};

Box *boxOf(MxPub *P) { return reinterpret_cast<Box *>(P); }
MxPub *pubOf(Box *B) { return &B->Pub; }

/// Recomputes a box's public prefix from its Value. The write-cache class
/// is valid only while this box holds the sole reference (no copy-on-
/// write needed) and the class is at most Real (no imaginary half to
/// clear, no string guard) - exactly the preconditions under which
/// exec::storeEl (makeUnique + promoteClass + element store) degenerates to
/// one array store.
void refresh(Box *B) {
  Value &V = *B->V;
  B->Pub.Re = V.reData();
  B->Pub.Rows = static_cast<long long>(V.rows());
  B->Pub.Cols = static_cast<long long>(V.cols());
  B->Pub.Numel = static_cast<long long>(V.numel());
  int K = static_cast<int>(V.mclass());
  B->Pub.Klass = K;
  B->Pub.WClass =
      (B->V.use_count() == 1 && K <= static_cast<int>(MClass::Real)) ? K : -1;
}

MxPub *NativeFrame::box(ValuePtr P) {
  if (!P)
    return nullptr; // null registers stay null pointers, as in the VM
  Boxes.emplace_back();
  Box &B = Boxes.back();
  B.V = std::move(P);
  refresh(&B);
  return pubOf(&B);
}

/// The box behind a register an exec:: body writes. An absent register
/// gets a box holding null, so the body alone decides - as in the VM -
/// whether absence is an error or an empty array to grow; a body that
/// returns has always stored a value, and the shim then refreshes the box.
Box *NativeFrame::slot(MxPub **PP) {
  if (!*PP) {
    Boxes.emplace_back();
    *PP = pubOf(&Boxes.back());
  }
  return boxOf(*PP);
}

/// The register behind an ABI pointer; a null pointer is an unassigned one.
const ValuePtr kUnassigned;
const ValuePtr &reg(MxPub *P) { return P ? boxOf(P)->V : kUnassigned; }

Value &val(MxPub *P) { return exec::requireValue(reg(P)); }

/// Reads N subscripts off the list as exec:: subscripts (null = ':').
void unpackSubscripts(int N, va_list Ap, const ValuePtr *Subs[2]) {
  if (N < 1 || N > 2)
    throw MatlabError("internal: bad native index arity");
  for (int K = 0; K != N; ++K) {
    MxPub *E = va_arg(Ap, MxPub *);
    Subs[K] = E == kColonSentinel ? nullptr : &reg(E);
  }
}

/// Reads a call's destination slots off the list.
std::vector<MxPub **> unpackDsts(int NDsts, va_list Ap) {
  std::vector<MxPub **> Dsts(static_cast<size_t>(NDsts));
  for (MxPub **&D : Dsts)
    D = va_arg(Ap, MxPub **);
  return Dsts;
}

//===----------------------------------------------------------------------===//
// The callbacks.
//===----------------------------------------------------------------------===//

/// The error trampoline: runs a callback's body, parks an escaping
/// exception in the frame, and only then longjmps. By that point the catch
/// has finished and neither this frame nor the shim's holds an object with
/// a destructor (bodies capture by reference).
template <typename BodyFn> auto guarded(BodyFn &&Body) {
  NativeFrame *Fr = CurFrame;
  try {
    return Body(Fr);
  } catch (...) {
    Fr->Err = std::current_exception();
  }
  std::longjmp(Fr->Jb, 1);
}

/// The same tail for the variadic callbacks, which close their argument
/// list themselves: the locals of the shim's try block are gone by then.
#define MLF_VA_SHIM_END                                                        \
  catch (...) { Fr->Err = std::current_exception(); }                          \
  va_end(Ap);                                                                  \
  std::longjmp(Fr->Jb, 1)

MxPub *shimBoxF(double X) {
  return guarded([&](NativeFrame *Fr) { return Fr->box(makeScalar(X)); });
}

MxPub *shimBoxI(long long X) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(Value::intScalar(static_cast<double>(X))));
  });
}

MxPub *shimBoxB(long long X) {
  return guarded([&](NativeFrame *Fr) { return Fr->box(makeBool(X != 0)); });
}

MxPub *shimBoxC(double Re, double Im) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(Value::complexScalar(Re, Im)));
  });
}

MxPub *shimStringConst(const char *S) {
  return guarded(
      [&](NativeFrame *Fr) { return Fr->box(makeValue(Value::str(S))); });
}

MxPub *shimRetain(MxPub *P) {
  return guarded([&](NativeFrame *Fr) -> MxPub * {
    if (!P)
      return nullptr;
    MxPub *Copy = Fr->box(boxOf(P)->V);
    refresh(boxOf(P)); // now shared: both boxes drop to slow-path stores
    return Copy;
  });
}

double shimGetScalar(MxPub *P) {
  return guarded([&](NativeFrame *) { return exec::unboxReal(reg(P)); });
}

long long shimGetIntScalar(MxPub *P) {
  return guarded([&](NativeFrame *) -> long long {
    return exec::unboxInt(reg(P));
  });
}

void shimGetComplex(MxPub *P, double *Re, double *Im) {
  guarded([&](NativeFrame *) { exec::unboxReIm(reg(P), *Re, *Im); });
}

long long shimIsTrue(MxPub *P) {
  return guarded([&](NativeFrame *) { return val(P).isTrue() ? 1LL : 0LL; });
}

long long shimCheckSubscript(double X) {
  return guarded([&](NativeFrame *) {
    return static_cast<long long>(rt::checkSubscript(X));
  });
}

void shimCheckDefined(MxPub *P, const char *Name) {
  guarded([&](NativeFrame *) { exec::checkDefined(reg(P), Name); });
}

double shimGuard(int Intr, double X) {
  return guarded([&](NativeFrame *) {
    exec::checkIntrinsicGuard(static_cast<ScalarIntrinsic>(Intr), X);
    return X;
  });
}

double shimPowDeopt(double X, double /*Y*/) {
  // Negative base, non-integral exponent: the result is complex, which
  // generated code cannot represent - replay in the general tiers.
  return guarded([&](NativeFrame *) -> double {
    throw DeoptError{ScalarIntrinsic::None, X};
  });
}

double *shimDeoptComplex(void) {
  return guarded([&](NativeFrame *) -> double * {
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  });
}

long long shimNullLen(void) {
  return guarded(
      [&](NativeFrame *) -> long long { exec::throwEmptyRegister(); });
}

MxPub *shimZeros(long long R, long long C, int Klass) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(exec::newMat(R, C, static_cast<MClass>(Klass)));
  });
}

void shimFill(MxPub *P, double X) {
  guarded([&](NativeFrame *Fr) {
    Box *B = Fr->slot(&P);
    exec::fill(B->V, X);
    refresh(B);
  });
}

double shimLoadChk(MxPub *P, long long I) {
  return guarded([&](NativeFrame *) { return exec::loadElChk(reg(P), I); });
}

double shimLoad2Chk(MxPub *P, long long R, long long C) {
  return guarded(
      [&](NativeFrame *) { return exec::loadEl2Chk(reg(P), R, C); });
}

void shimStoreSlow(MxPub **PP, long long I, double X, int Klass) {
  guarded([&](NativeFrame *Fr) {
    Box *B = Fr->slot(PP);
    exec::storeEl(B->V, I, X, static_cast<MClass>(Klass));
    refresh(B);
  });
}

void shimStoreGrow(MxPub **PP, long long I, double X, int Klass) {
  guarded([&](NativeFrame *Fr) {
    Box *B = Fr->slot(PP);
    exec::storeElChk(B->V, I, X, static_cast<MClass>(Klass));
    refresh(B);
  });
}

void shimStore2Slow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  guarded([&](NativeFrame *Fr) {
    Box *B = Fr->slot(PP);
    exec::storeEl2(B->V, R, C, X, static_cast<MClass>(Klass));
    refresh(B);
  });
}

void shimStore2Grow(MxPub **PP, long long R, long long C, double X,
                    int Klass) {
  guarded([&](NativeFrame *Fr) {
    Box *B = Fr->slot(PP);
    exec::storeEl2Chk(B->V, R, C, X, static_cast<MClass>(Klass));
    refresh(B);
  });
}

MxPub *shimRtBin(int Op, MxPub *A, MxPub *B) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(
        rt::binary(static_cast<rt::BinOp>(Op), val(A), val(B))));
  });
}

MxPub *shimRtUn(int Op, MxPub *A) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(rt::unary(static_cast<rt::UnOp>(Op), val(A))));
  });
}

MxPub *shimColSlice(MxPub *P, long long C) {
  return guarded(
      [&](NativeFrame *Fr) { return Fr->box(exec::colSlice(reg(P), C)); });
}

MxPub *shimRange3(double A, double S, double B) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(Value::range(A, S, B)));
  });
}

MxPub *shimColonV(MxPub *A, MxPub *S, MxPub *B) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(makeValue(rt::colon(val(A), val(S), val(B))));
  });
}

MxPub *shimCat(int Horz, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    std::vector<const Value *> Parts(static_cast<size_t>(N));
    for (const Value *&P : Parts)
      P = &val(va_arg(Ap, MxPub *));
    MxPub *R =
        Fr->box(makeValue(Horz ? rt::horzcat(Parts) : rt::vertcat(Parts)));
    va_end(Ap);
    return R;
  }
  MLF_VA_SHIM_END;
}

MxPub *shimIndexLoad(MxPub *Base, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    const ValuePtr *Subs[2] = {nullptr, nullptr};
    unpackSubscripts(N, Ap, Subs);
    MxPub *R = Fr->box(exec::indexLoad(reg(Base), Subs, N));
    va_end(Ap);
    return R;
  }
  MLF_VA_SHIM_END;
}

void shimIndexAssign(MxPub **Base, MxPub *Rhs, int N, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, N);
  try {
    const ValuePtr *Subs[2] = {nullptr, nullptr};
    unpackSubscripts(N, Ap, Subs);
    Box *B = Fr->slot(Base);
    exec::indexAssign(B->V, Subs, N, reg(Rhs));
    refresh(B);
    va_end(Ap);
    return;
  }
  MLF_VA_SHIM_END;
}

MxPub *shimEwAlloc(int NOps, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NOps);
  try {
    std::vector<const Value *> Ops(static_cast<size_t>(NOps));
    for (const Value *&P : Ops)
      P = reg(va_arg(Ap, MxPub *)).get();
    int Len = va_arg(Ap, int);
    const int *Prog = va_arg(Ap, const int *);
    exec::EwPlan Plan =
        exec::ewSimulate(Ops.data(), NOps, Prog, static_cast<size_t>(Len));
    MxPub *R =
        Fr->box(makeValue(Value::uninit(Plan.Rows, Plan.Cols, Plan.Class)));
    va_end(Ap);
    return R;
  }
  MLF_VA_SHIM_END;
}

MxPub *shimGemv(MxPub *A, MxPub *X) {
  return guarded(
      [&](NativeFrame *Fr) { return Fr->box(exec::gemv(reg(A), reg(X))); });
}

MxPub *shimAxpy(double A, MxPub *X, MxPub *Y) {
  return guarded([&](NativeFrame *Fr) {
    return Fr->box(exec::axpy(A, reg(X), reg(Y)));
  });
}

void shimCallBuiltin(const char *Name, int Stmt, int NDsts, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NDsts);
  try {
    std::vector<MxPub **> Dsts = unpackDsts(NDsts, Ap);
    std::vector<const Value *> Args(static_cast<size_t>(va_arg(Ap, int)));
    for (const Value *&A : Args)
      A = reg(va_arg(Ap, MxPub *)).get();
    std::vector<Value> Rs =
        exec::callBuiltin(*Fr->Ctx, BuiltinTable::instance().lookup(Name),
                          Name, Args, NDsts, Stmt != 0);
    for (int K = 0; K != NDsts; ++K)
      *Dsts[K] = Fr->box(exec::builtinOutput(Rs, K));
    va_end(Ap);
    return;
  }
  MLF_VA_SHIM_END;
}

void shimCallFunction(const char *Name, int Stmt, int NDsts, ...) {
  NativeFrame *Fr = CurFrame;
  va_list Ap;
  va_start(Ap, NDsts);
  try {
    std::vector<MxPub **> Dsts = unpackDsts(NDsts, Ap);
    std::vector<MxPub *> ArgPs(static_cast<size_t>(va_arg(Ap, int)));
    std::vector<ValuePtr> Args;
    Args.reserve(ArgPs.size());
    for (MxPub *&P : ArgPs) {
      P = va_arg(Ap, MxPub *);
      Args.push_back(reg(P));
    }
    auto Call = [&](std::vector<ValuePtr> A, size_t NOut) {
      return Fr->Host->callFunction(Name, std::move(A), NOut);
    };
    std::vector<ValuePtr> Rs =
        exec::callFunction(Call, std::move(Args), NDsts, Stmt != 0);
    for (int K = 0; K != NDsts; ++K)
      *Dsts[K] = Fr->box(std::move(Rs[K]));
    // The callee may have retained references to the arguments (their
    // use counts changed under us): recompute the write caches.
    for (MxPub *P : ArgPs)
      refresh(boxOf(P));
    va_end(Ap);
    return;
  }
  MLF_VA_SHIM_END;
}

void shimDisplay(MxPub *P, const char *Name) {
  guarded([&](NativeFrame *Fr) { exec::display(*Fr->Ctx, reg(P), Name); });
}

void shimPoll(long long N) {
  guarded([&](NativeFrame *Fr) {
    Fr->Ctx->Exec.consume(static_cast<uint64_t>(N));
  });
}

/// Minimal-frame setjmp wrapper: keeping the setjmp in a function whose
/// locals are all parameters sidesteps -Wclobbered and keeps the
/// longjmp's reentry point trivial. Returns -1 when a callback trapped
/// an error (parked in Fr.Err).
int invokeEntry(NativeFrame &Fr, NativeEntryFn Entry, MxPub **ArgPs,
                int NArgs, MxPub **OutPs, int NOuts) {
  if (setjmp(Fr.Jb) != 0)
    return -1;
  return Entry(ArgPs, NArgs, OutPs, NOuts);
}

} // namespace

const MajicNativeApi &majic::native::hostApiTable() {
  static const MajicNativeApi Api = {
      shimBoxF,        shimBoxI,        shimBoxB,       shimBoxC,
      shimStringConst, shimRetain,      shimGetScalar,  shimGetIntScalar,
      shimGetComplex,  shimIsTrue,      shimCheckSubscript,
      shimCheckDefined, shimGuard,      shimPowDeopt,   shimDeoptComplex,
      shimNullLen,     shimZeros,       shimFill,       shimLoadChk,
      shimLoad2Chk,    shimStoreSlow,   shimStoreGrow,  shimStore2Slow,
      shimStore2Grow,  shimRtBin,       shimRtUn,       shimColSlice,
      shimRange3,      shimColonV,      shimCat,        shimIndexLoad,
      shimIndexAssign, shimEwAlloc,     shimGemv,       shimAxpy,
      shimCallBuiltin, shimCallFunction, shimDisplay,   shimPoll,
  };
  return Api;
}

std::vector<ValuePtr> majic::native::runNative(
    NativeEntryFn Entry, const std::string &Name, size_t FnNumOuts,
    Context &Ctx, NativeHost &Host, const std::vector<ValuePtr> &Args,
    size_t NumOuts) {
  // The fault site fires before any observable side effect, so the
  // engine can treat an injected native-run fault as "tier unavailable"
  // and replay in the VM with identical results.
  faults::killPoint(faults::Site::NativeRun);
  faults::maybeThrow(faults::Site::NativeRun);
  obs::TraceScope Span("native.run", "exec", Name.c_str());

  NativeFrame Frame;
  Frame.Ctx = &Ctx;
  Frame.Host = &Host;
  FrameGuard G(&Frame);

  std::vector<MxPub *> ArgPs;
  ArgPs.reserve(Args.size());
  for (const ValuePtr &A : Args)
    ArgPs.push_back(Frame.box(A));
  std::vector<MxPub *> OutPs(std::max<size_t>(FnNumOuts, 1), nullptr);

  int Rc = invokeEntry(Frame, Entry, ArgPs.data(),
                       static_cast<int>(Args.size()), OutPs.data(),
                       static_cast<int>(FnNumOuts));
  if (Rc != 0) {
    if (Frame.Err)
      std::rethrow_exception(Frame.Err);
    // An entry point returning nonzero without a parked error has no
    // defined meaning; treat it as a deopt so the VM re-runs the call.
    throw DeoptError{ScalarIntrinsic::None, 0.0};
  }

  std::vector<ValuePtr> Outs(FnNumOuts);
  for (size_t K = 0; K != FnNumOuts; ++K)
    Outs[K] = reg(OutPs[K]);
  return exec::returnOutputs(std::move(Outs), NumOuts, Name);
}

const std::string &majic::native::preludeSource() {
  static const std::string Text = format(R"MLF(/* majic_mlf.h - the mlf-style runtime interface for MaJIC-generated C.
 * Emitted by the host engine beside each generated source. The layouts of
 * mxValue and MajicNativeApi mirror native/NativeABI.h field for field
 * (native ABI version %d); the numeric operator/class codes baked into
 * the macros are pinned by static_asserts in NativeRuntime.cpp.
 */
#ifndef MAJIC_MLF_H
#define MAJIC_MLF_H

#include <math.h>
#include <string.h>

/* The public prefix of a boxed value. wclass caches the value's class
 * while an element store may write the array directly (unique reference,
 * class <= real); -1 forces the slow path through the host. */
typedef struct mxValue {
  double *re;
  long long rows;
  long long cols;
  long long numel;
  int wclass;
  int klass; /* 0 bool, 1 int, 2 real, 3 complex, 4 string */
} mxValue;

typedef struct MajicNativeApi {
  mxValue *(*box_f)(double);
  mxValue *(*box_i)(long long);
  mxValue *(*box_b)(long long);
  mxValue *(*box_c)(double, double);
  mxValue *(*string_const)(const char *);
  mxValue *(*retain)(mxValue *);
  double (*get_scalar)(mxValue *);
  long long (*get_int_scalar)(mxValue *);
  void (*get_complex)(mxValue *, double *, double *);
  long long (*is_true)(mxValue *);
  long long (*check_subscript)(double);
  void (*check_defined)(mxValue *, const char *);
  double (*guard)(int, double);
  double (*pow_deopt)(double, double);
  double *(*deopt_complex)(void);
  long long (*null_len)(void);
  mxValue *(*zeros)(long long, long long, int);
  void (*fill)(mxValue *, double);
  double (*load_chk)(mxValue *, long long);
  double (*load2_chk)(mxValue *, long long, long long);
  void (*store_slow)(mxValue **, long long, double, int);
  void (*store_grow)(mxValue **, long long, double, int);
  void (*store2_slow)(mxValue **, long long, long long, double, int);
  void (*store2_grow)(mxValue **, long long, long long, double, int);
  mxValue *(*rt_bin)(int, mxValue *, mxValue *);
  mxValue *(*rt_un)(int, mxValue *);
  mxValue *(*col_slice)(mxValue *, long long);
  mxValue *(*range3)(double, double, double);
  mxValue *(*colonv)(mxValue *, mxValue *, mxValue *);
  mxValue *(*cat)(int, int, ...);
  mxValue *(*index_load)(mxValue *, int, ...);
  void (*index_assign)(mxValue **, mxValue *, int, ...);
  mxValue *(*ew_alloc)(int, ...);
  mxValue *(*gemv)(mxValue *, mxValue *);
  mxValue *(*axpy)(double, mxValue *, mxValue *);
  void (*call_builtin)(const char *, int, int, ...);
  void (*call_function)(const char *, int, int, ...);
  void (*display)(mxValue *, const char *);
  void (*poll)(long long);
} MajicNativeApi;

static const MajicNativeApi *mlf_api;

int majic_native_init(const MajicNativeApi *api, int abi_version) {
  if (abi_version != %d)
    return 1;
  mlf_api = api;
  return 0;
}

/* Bit-exact double from its IEEE-754 image: the emitter uses this for
 * inf/nan literals, and mlf_rem for MATLAB's canonical quiet NaN. */
static inline double mlf_f64bits(unsigned long long b) {
  double d;
  memcpy(&d, &b, sizeof d);
  return d;
}

/* Colon sentinel for index argument lists. */
#define MLF_COLON ((mxValue *)1)

/* Scalar math kept bit-identical to the host's evalScalarIntrinsic:
 * min/max use the interpreter's comparison form (NOT fmin/fmax, whose
 * NaN handling differs), rem's y==0 case is the canonical quiet NaN
 * (NOT 0.0/0.0, which is -nan on x86). */
#define mlf_sign(x) ((x) > 0 ? 1.0 : ((x) < 0 ? -1.0 : 0.0))
#define mlf_mod(x, y) ((y) == 0 ? (x) : (x)-floor((x) / (y)) * (y))
#define mlf_rem(x, y)                                                      \
  ((y) == 0 ? mlf_f64bits(0x7ff8000000000000ull)                           \
            : (x)-trunc((x) / (y)) * (y))
#define mlf_min2(x, y) ((y) < (x) ? (y) : (x))
#define mlf_max2(x, y) ((x) < (y) ? (y) : (x))

/* Guarded elementwise power: a negative base with a non-integral
 * exponent escalates to a complex result, which only the general tiers
 * can produce - deoptimize through the host. */
#define mlf_powg(x, y)                                                     \
  (((x) < 0 && (y) != floor(y)) ? mlf_api->pow_deopt((x), (y))             \
                                : pow((x), (y)))

/* Data access. Reading a complex (or absent) value through the real view
 * would drop the imaginary half, so it deoptimizes instead. */
#define mxRe(p)                                                            \
  (((p) == 0 || (p)->klass == 3) ? mlf_api->deopt_complex() : (p)->re)
#define mxRows(p) ((p) ? (p)->rows : mlf_api->null_len())
#define mxCols(p) ((p) ? (p)->cols : mlf_api->null_len())
#define mxNumel(p) ((p) ? (p)->numel : mlf_api->null_len())
#define mxRetain(p) (mlf_api->retain(p))

/* Element stores: one compare + one move when the write cache allows,
 * host slow path (copy-on-write, class promotion, growth) otherwise. */
#define mlfStore(pp, i, x, cls)                                            \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls))                                 \
      (*(pp))->re[(i)] = (x);                                              \
    else                                                                   \
      mlf_api->store_slow((pp), (i), (x), (cls));                          \
  } while (0)
#define mlfStoreGrow(pp, i, x, cls)                                        \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls) && (i) >= 0 &&                   \
        (i) < (*(pp))->numel)                                              \
      (*(pp))->re[(i)] = (x);                                              \
    else                                                                   \
      mlf_api->store_grow((pp), (i), (x), (cls));                          \
  } while (0)
#define mlfStore2(pp, r, c, x, cls)                                        \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls))                                 \
      (*(pp))->re[(c) * (*(pp))->rows + (r)] = (x);                        \
    else                                                                   \
      mlf_api->store2_slow((pp), (r), (c), (x), (cls));                    \
  } while (0)
#define mlfStore2Grow(pp, r, c, x, cls)                                    \
  do {                                                                     \
    if (*(pp) && (*(pp))->wclass >= (cls) && (r) >= 0 &&                   \
        (r) < (*(pp))->rows && (c) >= 0 && (c) < (*(pp))->cols)            \
      (*(pp))->re[(c) * (*(pp))->rows + (r)] = (x);                        \
    else                                                                   \
      mlf_api->store2_grow((pp), (r), (c), (x), (cls));                    \
  } while (0)

/* Checked loads: fast path in bounds on a real array, host otherwise
 * (identical out-of-bounds messages, complex deopt). */
#define mlfLoadChecked(p, i)                                               \
  (((p) && (p)->klass != 3 && (i) >= 0 && (i) < (p)->numel)                \
       ? (p)->re[(i)]                                                      \
       : mlf_api->load_chk((p), (i)))
#define mlfLoad2Checked(p, r, c)                                           \
  (((p) && (p)->klass != 3 && (r) >= 0 && (r) < (p)->rows && (c) >= 0 &&   \
    (c) < (p)->cols)                                                       \
       ? (p)->re[(c) * (p)->rows + (r)]                                    \
       : mlf_api->load2_chk((p), (r), (c)))

/* Fused elementwise support. */
#define mlfEwAlloc(...) (mlf_api->ew_alloc(__VA_ARGS__))
#define mlfEwLoad(p, k) ((p)->numel == 1 ? (p)->re[0] : (p)->re[k])
#define mlfEwGuard(i, x) (mlf_api->guard((i), (x)))

/* Boxing / unboxing / checks. */
#define mlfScalar(x) (mlf_api->box_f(x))
#define mlfIntScalar(x) (mlf_api->box_i(x))
#define mlfLogicalScalar(x) (mlf_api->box_b(x))
#define mlfComplexScalar(re_, im_) (mlf_api->box_c((re_), (im_)))
#define mlfString(s) (mlf_api->string_const(s))
#define mlfGetScalar(p) (mlf_api->get_scalar(p))
#define mlfGetIntScalar(p) (mlf_api->get_int_scalar(p))
#define mlfGetComplexScalar(p, re_, im_)                                   \
  (mlf_api->get_complex((p), (re_), (im_)))
#define mlfIsTrue(p) (mlf_api->is_true(p))
#define mlfCheckSubscript(x) (mlf_api->check_subscript(x))
#define mlfCheckDefined(p, name) (mlf_api->check_defined((p), (name)))

/* Whole-value operations. */
#define mlfZeros(r, c, cls) (mlf_api->zeros((r), (c), (cls)))
#define mlfFill(p, x) (mlf_api->fill((p), (x)))
#define mlfColumn(p, c) (mlf_api->col_slice((p), (c)))
#define mlfColon(a, s, b) (mlf_api->range3((a), (s), (b)))
#define mlfColonV(a, s, b) (mlf_api->colonv((a), (s), (b)))
#define mlfUnary(op, p) (mlf_api->rt_un((op), (p)))
#define mlfHorzcat(...) (mlf_api->cat(1, __VA_ARGS__))
#define mlfVertcat(...) (mlf_api->cat(0, __VA_ARGS__))
#define mlfIndex(...) (mlf_api->index_load(__VA_ARGS__))
#define mlfIndexAssign(...) (mlf_api->index_assign(__VA_ARGS__))
#define mlfDgemv(a, x) (mlf_api->gemv((a), (x)))
#define mlfDaxpy(a, x, y) (mlf_api->axpy((a), (x), (y)))

/* Generic binary operators (rt::BinOp codes). */
#define mlfPlus(a, b) (mlf_api->rt_bin(0, (a), (b)))
#define mlfMinus(a, b) (mlf_api->rt_bin(1, (a), (b)))
#define mlfTimes(a, b) (mlf_api->rt_bin(2, (a), (b)))
#define mlfDotTimes(a, b) (mlf_api->rt_bin(3, (a), (b)))
#define mlfRdivide(a, b) (mlf_api->rt_bin(4, (a), (b)))
#define mlfDotRdivide(a, b) (mlf_api->rt_bin(5, (a), (b)))
#define mlfLdivide(a, b) (mlf_api->rt_bin(6, (a), (b)))
#define mlfDotLdivide(a, b) (mlf_api->rt_bin(7, (a), (b)))
#define mlfPower(a, b) (mlf_api->rt_bin(8, (a), (b)))
#define mlfDotPower(a, b) (mlf_api->rt_bin(9, (a), (b)))
#define mlfLt(a, b) (mlf_api->rt_bin(10, (a), (b)))
#define mlfLe(a, b) (mlf_api->rt_bin(11, (a), (b)))
#define mlfGt(a, b) (mlf_api->rt_bin(12, (a), (b)))
#define mlfGe(a, b) (mlf_api->rt_bin(13, (a), (b)))
#define mlfEq(a, b) (mlf_api->rt_bin(14, (a), (b)))
#define mlfNe(a, b) (mlf_api->rt_bin(15, (a), (b)))
#define mlfAnd(a, b) (mlf_api->rt_bin(16, (a), (b)))
#define mlfOr(a, b) (mlf_api->rt_bin(17, (a), (b)))

/* Calls, display, cooperative polling. */
#define mlfCallBuiltin(...) (mlf_api->call_builtin(__VA_ARGS__))
#define mlfCallFunction(...) (mlf_api->call_function(__VA_ARGS__))
#define mlfDisplay(p, name) (mlf_api->display((p), (name)))
#define mlfPoll(n) (mlf_api->poll(n))

#endif /* MAJIC_MLF_H */
)MLF",
                                         kNativeABIVersion,
                                         kNativeABIVersion);
  return Text;
}
