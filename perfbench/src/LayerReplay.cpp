//===- perfbench/src/LayerReplay.cpp - Layer-by-layer replay ---------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "LayerReplay.h"

#include "analysis/Inliner.h"
#include "backend/CEmitter.h"
#include "backend/Optimize.h"
#include "backend/RegAlloc.h"
#include "infer/Infer.h"
#include "infer/Speculate.h"
#include "support/Error.h"

using namespace majic;
using namespace perfbench;

namespace {

/// Mirrors the engine's versions-per-function cap.
constexpr size_t kVersionCap = 8;

struct DepthScope {
  unsigned &D;
  explicit DepthScope(unsigned &D) : D(D) { ++D; }
  ~DepthScope() { --D; }
};

void countAccesses(const IRFunction &F, LayerCounts &C) {
  for (const Instr &I : F.Code) {
    switch (I.Op) {
    case Opcode::LoadEl:
    case Opcode::LoadEl2:
    case Opcode::StoreEl:
    case Opcode::StoreEl2:
      ++C.UncheckedAccesses;
      break;
    case Opcode::LoadElChk:
    case Opcode::LoadEl2Chk:
    case Opcode::StoreElChk:
    case Opcode::StoreEl2Chk:
      ++C.CheckedAccesses;
      break;
    default:
      break;
    }
  }
}

} // namespace

LayerReplay::LayerReplay(Tracer *T)
    : T(T), Machine(Ctx, *this), Interp(Ctx, *this) {
  Repo.setVersionCap(kVersionCap);
}

void LayerReplay::registerFunctions(Module &M) {
  for (const auto &F : M.functions()) {
    Fn Entry;
    Entry.F = F.get();
    Entry.M = &M;
    {
      ScopedSpan S(T, "analysis.disambiguate");
      Entry.Info = disambiguate(*F, M);
    }
    Fns[F->name()] = std::move(Entry);
    Versions.erase(F->name());
  }
}

bool LayerReplay::load(const std::string &Name, const std::string &Source) {
  std::unique_ptr<Module> Mod;
  {
    ScopedSpan S(T, "ast.parse");
    Mod = parseModule(Name, Source, SM, Diags);
  }
  if (!Mod)
    return false;
  Modules.push_back(std::move(Mod));
  registerFunctions(*Modules.back());
  return true;
}

std::string LayerReplay::runScript(const std::string &Source) {
  size_t Mark = Ctx.output().size();
  std::unique_ptr<Module> Mod;
  {
    ScopedSpan S(T, "ast.parse");
    Mod = parseModule("script" + std::to_string(Modules.size()), Source, SM,
                      Diags);
  }
  if (!Mod) {
    std::string Err = Diags.render(SM);
    Diags.clear();
    return "??? " + Err;
  }
  Function *Script = Mod->mainFunction();
  Modules.push_back(std::move(Mod));
  if (!Script->isScript()) {
    registerFunctions(*Modules.back());
    return "";
  }
  std::vector<std::string> Predefined;
  for (const auto &[Name, V] : Workspace)
    if (V)
      Predefined.push_back(Name);
  std::unique_ptr<FunctionInfo> Info;
  {
    ScopedSpan S(T, "analysis.disambiguate");
    Info = disambiguate(*Script, *Modules.back(), &Predefined);
  }
  std::vector<ValuePtr> Slots(Info->Symbols.numSlots());
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    auto It = Workspace.find(Info->Symbols.nameOfSlot(S));
    if (It != Workspace.end())
      Slots[S] = It->second;
  }
  try {
    // The functions the script calls are the top-level invocations.
    ScopedSpan S(T, "interp.exec");
    Ctx.Exec.reset();
    Interp.runScript(*Script, Slots);
  } catch (const MatlabError &E) {
    Ctx.print("??? " + E.message() + "\n");
  }
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    const std::string &Name = Info->Symbols.nameOfSlot(S);
    if (Slots[S])
      Workspace[Name] = Slots[S];
    else
      Workspace.erase(Name);
  }
  return Ctx.output().substr(Mark);
}

ValuePtr LayerReplay::var(const std::string &Name) const {
  auto It = Workspace.find(Name);
  return It == Workspace.end() ? nullptr : It->second;
}

const FunctionInfo *LayerReplay::view(Fn &F) {
  if (F.InlinedInfo)
    return F.InlinedInfo.get();
  FunctionResolver Resolve = [this](const std::string &Callee)
      -> const Function * {
    auto It = Fns.find(Callee);
    return It == Fns.end() ? nullptr : It->second.F;
  };
  {
    ScopedSpan S(T, "analysis.inline");
    F.InlinedF = inlineFunctionCalls(*F.F, F.M->context(), Resolve);
  }
  ScopedSpan S(T, "analysis.disambiguate");
  F.InlinedInfo = disambiguate(*F.InlinedF, *F.M);
  return F.InlinedInfo.get();
}

TypeSignature LayerReplay::speculate(const std::string &Name) {
  auto It = Fns.find(Name);
  if (It == Fns.end())
    throw MatlabError("undefined function '" + Name + "'");
  const FunctionInfo *FI = view(It->second);
  ScopedSpan S(T, "infer.speculate");
  return speculateSignature(*FI);
}

CompiledObjectPtr LayerReplay::compile(const std::string &Name,
                                       const TypeSignature &Sig,
                                       CodeGenMode Mode, bool Optimistic) {
  auto It = Fns.find(Name);
  if (It == Fns.end() || It->second.F->isScript())
    return nullptr;
  const FunctionInfo *FI = view(It->second);
  if (FI->HasAmbiguousSymbols)
    return nullptr;

  // The stages of compileFunction, one entry point at a time.
  TypeAnnotations Ann;
  if (Mode != CodeGenMode::Generic) {
    InferOptions IO;
    IO.OptimisticRealMath &= Optimistic;
    ScopedSpan S(T, "infer.infer");
    Ann = inferTypes(*FI, Sig, IO).Ann;
  }
  FusionStats Fusion;
  CodeGenOptions CG;
  CG.Mode = Mode;
  bool Unroll = Mode == CodeGenMode::Jit ? Platform.JitUnrollsSmallVectors : true;
  CG.MaxUnrollNumel = Unroll ? 9 : 0;
  CG.Stats = &Fusion;
  std::unique_ptr<IRFunction> Code;
  {
    ScopedSpan S(T, "backend.codegen");
    Code = generateCode(*FI, Ann, Sig, CG);
  }
  if (!Code)
    return nullptr;
  if (Mode == CodeGenMode::Optimized) {
    OptimizeOptions OO;
    OO.Rounds = Platform.NativeOptRounds;
    OO.UnrollFactor = Platform.NativeOptRounds >= 2 ? 4 : 2;
    OO.Fusion = &Fusion;
    ScopedSpan S(T, "backend.optimize");
    optimize(*Code, OO);
  }
  RegAllocStats RA;
  {
    ScopedSpan S(T, "backend.regalloc");
    RA = allocateRegisters(*Code, Platform);
  }
  ++Counts.Compiles;
  Counts.IrInstrs += Code->Code.size();
  Counts.Spills += RA.NumSpillInstrs;
  countAccesses(*Code, Counts);

  CompiledObject Obj;
  Obj.FunctionName = Name;
  Obj.Sig = Sig;
  Obj.Code = std::move(Code);
  Obj.Mode = Mode;
  Repo.insert(std::move(Obj));
  CompiledObjectPtr Inserted = Repo.lookup(Name, Sig);
  if (Inserted)
    Versions[Name].push_back(Inserted);
  return Inserted;
}

void LayerReplay::buildNative(const std::string &Name,
                              const native::NativeCompiler &CC) {
  for (const CompiledObjectPtr &Obj : Versions[Name]) {
    if (NativeByCode.count(Obj->Code.get()))
      continue;
    try {
      std::string C;
      {
        ScopedSpan S(T, "native.emit");
        C = emitCSource(*Obj->Code, Obj->Sig);
      }
      std::vector<uint8_t> So;
      {
        ScopedSpan S(T, "native.cc");
        So = CC.compile(C, Name);
      }
      ScopedSpan S(T, "native.load");
      NativeByCode[Obj->Code.get()] =
          native::NativeCompiler::load(So, Name, Obj->Code->NumOuts);
    } catch (...) {
      ++Counts.NativeFailures;
    }
  }
}

std::vector<ValuePtr> LayerReplay::call(const std::string &Name,
                                        std::vector<ValuePtr> Args,
                                        size_t NumOuts, bool Native) {
  UseNative = Native;
  Ctx.Exec.reset();
  return callFunction(Name, std::move(Args), NumOuts, SourceLoc());
}

bool LayerReplay::knowsFunction(const std::string &Name) {
  return Fns.count(Name) != 0;
}

std::vector<ValuePtr> LayerReplay::callFunction(const std::string &Name,
                                                std::vector<ValuePtr> Args,
                                                size_t NumOuts) {
  return callFunction(Name, std::move(Args), NumOuts, SourceLoc());
}

std::vector<ValuePtr> LayerReplay::callFunction(const std::string &Name,
                                                std::vector<ValuePtr> Args,
                                                size_t NumOuts, SourceLoc) {
  auto It = Fns.find(Name);
  if (It == Fns.end())
    throw MatlabError("undefined function '" + Name + "'");
  DepthScope D(Depth);
  bool Top = Depth == 1;

  // Repository lookup, then a JIT compile on a miss (the generalized
  // signature once a version with the same skeleton exists), exactly the
  // engine's Jit policy.
  TypeSignature Sig = TypeSignature::ofValues(Args);
  CompiledObjectPtr Obj = Repo.lookup(Name, Sig);
  if (!Obj) {
    TypeSignature CompileSig = Sig;
    TypeSignature General = Sig.generalized();
    if (Repo.versionCount(Name) != 0 && !(General == Sig) &&
        Sig.safeFor(General))
      CompileSig = General;
    Obj = compile(Name, CompileSig, CodeGenMode::Jit);
  }
  if (!Obj) {
    ScopedSpan S(Top ? T : nullptr, "interp.exec");
    return Interp.run(*It->second.F, std::move(Args), NumOuts);
  }

  Rng SavedRand = Ctx.Rand;
  size_t Mark = Ctx.output().size();
  if (UseNative) {
    auto N = NativeByCode.find(Obj->Code.get());
    if (N != NativeByCode.end()) {
      try {
        ScopedSpan S(Top ? T : nullptr, "native.exec");
        return native::runNative(N->second->entry(), Name,
                                 N->second->numOuts(), Ctx, *this, Args,
                                 NumOuts);
      } catch (const DeoptError &) {
        NativeByCode.erase(N);
        Ctx.Rand = SavedRand;
        Ctx.truncateOutput(Mark);
      }
    }
  }
  try {
    ScopedSpan S(Top ? T : nullptr, "backend.vm_exec");
    return Machine.run(*Obj->Code, Args, NumOuts);
  } catch (const DeoptError &) {
    Ctx.Rand = SavedRand;
    Ctx.truncateOutput(Mark);
  }
  CompiledObjectPtr Repl =
      compile(Name, Obj->Sig, Obj->Mode, /*Optimistic=*/false);
  if (!Repl) {
    ScopedSpan S(Top ? T : nullptr, "interp.exec");
    return Interp.run(*It->second.F, std::move(Args), NumOuts);
  }
  ScopedSpan S(Top ? T : nullptr, "backend.vm_exec");
  return Machine.run(*Repl->Code, std::move(Args), NumOuts);
}
