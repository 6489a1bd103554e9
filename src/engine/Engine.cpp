//===- engine/Engine.cpp - The MaJIC engine --------------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "analysis/Inliner.h"
#include "backend/CEmitter.h"
#include "infer/Speculate.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace majic;

const char *majic::compilePolicyName(CompilePolicy P) {
  // Indexed in CompilePolicy's declaration order.
  static const char *const Names[] = {"interpret", "mcc", "falcon", "jit",
                                      "spec"};
  return Names[static_cast<size_t>(P)];
}

namespace {

/// Reads a nonnegative integer environment knob; 0 when unset or invalid.
uint64_t envLimit(const char *Name) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  return (End && *End == '\0') ? N : 0;
}

/// \p Opt when set, else - when environment fallbacks are allowed - the
/// environment knob \p Env (empty when neither is set).
std::string optionOrEnv(const std::string &Opt, const char *Env,
                        bool EnvFallbacks) {
  if (!Opt.empty() || !EnvFallbacks)
    return Opt;
  const char *V = std::getenv(Env);
  return V ? V : "";
}

/// The profile-layer signature for invocations that never compute one
/// (InterpretOnly policy, scripts).
const std::string UntypedSig = "(untyped)";

/// Re-speculation thresholds: consecutive repository misses against
/// existing versions, and cumulative deopts, before the engine asks the
/// background queue to recompile on the newly observed signature.
constexpr uint64_t kRespeculateMissStreak = 2;
constexpr uint64_t kRespeculateDeopts = 2;

} // namespace

Engine::Engine(EngineOptions OptsIn)
    : Opts(std::move(OptsIn)),
      Queue(Repo, Metrics, Opts.SharedSpecPool, Opts.BackgroundCompileThreads),
      Persist(Queue, Repo, Profiles) {
  // Arm the fault-injection schedule from MAJIC_FAULTS once per process;
  // later engines leave whatever schedule the tests armed via the API.
  static bool FaultEnvLoaded = (faults::loadEnv(), true);
  (void)FaultEnvLoaded;
  // Environment knobs fill in limits the embedder left unset.
  if (!Opts.Limits.MaxAllocBytes)
    Opts.Limits.MaxAllocBytes = envLimit("MAJIC_MAX_ALLOC_BYTES");
  if (!Opts.Limits.MaxOps)
    Opts.Limits.MaxOps = envLimit("MAJIC_MAX_OPS");
  if (!Opts.Limits.MaxWallMillis)
    Opts.Limits.MaxWallMillis = envLimit("MAJIC_MAX_WALL_MILLIS");

  Ctx.Rand.reseed(Opts.RandSeed);
  Ctx.Exec.OpBudget = Opts.Limits.MaxOps;
  Ctx.Exec.TimeBudgetNs = Opts.Limits.MaxWallMillis * 1000000ull;
  uint64_t ByteLimit = Opts.Limits.MaxAllocBytes;
  if (Opts.Limits.MaxLiveElements) {
    uint64_t ElemBytes = Opts.Limits.MaxLiveElements * sizeof(double);
    ByteLimit = ByteLimit ? std::min(ByteLimit, ElemBytes) : ElemBytes;
  }
  if (ByteLimit) {
    if (Opts.PerSessionLimits) {
      // The budget binds to this engine's own account, installed around
      // each top-level invocation: any number of engines can carry
      // independent budgets in one process.
      MemAccount.setLimit(ByteLimit);
    } else {
      // Matrix storage is charged against a process-wide account (the
      // tracking allocator cannot see engine state), so apply the stricter
      // of the two limits globally and lift it again at shutdown.
      mem::setLimitBytes(ByteLimit);
      OwnsMemLimit = true;
    }
  }
  // Native-tier knobs resolve before the config hash computes: the tier
  // flag is part of the shared-cache key. MAJIC_NATIVE opts in without
  // recompiling the embedder.
  if (const char *Env = std::getenv("MAJIC_NATIVE"); Env && *Env)
    Opts.NativeTier = true;
  if (Opts.NativeCC.empty()) {
    if (const char *Env = std::getenv("MAJIC_NATIVE_CC"); Env && *Env)
      Opts.NativeCC = Env;
    else
      Opts.NativeCC = "cc";
  }
  CfgHash = sharedCacheConfigHash(Opts);
  Repo.setVersionCap(Opts.MaxVersionsPerFunction);
  // Wire the observability subsystem. The repository's hit/miss/eviction
  // counters and the engine's own register as externally-owned instruments
  // (the compile queue registers its own); member order guarantees the
  // registry outlives them. The hot-path histograms are registry-owned.
  Repo.registerMetrics(Metrics);
  Metrics.registerCounter("engine.interp_fallbacks", InterpFallbacks);
  Metrics.registerCounter("engine.jit_compiles", JitCompiles);
  Metrics.registerCounter("engine.deopts", Deopts);
  Metrics.registerCounter("native.compiles", NativeCompiles);
  Metrics.registerCounter("native.failures", NativeFailures);
  Metrics.registerCounter("native.deopts", NativeDeopts);
  Metrics.registerCounter("native.hits", NativeHits);
  Inst.CompileSeconds = &Metrics.histogram("compile.seconds");
  Inst.InferSeconds = &Metrics.histogram("compile.infer.seconds");
  Inst.CodeGenSeconds = &Metrics.histogram("compile.codegen.seconds");
  Inst.VmRunSeconds = &Metrics.histogram("vm.run.seconds");
  Inst.InterpRunSeconds = &Metrics.histogram("interp.run.seconds");
  Inst.FusionGroups = &Metrics.counter("fusion.groups");
  Inst.FusionOpsFused = &Metrics.counter("fusion.ops_fused");
  Inst.FusionTempsElided = &Metrics.counter("fusion.temps_elided");
  // Trace/metrics destinations: option first, environment knob second
  // (environment fallbacks only when EnvFallbacks - service sessions must
  // not all dump into one file). Tracing is enabled only when a
  // destination exists - the disabled path is one relaxed atomic load per
  // site.
  TraceFile = optionOrEnv(Opts.TracePath, "MAJIC_TRACE", Opts.EnvFallbacks);
  if (!TraceFile.empty())
    obs::setTraceEnabled(true);
  MetricsFile =
      optionOrEnv(Opts.MetricsPath, "MAJIC_METRICS", Opts.EnvFallbacks);
  // Pin the dense-kernel thread count when the embedder asked for one;
  // 0 leaves the process-wide default (env override, then hardware).
  if (Opts.ComputeThreads)
    par::setComputeThreads(Opts.ComputeThreads);
  Machine = std::make_unique<VM>(Ctx, *this);
  Interp = std::make_unique<Interpreter>(Ctx, *this);
  // Third tier: probe the system C compiler once (out of process, with a
  // deadline). An unprobeable compiler leaves available() false and the
  // engine permanently on the VM - opting in never risks correctness.
  NativeHostAdapter.E = this;
  if (Opts.NativeTier)
    NativeComp = std::make_unique<native::NativeCompiler>(Opts.NativeCC);
  // Open the persistent repository (warm start). The profile summary lives
  // beside the .mjo entries unless an explicit profile directory is set.
  Persist.open(optionOrEnv(Opts.RepoDir, "MAJIC_REPO_DIR", Opts.EnvFallbacks),
               optionOrEnv(Opts.ProfileDir, "MAJIC_PROFILE_DIR",
                           Opts.EnvFallbacks),
               NativeComp.get());
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  if (ShutdownDone)
    return;
  ShutdownDone = true;
  // This engine's background work is finished or cancelled before anything
  // it touches is torn down.
  Queue.shutdown();
  // Persist the profile summary now that all recording is quiesced; the
  // next session's snooper ranks its speculation queue by these counts.
  Persist.saveProfiles([this](const std::string &Fn, const std::string &Str)
                           -> const TypeSignature * {
    if (const LoadedFunction *LF = find(Fn))
      for (const LoadedFunction::SigObs &O : LF->Obs)
        if (O.Str == Str)
          return &O.Sig;
    return nullptr;
  });
  // Final observability dumps, with every member still alive and all
  // recording quiesced (this engine's workers are joined or waited out).
  if (!MetricsFile.empty()) {
    std::ofstream Out(MetricsFile);
    if (Out)
      Out << metricsJson() << "\n";
  }
  if (!TraceFile.empty())
    obs::writeTraceJson(TraceFile);
  if (OwnsMemLimit) {
    mem::setLimitBytes(0);
    OwnsMemLimit = false;
  }
}

uint64_t Engine::sharedCacheConfigHash(const EngineOptions &Opts) {
  // Renders every option that changes generated code, then hashes the
  // rendering. Policy, limits, pool sizes and directories are
  // deliberately absent: they steer *when* compilation happens, not what
  // it produces.
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s|%u|%u|%u|%d|%u|%d|%d|%d|%u|%d|%d|%d|%d",
                Opts.Platform.Name.c_str(), Opts.Platform.NumFRegs,
                Opts.Platform.NumIRegs, Opts.Platform.NumPRegs,
                int(Opts.Platform.JitUnrollsSmallVectors),
                Opts.Platform.NativeOptRounds, int(Opts.Infer.EnableRanges),
                int(Opts.Infer.EnableMinShapes),
                int(Opts.Infer.OptimisticRealMath), Opts.Infer.MaxPasses,
                int(Opts.RegAlloc.SpillEverything), int(Opts.InlineCalls),
                int(Opts.FuseElementwise), int(Opts.NativeTier));
  return hashing::fnv1a(Buf);
}

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

bool Engine::addSource(const std::string &Name, const std::string &Source) {
  obs::TraceScope Span("addSource", "engine", Name);
  // Diagnostics report the most recent load only; stale errors from an
  // earlier bad file must not poison this parse.
  Diags.clear();
  std::unique_ptr<Module> Mod;
  {
    obs::TraceScope ParseSpan("parse", "compile", Name);
    ScopedPhaseTimer T(Phases, Phase::Parse);
    Mod = parseModule(Name, Source, SM, Diags);
  }
  if (!Mod)
    return false;

  Modules.push_back(std::move(Mod));
  registerModule(*Modules.back(), hashing::fnv1a(Source));
  return true;
}

void Engine::registerModule(Module &M, uint64_t SrcHash) {
  ScopedPhaseTimer T(Phases, Phase::Disambiguate);
  LastLoadedNames.clear();
  for (const auto &F : M.functions()) {
    const std::string &Name = F->name();
    LoadedFunction LF;
    LF.F = F.get();
    LF.M = &M;
    LF.Info = disambiguate(*F, M);
    // New source shadows any previous definition: its code is retired, and
    // background work on the old source is dropped rather than published.
    Queue.startGeneration(Name, SrcHash);
    LoadedFunction &Live = Functions[Name] = std::move(LF);
    if (!F->isScript()) {
      // Persisted signatures whose arity drifted from the live source are
      // stale; dropping them here means they can never win best-observed.
      for (const RepoStore::ProfileSig &PS : Persist.warmSignatures(Name)) {
        if (PS.Sig.size() != F->params().size() ||
            Live.Obs.size() >= obs::FunctionProfiles::kMaxSignatures)
          continue;
        Live.Obs.push_back({PS.Sig, PS.SigStr, PS.Count});
        if (PS.Count > Live.BestCount) {
          Live.BestCount = PS.Count;
          Live.BestIdx = Live.Obs.size() - 1;
        }
      }
      if (Live.BestIdx != SIZE_MAX)
        Queue.setObservedSignature(Name, Live.Obs[Live.BestIdx].Sig);
    }
    LastLoadedNames.push_back(Name);
    NativeFailures.inc(Persist.adopt(Name, SrcHash));
  }
}

bool Engine::loadFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    Diags.error(SourceLoc(), format("cannot open '%s'", Path.c_str()));
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  // Module name = basename without extension.
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  if (endsWith(Base, ".m"))
    Base = Base.substr(0, Base.size() - 2);
  if (!addSource(Base, SS.str()))
    return false;
  // Remember which functions this file defined: when the snooper reports
  // the file deleted, exactly these must be invalidated (stem aside).
  FileFunctions[Path] = LastLoadedNames;
  return true;
}

unsigned Engine::snoop() {
  obs::TraceScope Span("snoop", "engine");
  unsigned Loaded = 0;
  // Load in the scanner's deterministic path order, but speculate
  // hot-first: the profile's invocation counts (live plus persisted from
  // the last session) say what the user actually runs, so the most-called
  // function's compile goes first. Never-run functions tie at zero and
  // keep source-recency order - the file the user just saved is the one
  // they will most likely run next.
  struct Candidate {
    uint64_t Invocations;
    int64_t MTime;
    std::string Fn;
  };
  std::vector<Candidate> ToSpeculate;
  for (const SourceSnooper::Change &C : Snooper.scan()) {
    if (C.K == SourceSnooper::Change::Kind::Removed) {
      handleRemovedSource(C);
      continue;
    }
    if (!loadFile(C.Path))
      continue;
    ++Loaded;
    if (Opts.Policy == CompilePolicy::Speculative)
      for (const std::string &Fn : LastLoadedNames)
        ToSpeculate.push_back({Profiles.invocations(Fn), C.MTime, Fn});
  }
  std::stable_sort(ToSpeculate.begin(), ToSpeculate.end(),
                   [](const Candidate &A, const Candidate &B) {
                     return A.Invocations != B.Invocations
                                ? A.Invocations > B.Invocations
                                : A.MTime > B.MTime;
                   });
  for (const auto &[Invocations, MTime, Fn] : ToSpeculate) {
    // With a worker pool the compile happens off this thread ("the user
    // never waits for the compiler"); without one, synchronously.
    if (Queue.hasPool())
      speculateAsync(Fn);
    else
      precompileSpeculative(Fn);
  }
  return Loaded;
}

//===----------------------------------------------------------------------===//
// Compilation plumbing
//===----------------------------------------------------------------------===//

Engine::LoadedFunction *Engine::find(const std::string &Name) {
  auto It = Functions.find(Name);
  return It == Functions.end() ? nullptr : &It->second;
}

const std::shared_ptr<FunctionInfo> &Engine::compileView(LoadedFunction &LF) {
  if (!Opts.InlineCalls)
    return LF.Info;
  if (LF.InlinedInfo)
    return LF.InlinedInfo;

  ScopedPhaseTimer T(Phases, Phase::Disambiguate);
  FunctionResolver Resolve = [this](const std::string &Callee) -> const Function * {
    LoadedFunction *C = find(Callee);
    return C ? C->F : nullptr;
  };
  LF.InlinedF = inlineFunctionCalls(*LF.F, LF.M->context(), Resolve);
  // Inlining invalidates the symbol table (Section 2: "which then
  // necessitates the re-building of the symbol table").
  LF.InlinedInfo = disambiguate(*LF.InlinedF, *LF.M);
  return LF.InlinedInfo;
}

Engine::LoadedFunction *Engine::compilable(const std::string &Name) {
  LoadedFunction *LF = find(Name);
  if (!LF || LF->F->isScript() || isQuarantined(Name) ||
      compileView(*LF)->HasAmbiguousSymbols)
    return nullptr;
  return LF;
}

TypeSignature Engine::speculationSignature(const std::string &Name,
                                           const FunctionInfo &FI,
                                           const TypeSignature *Forced) {
  // Pick order: an explicit override (re-speculation), then the most-called
  // observed signature (what users call beats what the hint pass guesses),
  // then the backward-hint guess. Arity is checked against the live view
  // so a stale persisted profile can never force a wrong-arity compile.
  size_t Arity = FI.F->params().size();
  TypeSignature Sig;
  if (Forced && Forced->size() == Arity)
    Sig = *Forced;
  else if (std::optional<TypeSignature> Observed = Queue.read(
               Name, [&](const FnState &S) { return S.observed(Arity); }))
    Sig = std::move(*Observed);
  else
    return speculateSignature(FI, Opts.Infer);
  Queue.Spec.ObservedSigCompiles.inc();
  return Sig;
}

CompiledObjectPtr Engine::compileAndInsert(const std::string &Name,
                                           const TypeSignature &Sig,
                                           CodeGenMode Mode,
                                           CompiledObject::Origin From,
                                           bool Optimistic) {
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return nullptr;
  uint64_t Gen =
      Queue.read(Name, [](const FnState &S) { return S.Generation; });
  // The compiler must never take the engine down: any exception (injected
  // faults included; MatlabError is no std::exception, hence catch-all)
  // quarantines the function, and the caller falls back to interpreting.
  try {
    return compileVersion(Name, *compileView(*LF), Sig, Mode, Optimistic,
                          From, Gen);
  } catch (...) {
    Queue.noteCompileFailure(Name, Gen);
    return nullptr;
  }
}

CompiledObjectPtr Engine::compileVersion(const std::string &Name,
                                         const FunctionInfo &FI,
                                         const TypeSignature &Sig,
                                         CodeGenMode Mode, bool Optimistic,
                                         CompiledObject::Origin From,
                                         uint64_t Gen) {
  // Read after Gen: if Gen is still current at the insert below, this is
  // the hash of the source compiled, to save and share the object under.
  std::optional<uint64_t> SrcHash =
      Queue.read(Name, [](const FnState &S) { return S.SrcHash; });
  // Cross-session reuse: a hit on another session's compile of exactly this
  // (source, signature, configuration) clones the immutable code body.
  std::string CacheKey;
  CompiledObjectPtr Cached;
  if (Opts.SharedCache && SrcHash) {
    CacheKey =
        SharedCodeCache::key(Name, *SrcHash, CfgHash, Mode, Optimistic, Sig);
    Cached = Opts.SharedCache->lookup(CacheKey);
  }
  CompiledObject Obj;
  if (Cached) {
    Obj = Cached->clone();
    Obj.CompileSeconds = 0; // this session spent nothing
  } else {
    Timer Total;
    CompileRequest Req;
    Req.FI = &FI;
    Req.Sig = Sig;
    Req.Mode = Mode;
    Req.Platform = Opts.Platform;
    Req.Infer = Opts.Infer;
    Req.Infer.OptimisticRealMath &= Optimistic;
    Req.RegAlloc = Opts.RegAlloc;
    Req.UnrollSmallVectors =
        Mode == CodeGenMode::Jit ? Opts.Platform.JitUnrollsSmallVectors : true;
    Req.FuseElementwise = Opts.FuseElementwise;
    std::optional<CompileResult> Result = compileFunction(Req);
    if (!Result)
      return nullptr;
    Phases.add(Phase::TypeInference, Result->TypeInferSeconds);
    Phases.add(Phase::CodeGen, Result->CodeGenSeconds);
    Inst.InferSeconds->observe(Result->TypeInferSeconds);
    Inst.CodeGenSeconds->observe(Result->CodeGenSeconds);
    Inst.FusionGroups->inc(Result->Fusion.Groups);
    Inst.FusionOpsFused->inc(Result->Fusion.OpsFused);
    Inst.FusionTempsElided->inc(Result->Fusion.TempsElided);
    Obj.FunctionName = Name;
    Obj.Sig = Sig;
    Obj.Code = std::move(Result->Code);
    Obj.Mode = Mode;
    Obj.CompileSeconds = Total.seconds();
    Obj.From = From;
    Inst.CompileSeconds->observe(Obj.CompileSeconds);
    Profiles.recordCompile(Name, Obj.CompileSeconds);
  }
  // Published only if a reload did not make the object stale meanwhile.
  CompiledObjectPtr Inserted = Queue.publish(std::move(Obj), Gen);
  // The save is queued before a background compile's ledger entry goes, so
  // drainCompiles() + flushRepoStore() cover it. Fresh compiles (not
  // cache-served ones) go to the sibling sessions too.
  if (Inserted) {
    if (SrcHash)
      Persist.save(*Inserted, *SrcHash);
    if (!Cached && !CacheKey.empty())
      Opts.SharedCache->publish(CacheKey, Inserted, *SrcHash);
  }
  return Inserted;
}

void Engine::handleRemovedSource(const SourceSnooper::Change &C) {
  // Which functions did that file define? Fall back to the stem for files
  // loaded by an embedder directly rather than through loadFile.
  std::vector<std::string> Names;
  auto It = FileFunctions.find(C.Path);
  if (It != FileFunctions.end()) {
    Names = std::move(It->second);
    FileFunctions.erase(It);
  } else {
    Names.push_back(C.FunctionName);
  }
  for (const std::string &Fn : Names) {
    // A generation without source: a reload's teardown plus the tombstone,
    // set before the files are erased so a queued save cannot recreate
    // them.
    Queue.startGeneration(Fn, std::nullopt);
    Functions.erase(Fn);
    Persist.forget(Fn);
  }
}

bool Engine::precompileWithArgs(const std::string &Name,
                                const std::vector<ValuePtr> &SampleArgs) {
  return compileAndInsert(Name, TypeSignature::ofValues(SampleArgs),
                          CodeGenMode::Optimized,
                          CompiledObject::Origin::Batch) != nullptr;
}

bool Engine::precompileSpeculative(const std::string &Name) {
  LoadedFunction *LF = compilable(Name);
  return LF && compileAndInsert(
                   Name, speculationSignature(Name, *compileView(*LF), nullptr),
                   CodeGenMode::Optimized,
                   CompiledObject::Origin::Speculative) != nullptr;
}

//===----------------------------------------------------------------------===//
// Background speculation (the compile queue)
//===----------------------------------------------------------------------===//

bool Engine::speculateAsync(const std::string &Name,
                            const TypeSignature *SigOverride) {
  if (!Queue.hasPool())
    return false;
  // The analysis view is built here, on the engine's thread (it mutates the
  // LoadedFunction); inference and the compile pipeline, both pure over
  // the FunctionInfo, run on the worker.
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return false;
  std::shared_ptr<const FunctionInfo> FI = compileView(*LF);
  // Pins the inlined clone FI points into while the worker holds the task.
  std::shared_ptr<const Function> KeepAlive = LF->InlinedF;
  std::optional<TypeSignature> Forced =
      SigOverride ? std::optional(*SigOverride) : std::nullopt;
  // No exception may escape into the pool; it quarantines only the
  // generation compiled, so a source reloaded meanwhile keeps its chance.
  auto Body = [this, Name, FI, KeepAlive, Forced](uint64_t Gen) {
    (void)KeepAlive;
    try {
      TypeSignature Sig =
          speculationSignature(Name, *FI, Forced ? &*Forced : nullptr);
      return compileVersion(Name, *FI, Sig, CodeGenMode::Optimized,
                            /*Optimistic=*/true,
                            CompiledObject::Origin::Speculative,
                            Gen) != nullptr;
    } catch (...) {
      Queue.noteCompileFailure(Name, Gen);
      return false;
    }
  };
  if (!Queue.enqueueCompile(Name, std::move(Body)))
    return false;
  obs::traceInstant("speculate.queue", "engine", Name);
  return true;
}

void Engine::requestInterrupt() {
  if (Opts.PerSessionLimits)
    IntrToken.request();
  else
    exec::requestInterrupt();
}

void Engine::clearInterrupt() {
  if (Opts.PerSessionLimits)
    IntrToken.clear();
  else
    exec::clearInterrupt();
}

bool Engine::precompileGeneric(const std::string &Name, size_t Arity) {
  return compileAndInsert(Name, TypeSignature::generic(Arity),
                          CodeGenMode::Generic,
                          CompiledObject::Origin::Generic) != nullptr;
}

TypeSignature Engine::speculated(const std::string &Name) {
  LoadedFunction *LF = find(Name);
  if (!LF)
    return TypeSignature();
  return speculateSignature(*compileView(*LF), Opts.Infer);
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

const std::string &Engine::observeSignature(LoadedFunction &LF,
                                            const TypeSignature &Sig) {
  auto O = std::find_if(LF.Obs.begin(), LF.Obs.end(),
                        [&](const LoadedFunction::SigObs &X) {
                          return X.Sig == Sig;
                        });
  if (O == LF.Obs.end()) {
    if (LF.Obs.size() >= obs::FunctionProfiles::kMaxSignatures) {
      // Megamorphic overflow: past the cap the rendering is not cached (the
      // profile layer folds these calls into its own overflow counter).
      LF.OverflowSig = Sig.str();
      return LF.OverflowSig;
    }
    LF.Obs.push_back({Sig, Sig.str(), 0});
    O = std::prev(LF.Obs.end());
  }
  if (++O->Count > LF.BestCount) {
    size_t Idx = static_cast<size_t>(O - LF.Obs.begin());
    LF.BestCount = O->Count;
    if (Idx != LF.BestIdx) {
      // A different signature overtook the best: publish it. Same-signature
      // bumps skip this, so the steady state takes no lock.
      LF.BestIdx = Idx;
      Queue.setObservedSignature(LF.F->name(), O->Sig);
    }
  }
  return O->Str;
}

obs::MetricsSnapshot Engine::sampleMetrics() {
  // Point-in-time levels live in their components; mirror them into gauges
  // here instead of threading writes through the hot paths.
  Persist.sampleGauges(Metrics);
  Metrics.gauge("repo.objects").set(int64_t(Repo.totalObjects()));
  Metrics.gauge("engine.quarantined").set(int64_t(Queue.quarantineCount()));
  par::ComputePoolSample CP = par::sampleComputePool();
  Metrics.gauge("pool.compute.threads").set(int64_t(CP.Threads));
  Metrics.gauge("pool.compute.enqueued").set(int64_t(CP.TasksEnqueued));
  Metrics.gauge("pool.compute.finished").set(int64_t(CP.TasksFinished));
  Metrics.gauge("pool.compute.queue_depth").set(CP.QueueDepth);
  // Fault-injection site counters, so a fault-sweep run can report which
  // sites actually fired (all zero when no schedule is armed).
  for (unsigned S = 0; S != faults::kNumSites; ++S) {
    auto Site = static_cast<faults::Site>(S);
    faults::SiteStats FS = faults::stats(Site);
    std::string Base = std::string("faults.") + faults::siteName(Site);
    Metrics.gauge(Base + ".hits").set(int64_t(FS.Hits));
    Metrics.gauge(Base + ".fired").set(int64_t(FS.Fired));
  }
  return Metrics.snapshot();
}

std::string Engine::statsReport() {
  sampleMetrics();
  std::string Out = Metrics.renderTable();
  Out += "\n";
  Out += Profiles.renderTable();
  return Out;
}

std::string Engine::metricsJson() {
  sampleMetrics();
  std::string Out = "{\"metrics\": ";
  Out += Metrics.json();
  Out += ", \"profiles\": ";
  Out += Profiles.json();
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Invocation
//===----------------------------------------------------------------------===//

struct Engine::InvocationScope {
  Engine &E;
  std::optional<mem::ScopedAccount> Acct;
  std::optional<exec::ScopedToken> Token;

  // A fresh top-level invocation (an embedder's call, or a script) gets a
  // fresh op budget; nested calls (including scripts' callees) spend their
  // caller's. Per-session limits install the engine's own memory account
  // and interrupt token for the whole invocation (parallelFor propagates
  // both into its chunks). The depth count keeps nested calls from
  // resetting the budget mid-program.
  explicit InvocationScope(Engine &E) : E(E) {
    if (E.CallDepth == 0) {
      E.Ctx.Exec.reset();
      if (E.Opts.PerSessionLimits) {
        Acct.emplace(&E.MemAccount);
        Token.emplace(&E.IntrToken);
      }
    }
    ++E.CallDepth;
  }
  ~InvocationScope() { --E.CallDepth; }
  InvocationScope(const InvocationScope &) = delete;
  InvocationScope &operator=(const InvocationScope &) = delete;
};

std::vector<ValuePtr> Engine::callFunction(const std::string &Name,
                                           std::vector<ValuePtr> Args,
                                           size_t NumOuts, SourceLoc Loc) {
  LoadedFunction *LF = find(Name);
  if (!LF)
    throw MatlabError(format("undefined function '%s'", Name.c_str()), Loc);
  if (!LF->F->isScript() && Args.size() > LF->F->params().size())
    throw MatlabError(format("too many input arguments to '%s'", Name.c_str()),
                      Loc);
  if (NumOuts > std::max<size_t>(LF->F->outs().size(), 1))
    throw MatlabError(format("too many output arguments from '%s'",
                             Name.c_str()),
                      Loc);
  if (CallDepth >= Opts.MaxCallDepth)
    throw MatlabError("maximum recursion depth exceeded", Loc);
  InvocationScope Scope(*this);
  std::vector<ValuePtr> R = runTiers(*LF, Args, NumOuts);
  if (CallDepth == 1)
    Queue.recordFirstResult();
  return R;
}

CompiledObjectPtr Engine::versionFor(LoadedFunction &LF,
                                     const std::vector<ValuePtr> &Args) {
  const std::string &Name = LF.F->name();
  if (Opts.Policy == CompilePolicy::InterpretOnly || LF.F->isScript()) {
    Profiles.recordInvocation(Name, UntypedSig);
    return nullptr;
  }

  TypeSignature Sig = TypeSignature::ofValues(Args);
  Profiles.recordInvocation(Name, observeSignature(LF, Sig));
  if (CompiledObjectPtr Obj = Repo.lookup(Name, Sig)) {
    LF.SigMissStreak = 0;
    return Obj;
  }
  if (Opts.Policy == CompilePolicy::Speculative && Queue.inFlight(Name)) {
    // A background compile of this function is in flight: interpret this
    // invocation rather than duplicate the compiler's work; the next call
    // picks up the published object. An actual call is the strongest
    // priority signal there is, so a still-queued compile moves to the
    // front (the snooper enqueues in discovery order).
    Queue.promote(Name);
    InterpFallbacks.inc();
    Queue.Spec.InFlightInterpreted.inc();
    return nullptr;
  }
  // Miss: compile according to policy. When a version with the same
  // skeleton already exists (recursive calls with different constants),
  // compile the generalized signature so the repository converges.
  TypeSignature CompileSig = Sig;
  TypeSignature General = Sig.generalized();
  if (Repo.versionCount(Name) != 0 && !(General == Sig) &&
      Sig.safeFor(General))
    CompileSig = General;

  // Repeated misses against existing versions mean speculation guessed
  // wrong: re-speculate on the observed signature (once per distinct one,
  // so a stable pattern does not churn the queue). The JIT below still
  // serves this call; the background compile upgrades it to optimized code.
  if (Opts.Policy == CompilePolicy::Speculative && Queue.hasPool() &&
      Repo.versionCount(Name) != 0 &&
      ++LF.SigMissStreak >= kRespeculateMissStreak &&
      (!LF.RespecValid || !(LF.RespecSig == CompileSig))) {
    LF.RespecSig = CompileSig;
    LF.RespecValid = true;
    speculateAsync(Name, &CompileSig);
  }

  CompiledObjectPtr Obj;
  switch (Opts.Policy) {
  case CompilePolicy::Jit:
  case CompilePolicy::Speculative:
    Obj = compileAndInsert(Name, CompileSig, CodeGenMode::Jit,
                           CompiledObject::Origin::Jit);
    if (Obj)
      JitCompiles.inc();
    break;
  case CompilePolicy::Falcon:
    Obj = compileAndInsert(Name, CompileSig, CodeGenMode::Optimized,
                           CompiledObject::Origin::Batch);
    break;
  case CompilePolicy::Mcc:
    Obj = compileAndInsert(Name, TypeSignature::generic(Args.size()),
                           CodeGenMode::Generic,
                           CompiledObject::Origin::Generic);
    break;
  case CompilePolicy::InterpretOnly:
    break;
  }
  if (!Obj)
    InterpFallbacks.inc();
  return Obj;
}

template <typename RunFn>
std::vector<ValuePtr> Engine::timedRun(Tier T, const std::string &Name,
                                       RunFn &&Run) {
  if (CallDepth != 1)
    return Run();
  ScopedPhaseTimer PT(Phases, Phase::Execute);
  Timer Clock;
  std::vector<ValuePtr> R = Run();
  double Seconds = Clock.seconds();
  switch (T) {
  case Tier::Native:
    Profiles.recordNativeRun(Name, Seconds);
    break;
  case Tier::Vm:
    Inst.VmRunSeconds->observe(Seconds);
    Profiles.recordVmRun(Name, Seconds);
    break;
  case Tier::Interp:
    Inst.InterpRunSeconds->observe(Seconds);
    Profiles.recordInterpRun(Name, Seconds);
    break;
  }
  return R;
}

std::vector<ValuePtr> Engine::runTiers(LoadedFunction &LF,
                                       std::vector<ValuePtr> &Args,
                                       size_t NumOuts) {
  // Obj is a shared handle: even if a background recompile replaces this
  // version in the repository mid-execution, the object stays alive.
  CompiledObjectPtr Obj = versionFor(LF, Args);
  // Snapshot the PRNG and buffered output once: every tier edge below
  // rolls back to it, so the next tier does identical work and a failed
  // attempt's output is never seen twice.
  const Rng SavedRand = Ctx.Rand;
  const size_t OutputMark = Ctx.output().size();
  Tier T = !Obj ? Tier::Interp : NativeComp ? Tier::Native : Tier::Vm;
  bool Pessimistic = false;
  std::vector<ValuePtr> Out;
  for (;;) {
    if (T == Tier::Native) {
      if (runNativeTier(*Obj, Args, NumOuts, Out))
        return Out;
      T = Tier::Vm;
    } else {
      try {
        // Args survive every attempt that may still fall through; the
        // last one (pessimistic code or the interpreter) consumes them.
        Out = timedRun(T, LF.F->name(), [&] {
          if (T == Tier::Interp)
            return Interp->run(*LF.F, std::move(Args), NumOuts);
          if (Pessimistic)
            return Machine->run(*Obj->Code, std::move(Args), NumOuts);
          return Machine->run(*Obj->Code, Args, NumOuts);
        });
        return Out;
      } catch (const DeoptError &) {
        // Pessimistic code selects no optimistic guards, so only the first
        // VM attempt can get here; retry once on its replacement, or on
        // the interpreter when the recompile fails.
        if (T == Tier::Interp || Pessimistic)
          throw;
        Obj = deoptimize(*Obj);
        Pessimistic = true;
        if (!Obj) {
          InterpFallbacks.inc();
          T = Tier::Interp;
        }
      }
    }
    Ctx.Rand = SavedRand;
    Ctx.truncateOutput(OutputMark);
  }
}

CompiledObjectPtr Engine::deoptimize(const CompiledObject &Obj) {
  // An optimistic guard failed (sqrt of a negative value, ...): replace
  // the compiled version with a pessimistic one.
  Deopts.inc();
  Profiles.recordDeopt(Obj.FunctionName);
  obs::traceInstant("deopt", "engine", Obj.FunctionName);
  // Repeated deopts say the speculated types were wrong. When the observed
  // signature differs from the one that deopted, queue an optimized
  // recompile for it; same-signature deopts get the pessimistic
  // replacement (optimistic code would just deopt again).
  if (Opts.Policy == CompilePolicy::Speculative && Queue.hasPool()) {
    if (LoadedFunction *LF = find(Obj.FunctionName))
      if (++LF->DeoptCount == kRespeculateDeopts) {
        std::optional<TypeSignature> Observed =
            Queue.read(Obj.FunctionName, [&](const FnState &S) {
              return S.observed(Obj.Sig.size());
            });
        if (Observed && !(*Observed == Obj.Sig))
          speculateAsync(Obj.FunctionName, &*Observed);
      }
  }
  return compileAndInsert(Obj.FunctionName, Obj.Sig, Obj.Mode, Obj.From,
                          /*Optimistic=*/false);
}

std::shared_ptr<native::NativeModule>
Engine::nativeModuleFor(const CompiledObject &Obj) {
  const std::string &Name = Obj.FunctionName;
  auto Version = [&] {
    return Queue.read(Name,
                      [&](const FnState &S) { return S.nativeModule(Obj.Sig); });
  };
  if (auto Mod = Version())
    return *Mod;
  if (!NativeComp->available())
    return nullptr;
  // Promotion is profile-guided: the function must have earned the
  // hotness threshold (counting invocations persisted from previous
  // sessions, so a warm start re-promotes immediately).
  if (Profiles.invocations(Name) < Opts.NativeHotThreshold)
    return nullptr;
  // Off-thread when a pool exists: the call that crossed the threshold runs
  // on the VM while cc works ("the user never waits"). Else build here.
  std::optional<uint64_t> Gen = Queue.enqueueNative(
      Name, Obj.Sig, [this, Name, Sig = Obj.Sig, Code = Obj.Code](uint64_t G) {
        buildNative(Name, Sig, Code, G);
      });
  if (!Gen)
    return nullptr;
  buildNative(Name, Obj.Sig, Obj.Code, *Gen);
  return Version().value_or(nullptr);
}

void Engine::buildNative(const std::string &Name, const TypeSignature &Sig,
                         const std::shared_ptr<const IRFunction> &Code,
                         uint64_t Gen) {
  std::shared_ptr<native::NativeModule> Mod;
  std::vector<uint8_t> So;
  try {
    std::string CSource = emitCSource(*Code, Sig);
    So = NativeComp->compile(CSource, Name);
    Mod = native::NativeCompiler::load(So, Name, Code->NumOuts);
  } catch (...) {
    // Compiler crash, timeout, -Werror rejection, loader refusal, injected
    // fault: the version pins to the VM until the source changes. The
    // tier must never take the engine down or change observable results.
    NativeFailures.inc();
    obs::traceInstant("native.fail", "native", Name);
    Queue.setNative(Name, Sig, {NativeVersion::State::Failed, nullptr}, Gen);
    return;
  }
  NativeCompiles.inc();
  obs::traceInstant("native.promote", "native", Name);
  uint32_t NumOuts = static_cast<uint32_t>(Mod->numOuts());
  // Published and persisted (under the hash read with it) only if no reload
  // made this machine code stale while cc ran. The saved .so lets the next
  // session warm-start into machine code with zero compiler runs.
  if (std::optional<uint64_t> SrcHash = Queue.setNative(
          Name, Sig, {NativeVersion::State::Ready, std::move(Mod)}, Gen))
    Persist.saveNative(Name, Sig, NumOuts, So, *SrcHash);
}

bool Engine::runNativeTier(const CompiledObject &Obj,
                           const std::vector<ValuePtr> &Args, size_t NumOuts,
                           std::vector<ValuePtr> &Out) {
  std::shared_ptr<native::NativeModule> Mod = nativeModuleFor(Obj);
  if (!Mod)
    return false;
  // Genuine MATLAB errors propagate exactly as from the VM; everything
  // else the tier can fail with - deopt guards, injected faults -
  // quarantines the module and degrades to the VM, so the tiers are
  // distinguishable only by speed.
  try {
    Out = timedRun(Tier::Native, Obj.FunctionName, [&] {
      return native::runNative(Mod->entry(), Obj.FunctionName, Mod->numOuts(),
                               Ctx, NativeHostAdapter, Args, NumOuts);
    });
    // Counted only after the call returns: deopts and quarantined runs
    // must not inflate native.hits relative to native.deopts/failures.
    NativeHits.inc();
    return true;
  } catch (const DeoptError &) {
    // An optimistic guard failed inside machine code. The VM re-runs with
    // identical state, and its own deopt edge performs the pessimistic
    // recompile when the guard fails there too.
    NativeDeopts.inc();
  } catch (const MatlabError &) {
    // The program's own error (bad subscript, undefined variable,
    // interrupt, resource limit): the VM would raise it identically.
    throw;
  } catch (...) {
    // Injected fault or native-side surprise: never let the tier take
    // the engine down.
    NativeFailures.inc();
  }
  // The version pins to the VM, and its on-disk entries go too: code that
  // failed at run time must not resurrect on the next warm start.
  Queue.setNative(Obj.FunctionName, Obj.Sig,
                  {NativeVersion::State::Failed, nullptr});
  Persist.eraseNative(Obj.FunctionName);
  obs::traceInstant("native.quarantine", "native", Obj.FunctionName);
  return false;
}

//===----------------------------------------------------------------------===//
// Interactive scripts
//===----------------------------------------------------------------------===//

std::string Engine::runScript(const std::string &Source) {
  obs::TraceScope Span("script", "engine");
  size_t OutputMark = Ctx.output().size();

  std::string Name = format("session%zu", Modules.size());
  Diags.clear();
  std::unique_ptr<Module> Mod;
  {
    obs::TraceScope ParseSpan("parse", "compile", Name);
    ScopedPhaseTimer T(Phases, Phase::Parse);
    Mod = parseModule(Name, Source, SM, Diags);
  }
  if (!Mod) {
    std::string Err = Diags.render(SM);
    Diags.clear();
    return "??? " + Err;
  }
  Function *Script = Mod->mainFunction();
  if (!Script->isScript()) {
    // Defining functions interactively: register them instead of running.
    // Hibernation replays these definitions verbatim, so record the text
    // (once per distinct text; re-submitting an identical definition is
    // idempotent and replaying the survivor in order reaches the same
    // final state).
    bool Known = false;
    for (const auto &D : InteractiveDefs)
      Known |= D.Text == Source;
    if (!Known)
      InteractiveDefs.push_back({Name, Source});
    Modules.push_back(std::move(Mod));
    registerModule(*Modules.back(), hashing::fnv1a(Source));
    return "";
  }

  // Pre-existing workspace variables are in scope.
  std::vector<std::string> Predefined;
  for (const auto &[VarName, V] : WorkspaceByName)
    if (V)
      Predefined.push_back(VarName);
  std::unique_ptr<FunctionInfo> Info;
  {
    ScopedPhaseTimer T(Phases, Phase::Disambiguate);
    Info = disambiguate(*Script, *Mod, &Predefined);
  }

  // Map workspace values into the script's slots.
  std::vector<ValuePtr> Slots(Info->Symbols.numSlots());
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    auto It = WorkspaceByName.find(Info->Symbols.nameOfSlot(S));
    if (It != WorkspaceByName.end())
      Slots[S] = It->second;
  }

  try {
    ScopedPhaseTimer T(Phases, Phase::Execute);
    // The script itself is a top-level invocation; callFunction (depth >= 1
    // from here) spends its budget.
    InvocationScope Scope(*this);
    Interp->runScript(*Script, Slots);
    if (CallDepth == 1)
      Queue.recordFirstResult();
  } catch (const MatlabError &E) {
    Ctx.print("??? " + E.message() + "\n");
  }

  // Write the workspace back.
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    const std::string &VarName = Info->Symbols.nameOfSlot(S);
    if (Slots[S])
      WorkspaceByName[VarName] = Slots[S];
    else
      WorkspaceByName.erase(VarName);
  }
  Modules.push_back(std::move(Mod));

  return Ctx.output().substr(OutputMark);
}

ValuePtr Engine::workspaceVar(const std::string &Name) const {
  auto It = WorkspaceByName.find(Name);
  return It == WorkspaceByName.end() ? nullptr : It->second;
}

ser::WorkspaceImage Engine::workspaceImage() const {
  ser::WorkspaceImage W;
  W.Sources = InteractiveDefs;
  W.Vars.reserve(WorkspaceByName.size());
  for (const auto &[Name, V] : WorkspaceByName)
    if (V)
      W.Vars.push_back({Name, V});
  std::sort(W.Vars.begin(), W.Vars.end(),
            [](const ser::WorkspaceImage::VarDef &A,
               const ser::WorkspaceImage::VarDef &B) { return A.Name < B.Name; });
  return W;
}

void Engine::restoreWorkspaceImage(const ser::WorkspaceImage &W) {
  // Replaying through runScript re-registers the functions exactly the way
  // the original definitions did (and re-records them for the next
  // hibernation); the text parsed when it was snapshotted, and the decode
  // ladder vouches for the bytes, so a parse failure here means a writer
  // bug - surface it rather than restore half a session.
  for (const ser::WorkspaceImage::SourceDef &S : W.Sources) {
    std::string Out = runScript(S.Text);
    if (Out.compare(0, 4, "??? ") == 0)
      throw ser::SerializeError("snapshotted definition failed to replay: " +
                                Out.substr(4));
  }
  for (const ser::WorkspaceImage::VarDef &Var : W.Vars)
    if (Var.V)
      WorkspaceByName[Var.Name] = Var.V;
}
