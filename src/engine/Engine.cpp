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
  switch (P) {
  case CompilePolicy::InterpretOnly:
    return "interpret";
  case CompilePolicy::Mcc:
    return "mcc";
  case CompilePolicy::Falcon:
    return "falcon";
  case CompilePolicy::Jit:
    return "jit";
  case CompilePolicy::Speculative:
    return "spec";
  }
  majic_unreachable("invalid policy");
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

Engine::Engine(EngineOptions OptsIn) : Opts(std::move(OptsIn)) {
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
  // recompiling the embedder (the same pattern as MAJIC_NO_FUSION).
  if (const char *Env = std::getenv("MAJIC_NATIVE"); Env && *Env)
    Opts.NativeTier = true;
  if (Opts.NativeCC.empty()) {
    if (const char *Env = std::getenv("MAJIC_NATIVE_CC"); Env && *Env)
      Opts.NativeCC = Env;
    else
      Opts.NativeCC = "cc";
  }
  if (uint64_t Hot = envLimit("MAJIC_NATIVE_HOT"))
    Opts.NativeHotThreshold = static_cast<unsigned>(Hot);
  CfgHash = sharedCacheConfigHash(Opts);
  Repo.setVersionCap(Opts.MaxVersionsPerFunction);
  // Wire the observability subsystem. The repository's hit/miss/eviction
  // counters and the engine's own counters register as externally-owned
  // instruments; member order guarantees the registry outlives them. The
  // hot-path histograms are registry-owned, resolved once here.
  Repo.registerMetrics(Metrics);
  Metrics.registerCounter("engine.interp_fallbacks", InterpFallbacks);
  Metrics.registerCounter("engine.jit_compiles", JitCompiles);
  Metrics.registerCounter("engine.deopts", Deopts);
  Metrics.registerCounter("native.compiles", NativeCompiles);
  Metrics.registerCounter("native.failures", NativeFailures);
  Metrics.registerCounter("native.deopts", NativeDeopts);
  Metrics.registerCounter("native.hits", NativeHits);
  Metrics.registerCounter("spec.queued", Spec.Queued);
  Metrics.registerCounter("spec.completed", Spec.Completed);
  Metrics.registerCounter("spec.dropped", Spec.Dropped);
  Metrics.registerCounter("spec.deduped_requests", Spec.DedupedRequests);
  Metrics.registerCounter("spec.inflight_interpreted",
                          Spec.InFlightInterpreted);
  Metrics.registerCounter("spec.promoted", Spec.Promoted);
  Metrics.registerCounter("spec.failed", Spec.Failed);
  Metrics.registerCounter("spec.observed_sig_compiles",
                          Spec.ObservedSigCompiles);
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
  // Environment kill switch for elementwise fusion (A/B measurement).
  if (const char *Env = std::getenv("MAJIC_NO_FUSION"); Env && *Env)
    Opts.FuseElementwise = false;
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
  // Open the persistent repository (warm start): sweep temp files a crashed
  // save left behind, then read and validate every entry. Entries wait in
  // Warm until their source is loaded - only then can the source hash
  // confirm the compiled code still matches the .m text.
  std::string RepoDir =
      optionOrEnv(Opts.RepoDir, "MAJIC_REPO_DIR", Opts.EnvFallbacks);
  if (!RepoDir.empty()) {
    Store = std::make_unique<RepoStore>(RepoDir);
    Store->sweepTemps();
    for (RepoStore::Entry &E : Store->loadAll())
      Warm[E.Obj.FunctionName].Objects.push_back(std::move(E));
    if (NativeComp && NativeComp->available()) {
      // Native payloads carry a narrower stamp: the ABI version plus the
      // compiler's identification line fold into the extra, so a cc
      // upgrade or an ABI bump turns last session's .so files into
      // routine skew rather than loadable code. With the compiler absent
      // the .mjn files are left untouched - their provenance cannot be
      // re-validated, and the tier is dormant anyway.
      struct {
        uint32_t Abi;
        uint32_t Zero;
        uint64_t CompilerId;
      } StampFacts = {native::kNativeABIVersion, 0,
                      hashing::fnv1a(NativeComp->compilerId())};
      Store->setNativeStampExtra(hashing::fnv1a(
          &StampFacts, sizeof(StampFacts), hashing::fnv1a("majic-native")));
      for (RepoStore::NativeEntry &E : Store->loadAllNative())
        Warm[E.FunctionName].Natives.push_back(std::move(E));
    }
  }
  // The profile summary lives beside the .mjo entries unless an explicit
  // profile directory points elsewhere. Persisted counts merge into the
  // in-memory profiles right away (so the snooper ranks hot-first before
  // anything runs); the observed signatures wait in Warm until their
  // source is loaded and the arity can be checked.
  std::string ProfDir =
      optionOrEnv(Opts.ProfileDir, "MAJIC_PROFILE_DIR", Opts.EnvFallbacks);
  if (ProfDir.empty())
    ProfDir = RepoDir;
  if (!ProfDir.empty()) {
    if (Store && ProfDir == RepoDir) {
      ProfileStore = Store.get();
    } else {
      OwnedProfileStore = std::make_unique<RepoStore>(ProfDir);
      OwnedProfileStore->sweepTemps();
      ProfileStore = OwnedProfileStore.get();
    }
    for (RepoStore::ProfileSummary &PS : ProfileStore->loadProfiles()) {
      Profiles.mergePersisted(PS.Name, PS.Invocations, PS.OtherSignatures);
      for (const RepoStore::ProfileSig &Sg : PS.Sigs)
        Profiles.mergeSignatureCount(PS.Name, Sg.SigStr, Sg.Count);
      if (!PS.Sigs.empty())
        Warm[PS.Name].Sigs = std::move(PS.Sigs);
    }
  }
  // Background workers for speculation and store saves. A shared pool (the
  // multi-session service) takes precedence; otherwise idle-priority
  // workers are spawned so background compilation only consumes cycles the
  // interactive thread leaves free - responsiveness holds even on a
  // single-core machine (the paper's "the user never waits"). An owned
  // pool records into registry-owned instruments ("pool.spec.*"); a shared
  // pool's instruments belong to its owner.
  if (Opts.SharedSpecPool) {
    SpecPool = Opts.SharedSpecPool;
  } else if (Opts.BackgroundCompileThreads > 0) {
    ThreadPool::MetricsSink Sink;
    Sink.Enqueued = &Metrics.counter("pool.spec.enqueued");
    Sink.Finished = &Metrics.counter("pool.spec.finished");
    Sink.Promoted = &Metrics.counter("pool.spec.promoted");
    Sink.QueueDepth = &Metrics.gauge("pool.spec.queue_depth");
    Sink.QueueSeconds = &Metrics.histogram("pool.spec.queue_seconds");
    Sink.RunSeconds = &Metrics.histogram("pool.spec.run_seconds");
    OwnedSpecPool = std::make_unique<ThreadPool>(
        Opts.BackgroundCompileThreads, ThreadPool::Priority::Idle, &Sink);
    SpecPool = OwnedSpecPool.get();
  }
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  if (ShutdownDone)
    return;
  ShutdownDone = true;
  if (OwnedSpecPool) {
    // Workers observe Draining under SpecMutex and persist synchronously
    // from then on, so nothing re-enqueues while the pool tears down.
    {
      std::lock_guard<std::mutex> L(SpecMutex);
      Draining = true;
    }
    // A paused pool would never drain its queue; the pool destructor joins
    // after finishing queued tasks, so un-pause first. In-flight tasks
    // touch the repository and the speculation bookkeeping, which must
    // outlive them - hence join before anything else is torn down.
    OwnedSpecPool->setPaused(false);
    OwnedSpecPool.reset();
    std::lock_guard<std::mutex> L(SpecMutex);
    SpecPool = nullptr;
  } else if (SpecPool) {
    // Shared pool: it outlives this engine and may be serving other
    // sessions, so never drain or pause it. Cancel this engine's
    // still-queued tasks (doing the bookkeeping their bodies would have),
    // then wait out only the ones already running.
    std::unique_lock<std::mutex> L(SpecMutex);
    Draining = true;
    for (auto It = Tasks.begin(); It != Tasks.end();) {
      if (It->Started || !SpecPool->cancel(It->PoolId)) {
        ++It; // running; its body does its own bookkeeping
        continue;
      }
      if (It->Kind == TaskKind::Compile)
        Spec.Dropped.inc();
      It = Tasks.erase(It);
    }
    SpecIdleCv.wait(L, [this] { return tasksIdle(/*WithSaves=*/true); });
    SpecPool = nullptr;
  }
  // Persist the profile summary now that all recording is quiesced; the
  // next session's snooper ranks its speculation queue by these counts.
  saveProfilesToStore();
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
    // New source shadows any previous definition: its code is retired and
    // in-flight background work on the old source is dropped rather than
    // published.
    startGeneration(Name, SrcHash);
    seedObservedSignatures(Name, Functions[Name] = std::move(LF));
    LastLoadedNames.push_back(Name);
    adoptWarmEntries(Name, SrcHash);
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

void Engine::watchDirectory(const std::string &Dir) {
  Snooper.watchDirectory(Dir);
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
    // never waits for the compiler"); without one, fall back to the
    // synchronous pre-async behavior.
    if (SpecPool)
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
  // Pick order: an explicit override (re-speculation), then the
  // most-called observed signature - what users actually call beats what
  // the hint pass guesses - then the backward-hint guess, the cold-start
  // fallback. Arity is checked against the live analysis view so a stale
  // persisted profile can never force a wrong-arity compile.
  size_t Arity = FI.F->params().size();
  TypeSignature Sig;
  if (Forced && Forced->size() == Arity)
    Sig = *Forced;
  else if (!observedSignatureFor(Name, Arity, Sig))
    return speculateSignature(FI, Opts.Infer);
  Spec.ObservedSigCompiles.inc();
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
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    Gen = FnStates[Name].Generation;
  }
  // The compiler must never take the engine down: any exception escaping
  // the pipeline (injected faults included; MatlabError does not derive
  // from std::exception, hence catch-all) quarantines the function and the
  // caller transparently falls back to the interpreter.
  try {
    return compileVersion(Name, *compileView(*LF), Sig, Mode, Optimistic,
                          From, Gen);
  } catch (...) {
    noteCompileFailure(Name, Gen);
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
  std::optional<uint64_t> SrcHash = sourceHash(Name);
  // Cross-session reuse: another session may already have compiled exactly
  // this (source, signature, configuration). A hit clones the immutable
  // code body into this engine's repository - zero compile work.
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
  CompiledObjectPtr Inserted;
  {
    // Publish only when the source generation is unchanged: an invalidate
    // or reload while a background compile ran makes its object stale.
    std::lock_guard<std::mutex> L(SpecMutex);
    if (FnStates[Name].Generation != Gen)
      return nullptr;
    Repo.insert(std::move(Obj));
    Inserted = Repo.lookup(Name, Sig);
  }
  // Queue the persist before a background compile's pending count drops:
  // drainCompiles() + flushRepoStore() must find a compile or a save
  // pending until the object is on disk. Fresh compiles (not cache-served
  // ones) go to the sibling sessions too.
  if (Inserted) {
    if (SrcHash)
      saveToStore(*Inserted, *SrcHash);
    if (!Cached && !CacheKey.empty())
      Opts.SharedCache->publish(CacheKey, Inserted, *SrcHash);
  }
  return Inserted;
}

//===----------------------------------------------------------------------===//
// Background tasks (the ledger)
//===----------------------------------------------------------------------===//

template <typename Fn>
bool Engine::enqueueTask(TaskKind Kind, const std::string &Name, Fn Body) {
  if (!SpecPool || Draining)
    return false;
  // Enqueueing under SpecMutex (the established SpecMutex -> pool-mutex
  // order; workers release the pool lock before running a task) makes the
  // ledger race-free: the task's first act is to take SpecMutex and mark
  // its own entry started, which is therefore in place before it looks.
  uint64_t Seq = ++LastTaskSeq;
  ThreadPool::TaskId Id;
  try {
    Id = SpecPool->enqueue([this, Seq, Body = std::move(Body)] {
      auto Mine = [this, Seq] {
        return std::find_if(Tasks.begin(), Tasks.end(),
                            [Seq](const Task &T) { return T.Seq == Seq; });
      };
      {
        std::lock_guard<std::mutex> L(SpecMutex);
        Mine()->Started = true;
      }
      Body();
      {
        std::lock_guard<std::mutex> L(SpecMutex);
        Tasks.erase(Mine());
      }
      SpecIdleCv.notify_all();
    });
  } catch (...) {
    // Injected pool-enqueue fault: leave no bookkeeping behind, or a
    // barrier would wait forever on a task that does not exist.
    return false;
  }
  Tasks.push_back({Seq, Id, Kind, Name});
  return true;
}

std::vector<Engine::Task>::const_iterator
Engine::compileTask(const std::string &Name) const {
  return std::find_if(Tasks.begin(), Tasks.end(), [&](const Task &T) {
    return T.Kind == TaskKind::Compile && T.Name == Name;
  });
}

bool Engine::tasksIdle(bool WithSaves) const {
  return std::none_of(Tasks.begin(), Tasks.end(), [&](const Task &T) {
    return WithSaves || T.Kind != TaskKind::Save;
  });
}

//===----------------------------------------------------------------------===//
// Persistent repository (warm start)
//===----------------------------------------------------------------------===//

void Engine::adoptWarmEntries(const std::string &Name, uint64_t SrcHash) {
  auto It = Warm.find(Name);
  if (!Store || It == Warm.end())
    return;
  // Each entry is offered once; the persisted signatures stay behind for
  // later registrations and the profile summary.
  for (RepoStore::Entry &E : std::exchange(It->second.Objects, {})) {
    if (E.SourceHash != SrcHash) {
      // The .m text changed since this was compiled: the final rung of
      // the validation ladder fails, and the entry must not shadow the
      // new source. Delete the file; the new source recompiles on demand.
      Store->discardStale(E.Path);
      continue;
    }
    try {
      Repo.insert(std::move(E.Obj));
      Store->noteAdopted();
      Profiles.recordWarmAdoption(Name);
      obs::traceInstant("warm.adopt", "repo", Name);
    } catch (...) {
      // An injected repo-insert fault while adopting costs one
      // recompile; loading must never take the engine down.
    }
  }
  // The native half of the warm start, independent of the .mjo half (a
  // quarantined or deleted .mjo must not cost a cc run when the .so is
  // intact): a validated .mjn whose source hash still matches dlopens
  // straight into a Ready version - machine code with zero compiler
  // invocations. Any loader refusal (injected fault, ABI drift the stamp
  // missed) discards the file and the function simply stays on the VM
  // until re-promoted. The dlopen runs before SpecMutex is taken.
  for (RepoStore::NativeEntry &E : std::exchange(It->second.Natives, {})) {
    if (E.SourceHash != SrcHash) {
      Store->discardStale(E.Path);
      continue;
    }
    try {
      std::vector<uint8_t> So(E.SoBytes.begin(), E.SoBytes.end());
      std::shared_ptr<native::NativeModule> Mod =
          native::NativeCompiler::load(So, E.FunctionName, E.NumOuts);
      std::lock_guard<std::mutex> L(SpecMutex);
      FnStates[Name].Natives.emplace_back(
          E.Sig, NativeVersion{NativeVersion::State::Ready, std::move(Mod)});
      obs::traceInstant("warm.adopt_native", "native", Name);
    } catch (...) {
      NativeFailures.inc();
      Store->discardStale(E.Path);
    }
  }
}

template <typename WriteFn>
void Engine::writeUnlessErased(const std::string &Name, bool Native,
                               WriteFn Write) {
  auto Erased = [&] {
    std::lock_guard<std::mutex> L(SpecMutex);
    const FnState *S = state(Name);
    return S && S->Erased;
  };
  if (Erased())
    return;
  Write();
  // Re-check after the write: handleRemovedSource sets the tombstone
  // before erasing the files, so if we do not see it here, our file landed
  // before the erase scanned the directory and the eraser removes it; if
  // we do see it, the erase may have run first and missed the file, and
  // we take it back out ourselves. Either way nothing survives.
  if (Erased()) {
    if (Native)
      Store->eraseNative(Name);
    else
      Store->erase(Name);
  }
}

void Engine::saveToStore(const CompiledObject &Obj, uint64_t SrcHash) {
  if (!Store || !Obj.Code)
    return;
  // Clone for the task: the repository keeps the original. The IR itself
  // is shared.
  auto Clone = std::make_shared<CompiledObject>(Obj.clone());
  auto Save = [this, Clone, SrcHash] {
    writeUnlessErased(Clone->FunctionName, /*Native=*/false,
                      [&] { Store->save(*Clone, SrcHash); });
  };
  {
    // Persisting rides the idle-priority pool like speculative compiles:
    // the interactive thread never waits for the disk. While draining
    // (shutdown) the ledger refuses, and the save runs synchronously
    // instead of onto a pool that is mid-teardown (owned) or possibly
    // paused (shared).
    std::lock_guard<std::mutex> L(SpecMutex);
    if (enqueueTask(TaskKind::Save, Clone->FunctionName, Save))
      return;
  }
  Save();
}

std::optional<uint64_t> Engine::sourceHash(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  const FnState *S = state(Name);
  return S ? S->SrcHash : std::nullopt;
}

const Engine::FnState *Engine::state(const std::string &Name) const {
  auto It = FnStates.find(Name);
  return It == FnStates.end() ? nullptr : &It->second;
}

void Engine::flushRepoStore() {
  // A compile still in flight may yet queue a save, so wait out both.
  // Native compile tasks save their .so inline, so they count too.
  std::unique_lock<std::mutex> L(SpecMutex);
  SpecIdleCv.wait(L, [this] { return tasksIdle(/*WithSaves=*/true); });
}

RepoStoreStats Engine::repoStoreStats() const {
  RepoStoreStats S = Store ? Store->stats() : RepoStoreStats();
  if (OwnedProfileStore) {
    // The profile file lives in its own store instance; fold its counters
    // in so one snapshot covers both directories.
    RepoStoreStats P = OwnedProfileStore->stats();
    S.ProfilesSaved += P.ProfilesSaved;
    S.ProfileSaveFailures += P.ProfileSaveFailures;
    S.ProfilesLoaded += P.ProfilesLoaded;
    S.ProfilesQuarantined += P.ProfilesQuarantined;
    S.ProfilesSkewed += P.ProfilesSkewed;
    S.SweptTemps += P.SweptTemps;
  }
  return S;
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
    // A generation without source: the same teardown as a reload, plus
    // the tombstone, set before the files are erased so a save queued
    // before this removal cannot recreate them. The function stops
    // resolving, and nothing read from disk for it is adopted later (a
    // deleted source must not resurrect on the next warm start).
    startGeneration(Fn, std::nullopt);
    Functions.erase(Fn);
    Warm.erase(Fn);
    if (Store)
      Store->erase(Fn);
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
  if (!SpecPool)
    return false;
  // The analysis view is built here, on the engine's thread (it mutates
  // the LoadedFunction); speculative inference and the compile pipeline -
  // both pure over the FunctionInfo - run on the worker, keeping the
  // interactive thread's share of the request to parse + disambiguate.
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return false;
  std::shared_ptr<const FunctionInfo> FI = compileView(*LF);
  std::shared_ptr<const Function> KeepAlive = LF->InlinedF;
  std::optional<TypeSignature> Forced =
      SigOverride ? std::optional(*SigOverride) : std::nullopt;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (Draining)
      return false;
    if (compileTask(Name) != Tasks.end()) {
      Spec.DedupedRequests.inc();
      return false;
    }
    uint64_t Gen = FnStates[Name].Generation;
    // Count the request only once the pool accepted it (an injected
    // pool-enqueue fault leaves no bookkeeping behind).
    if (!enqueueTask(TaskKind::Compile, Name,
                     [this, Name, FI, KeepAlive, Gen, Forced] {
                       backgroundCompile(Name, FI, KeepAlive, Gen, Forced);
                     })) {
      Spec.Failed.inc();
      return false;
    }
    Spec.Queued.inc();
  }
  obs::traceInstant("speculate.queue", "engine", Name);
  return true;
}

bool Engine::promoteSpeculation(const std::string &Name) {
  if (!SpecPool)
    return false;
  std::lock_guard<std::mutex> L(SpecMutex);
  auto Found = compileTask(Name);
  // The pool may have handed the task to a worker that hasn't marked its
  // ledger entry yet; promote() refuses once the task left the queue.
  if (Found == Tasks.cend() || Found->Started ||
      !SpecPool->promote(Found->PoolId))
    return false;
  auto It = Tasks.begin() + (Found - Tasks.cbegin());
  std::rotate(Tasks.begin(), It, std::next(It));
  Spec.Promoted.inc();
  return true;
}

void Engine::pauseBackgroundCompiles() {
  // Owned pool only: pausing a shared pool would stall every other
  // session's background work, and no session may have that power.
  if (OwnedSpecPool)
    OwnedSpecPool->setPaused(true);
}

void Engine::resumeBackgroundCompiles() {
  if (OwnedSpecPool)
    OwnedSpecPool->setPaused(false);
}

std::vector<std::string> Engine::queuedSpeculations() const {
  std::lock_guard<std::mutex> L(SpecMutex);
  std::vector<std::string> Out;
  for (const Task &T : Tasks)
    if (T.Kind == TaskKind::Compile && !T.Started)
      Out.push_back(T.Name);
  return Out;
}

void Engine::backgroundCompile(std::string Name,
                               std::shared_ptr<const FunctionInfo> FI,
                               std::shared_ptr<const Function> KeepAlive,
                               uint64_t Gen,
                               std::optional<TypeSignature> Forced) {
  // KeepAlive pins the inlined clone FI's nodes point into; reloading the
  // function on the main thread must not pull it out from under us.
  (void)KeepAlive;
  Timer Total;
  // A worker exception must never escape into the pool (it would be
  // swallowed there, silently losing the bookkeeping below); convert it
  // into a Failed + quarantine record instead.
  CompiledObjectPtr Published;
  try {
    TypeSignature Sig =
        speculationSignature(Name, *FI, Forced ? &*Forced : nullptr);
    Published = compileVersion(Name, *FI, Sig, CodeGenMode::Optimized,
                               /*Optimistic=*/true,
                               CompiledObject::Origin::Speculative, Gen);
  } catch (...) {
    // Quarantined only against the generation we compiled: if the source
    // was reloaded meanwhile, the fresh source keeps its chance to compile.
    noteCompileFailure(Name, Gen);
  }
  std::lock_guard<std::mutex> L(SpecMutex);
  SpecBackgroundSeconds += Total.seconds();
  if (Published)
    Spec.Completed.inc();
  else
    Spec.Dropped.inc(); // failed, declined, or stale
}

void Engine::drainCompiles() {
  // Native compiles count as compiles: tests that drain before asserting
  // on tier state must not race the background cc invocation.
  std::unique_lock<std::mutex> L(SpecMutex);
  SpecIdleCv.wait(L, [this] { return tasksIdle(/*WithSaves=*/false); });
}

bool Engine::speculationInFlight(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  return compileTask(Name) != Tasks.end();
}

SpeculationStats Engine::speculationStats() const {
  SpeculationStats S;
  S.Queued = Spec.Queued.value();
  S.Completed = Spec.Completed.value();
  S.Dropped = Spec.Dropped.value();
  S.DedupedRequests = Spec.DedupedRequests.value();
  S.InFlightInterpreted = Spec.InFlightInterpreted.value();
  S.Promoted = Spec.Promoted.value();
  S.Failed = Spec.Failed.value();
  std::lock_guard<std::mutex> L(SpecMutex);
  S.BackgroundCompileSeconds = SpecBackgroundSeconds;
  S.TimeToFirstResultSeconds = TimeToFirstResultSeconds;
  return S;
}

void Engine::startGeneration(const std::string &Name,
                             std::optional<uint64_t> SrcHash) {
  // Unloaded after SpecMutex is released: dropping the last handle on a
  // module dlcloses it.
  std::vector<std::pair<TypeSignature, NativeVersion>> Retired;
  // One update under the lock the workers publish under: a worker
  // finishing now either sees the new generation (and drops its result)
  // or published before it (and its code is dropped here).
  std::lock_guard<std::mutex> L(SpecMutex);
  FnState &S = FnStates[Name];
  ++S.Generation;
  // New source gets a fresh chance: the quarantine recorded a crash of the
  // old generation's compile.
  S.Quarantined = false;
  Repo.invalidate(Name);
  // Native versions compiled from the old source must not serve the new
  // one. Warm .mjn entries are left alone: they carry the source hash
  // they were compiled from, and adoption discards the stale ones itself.
  Retired.swap(S.Natives);
  S.SrcHash = SrcHash;
  S.Erased = !SrcHash && Store;
  // A deleted function must not keep steering speculation either.
  if (!SrcHash)
    S.ObservedSig.reset();
}

void Engine::noteCompileFailure(const std::string &Name, uint64_t Gen) {
  std::lock_guard<std::mutex> L(SpecMutex);
  Spec.Failed.inc();
  FnState &S = FnStates[Name];
  if (S.Generation == Gen)
    S.Quarantined = true;
}

bool Engine::isQuarantined(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  const FnState *S = state(Name);
  return S && S->Quarantined;
}

size_t Engine::quarantineCount() const {
  std::lock_guard<std::mutex> L(SpecMutex);
  return std::count_if(FnStates.begin(), FnStates.end(),
                       [](const auto &KV) { return KV.second.Quarantined; });
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

void Engine::recordFirstResult() {
  if (CallDepth != 1)
    return;
  std::lock_guard<std::mutex> L(SpecMutex);
  if (TimeToFirstResultSeconds < 0)
    TimeToFirstResultSeconds = BirthTimer.seconds();
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
      // A different signature overtook the best: publish it for the
      // workers. Same-signature bumps skip this, so the steady state pays
      // no extra locking.
      LF.BestIdx = Idx;
      std::lock_guard<std::mutex> L(SpecMutex);
      FnStates[LF.F->name()].ObservedSig = O->Sig;
    }
  }
  return O->Str;
}

bool Engine::observedSignatureFor(const std::string &Name, size_t Arity,
                                  TypeSignature &Out) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  const FnState *S = state(Name);
  if (!S || !S->ObservedSig || S->ObservedSig->size() != Arity)
    return false;
  Out = *S->ObservedSig;
  return true;
}

void Engine::seedObservedSignatures(const std::string &Name,
                                    LoadedFunction &LF) {
  auto It = Warm.find(Name);
  if (It == Warm.end() || LF.F->isScript())
    return;
  size_t Arity = LF.F->params().size();
  for (const RepoStore::ProfileSig &PS : It->second.Sigs) {
    // Persisted signatures whose arity drifted from the live source are
    // stale; dropping them here means they can never win best-observed.
    if (PS.Sig.size() != Arity ||
        LF.Obs.size() >= obs::FunctionProfiles::kMaxSignatures)
      continue;
    LF.Obs.push_back({PS.Sig, PS.SigStr, PS.Count});
    if (PS.Count > LF.BestCount) {
      LF.BestCount = PS.Count;
      LF.BestIdx = LF.Obs.size() - 1;
    }
  }
  if (LF.BestIdx != SIZE_MAX) {
    std::lock_guard<std::mutex> L(SpecMutex);
    FnStates[Name].ObservedSig = LF.Obs[LF.BestIdx].Sig;
  }
}

void Engine::saveProfilesToStore() {
  if (!ProfileStore)
    return;
  // Compose the persisted summaries from the profile layer's counts (live
  // plus what was merged at startup) and the engine-side signature caches,
  // which hold the TypeSignature for each rendered string. Untyped
  // invocations (scripts, InterpretOnly) carry counts but no signature.
  std::vector<RepoStore::ProfileSummary> Out;
  for (obs::FunctionProfile &P : Profiles.snapshot()) {
    RepoStore::ProfileSummary S;
    S.Name = P.Name;
    S.Invocations = P.Invocations;
    S.OtherSignatures = P.OtherSignatures;
    const LoadedFunction *LF = find(P.Name);
    auto WarmIt = Warm.find(P.Name);
    for (const auto &[Str, Count] : P.ArgSignatures) {
      if (Str == UntypedSig)
        continue;
      TypeSignature Sig;
      bool Found = false;
      if (LF)
        for (const LoadedFunction::SigObs &O : LF->Obs)
          if (O.Str == Str) {
            Sig = O.Sig;
            Found = true;
            break;
          }
      if (!Found && WarmIt != Warm.end())
        for (const RepoStore::ProfileSig &PS : WarmIt->second.Sigs)
          if (PS.SigStr == Str) {
            Sig = PS.Sig;
            Found = true;
            break;
          }
      if (Found && S.Sigs.size() < RepoStore::kProfileTopK)
        S.Sigs.push_back({Sig, Str, Count});
    }
    if (S.Invocations == 0 && S.Sigs.empty())
      continue;
    Out.push_back(std::move(S));
  }
  ProfileStore->saveProfiles(Out);
}

obs::MetricsSnapshot Engine::sampleMetrics() {
  // Point-in-time levels live in their components; mirror them into
  // gauges at snapshot time instead of threading writes through the hot
  // paths.
  RepoStoreStats SS = repoStoreStats();
  Metrics.gauge("repo.store.saved").set(int64_t(SS.Saved));
  Metrics.gauge("repo.store.save_failures").set(int64_t(SS.SaveFailures));
  Metrics.gauge("repo.store.loaded").set(int64_t(SS.Loaded));
  Metrics.gauge("repo.store.quarantined").set(int64_t(SS.Quarantined));
  Metrics.gauge("repo.store.skewed").set(int64_t(SS.Skewed));
  Metrics.gauge("repo.store.stale_source").set(int64_t(SS.StaleSource));
  Metrics.gauge("repo.store.adopted").set(int64_t(SS.Adopted));
  Metrics.gauge("repo.store.swept_temps").set(int64_t(SS.SweptTemps));
  Metrics.gauge("repo.store.profiles_saved").set(int64_t(SS.ProfilesSaved));
  Metrics.gauge("repo.store.profile_save_failures")
      .set(int64_t(SS.ProfileSaveFailures));
  Metrics.gauge("repo.store.profiles_loaded").set(int64_t(SS.ProfilesLoaded));
  Metrics.gauge("repo.store.profiles_quarantined")
      .set(int64_t(SS.ProfilesQuarantined));
  Metrics.gauge("repo.store.profiles_skewed").set(int64_t(SS.ProfilesSkewed));
  Metrics.gauge("repo.store.native_saved").set(int64_t(SS.NativeSaved));
  Metrics.gauge("repo.store.native_save_failures")
      .set(int64_t(SS.NativeSaveFailures));
  Metrics.gauge("repo.store.native_loaded").set(int64_t(SS.NativeLoaded));
  Metrics.gauge("repo.store.native_quarantined")
      .set(int64_t(SS.NativeQuarantined));
  Metrics.gauge("repo.store.native_skewed").set(int64_t(SS.NativeSkewed));
  Metrics.gauge("repo.store.native_untrusted").set(int64_t(SS.NativeUntrusted));
  Metrics.gauge("repo.objects").set(int64_t(Repo.totalObjects()));
  Metrics.gauge("engine.quarantined").set(int64_t(quarantineCount()));
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
  recordFirstResult();
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
  if (Opts.Policy == CompilePolicy::Speculative && speculationInFlight(Name)) {
    // A background compile of this function is still in flight: interpret
    // this one invocation instead of duplicating the compiler's work on
    // the hot path; the next call picks up the published object. An actual
    // invocation is the strongest priority signal we have, so if the
    // compile is still sitting in the queue, move it to the front - the
    // snooper enqueues in discovery order, not in the order the user ends
    // up calling things.
    promoteSpeculation(Name);
    InterpFallbacks.inc();
    Spec.InFlightInterpreted.inc();
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

  // Repeated misses against existing compiled versions mean speculation
  // guessed wrong for what the user actually calls: re-speculate on the
  // newly observed signature (once per distinct signature, so a stable
  // pattern does not churn the background queue). The JIT below still
  // serves this invocation; the background compile upgrades the hot
  // signature to optimized code.
  if (Opts.Policy == CompilePolicy::Speculative && SpecPool &&
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
  // Repeated deopts say the speculated types were wrong for the live
  // call pattern. When the observed signature differs from the one that
  // deopted, queue an optimized recompile for it; same-signature deopts
  // are already handled by the pessimistic replacement (and must not be
  // re-speculated optimistically, which would just deopt again).
  if (Opts.Policy == CompilePolicy::Speculative && SpecPool) {
    if (LoadedFunction *LF = find(Obj.FunctionName))
      if (++LF->DeoptCount == kRespeculateDeopts) {
        TypeSignature Observed;
        if (observedSignatureFor(Obj.FunctionName, Obj.Sig.size(),
                                 Observed) &&
            !(Observed == Obj.Sig))
          speculateAsync(Obj.FunctionName, &Observed);
      }
  }
  return compileAndInsert(Obj.FunctionName, Obj.Sig, Obj.Mode, Obj.From,
                          /*Optimistic=*/false);
}

bool Engine::knowsFunction(const std::string &Name) {
  return Functions.count(Name) != 0;
}

std::vector<ValuePtr> Engine::NativeHostBridge::callFunction(
    const std::string &Name, std::vector<ValuePtr> Args, size_t NumOuts) {
  return E->callFunction(Name, std::move(Args), NumOuts, SourceLoc());
}

std::shared_ptr<native::NativeModule>
Engine::nativeModuleFor(const CompiledObject &Obj) {
  const std::string &Name = Obj.FunctionName;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (NativeVersion *NV = FnStates[Name].native(Obj.Sig))
      return NV->ready();
  }
  if (!NativeComp->available())
    return nullptr;
  // Promotion is profile-guided: the function must have earned the
  // hotness threshold (counting invocations persisted from previous
  // sessions, so a warm start re-promotes immediately).
  if (Profiles.invocations(Name) < Opts.NativeHotThreshold)
    return nullptr;
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (Draining)
      return nullptr;
    // Only this thread adds versions, so Sig is still absent: it waits
    // Pending for the build queued at this generation.
    FnState &S = FnStates[Name];
    S.Natives.emplace_back(Obj.Sig, NativeVersion());
    Gen = S.Generation;
    // Compile off-thread when a pool exists: the invocation that crossed
    // the threshold still runs on the VM while cc works in the
    // background (the paper's "the user never waits", applied to a
    // compiler we do not control).
    if (enqueueTask(TaskKind::Native, Name,
                    [this, Name, Sig = Obj.Sig, Code = Obj.Code, Gen] {
                      buildNative(Name, Sig, Code, Gen);
                    }))
      return nullptr;
  }
  buildNative(Name, Obj.Sig, Obj.Code, Gen);
  std::lock_guard<std::mutex> L(SpecMutex);
  return FnStates[Name].native(Obj.Sig)->ready();
}

void Engine::buildNative(const std::string &Name, const TypeSignature &Sig,
                         std::shared_ptr<const IRFunction> Code,
                         uint64_t Gen) {
  std::shared_ptr<native::NativeModule> Mod;
  std::vector<uint8_t> So;
  try {
    std::string CSource = emitCSource(*Code, Sig);
    So = NativeComp->compile(CSource, Name);
    Mod = native::NativeCompiler::load(So, Name, Code->NumOuts);
  } catch (...) {
    // Compiler crash, timeout, -Werror rejection, loader refusal,
    // injected fault: the version pins to the VM tier, and the engine
    // does not retry until the source changes. The native tier must
    // never take the engine down or change observable results.
    NativeFailures.inc();
    obs::traceInstant("native.fail", "native", Name);
    std::lock_guard<std::mutex> L(SpecMutex);
    FnState &S = FnStates[Name];
    if (S.Generation == Gen)
      S.native(Sig)->St = NativeVersion::State::Failed;
    return;
  }
  NativeCompiles.inc();
  obs::traceInstant("native.promote", "native", Name);
  uint32_t NumOuts = static_cast<uint32_t>(Mod->numOuts());
  std::optional<uint64_t> SrcHash;
  {
    // Publish, and read the hash to save under, only when the source
    // generation is unchanged: a reload while cc ran makes this machine
    // code stale, and it must neither serve nor persist under the new
    // source's hash.
    std::lock_guard<std::mutex> L(SpecMutex);
    FnState &S = FnStates[Name];
    if (S.Generation != Gen)
      return;
    *S.native(Sig) = {NativeVersion::State::Ready, std::move(Mod)};
    SrcHash = S.SrcHash;
  }
  // Persist the .so beside the .mjo so the next session warm-starts into
  // machine code with zero compiler invocations.
  if (!Store || !SrcHash)
    return;
  writeUnlessErased(Name, /*Native=*/true, [&] {
    Store->saveNative(Name, Sig, NumOuts, std::string(So.begin(), So.end()),
                      *SrcHash);
  });
}

void Engine::quarantineNative(const std::string &Name,
                              const TypeSignature &Sig) {
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (NativeVersion *NV = FnStates[Name].native(Sig))
      *NV = {NativeVersion::State::Failed, nullptr};
  }
  // Drop the on-disk entries too: code that failed at run time must not
  // resurrect on the next warm start.
  if (Store)
    Store->eraseNative(Name);
  obs::traceInstant("native.quarantine", "native", Name);
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
  quarantineNative(Obj.FunctionName, Obj.Sig);
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
    recordFirstResult();
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
