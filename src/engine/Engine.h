//===- engine/Engine.h - The MaJIC engine ----------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MaJIC system (Section 2): the MATLAB-like front end (interpreter +
/// interactive workspace), the code repository, the snooping speculative
/// compiler, and the invocation path that ties them together:
///
///   invocation -> repository lookup (signature safety + best match)
///              -> hit:   run compiled code in the register VM
///              -> miss:  compile (policy-dependent) or interpret
///
/// Compilation policies model the paper's four measured configurations:
///   InterpretOnly - the MATLAB-6 baseline (t_i)
///   Mcc           - batch generic compilation without type inference
///   Falcon        - batch optimized compilation, "peeking" at inputs
///   Jit           - just-in-time compilation on first invocation
///   Speculative   - ahead-of-time speculative compilation + JIT fallback
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_ENGINE_ENGINE_H
#define MAJIC_ENGINE_ENGINE_H

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/Compiler.h"
#include "backend/VM.h"
#include "engine/CompileQueue.h"
#include "engine/Persistence.h"
#include "interp/Interpreter.h"
#include "native/NativeRuntime.h"
#include "repo/SharedCache.h"
#include "repo/Snooper.h"
#include "runtime/ValueSerialize.h"
#include "support/ResourceGuard.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace majic {

enum class CompilePolicy : uint8_t {
  InterpretOnly,
  Mcc,
  Falcon,
  Jit,
  Speculative,
};

const char *compilePolicyName(CompilePolicy P);

/// Cooperative resource limits for one engine. All default to 0
/// (unlimited). Breaches surface as ordinary MatlabErrors on the thread
/// running the program; the engine (workspace, repository, statistics)
/// stays intact and usable afterwards.
struct ExecutionLimits {
  /// Maximum live matrix elements across all values (each element is one
  /// double, plus another for complex storage).
  uint64_t MaxLiveElements = 0;
  /// Maximum live matrix-storage bytes. When both element and byte limits
  /// are set, the stricter one wins.
  uint64_t MaxAllocBytes = 0;
  /// Operation budget per top-level invocation (VM instructions plus
  /// interpreted statements); bounds runaway loops.
  uint64_t MaxOps = 0;
  /// Wall-clock budget per top-level invocation, in milliseconds; bounds
  /// programs whose per-op cost is large (huge matmuls in a loop). Sampled
  /// every ~512 op-budget polls, so enforcement granularity is coarse by
  /// design.
  uint64_t MaxWallMillis = 0;
};

struct EngineOptions {
  CompilePolicy Policy = CompilePolicy::Jit;
  PlatformModel Platform = PlatformModel::sparc();
  InferOptions Infer;
  RegAllocOptions RegAlloc;
  /// Inline small user functions before compiling (Section 2.6.1).
  bool InlineCalls = true;
  /// Fuse elementwise expression trees into single-pass loops (one loop,
  /// one memory pass, zero intermediate temporaries). Results stay
  /// bit-identical to the unfused interpreter.
  bool FuseElementwise = true;
  uint64_t RandSeed = 0x9e3779b97f4a7c15ull;
  /// Third execution tier above the register VM: hot compiled functions
  /// are rendered to C, compiled out of process by the system C compiler,
  /// and dlopen'd; subsequent invocations run machine code. Off by
  /// default (tier-1 behavior is unchanged); the MAJIC_NATIVE environment
  /// variable (any non-empty value) turns it on without recompiling the
  /// embedder. Every native-tier failure - missing compiler, compile
  /// error, load error, runtime deopt - degrades transparently to the VM.
  bool NativeTier = false;
  /// C compiler driver for the native tier. Empty falls back to the
  /// MAJIC_NATIVE_CC environment variable, then to "cc". An unusable
  /// compiler leaves the tier dormant: everything runs on the VM.
  std::string NativeCC;
  /// Recorded invocations of a function (FunctionProfiles counts,
  /// including counts persisted from previous sessions) before a compiled
  /// version is promoted to the native tier.
  unsigned NativeHotThreshold = 3;
  /// C-stack protection for recursive MATLAB programs.
  unsigned MaxCallDepth = 4000;
  /// Background speculative-compilation workers (Section 2.5: compilation
  /// latency is hidden from the user). 0 compiles speculation synchronously
  /// on the calling thread (the pre-async behavior, and what deterministic
  /// measurement configurations want).
  unsigned BackgroundCompileThreads = 1;
  /// Compute threads for the runtime's dense kernels (support/Parallel.h).
  /// 0 keeps the process-wide default: the MAJIC_COMPUTE_THREADS
  /// environment variable when set, otherwise the hardware concurrency.
  /// Nonzero pins the count (kernel results are bit-identical either way).
  unsigned ComputeThreads = 0;
  /// Resource limits (0 = unlimited). By default the memory limits are
  /// applied process-wide (matrix storage uses a global tracking
  /// allocator), so only one engine at a time should set them; with
  /// PerSessionLimits they bind to this engine's own account instead and
  /// any number of engines can carry independent budgets.
  ExecutionLimits Limits;
  /// Scope the memory limit and the interrupt to this engine: the byte
  /// budget charges an engine-owned mem::Account (installed thread-locally
  /// around each top-level invocation and propagated into parallelFor
  /// chunks), and requestInterrupt() raises an engine-owned exec::Token
  /// instead of the process-wide flag. This is what makes N sessions in
  /// one process unable to exhaust - or interrupt - each other.
  bool PerSessionLimits = false;
  /// Compile speculation and store saves on this externally owned pool
  /// instead of spawning workers (BackgroundCompileThreads is ignored when
  /// set). The pool must outlive the engine; the multi-session service
  /// multiplexes every session's background work onto one idle pool.
  ThreadPool *SharedSpecPool = nullptr;
  /// Process-wide compiled-code cache consulted before every compile and
  /// published to after (one compile serves every session hitting the same
  /// source + signature + configuration). Null = no sharing.
  std::shared_ptr<SharedCodeCache> SharedCache;
  /// When false, the MAJIC_TRACE / MAJIC_METRICS / MAJIC_REPO_DIR /
  /// MAJIC_PROFILE_DIR environment fallbacks are ignored (the explicit
  /// option fields still work). The service disables them for session
  /// engines so N sessions cannot race dumps into one file.
  bool EnvFallbacks = true;
  /// Cap on compiled versions kept per function; the least-used version is
  /// evicted when a new one would exceed it. 0 = unlimited.
  unsigned MaxVersionsPerFunction = 8;
  /// Directory for the persistent code repository (warm start). Empty
  /// falls back to the MAJIC_REPO_DIR environment variable; when both are
  /// empty the repository is in-memory only. Compiled objects are written
  /// crash-safely on the background pool and validated (checksum, build
  /// stamp, source hash) before being served on the next start; any
  /// invalid entry degrades to a recompile.
  std::string RepoDir;
  /// Directory for the persisted profile summary (hot-first warm starts).
  /// Empty falls back to the MAJIC_PROFILE_DIR environment variable, then
  /// to the repository directory, so by default the profile file sits
  /// beside the .mjo entries. The summary (per function: invocation count
  /// and the top-K observed signatures with call counts) is written
  /// CRC32-checksummed and atomically at engine destruction and merged
  /// into the in-memory profiles at construction, so a warm-started
  /// session speculates hot-first on what the user actually ran last
  /// session. Corrupt files are quarantined exactly like .mjo entries.
  std::string ProfileDir;
  /// Chrome-trace output path (chrome://tracing / Perfetto JSON). Empty
  /// falls back to the MAJIC_TRACE environment variable; when both are
  /// empty, tracing stays runtime-disabled and every trace site costs one
  /// relaxed atomic load. The file is written when the engine is
  /// destroyed.
  std::string TracePath;
  /// Metrics-dump output path. Empty falls back to MAJIC_METRICS; when
  /// set, the engine writes metricsJson() there at destruction. Metrics
  /// recording itself is always on (lock-free counters).
  std::string MetricsPath;
};

class Engine : public CallResolver {
public:
  explicit Engine(EngineOptions Opts = EngineOptions());
  ~Engine() override;

  /// Quiesces the engine: drains or cancels its background work (never
  /// blocking on other sessions' work on a shared pool), persists profiles,
  /// writes the final observability dumps, and lifts any process-wide limit
  /// it installed. Idempotent; the destructor calls it. Afterwards nothing
  /// runs in the background (synchronous execution still works).
  void shutdown();

  /// Hash of the codegen-relevant options: two engines whose hashes match
  /// produce interchangeable compiled objects for identical source and
  /// signature. This is the CfgHash component of SharedCodeCache keys, so
  /// mixed-option engines sharing one cache can never serve each other
  /// mismatched code.
  static uint64_t sharedCacheConfigHash(const EngineOptions &Opts);

  //===--------------------------------------------------------------------===
  // Loading sources
  //===--------------------------------------------------------------------===

  /// Parses and registers \p Source as module \p Name (function file or
  /// script). Returns false (with diagnostics()) on parse errors.
  bool addSource(const std::string &Name, const std::string &Source);

  /// Loads one .m file.
  bool loadFile(const std::string &Path);

  /// Watches a directory of .m files; snoop() picks them up.
  void watchDirectory(const std::string &Dir) { Snooper.watchDirectory(Dir); }

  /// Scans watched directories: loads new/changed files and, under the
  /// Speculative policy, compiles them ahead of time.
  unsigned snoop();

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Invokes function \p Name: the repository/compile/interpret path.
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr> Args,
                                     size_t NumOuts, SourceLoc Loc) override;

  bool knowsFunction(const std::string &Name) override {
    return Functions.count(Name) != 0;
  }

  /// Runs \p Source as a script in the persistent interactive workspace,
  /// returning what it printed. Scripts are interpreted (the front end);
  /// the functions they call go through the repository.
  std::string runScript(const std::string &Source);

  /// The value of interactive workspace variable \p Name, or null.
  ValuePtr workspaceVar(const std::string &Name) const;

  /// Snapshot of the interactive session for hibernation: every function
  /// definition submitted through runScript (in submission order) plus the
  /// workspace variables, sorted by name so identical workspaces encode to
  /// identical bytes. Values are shared, not copied - the image must be
  /// consumed before the session mutates again. Engine-thread only.
  ser::WorkspaceImage workspaceImage() const;

  /// Rebuilds an interactive session from \p W on a fresh engine: replays
  /// the recorded definitions through runScript (compiled code comes back
  /// from the shared cache, not from scratch) and installs the workspace
  /// variables. Engine-thread only; meant for an engine that has run
  /// nothing yet.
  void restoreWorkspaceImage(const ser::WorkspaceImage &W);

  //===--------------------------------------------------------------------===
  // Ahead-of-time entry points for the measured configurations
  //===--------------------------------------------------------------------===

  /// Falcon-style batch compilation: "peeks" at sample inputs to seed type
  /// inference, excluded from measured runtime.
  bool precompileWithArgs(const std::string &Name,
                          const std::vector<ValuePtr> &SampleArgs);

  /// Speculative compilation of one function (Section 2.5), synchronously
  /// on the calling thread (measurement configurations exclude this time
  /// explicitly).
  bool precompileSpeculative(const std::string &Name);

  /// Queues a speculative compilation of \p Name on the background pool;
  /// false when the function cannot be compiled, a compile for it is in
  /// flight, or no pool is configured (use precompileSpeculative then).
  /// The worker prefers the most-called observed signature over the hint
  /// guess; \p SigOverride forces one (re-speculation after deopts or
  /// misses). drainCompiles() waits for the result to be published.
  bool speculateAsync(const std::string &Name,
                      const TypeSignature *SigOverride = nullptr);

  /// Blocks until every queued compile and native build has been published
  /// or dropped (saves may still be queued). Tests rely on it.
  void drainCompiles() { Queue.drain(/*WithSaves=*/false); }

  /// True when a background compile of \p Name is queued or running.
  bool speculationInFlight(const std::string &Name) const {
    return Queue.inFlight(Name);
  }

  /// Moves \p Name's still-queued speculative compile to the front: an
  /// invocation that misses on it says the user wants it next. False when
  /// no compile of \p Name is queued, including when one is running.
  bool promoteSpeculation(const std::string &Name) {
    return Queue.promote(Name);
  }

  /// Pause/resume the background workers (running tasks finish; queued ones
  /// hold); tests stage deterministic backlogs with it. No-ops on a shared
  /// pool, which only its owner (the service) may pause.
  void pauseBackgroundCompiles() { Queue.setPaused(true); }
  void resumeBackgroundCompiles() { Queue.setPaused(false); }

  /// Names whose compiles are queued but not yet started, in the order the
  /// workers will pick them up.
  std::vector<std::string> queuedSpeculations() const {
    return Queue.queued();
  }

  /// Snapshot of the background-speculation counters.
  SpeculationStats speculationStats() const { return Queue.stats(); }

  /// mcc-style generic compilation (no type inference).
  bool precompileGeneric(const std::string &Name, size_t Arity);

  //===--------------------------------------------------------------------===
  // Robustness: interrupts and compile-failure quarantine
  //===--------------------------------------------------------------------===

  /// Requests cooperative interruption of the running program (safe from
  /// any thread, e.g. a SIGINT handler). The program stops at the next
  /// poll point with a clean MatlabError; the engine stays usable. With
  /// PerSessionLimits this raises the engine's own token, so only this
  /// engine's work stops; otherwise it raises the process-wide flag.
  void requestInterrupt();

  /// Clears a pending interrupt request.
  void clearInterrupt();

  /// True when \p Name's compiler crashed and the engine has stopped
  /// retrying it (every invocation interprets) until its source changes.
  bool isQuarantined(const std::string &Name) const {
    return Queue.read(Name, [](const FnState &S) { return S.Quarantined; });
  }

  /// Number of currently quarantined functions.
  size_t quarantineCount() const { return Queue.quarantineCount(); }

  /// Counters of the persistent store (all zero when no RepoDir is set):
  /// saves, load/quarantine outcomes of the startup validation ladder,
  /// warm-start adoptions, and swept temp files.
  RepoStoreStats repoStoreStats() const { return Persist.stats(); }

  /// Blocks until every background task, store saves included, has
  /// finished: drainCompiles() determinism for the on-disk state.
  void flushRepoStore() { Queue.drain(/*WithSaves=*/true); }

  //===--------------------------------------------------------------------===
  // Introspection
  //===--------------------------------------------------------------------===

  Context &context() { return Ctx; }
  Repository &repository() { return Repo; }
  PhaseTimes &phases() { return Phases; }
  const EngineOptions &options() const { return Opts; }
  std::string diagnostics() const { return Diags.render(SM); }
  uint64_t vmInstructions() const { return Machine->instructionsExecuted(); }

  /// The speculated signature of \p Name (tests/inspection).
  TypeSignature speculated(const std::string &Name);

  /// Number of invocations that fell back to the interpreter / the JIT.
  uint64_t interpreterFallbacks() const { return InterpFallbacks.value(); }
  uint64_t jitCompiles() const { return JitCompiles.value(); }
  /// Number of deoptimizations (guard failures causing a recompile).
  uint64_t deoptimizations() const { return Deopts.value(); }

  /// Native-tier counters (also published as native.* metrics): system-
  /// compiler invocations that produced a module, failures at any stage,
  /// guard failures inside machine code, and invocations served natively.
  uint64_t nativeCompiles() const { return NativeCompiles.value(); }
  uint64_t nativeFailures() const { return NativeFailures.value(); }
  uint64_t nativeDeopts() const { return NativeDeopts.value(); }
  uint64_t nativeHits() const { return NativeHits.value(); }

  /// True when the native tier is on and its C compiler probed usable.
  bool nativeTierAvailable() const {
    return NativeComp && NativeComp->available();
  }

  //===--------------------------------------------------------------------===
  // Observability
  //===--------------------------------------------------------------------===

  /// The engine's metrics registry (counters, gauges, latency histograms).
  /// Point-in-time gauges (repo store, fault sites, compute pool,
  /// quarantine count) are refreshed by sampleMetrics(); everything else
  /// records continuously.
  obs::MetricsRegistry &metrics() { return Metrics; }

  /// Refreshes the sampled gauges and returns a snapshot of every
  /// instrument.
  obs::MetricsSnapshot sampleMetrics();

  /// Human-readable dump: every metric (after a sampleMetrics()) plus the
  /// most-invoked per-function profiles.
  std::string statsReport();

  /// Machine dump: {"metrics": {...}, "profiles": [...]} — what
  /// MAJIC_METRICS / EngineOptions::MetricsPath writes at destruction.
  std::string metricsJson();

  /// The recorded profile of \p Name: invocation count, VM vs interpreter
  /// time, compile count/time, warm-start adoptions, observed argument
  /// type signatures. Zeroed when the function was never invoked.
  obs::FunctionProfile profile(const std::string &Name) const {
    return Profiles.profile(Name);
  }

  /// Every function profile, most-invoked first.
  std::vector<obs::FunctionProfile> profiles() const {
    return Profiles.snapshot();
  }

private:
  struct LoadedFunction {
    Function *F = nullptr;
    Module *M = nullptr;
    /// Shared so in-flight background compiles keep the analysis (and the
    /// inlined clone it points into) alive after the function is reloaded.
    std::shared_ptr<FunctionInfo> Info;
    /// The inlined clone used for compilation (built lazily).
    std::shared_ptr<Function> InlinedF;
    std::shared_ptr<FunctionInfo> InlinedInfo;
    /// One observed argument signature with its cached rendering and call
    /// count: the hot path scans the one or two signatures a function sees
    /// instead of rendering per call; the counts drive speculation.
    struct SigObs {
      TypeSignature Sig;
      std::string Str;
      uint64_t Count = 0;
    };
    /// Observed signatures, capped at obs::FunctionProfiles::kMaxSignatures
    /// (overflow renders per call). Engine-thread only; the most-called
    /// one is published on the compile queue for the workers.
    std::vector<SigObs> Obs;
    size_t BestIdx = SIZE_MAX; ///< index into Obs of the published best
    uint64_t BestCount = 0;    ///< its call count at publish time
    /// Rendering scratch for signatures past the Obs cap.
    std::string OverflowSig;
    /// Deopt count and consecutive repository-miss streak feeding the
    /// re-speculation triggers. Engine-thread only.
    uint64_t DeoptCount = 0;
    uint64_t SigMissStreak = 0;
    /// The last signature re-speculation was triggered for (so a stable
    /// mismatch pattern triggers once, not per call).
    TypeSignature RespecSig;
    bool RespecValid = false;
  };

  LoadedFunction *find(const std::string &Name);
  /// \p Name's loaded function when it can be compiled: known, not a
  /// script, not quarantined, with an unambiguous analysis view.
  LoadedFunction *compilable(const std::string &Name);
  /// The signature to speculate \p Name on: \p Forced when its arity
  /// matches, else the most-called observed one, else the hint guess.
  TypeSignature speculationSignature(const std::string &Name,
                                     const FunctionInfo &FI,
                                     const TypeSignature *Forced);
  /// The analysis view compilation uses (inlined when enabled). Must run
  /// on the engine's thread: building the view mutates the LoadedFunction.
  const std::shared_ptr<FunctionInfo> &compileView(LoadedFunction &LF);

  /// Foreground compile of \p Name for \p Sig: the inserted object or null.
  /// \p Optimistic enables guarded real-domain math (off when recompiling
  /// after a deopt). A compiler exception quarantines the function.
  CompiledObjectPtr compileAndInsert(const std::string &Name,
                                     const TypeSignature &Sig,
                                     CodeGenMode Mode,
                                     CompiledObject::Origin From,
                                     bool Optimistic = true);

  /// The one compile path, foreground and background: a shared-cache clone
  /// or a fresh compile, published at generation \p Gen (else null), saved
  /// and shared. Throws what the compiler or the repository throws.
  CompiledObjectPtr compileVersion(const std::string &Name,
                                   const FunctionInfo &FI,
                                   const TypeSignature &Sig, CodeGenMode Mode,
                                   bool Optimistic,
                                   CompiledObject::Origin From, uint64_t Gen);

  /// The one registration path (addSource, interactive definitions): each
  /// function of \p M starts a generation with hash \p SrcHash, and is
  /// disambiguated, seeded with persisted signatures and offered its warm
  /// entries.
  void registerModule(Module &M, uint64_t SrcHash);

  /// A deleted .m file: the functions it defined stop resolving, and their
  /// versions in memory and on disk are invalidated.
  void handleRemovedSource(const SourceSnooper::Change &C);

  //===--------------------------------------------------------------------===
  // The invocation path
  //===--------------------------------------------------------------------===

  /// The execution tiers, fastest first.
  enum class Tier : uint8_t { Native, Vm, Interp };

  /// RAII set-up of callFunction and runScript (op budget, per-session
  /// account and token, call depth).
  struct InvocationScope;

  /// Profiles the invocation, looks up a safe version and, on a miss,
  /// compiles per policy; null means interpret. Outlined to keep its
  /// locals off the recursive frame (runTiers -> VM -> callFunction).
  [[gnu::noinline]] CompiledObjectPtr versionFor(
      LoadedFunction &LF, const std::vector<ValuePtr> &Args);

  /// The run loop: snapshot the PRNG and output once, try native, the VM,
  /// the interpreter; every tier edge restores the snapshot and falls to
  /// the next tier.
  std::vector<ValuePtr> runTiers(LoadedFunction &LF,
                                 std::vector<ValuePtr> &Args, size_t NumOuts);

  /// Runs \p Run on tier \p T: the one place a call's execute time is
  /// recorded (depth 1 only; nested calls are inside their caller's).
  template <typename RunFn>
  std::vector<ValuePtr> timedRun(Tier T, const std::string &Name, RunFn &&Run);

  /// The VM deopt edge: counts it, re-speculates after repeated deopts,
  /// and returns \p Obj's pessimistic replacement (null if that fails).
  [[gnu::noinline]] CompiledObjectPtr deoptimize(const CompiledObject &Obj);

  //===--------------------------------------------------------------------===
  // Native tier internals
  //===--------------------------------------------------------------------===

  /// The ready native module for \p Obj, or null. Once the function's
  /// invocations reach the hotness threshold, queues a native build (or
  /// builds here without a pool); that call still runs on the VM.
  std::shared_ptr<native::NativeModule> nativeModuleFor(
      const CompiledObject &Obj);

  /// The native leg of the run loop: true with \p Out filled when \p Obj's
  /// promoted module served the call; a deopt or fault quarantines it.
  /// Never inlined: runTiers sits on the VM's call-recursion cycle, and
  /// keeping this leg's locals and exception machinery out of that frame
  /// keeps the MaxCallDepth guard reachable on sanitizer stacks.
  [[gnu::noinline]] bool runNativeTier(const CompiledObject &Obj,
                                       const std::vector<ValuePtr> &Args,
                                       size_t NumOuts,
                                       std::vector<ValuePtr> &Out);

  /// Emits C for \p Code, compiles and loads it, then publishes and
  /// persists it if \p Name is still at \p Gen, the generation it was
  /// queued at. Never throws: a failure pins the version to the VM.
  void buildNative(const std::string &Name, const TypeSignature &Sig,
                   const std::shared_ptr<const IRFunction> &Code, uint64_t Gen);

  /// Records one observation of \p Sig on \p LF (count bump, publishing
  /// the most-called signature for the speculation workers) and returns
  /// its cached rendering for the profile layer.
  const std::string &observeSignature(LoadedFunction &LF,
                                      const TypeSignature &Sig);

  //===--------------------------------------------------------------------===
  // Observability, declared first: components register their counters
  // here or hold registry-owned instruments, so the registry must be built
  // first and destroyed last.
  //===--------------------------------------------------------------------===

  obs::MetricsRegistry Metrics;
  obs::FunctionProfiles Profiles;
  /// Hot-path histograms resolved once at construction (registry-owned).
  struct {
    obs::Histogram *CompileSeconds = nullptr;
    obs::Histogram *InferSeconds = nullptr;
    obs::Histogram *CodeGenSeconds = nullptr;
    obs::Histogram *VmRunSeconds = nullptr;
    obs::Histogram *InterpRunSeconds = nullptr;
    /// Elementwise-fusion outcomes, accumulated across every compile
    /// (foreground and speculative) from CompileResult::Fusion.
    obs::Counter *FusionGroups = nullptr;
    obs::Counter *FusionOpsFused = nullptr;
    obs::Counter *FusionTempsElided = nullptr;
  } Inst;
  std::string TraceFile;   ///< trace JSON destination; empty = tracing off
  std::string MetricsFile; ///< metrics JSON destination; empty = no dump

  EngineOptions Opts;
  SourceManager SM;
  Diagnostics Diags;
  Context Ctx;
  Repository Repo;
  /// Background compiles, saves and native builds, and the records they
  /// publish against. shutdown() quiesces it before any member goes.
  CompileQueue Queue;
  /// The persistent repository (warm start) and the profile store.
  Persistence Persist;
  SourceSnooper Snooper;
  std::unique_ptr<VM> Machine;
  std::unique_ptr<Interpreter> Interp;
  PhaseTimes Phases;

  std::vector<std::unique_ptr<Module>> Modules;
  std::unordered_map<std::string, LoadedFunction> Functions;
  /// Function names each loaded file defined; snooper removal invalidates
  /// through this (a file's stem need not match its function names).
  std::unordered_map<std::string, std::vector<std::string>> FileFunctions;

  // Interactive workspace (scripts).
  std::unordered_map<std::string, ValuePtr> WorkspaceByName;
  /// Function definitions submitted interactively through runScript, in
  /// order, deduplicated by exact text (replaying later-wins redefinitions
  /// in order reaches the same state) - the replay half of a hibernation
  /// snapshot.
  std::vector<ser::WorkspaceImage::SourceDef> InteractiveDefs;
  /// Function names registered by the most recent registerModule (the
  /// snooper speculates on these; a file's stem need not match them).
  std::vector<std::string> LastLoadedNames;

  unsigned CallDepth = 0;
  obs::Counter InterpFallbacks; ///< registered as "engine.interp_fallbacks"
  obs::Counter JitCompiles;     ///< registered as "engine.jit_compiles"
  obs::Counter Deopts;          ///< registered as "engine.deopts"
  obs::Counter NativeCompiles;  ///< registered as "native.compiles"
  obs::Counter NativeFailures;  ///< registered as "native.failures"
  obs::Counter NativeDeopts;    ///< registered as "native.deopts"
  obs::Counter NativeHits;      ///< registered as "native.hits"

  /// Bridges Opcode::CallU from machine code back into the engine's own
  /// dispatch (repository lookup, tiering, interpreter fallback).
  struct NativeHostBridge : native::NativeHost {
    Engine *E = nullptr;
    std::vector<ValuePtr> callFunction(const std::string &Name,
                                       std::vector<ValuePtr> Args,
                                       size_t NumOuts) override {
      return E->callFunction(Name, std::move(Args), NumOuts, SourceLoc());
    }
  } NativeHostAdapter;
  /// Present when NativeTier is on (even if the compiler probe failed -
  /// available() distinguishes). Null when the tier is off.
  std::unique_ptr<native::NativeCompiler> NativeComp;
  /// True when this engine installed the process-wide memory limit (so the
  /// destructor knows to lift it).
  bool OwnsMemLimit = false;
  /// Engine-thread only: shutdown() already ran.
  bool ShutdownDone = false;
  /// Per-session byte budget and interrupt token (PerSessionLimits);
  /// internally synchronized.
  mem::Account MemAccount;
  exec::Token IntrToken;
  /// sharedCacheConfigHash(Opts), resolved once at construction.
  uint64_t CfgHash = 0;
};

} // namespace majic

#endif // MAJIC_ENGINE_ENGINE_H
