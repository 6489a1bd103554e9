//===- perfbench/src/Workloads.cpp - The four workloads --------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload is a closed loop: one client waits for each result (or,
/// for the service, keeps a fixed number of requests in flight) before it
/// sends the next. The seed sets program order, argument jitter and
/// session choice; the program under test only ever sees the generated
/// inputs.
///
///   interactive_cold   fresh JIT engine per session, one runScript per
///                      corpus program at tiny inputs: compile-dominated
///   compute_vm         one warmed JIT engine, corpus programs at the
///                      corpus's scaled sizes on the register VM
///   compute_native     the same with the native tier on and every
///                      version promoted before timing
///   service_hibernate  a SessionManager with more sessions than its live
///                      cap (hibernation) and a persistent store
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LayerReplay.h"

#include "engine/Corpus.h"
#include "engine/Engine.h"
#include "service/SessionManager.h"
#include "service/SnapshotStore.h"
#include "support/Error.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace majic;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// The PRNG state every full-size compute call starts from, so rand-using
/// programs do identical work on every tier and in the reference.
constexpr uint64_t kCallSeed = 0x5eed5eed5eedull;

EngineOptions engineOptions(CompilePolicy P) {
  EngineOptions O;
  O.Policy = P;
  O.BackgroundCompileThreads = 0; // compiles on the calling thread
  O.ComputeThreads = 1;           // the client thread is the only one
  O.EnvFallbacks = false;         // no MAJIC_* variable changes the run
  return O;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Every .m file of the corpus directory, sorted.
const std::vector<std::string> &mlibFiles() {
  static const std::vector<std::string> Files = [] {
    std::vector<std::string> F;
    for (const auto &E : fs::directory_iterator(mlibDirectory()))
      if (E.path().extension() == ".m")
        F.push_back(E.path().string());
    std::sort(F.begin(), F.end());
    if (F.empty())
      throw std::runtime_error("no .m files in " + mlibDirectory());
    return F;
  }();
  return Files;
}

void loadMlib(Engine &E) {
  for (const std::string &F : mlibFiles())
    if (!E.loadFile(F))
      throw std::runtime_error("cannot load " + F + ": " + E.diagnostics());
}

void loadMlib(LayerReplay &D) {
  for (const std::string &F : mlibFiles())
    if (!D.load(fs::path(F).stem().string(), readFile(F)))
      throw std::runtime_error("replay cannot parse " + F);
}

std::string callText(const std::string &Name, const std::vector<double> &Args) {
  std::string S = "r = " + Name + "(";
  char Buf[64];
  for (size_t I = 0; I != Args.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", I ? ", " : "", Args[I]);
    S += Buf;
  }
  return S + ");";
}

uint64_t counterValue(const obs::MetricsSnapshot &S, const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

const obs::HistogramSnapshot *histogram(const obs::MetricsSnapshot &S,
                                        const std::string &Name) {
  for (const obs::HistogramSnapshot &H : S.Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

double meanMs(const obs::HistogramSnapshot *H) {
  return H && H->Count ? 1e3 * H->SumSeconds / H->Count : 0;
}

/// Median of a log2-bucketed histogram, interpolated inside its bucket.
double medianMs(const obs::HistogramSnapshot *H) {
  if (!H || !H->Count)
    return 0;
  double Half = H->Count / 2.0, Seen = 0;
  for (unsigned I = 0; I != obs::Histogram::kNumBuckets; ++I) {
    double N = double(H->Buckets[I]);
    if (Seen + N >= Half && N > 0) {
      double Lo = double(obs::Histogram::bucketFloorUs(I));
      double Hi = I + 1 < obs::Histogram::kNumBuckets
                      ? double(obs::Histogram::bucketFloorUs(I + 1))
                      : 2 * Lo;
      return (Lo + (Hi - Lo) * (Half - Seen) / N) / 1e3;
    }
    Seen += N;
  }
  return H->MaxSeconds * 1e3;
}

/// Per-layer counters of replays, summed across replays.
void addCounts(LayerCounts &Sum, const LayerCounts &C) {
  Sum.Compiles += C.Compiles;
  Sum.IrInstrs += C.IrInstrs;
  Sum.Spills += C.Spills;
  Sum.CheckedAccesses += C.CheckedAccesses;
  Sum.UncheckedAccesses += C.UncheckedAccesses;
}

void compileCountMetrics(const LayerCounts &C, RunResult &R) {
  double Compiles = std::max<uint64_t>(1, C.Compiles);
  R.Layer["ir.instrs"] = C.IrInstrs / Compiles;
  R.Layer["backend.spills"] = C.Spills / Compiles;
  uint64_t Acc = C.CheckedAccesses + C.UncheckedAccesses;
  R.Layer["infer.safe_subscript_frac"] =
      Acc ? double(C.UncheckedAccesses) / Acc : 0;
}

/// Engine-side counters every engine-driven workload reports.
struct EngineCounters {
  uint64_t JitCompiles = 0, Deopts = 0, InterpFallbacks = 0,
           SpecInflightInterpreted = 0, LookupHits = 0, LookupMisses = 0,
           FusedOps = 0;

  void add(Engine &E) {
    obs::MetricsSnapshot S = E.sampleMetrics();
    JitCompiles += counterValue(S, "engine.jit_compiles");
    Deopts += counterValue(S, "engine.deopts");
    InterpFallbacks += counterValue(S, "engine.interp_fallbacks");
    SpecInflightInterpreted += counterValue(S, "spec.inflight_interpreted");
    LookupHits += counterValue(S, "repo.lookup.hits");
    LookupMisses += counterValue(S, "repo.lookup.miss_no_function") +
                    counterValue(S, "repo.lookup.miss_no_safe_version");
    FusedOps += counterValue(S, "fusion.ops_fused");
  }

  void report(RunResult &R) const {
    R.Layer["engine.jit_compiles"] = double(JitCompiles);
    R.Layer["engine.deopts"] = double(Deopts);
    R.Layer["engine.interp_fallbacks"] = double(InterpFallbacks);
    R.Layer["engine.spec_inflight_interpreted"] =
        double(SpecInflightInterpreted);
    uint64_t Lookups = LookupHits + LookupMisses;
    R.Layer["repo.lookup_hit_ratio"] =
        Lookups ? double(LookupHits) / Lookups : 0;
    R.Layer["backend.fused_ops"] = double(FusedOps);
  }
};

/// Share of the engine's call time that the replayed layers' self times do
/// not account for.
void reportUnattributed(const Tracer &T, const char *CallSpan,
                        double ExtraAttributed, RunResult &R) {
  auto Tot = T.totals();
  double Calls = Tot.count(CallSpan) ? Tot[CallSpan].InclusiveSeconds : 0;
  double Layers = T.layerSecondsUnder("replay") + ExtraAttributed;
  R.Layer["engine.unattributed_frac"] = Calls > 0 ? 1 - Layers / Calls : 0;
}

//===----------------------------------------------------------------------===//
// Small inputs for the interactive and service workloads
//===----------------------------------------------------------------------===//

/// Tiny arguments per corpus program: a base and the argument position
/// that jitters by up to Span. ackermann, fibonacci and mei ignore the
/// corpus scale, so every program gets explicit small arguments here.
struct SmallInput {
  const char *Name;
  std::vector<double> Base;
  size_t JitterArg;
  int Span;
  bool UsesRand;
};

const std::vector<SmallInput> &smallInputs() {
  static const std::vector<SmallInput> In = {
      {"adapt", {1e-4, 40}, 1, 40, false},
      {"cgopt", {10, 6}, 0, 8, false},
      {"crnich", {1, 3, 8, 8}, 2, 6, false},
      {"dirich", {6, 1e-3, 4}, 0, 4, false},
      {"finedif", {1, 1, 1, 8, 8}, 3, 6, false},
      {"galrkn", {20}, 0, 20, false},
      {"icn", {8}, 0, 8, false},
      {"mei", {9, 5}, 1, 4, true},
      {"orbec", {40}, 0, 40, false},
      {"orbrk", {20}, 0, 20, false},
      {"qmr", {10, 6}, 0, 8, false},
      {"sor", {8, 1.2, 4}, 0, 6, false},
      {"ackermann", {2, 2}, 1, 3, false},
      {"fractal", {50}, 0, 50, true},
      {"mandel", {6, 10}, 0, 6, false},
      {"fibonacci", {8}, 0, 4, false},
  };
  return In;
}

/// \p N argument variants of \p S: one random draw from each of N equal
/// strata of the jitter range, in random order. Every seed then asks for
/// the same spread of input sizes; seeds differ in the values drawn and in
/// their order.
std::vector<std::vector<double>> variants(const SmallInput &S, unsigned N,
                                          std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> U(0, 1);
  std::vector<std::vector<double>> Out;
  for (unsigned K = 0; K != N; ++K) {
    std::vector<double> A = S.Base;
    A[S.JitterArg] += std::floor((K + U(Rng)) * (S.Span + 1) / N);
    Out.push_back(std::move(A));
  }
  std::shuffle(Out.begin(), Out.end(), Rng);
  return Out;
}

//===----------------------------------------------------------------------===//
// interactive_cold
//===----------------------------------------------------------------------===//

class InteractiveCold : public Workload {
  struct Command {
    std::string Program, Text;
    uint64_t Value = 0, Output = 0; ///< interpreter reference
  };
  /// Distinct session plans, cycled: every session is a fresh engine, so a
  /// repeated plan is as cold as a new one.
  static constexpr unsigned kPlans = 12;

  Options O;
  std::vector<std::vector<Command>> Plans;
  EngineCounters Eng;
  LayerCounts Counts;

public:
  explicit InteractiveCold(const Options &O) : O(O) {}
  unsigned threads() const override { return 1; }

  void prepare(RunResult &) override {
    std::mt19937_64 Rng(O.Seed);
    std::map<std::string, std::vector<std::vector<double>>> Args;
    for (const SmallInput &S : smallInputs())
      Args[S.Name] = variants(S, kPlans, Rng);
    for (unsigned P = 0; P != kPlans; ++P) {
      std::vector<const SmallInput *> Order;
      for (const SmallInput &S : smallInputs())
        Order.push_back(&S);
      std::shuffle(Order.begin(), Order.end(), Rng);
      std::vector<Command> Plan;
      for (const SmallInput *S : Order)
        Plan.push_back({S->Name, callText(S->Name, Args[S->Name][P])});
      // The reference runs the whole session in order on the
      // tree-walking interpreter: rand-using programs see the same PRNG
      // stream as the engine under test.
      Engine Ref(engineOptions(CompilePolicy::InterpretOnly));
      loadMlib(Ref);
      for (Command &C : Plan) {
        C.Output = digestText(Ref.runScript(C.Text));
        C.Value = digestValues({Ref.workspaceVar("r")});
      }
      Plans.push_back(std::move(Plan));
    }
  }

  double setup(Tracer *, RunResult &) override {
    double T0 = now();
    Engine E(engineOptions(CompilePolicy::Jit));
    loadMlib(E);
    return now() - T0;
  }

  void measure(double Seconds, Tracer *T, RunResult &R) override {
    double Start = now();
    uint32_t Req = 0;
    for (size_t S = 0; now() - Start < Seconds; ++S) {
      const std::vector<Command> &Plan = Plans[S % Plans.size()];
      double T0 = now();
      Engine E(engineOptions(CompilePolicy::Jit));
      loadMlib(E);
      R.SetupSeconds.push_back(now() - T0);

      std::unique_ptr<LayerReplay> D;
      if (T) {
        ScopedSpan Span(T, "replay.load");
        D = std::make_unique<LayerReplay>(T);
        loadMlib(*D);
      }
      for (const Command &C : Plan) {
        std::string Out;
        double C0 = now();
        {
          if (T)
            T->setRequest(++Req);
          ScopedSpan Span(T, "engine.call");
          Out = E.runScript(C.Text);
        }
        R.Calls.push_back({C.Program, (now() - C0) * 1e3});
        R.check(digestText(Out) == C.Output &&
                    digestValues({E.workspaceVar("r")}) == C.Value,
                "interactive_cold: " + C.Text + " differs from the interpreter");
        if (D) {
          {
            ScopedSpan Span(T, "replay");
            Out = D->runScript(C.Text);
          }
          R.check(digestText(Out) == C.Output &&
                      digestValues({D->var("r")}) == C.Value,
                  "interactive_cold replay: " + C.Text +
                      " differs from the interpreter");
        }
      }
      if (T) {
        Eng.add(E);
        addCounts(Counts, D->counts());
      }
    }
    R.WindowSeconds += now() - Start;
  }

  void layerMetrics(const Tracer &T, RunResult &R) override {
    Eng.report(R);
    compileCountMetrics(Counts, R);
    reportUnattributed(T, "engine.call", 0, R);
  }
};

//===----------------------------------------------------------------------===//
// compute_vm / compute_native
//===----------------------------------------------------------------------===//

std::vector<ValuePtr> callCorpus(Engine &E, const std::string &Name,
                                 std::string &Output) {
  const BenchmarkSpec *Spec = findBenchmark(Name);
  E.context().Rand.reseed(kCallSeed);
  size_t Mark = E.context().output().size();
  std::vector<ValuePtr> Out =
      E.callFunction(Name, corpusArgs(*Spec), 1, SourceLoc());
  Output = E.context().output().substr(Mark);
  return Out;
}

class Compute : public Workload {
  Options O;
  bool Native;
  ReferenceTable Ref;
  std::unique_ptr<Engine> E;
  std::mt19937_64 Rng;
  // Traced run only.
  std::unique_ptr<LayerReplay> D;
  std::unique_ptr<native::NativeCompiler> CC;
  std::map<std::string, std::vector<double>> VmReplayMs, NativeReplayMs;
  uint64_t VmInstrs = 0, EngineCalls = 0;

  bool matches(const std::string &Name, const std::vector<ValuePtr> &V,
               const std::string &Out) const {
    auto It = Ref.find(Name);
    return It != Ref.end() && It->second.Values == digestValues(V) &&
           It->second.Output == digestText(Out);
  }

  /// One call through the engine, checked against the reference.
  void engineCall(const std::string &Name, Tracer *T, RunResult &R) {
    std::string Out;
    std::vector<ValuePtr> V;
    double T0 = now();
    try {
      ScopedSpan Span(T, "engine.call");
      V = callCorpus(*E, Name, Out);
    } catch (const MatlabError &Err) {
      Out = "??? " + Err.message();
    }
    R.Calls.push_back({Name, (now() - T0) * 1e3});
    R.check(matches(Name, V, Out),
            Name + " differs from the interpreter reference");
  }

  /// One replay of \p Name through the layer entry points; returns ms.
  double replay(const std::string &Name, bool OnNative, RunResult &R) {
    const BenchmarkSpec *Spec = findBenchmark(Name);
    D->context().Rand.reseed(kCallSeed);
    size_t Mark = D->context().output().size();
    std::vector<ValuePtr> V;
    double T0 = now();
    try {
      V = D->call(Name, corpusArgs(*Spec), 1, OnNative);
    } catch (const MatlabError &) {
      V.clear();
    }
    double Ms = (now() - T0) * 1e3;
    R.check(matches(Name, V, D->context().output().substr(Mark)),
            Name + " replay differs from the interpreter reference");
    return Ms;
  }

  double replayTraced(Tracer *T, const std::string &P, bool OnNative,
                      const char *Root, RunResult &R) {
    ScopedSpan Span(T, Root);
    return replay(P, OnNative, R);
  }

public:
  Compute(const Options &O, bool Native) : O(O), Native(Native), Rng(O.Seed) {}
  unsigned threads() const override { return 1; }

  void prepare(RunResult &) override {
    std::string Err;
    if (!readReference(O.ReferenceFile, Ref, Err))
      throw std::runtime_error(Err);
  }

  double setup(Tracer *T, RunResult &R) override {
    E.reset();
    double T0 = now();
    EngineOptions EO = engineOptions(CompilePolicy::Jit);
    if (Native) {
      EO.NativeTier = true;
      EO.NativeCC = "cc";
      EO.NativeHotThreshold = 1; // promote on the first call
    }
    E = std::make_unique<Engine>(EO);
    loadMlib(*E);
    // Warm-up: the first call of each program pays the JIT and, on the
    // native tier, the system-compiler promotion.
    for (const std::string &P : programNames()) {
      std::string Out;
      std::vector<ValuePtr> V = callCorpus(*E, P, Out);
      R.check(matches(P, V, Out), P + " warm-up differs from the reference");
    }
    double Secs = now() - T0;
    if (Native) {
      if (!E->nativeTierAvailable())
        R.fail("compute_native: the native tier found no usable C compiler");
      for (const std::string &P : programNames())
        if (E->profile(P).NativeRuns == 0)
          R.fail("compute_native: " + P + " was not promoted to native code");
    }
    if (T) {
      // The replay's own set-up: parse, analyze, compile every program
      // (one VM run creates the versions recursive programs need), then
      // emit, compile and load C for each version.
      ScopedSpan Span(T, "replay.setup");
      D = std::make_unique<LayerReplay>(T);
      loadMlib(*D);
      if (Native)
        CC = std::make_unique<native::NativeCompiler>("cc");
      for (const std::string &P : programNames()) {
        replay(P, false, R);
        if (Native)
          D->buildNative(P, *CC);
      }
      if (D->counts().NativeFailures)
        R.fail("compute_native: the replay could not build native code");
    }
    return Secs;
  }

  void measure(double Seconds, Tracer *T, RunResult &R) override {
    double Start = now();
    uint64_t Instr0 = E->vmInstructions();
    // Whole rounds only, so every program is sampled equally often.
    do {
      std::vector<std::string> Order = programNames();
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (const std::string &P : Order) {
        engineCall(P, T, R);
        if (!T)
          continue;
        ++EngineCalls;
        // On compute_native the VM replay is the baseline of vs_vm, not
        // an attribution of the engine's (native) call.
        VmReplayMs[P].push_back(
            replayTraced(T, P, false, Native ? "replay.vm" : "replay", R));
        if (Native)
          NativeReplayMs[P].push_back(replayTraced(T, P, true, "replay", R));
      }
    } while (now() - Start < Seconds);
    if (T)
      VmInstrs += E->vmInstructions() - Instr0;
    R.WindowSeconds += now() - Start;
  }

  void layerMetrics(const Tracer &T, RunResult &R) override {
    EngineCounters Eng;
    Eng.add(*E);
    Eng.report(R);
    compileCountMetrics(D->counts(), R);
    R.Layer["backend.vm_instrs"] =
        EngineCalls ? double(VmInstrs) / EngineCalls : 0;
    reportUnattributed(T, "engine.call", 0, R);
    if (!Native)
      return;
    uint64_t NativeRuns = 0, Runs = 0;
    for (const std::string &P : programNames()) {
      obs::FunctionProfile Prof = E->profile(P);
      NativeRuns += Prof.NativeRuns;
      Runs += Prof.NativeRuns + Prof.VmRuns + Prof.InterpRuns;
    }
    R.Layer["native.served_frac"] = Runs ? double(NativeRuns) / Runs : 0;
    R.Layer["native.deopts"] = double(E->nativeDeopts());
    R.Layer["native.failures"] = double(E->nativeFailures());
    double Min = INFINITY;
    unsigned Slower = 0;
    for (const std::string &P : programNames()) {
      double Ratio = median(VmReplayMs[P]) / median(NativeReplayMs[P]);
      Slower += Ratio < 1;
      Min = std::min(Min, Ratio);
    }
    R.Layer["native.vs_vm_min"] = Min;
    R.Layer["native.slower_than_vm"] = Slower;
  }
};

//===----------------------------------------------------------------------===//
// service_hibernate
//===----------------------------------------------------------------------===//

class ServiceHibernate : public Workload {
  static constexpr unsigned kSessions = 8; ///< more than the live cap
  static constexpr unsigned kLiveCap = 4;
  static constexpr unsigned kWorkers = 1;
  static constexpr unsigned kSpecThreads = 1;
  /// Requests kept in flight: one user waiting for each result. With two
  /// on the one worker, a request's latency was mostly the request queued
  /// ahead of it, and the p99 followed the host's scheduling noise.
  static constexpr unsigned kInFlight = 1;
  static constexpr unsigned kJitter = 6;   ///< argument variants per program

  struct Call {
    std::string Program, Text;
  };

  Options O;
  std::mt19937_64 Rng;
  /// Function definitions every session submits first (file texts of the
  /// corpus programs that do not use rand: a hibernated session comes
  /// back with its variables, not its PRNG state).
  std::vector<std::pair<std::string, std::string>> Defs;
  std::vector<Call> Calls; ///< call requests, drawn uniformly
  std::map<std::string, std::string> Expected; ///< interpreter output
  /// Session choice by rank: the live-cap many hot ranks by 1/rank, the
  /// rest share kColdShare of the requests. Each cold request hibernates
  /// one session and resurrects another; kept rare so that the p99 latency
  /// is not the machine's fsync latency. Every kEpoch requests the ranking
  /// rotates by one session (users come and go), so every session cools
  /// down, hibernates and comes back: an engine keeps every command it ran
  /// for its life, and a session that never hibernated would make peak
  /// memory a function of the run's throughput.
  std::vector<double> RankWeight;
  std::vector<size_t> SessionOfRank;
  static constexpr double kColdShare = 0.0005;
  static constexpr size_t kEpoch = 2000;
  std::unique_ptr<SessionManager> Svc;
  std::vector<SessionId> Ids;
  size_t Submitted = 0; ///< requests sent so far (the ranking's clock)
  uint32_t Req = 0; ///< request ids, unique across both phases
  // Traced run only.
  std::vector<std::unique_ptr<LayerReplay>> Replays;
  LayerCounts Counts;
  uint64_t StoreAdopted = 0;
  double QueueSecondsTraced = 0;

  std::string dir(const char *Leaf) const {
    return (fs::path(O.WorkDir) / Leaf).string();
  }

  ServiceOptions serviceOptions(const std::string &Sessions) const {
    ServiceOptions SO;
    SO.MaxSessions = kLiveCap;
    SO.Workers = kWorkers;
    SO.SpecThreads = kSpecThreads;
    SO.RepoDir = dir("service-repo");
    SO.SessionDir = Sessions;
    SO.Session = engineOptions(CompilePolicy::Speculative);
    return SO;
  }

public:
  explicit ServiceHibernate(const Options &O) : O(O), Rng(O.Seed) {}
  unsigned threads() const override { return 1 + kWorkers + kSpecThreads; }

  void prepare(RunResult &R) override {
    for (const SmallInput &S : smallInputs()) {
      if (S.UsesRand)
        continue;
      Defs.push_back(
          {S.Name, readFile(mlibDirectory() + "/" + S.Name + ".m")});
      // A request calls the function 16 times, so each carries a few
      // milliseconds of work rather than thread wake-up latency, then
      // prints the result's shape, sum and index-weighted sum to 17
      // significant digits (which round-trip exactly). Printing every
      // element would grow each session's output buffer, which the engine
      // keeps for the session's life, by a kilobyte per request.
      for (const std::vector<double> &A : variants(S, kJitter, Rng))
        Calls.push_back(
            {S.Name, "for k = 1:16, " + callText(S.Name, A) +
                         " end fprintf('%d %d %.17g %.17g\\n', size(r), "
                         "sum(r(:)), sum(r(:) .* (1:numel(r))'));"});
    }
    SessionOfRank.resize(kSessions);
    for (size_t I = 0; I != kSessions; ++I)
      SessionOfRank[I] = I;
    std::shuffle(SessionOfRank.begin(), SessionOfRank.end(), Rng);
    double Hot = 0;
    for (size_t I = 0; I != kLiveCap; ++I)
      RankWeight.push_back(1.0 / (I + 1)), Hot += RankWeight.back();
    for (size_t I = kLiveCap; I != kSessions; ++I)
      RankWeight.push_back(Hot * kColdShare / (kSessions - kLiveCap));

    // The reference: every call on the tree-walking interpreter.
    Engine Ref(engineOptions(CompilePolicy::InterpretOnly));
    for (const auto &D : Defs)
      Ref.runScript(D.second);
    for (const auto &D : Defs)
      Expected[D.second] = "";
    for (const Call &C : Calls)
      Expected[C.Text] = Ref.runScript(C.Text);

    // A previous service lifetime left compiled code for every argument
    // variant in the persistent store: the measured service warm-starts
    // from it, and its sessions adopt the code through the shared cache.
    // Background re-speculation still compiles and saves during the run.
    fs::remove_all(dir("service-repo"));
    fs::remove_all(dir("service-prime"));
    fs::create_directories(dir("service-repo"));
    SessionManager Prime(serviceOptions(dir("service-prime")));
    SessionId Id = Prime.createSession();
    std::vector<std::string> Texts;
    for (const auto &D : Defs)
      Texts.push_back(D.second);
    for (const Call &C : Calls)
      Texts.push_back(C.Text);
    for (const std::string &Text : Texts) {
      Reply Rep = Prime.submit(Id, Text).get();
      R.check(Rep.St == Reply::Status::Ok && Rep.Output == Expected[Text],
              "service priming: " + Text + " differs from the interpreter");
    }
  }

  double setup(Tracer *T, RunResult &R) override {
    Svc.reset();
    fs::remove_all(dir("service-sessions"));
    if (T) {
      // The replay's view of the same warm start: RepoStore::loadAll over
      // the primed store, then speculative compiles saved to a store of
      // its own.
      ScopedSpan Span(T, "replay.setup");
      RepoStore Primed(dir("service-repo"));
      {
        ScopedSpan S(T, "repo.store_load");
        StoreAdopted = Primed.loadAll().size();
      }
      fs::remove_all(dir("replay-repo"));
      fs::create_directories(dir("replay-repo"));
      RepoStore Own(dir("replay-repo"));
      LayerReplay D(T);
      for (const auto &[Name, Text] : Defs) {
        D.runScript(Text);
        CompiledObjectPtr Obj =
            D.compile(Name, D.speculate(Name), CodeGenMode::Optimized);
        if (Obj) {
          ScopedSpan S(T, "repo.store_save");
          Own.save(*Obj, hashing::fnv1a(Text));
        }
      }
      addCounts(Counts, D.counts());
    }
    double T0 = now();
    Svc = std::make_unique<SessionManager>(
        serviceOptions(dir("service-sessions")));
    Ids.clear();
    for (unsigned S = 0; S != kLiveCap; ++S)
      Ids.push_back(Svc->createSession());
    double Secs = now() - T0;
    // Sessions past the live cap hibernate an idle one as they are
    // created: disk writes whose fsync latency belongs to the machine,
    // so they stay out of the set-up time.
    while (Ids.size() != kSessions)
      Ids.push_back(Svc->createSession());
    // Every session defines the corpus functions before the loop starts;
    // definitions (a parse each) would otherwise sit at the p99 boundary.
    for (SessionId Id : Ids)
      for (const auto &D : Defs) {
        Reply Rep = Svc->submit(Id, D.second).get();
        R.check(Rep.St == Reply::Status::Ok && Rep.Output.empty(),
                "service: defining " + D.first + " failed");
      }
    return Secs;
  }

  void measure(double Seconds, Tracer *T, RunResult &R) override {
    struct InFlight {
      std::future<Reply> F;
      double T0;
      size_t Session;
      Call C;
      uint32_t Req;
    };
    std::discrete_distribution<size_t> Pick(RankWeight.begin(),
                                            RankWeight.end());
    std::uniform_int_distribution<size_t> PickCall(0, Calls.size() - 1);
    std::deque<InFlight> Q;
    double Start = now();
    double Queue0 = 0;
    if (T)
      if (auto *H = histogram(Svc->sampleMetrics(),
                              "service.request.queue_seconds"))
        Queue0 = H->SumSeconds;

    auto Complete = [&](InFlight &X) {
      Reply Rep = X.F.get();
      double End = now();
      R.Calls.push_back({X.C.Program, (End - X.T0) * 1e3});
      auto It = Expected.find(X.C.Text);
      R.check(Rep.St == Reply::Status::Ok && It != Expected.end() &&
                  Rep.Output == It->second,
              std::string("service_hibernate: ") +
                  replyStatusName(Rep.St) + " for " + X.C.Text);
      if (!T)
        return;
      T->record("service.request", X.T0, End, X.Req);
      if (Replays.size() < kSessions)
        Replays.resize(kSessions);
      if (!Replays[X.Session]) {
        // The replay starts from the session's state: its definitions.
        ScopedSpan Span(T, "replay.setup");
        Replays[X.Session] = std::make_unique<LayerReplay>(T);
        for (const auto &D : Defs)
          Replays[X.Session]->runScript(D.second);
      }
      LayerReplay &D = *Replays[X.Session];
      T->setRequest(X.Req);
      std::string Out;
      {
        ScopedSpan Span(T, "replay");
        Out = D.runScript(X.C.Text);
      }
      R.check(It != Expected.end() && Out == It->second,
              "service replay: " + X.C.Text + " differs");
      // Hibernation's storage half, entered directly: the session's
      // definitions and workspace through SnapshotStore.
      if (X.Req % 4 == 0 && D.var("r")) {
        ser::WorkspaceImage Img, Back;
        for (const auto &Def : Defs)
          Img.Sources.push_back({Def.first, Def.second});
        Img.Vars.push_back({"r", D.var("r")});
        SnapshotStore Snap(dir("replay-sessions"));
        {
          ScopedSpan S(T, "service.snapshot_save");
          Snap.save(X.Session + 1, Img);
        }
        ScopedSpan S(T, "service.snapshot_load");
        R.check(Snap.load(X.Session + 1, Back) ==
                        SnapshotStore::LoadStatus::Ok &&
                    Back.Vars.size() == 1,
                "service replay: snapshot did not round-trip");
      }
    };

    for (;;) {
      while (Q.size() < kInFlight && now() - Start < Seconds) {
        size_t S =
            SessionOfRank[(Pick(Rng) + Submitted++ / kEpoch) % kSessions];
        Call C = Calls[PickCall(Rng)];
        double T0 = now();
        std::future<Reply> F = Svc->submit(Ids[S], C.Text);
        Q.push_back({std::move(F), T0, S, std::move(C), ++Req});
      }
      if (Q.empty())
        break;
      // One worker and arrivals only on completion: requests finish in
      // the order they were submitted, so blocking on the oldest is exact.
      Complete(Q.front());
      Q.pop_front();
    }
    R.WindowSeconds += now() - Start;
    if (T)
      if (auto *H = histogram(Svc->sampleMetrics(),
                              "service.request.queue_seconds"))
        QueueSecondsTraced += H->SumSeconds - Queue0;
    for (auto &D : Replays)
      if (D) {
        addCounts(Counts, D->counts());
        D.reset();
      }
  }

  void layerMetrics(const Tracer &T, RunResult &R) override {
    obs::MetricsSnapshot S = Svc->sampleMetrics();
    R.Layer["service.queue_ms_p50"] =
        medianMs(histogram(S, "service.request.queue_seconds"));
    R.Layer["service.hibernate_ms"] =
        meanMs(histogram(S, "service.hibernate.seconds"));
    R.Layer["service.resurrect_ms"] =
        meanMs(histogram(S, "service.resurrect.seconds"));
    R.Layer["service.hibernates"] = double(counterValue(S, "service.hibernates"));
    R.Layer["service.resurrects"] = double(counterValue(S, "service.resurrects"));
    R.Layer["service.rejected"] =
        double(counterValue(S, "service.requests.rejected"));
    uint64_t Hits = Svc->sharedCache().hits(),
             Lookups = Hits + Svc->sharedCache().misses();
    R.Layer["service.shared_cache_hit_ratio"] =
        Lookups ? double(Hits) / Lookups : 0;
    R.Layer["repo.store_adopted"] = double(StoreAdopted);
    compileCountMetrics(Counts, R);
    // Queue wait is the service's own time, read from its instruments.
    reportUnattributed(T, "service.request", QueueSecondsTraced, R);
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const Options &O) {
  if (O.Workload == "interactive_cold")
    return std::make_unique<InteractiveCold>(O);
  if (O.Workload == "compute_vm")
    return std::make_unique<Compute>(O, false);
  if (O.Workload == "compute_native")
    return std::make_unique<Compute>(O, true);
  if (O.Workload == "service_hibernate")
    return std::make_unique<ServiceHibernate>(O);
  return nullptr;
}

bool perfbench::writeReference(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "# Interpreter reference for the compute workloads: per corpus\n"
         "# program at its scaled size, FNV-1a of the result bits and of\n"
         "# the printed output. Regenerate: python3 perfbench/run.py "
         "--regen-reference\n";
  for (const std::string &P : programNames()) {
    Engine E(engineOptions(CompilePolicy::InterpretOnly));
    loadMlib(E);
    std::string Output;
    std::vector<ValuePtr> V = callCorpus(E, P, Output);
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%s %016llx %016llx\n", P.c_str(),
                  static_cast<unsigned long long>(digestValues(V)),
                  static_cast<unsigned long long>(digestText(Output)));
    Out << Buf;
    std::fprintf(stderr, "reference: %s\n", P.c_str());
  }
  return bool(Out);
}
