//===- engine/CompileQueue.cpp - What the engine shares with its workers ---===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileQueue.h"

#include <algorithm>

using namespace majic;

std::optional<TypeSignature> FnState::observed(size_t Arity) const {
  if (!ObservedSig || ObservedSig->size() != Arity)
    return std::nullopt;
  return ObservedSig;
}

std::optional<std::shared_ptr<native::NativeModule>>
FnState::nativeModule(const TypeSignature &Sig) const {
  for (const auto &[S, NV] : Natives)
    if (S == Sig)
      return NV.St == NativeVersion::State::Ready ? NV.Module : nullptr;
  return std::nullopt;
}

CompileQueue::CompileQueue(Repository &Repo, obs::MetricsRegistry &Metrics,
                           ThreadPool *Shared, unsigned Threads)
    : Repo(Repo) {
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
  // Idle-priority workers consume only cycles the interactive thread leaves
  // free, so the user never waits even on one core. A shared pool (the
  // multi-session service) records into its owner's instruments.
  if (Shared) {
    Pool = Shared;
  } else if (Threads > 0) {
    ThreadPool::MetricsSink Sink;
    Sink.Enqueued = &Metrics.counter("pool.spec.enqueued");
    Sink.Finished = &Metrics.counter("pool.spec.finished");
    Sink.Promoted = &Metrics.counter("pool.spec.promoted");
    Sink.QueueDepth = &Metrics.gauge("pool.spec.queue_depth");
    Sink.QueueSeconds = &Metrics.histogram("pool.spec.queue_seconds");
    Sink.RunSeconds = &Metrics.histogram("pool.spec.run_seconds");
    Owned = std::make_unique<ThreadPool>(Threads, ThreadPool::Priority::Idle,
                                         &Sink);
    Pool = Owned.get();
  }
}

void CompileQueue::setPaused(bool Paused) {
  if (Owned)
    Owned->setPaused(Paused);
}

void CompileQueue::shutdown() {
  if (Owned) {
    {
      // Nothing re-enqueues while the pool tears down.
      std::lock_guard<std::mutex> L(Mutex);
      Draining = true;
    }
    // The pool's destructor runs every queued task, paused or not, and
    // joins. Once joined, no worker reads Pool any more.
    Owned.reset();
    Pool = nullptr;
  } else if (Pool) {
    // A shared pool serves other sessions too: never drain or pause it.
    std::unique_lock<std::mutex> L(Mutex);
    Draining = true;
    for (auto It = Tasks.begin(); It != Tasks.end();) {
      if (It->Started || !Pool->cancel(It->PoolId)) {
        ++It; // running; its body does its own bookkeeping
        continue;
      }
      if (It->Kind == TaskKind::Compile)
        Spec.Dropped.inc();
      It = Tasks.erase(It);
    }
    IdleCv.wait(L, [this] { return idle(/*WithSaves=*/true); });
    Pool = nullptr;
  }
}

bool CompileQueue::enqueueLocked(TaskKind Kind, const std::string &Name,
                                 std::function<void()> Body) {
  if (!Pool || Draining)
    return false;
  // Enqueueing under Mutex (lock order Mutex -> pool mutex) puts the entry
  // in place before the task's first act: marking it started.
  uint64_t Seq = ++LastTaskSeq;
  ThreadPool::TaskId Id;
  try {
    Id = Pool->enqueue([this, Seq, Body = std::move(Body)] {
      auto Mine = [this, Seq] {
        return std::find_if(Tasks.begin(), Tasks.end(),
                            [Seq](const Task &T) { return T.Seq == Seq; });
      };
      {
        std::lock_guard<std::mutex> L(Mutex);
        Mine()->Started = true;
      }
      Body();
      // Notified under the lock: a barrier that wakes may destroy the
      // queue, which this worker must no longer touch by then.
      std::lock_guard<std::mutex> L(Mutex);
      Tasks.erase(Mine());
      IdleCv.notify_all();
    });
  } catch (...) {
    // Injected pool-enqueue fault: leave no bookkeeping behind, or a
    // barrier would wait forever on a task that does not exist.
    return false;
  }
  Tasks.push_back({Seq, Id, Kind, Name});
  return true;
}

bool CompileQueue::enqueue(TaskKind Kind, const std::string &Name,
                           std::function<void()> Body) {
  std::lock_guard<std::mutex> L(Mutex);
  return enqueueLocked(Kind, Name, std::move(Body));
}

bool CompileQueue::enqueueCompile(const std::string &Name,
                                  std::function<bool(uint64_t)> Body) {
  std::lock_guard<std::mutex> L(Mutex);
  if (!Pool || Draining)
    return false;
  if (compileTask(Name) != Tasks.end()) {
    Spec.DedupedRequests.inc();
    return false;
  }
  uint64_t Gen = FnStates[Name].Generation;
  // Counted once the pool accepted it; an enqueue fault counts as failed.
  auto Run = [this, Body = std::move(Body), Gen] {
    Timer Total;
    bool Published = Body(Gen);
    std::lock_guard<std::mutex> L(Mutex);
    BackgroundSeconds += Total.seconds();
    (Published ? Spec.Completed : Spec.Dropped).inc(); // or failed, or stale
  };
  if (!enqueueLocked(TaskKind::Compile, Name, std::move(Run))) {
    Spec.Failed.inc();
    return false;
  }
  Spec.Queued.inc();
  return true;
}

std::optional<uint64_t>
CompileQueue::enqueueNative(const std::string &Name, const TypeSignature &Sig,
                            std::function<void(uint64_t)> Body) {
  std::lock_guard<std::mutex> L(Mutex);
  if (Draining)
    return std::nullopt;
  // Only the engine thread adds versions, so Sig is still absent.
  FnState &S = FnStates[Name];
  S.Natives.emplace_back(Sig, NativeVersion());
  uint64_t Gen = S.Generation;
  if (enqueueLocked(TaskKind::Native, Name,
                    [Body = std::move(Body), Gen] { Body(Gen); }))
    return std::nullopt;
  return Gen;
}

bool CompileQueue::promote(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mutex);
  auto Found = compileTask(Name);
  // Pool::promote() refuses a task a worker took but has not marked yet.
  if (!Pool || Found == Tasks.cend() || Found->Started ||
      !Pool->promote(Found->PoolId))
    return false;
  auto It = Tasks.begin() + (Found - Tasks.cbegin());
  std::rotate(Tasks.begin(), It, std::next(It));
  Spec.Promoted.inc();
  return true;
}

bool CompileQueue::inFlight(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mutex);
  return compileTask(Name) != Tasks.end();
}

std::vector<std::string> CompileQueue::queued() const {
  std::lock_guard<std::mutex> L(Mutex);
  std::vector<std::string> Out;
  for (const Task &T : Tasks)
    if (T.Kind == TaskKind::Compile && !T.Started)
      Out.push_back(T.Name);
  return Out;
}

void CompileQueue::drain(bool WithSaves) {
  std::unique_lock<std::mutex> L(Mutex);
  IdleCv.wait(L, [&] { return idle(WithSaves); });
}

std::vector<CompileQueue::Task>::const_iterator
CompileQueue::compileTask(const std::string &Name) const {
  return std::find_if(Tasks.begin(), Tasks.end(), [&](const Task &T) {
    return T.Kind == TaskKind::Compile && T.Name == Name;
  });
}

bool CompileQueue::idle(bool WithSaves) const {
  return std::none_of(Tasks.begin(), Tasks.end(), [&](const Task &T) {
    return WithSaves || T.Kind != TaskKind::Save;
  });
}

void CompileQueue::startGeneration(const std::string &Name,
                                   std::optional<uint64_t> SrcHash) {
  // Unloaded (dlclosed) after the mutex is released.
  std::vector<std::pair<TypeSignature, NativeVersion>> Retired;
  // One update under the lock the workers publish under: a worker
  // finishing now either sees the new generation (and drops its result)
  // or published before it (and its code is dropped here).
  std::lock_guard<std::mutex> L(Mutex);
  FnState &S = FnStates[Name];
  ++S.Generation;
  // New source gets a fresh chance, and none of the old code serves it.
  // (Warm .mjn entries carry their source hash; adoption checks it.)
  S.Quarantined = false;
  Repo.invalidate(Name);
  Retired.swap(S.Natives);
  S.SrcHash = SrcHash;
  S.Erased = !SrcHash;
  // A deleted function must not keep steering speculation either.
  if (!SrcHash)
    S.ObservedSig.reset();
}

CompiledObjectPtr CompileQueue::publish(CompiledObject Obj, uint64_t Gen) {
  std::string Name = Obj.FunctionName;
  TypeSignature Sig = Obj.Sig;
  std::lock_guard<std::mutex> L(Mutex);
  if (FnStates[Name].Generation != Gen)
    return nullptr;
  Repo.insert(std::move(Obj));
  return Repo.lookup(Name, Sig);
}

void CompileQueue::noteCompileFailure(const std::string &Name, uint64_t Gen) {
  std::lock_guard<std::mutex> L(Mutex);
  Spec.Failed.inc();
  FnState &S = FnStates[Name];
  if (S.Generation == Gen)
    S.Quarantined = true;
}

size_t CompileQueue::quarantineCount() const {
  std::lock_guard<std::mutex> L(Mutex);
  return std::count_if(FnStates.begin(), FnStates.end(),
                       [](const auto &KV) { return KV.second.Quarantined; });
}

void CompileQueue::setObservedSignature(const std::string &Name,
                                        const TypeSignature &Sig) {
  std::lock_guard<std::mutex> L(Mutex);
  FnStates[Name].ObservedSig = Sig;
}

std::optional<uint64_t> CompileQueue::setNative(const std::string &Name,
                                                const TypeSignature &Sig,
                                                NativeVersion NV,
                                                std::optional<uint64_t> Gen) {
  std::lock_guard<std::mutex> L(Mutex);
  FnState &S = FnStates[Name];
  if (Gen && S.Generation != *Gen)
    return std::nullopt;
  auto Old = std::find_if(S.Natives.begin(), S.Natives.end(),
                          [&](const auto &V) { return V.first == Sig; });
  if (Old == S.Natives.end())
    S.Natives.emplace_back(Sig, std::move(NV));
  else
    std::swap(Old->second, NV); // the old module unloads after unlocking
  return S.SrcHash;
}

void CompileQueue::recordFirstResult() {
  std::lock_guard<std::mutex> L(Mutex);
  if (TimeToFirstResult < 0)
    TimeToFirstResult = Birth.seconds();
}

SpeculationStats CompileQueue::stats() const {
  SpeculationStats S;
  S.Queued = Spec.Queued.value();
  S.Completed = Spec.Completed.value();
  S.Dropped = Spec.Dropped.value();
  S.DedupedRequests = Spec.DedupedRequests.value();
  S.InFlightInterpreted = Spec.InFlightInterpreted.value();
  S.Promoted = Spec.Promoted.value();
  S.Failed = Spec.Failed.value();
  std::lock_guard<std::mutex> L(Mutex);
  S.BackgroundCompileSeconds = BackgroundSeconds;
  S.TimeToFirstResultSeconds = TimeToFirstResult;
  return S;
}
