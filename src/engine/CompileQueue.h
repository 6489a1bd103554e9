//===- engine/CompileQueue.h - What the engine shares with its workers -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the engine thread shares with its background workers (the
/// snooping speculative compiler, Section 2.5), under one mutex: the pool
/// and its task ledger, one record per function that background results
/// are published against, and the speculation counters. Every method takes
/// the mutex at most once; no caller sees it.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_ENGINE_COMPILEQUEUE_H
#define MAJIC_ENGINE_COMPILEQUEUE_H

#include "native/NativeCompiler.h"
#include "repo/Repository.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace majic {

/// Responsiveness counters for the background speculation subsystem.
struct SpeculationStats {
  uint64_t Queued = 0;    ///< tasks handed to the worker pool
  uint64_t Completed = 0; ///< tasks whose object was published
  uint64_t Dropped = 0;   ///< tasks that failed, went stale or were cancelled
  uint64_t DedupedRequests = 0; ///< requests already in flight
  /// Invocations interpreted because their function's compile was in flight.
  uint64_t InFlightInterpreted = 0;
  /// Queued compiles moved to the front because an invocation missed.
  uint64_t Promoted = 0;
  /// Compiles that raised (injected faults included); the function is
  /// quarantined until its source changes.
  uint64_t Failed = 0;
  /// Seconds of compilation performed off the caller's thread.
  double BackgroundCompileSeconds = 0;
  /// Seconds from engine construction to the first completed top-level
  /// invocation (negative until one completes). The paper's responsiveness
  /// claim is that this stays near the interpreted cost even when total
  /// compile seconds are large.
  double TimeToFirstResultSeconds = -1;
};

/// One (function, signature) version's place in the native tier.
struct NativeVersion {
  enum class State { Pending, Ready, Failed } St = State::Pending;
  std::shared_ptr<native::NativeModule> Module;
};

/// What the engine thread and the workers share about one function.
/// Created at its first registration and never erased: a removal keeps
/// the bumped generation and the tombstone.
struct FnState {
  /// Bumped by every new source: a background result built at an older
  /// generation is dropped instead of published.
  uint64_t Generation = 0;
  /// This generation's compiler raised an exception: interpret instead of
  /// retrying until the source changes.
  bool Quarantined = false;
  /// Tombstone: the source was removed. A store write checks it on both
  /// sides, so a save racing the removal cannot resurrect the function.
  bool Erased = false;
  /// Content hash of the current source; empty once it is removed.
  std::optional<uint64_t> SrcHash;
  /// The most-called observed signature, read by the workers when picking
  /// what to speculate.
  std::optional<TypeSignature> ObservedSig;
  /// This generation's native versions, one per signature.
  std::vector<std::pair<TypeSignature, NativeVersion>> Natives;

  /// ObservedSig when its arity matches \p Arity (a mismatch means the
  /// profile is stale against the live source).
  std::optional<TypeSignature> observed(size_t Arity) const;
  /// Nullopt when \p Sig has no native version, else its module when Ready
  /// (null while Pending or once Failed).
  std::optional<std::shared_ptr<native::NativeModule>>
  nativeModule(const TypeSignature &Sig) const;
};

class CompileQueue {
public:
  enum class TaskKind : uint8_t { Compile, Save, Native };

  /// Runs background work on \p Shared when set (it must outlive the
  /// queue), else on \p Threads owned idle-priority workers recording into
  /// "pool.spec.*", else nowhere: callers then work synchronously. \p Repo
  /// is where compiled code is published and retired.
  CompileQueue(Repository &Repo, obs::MetricsRegistry &Metrics,
               ThreadPool *Shared, unsigned Threads);
  ~CompileQueue() { shutdown(); }
  CompileQueue(const CompileQueue &) = delete; // workers hold its address
  CompileQueue &operator=(const CompileQueue &) = delete;

  /// Engine thread only.
  bool hasPool() const { return Pool != nullptr; }
  /// Owned workers only: one session must not stall a shared pool.
  void setPaused(bool Paused);
  /// Idempotent. Owned pool: drain every queued task and join. Shared
  /// pool: cancel this queue's queued tasks and wait out its running ones.
  /// From then on nothing is accepted and callers work synchronously.
  void shutdown();

  // The task ledger: this queue's tasks, queued ones in pick-up order. A
  // worker marks its entry started and erases it when the body returns; a
  // compile entry is also the one-per-function in-flight dedup.

  /// False, leaving no trace, without a pool, while draining, or on an
  /// enqueue fault: the caller then works synchronously.
  bool enqueue(TaskKind Kind, const std::string &Name,
               std::function<void()> Body);
  /// Queues a speculative compile of \p Name unless one is in flight.
  /// \p Body gets the generation to compile at and returns whether it
  /// published.
  bool enqueueCompile(const std::string &Name,
                      std::function<bool(uint64_t Gen)> Body);
  /// Enters \p Sig as a Pending native version and queues its build.
  /// Returns the generation to build at here when no task was queued;
  /// nullopt when one was, or while draining.
  std::optional<uint64_t> enqueueNative(const std::string &Name,
                                        const TypeSignature &Sig,
                                        std::function<void(uint64_t Gen)> Body);
  bool promote(const std::string &Name);
  bool inFlight(const std::string &Name) const;
  std::vector<std::string> queued() const;
  /// Blocks until no compile or native build (nor, \p WithSaves, save) is
  /// queued or running.
  void drain(bool WithSaves);

  // Per-function records and the generation rule.

  /// Starts a new source generation: compiled and native versions and the
  /// quarantine are retired. Nullopt \p SrcHash means the source was
  /// removed: the tombstone is set and the observed signature forgotten.
  void startGeneration(const std::string &Name,
                       std::optional<uint64_t> SrcHash);
  /// Returns \p Read applied to \p Name's record (a default one when never
  /// registered) under the mutex.
  template <typename ReadFn>
  auto read(const std::string &Name, ReadFn Read) const {
    static const FnState None{};
    std::lock_guard<std::mutex> L(Mutex);
    auto It = FnStates.find(Name);
    return Read(It == FnStates.end() ? None : It->second);
  }
  /// Inserts \p Obj and returns the inserted version, or null when its
  /// function moved past generation \p Gen.
  CompiledObjectPtr publish(CompiledObject Obj, uint64_t Gen);
  /// Counts a compile failure; quarantines \p Name if \p Gen, the
  /// generation the compile started from, is still current.
  void noteCompileFailure(const std::string &Name, uint64_t Gen);
  size_t quarantineCount() const;
  void setObservedSignature(const std::string &Name, const TypeSignature &Sig);
  /// Sets \p Sig's native version unless \p Gen is given and superseded.
  /// Returns the source hash to persist it under when it was set.
  std::optional<uint64_t> setNative(const std::string &Name,
                                    const TypeSignature &Sig, NativeVersion NV,
                                    std::optional<uint64_t> Gen = {});

  /// Records the time to the first completed top-level invocation.
  void recordFirstResult();
  SpeculationStats stats() const;
  /// The lock-free "spec.*" counters.
  struct {
    obs::Counter Queued, Completed, Dropped, DedupedRequests,
        InFlightInterpreted, Promoted, Failed;
    /// Speculative compiles whose signature came from observation (live
    /// or persisted) rather than the backward-hint guess.
    obs::Counter ObservedSigCompiles;
  } Spec;

private:
  struct Task {
    uint64_t Seq;              ///< the queue's key, known to the task body
    ThreadPool::TaskId PoolId; ///< what promote() and cancel() take
    TaskKind Kind;
    std::string Name;
    bool Started = false;
  };

  bool enqueueLocked(TaskKind Kind, const std::string &Name,
                     std::function<void()> Body);
  std::vector<Task>::const_iterator compileTask(const std::string &Name) const;
  bool idle(bool WithSaves) const;

  Repository &Repo;
  std::unique_ptr<ThreadPool> Owned;
  /// Owned.get() or the shared pool; null once shut down. Written only on
  /// the engine thread, while no worker of this queue can read it.
  ThreadPool *Pool = nullptr;
  Timer Birth; ///< the zero point of TimeToFirstResultSeconds

  mutable std::mutex Mutex;
  std::condition_variable IdleCv;
  // Guarded by Mutex.
  bool Draining = false;
  std::vector<Task> Tasks;
  uint64_t LastTaskSeq = 0;
  std::unordered_map<std::string, FnState> FnStates;
  double BackgroundSeconds = 0;
  double TimeToFirstResult = -1;
};

} // namespace majic

#endif // MAJIC_ENGINE_COMPILEQUEUE_H
