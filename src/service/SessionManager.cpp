//===- service/SessionManager.cpp - Multi-session engine service ----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SessionManager.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace majic;

namespace {

uint64_t envU64(const char *Name) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return 0;
  return std::strtoull(V, nullptr, 10);
}

} // namespace

const char *majic::replyStatusName(Reply::Status S) {
  switch (S) {
  case Reply::Status::Ok:
    return "ok";
  case Reply::Status::Error:
    return "error";
  case Reply::Status::RejectedOverloaded:
    return "rejected-overloaded";
  case Reply::Status::SessionGone:
    return "session-gone";
  case Reply::Status::ShuttingDown:
    return "shutting-down";
  }
  return "?";
}

const char *majic::rejectReasonName(Reply::Reason R) {
  switch (R) {
  case Reply::Reason::None:
    return "none";
  case Reply::Reason::QueueFull:
    return "queue-full";
  case Reply::Reason::BudgetExceeded:
    return "budget-exceeded";
  case Reply::Reason::SessionCapNoIdle:
    return "session-cap-no-idle";
  }
  return "?";
}

SessionManager::SessionManager(ServiceOptions O) : Opts(std::move(O)) {
  if (!Opts.MaxSessions)
    Opts.MaxSessions = unsigned(envU64("MAJIC_MAX_SESSIONS"));
  if (!Opts.MaxSessions)
    Opts.MaxSessions = 64;
  if (!Opts.Workers) {
    unsigned HW = std::thread::hardware_concurrency();
    Opts.Workers = std::min(HW ? HW : 4u, 8u);
  }
  if (!Opts.SpecThreads)
    Opts.SpecThreads = 1;
  if (!Opts.MaxQueuedRequests)
    Opts.MaxQueuedRequests = 4096;
  if (!Opts.MaxQueuedPerSession)
    Opts.MaxQueuedPerSession = 256;
  if (!Opts.ShedQueuedRequests)
    Opts.ShedQueuedRequests = std::max(1u, Opts.MaxQueuedRequests / 2);
  if (!Opts.SessionLimits.MaxOps)
    Opts.SessionLimits.MaxOps = envU64("MAJIC_SESSION_MAX_OPS");
  if (!Opts.SessionLimits.MaxAllocBytes)
    Opts.SessionLimits.MaxAllocBytes = envU64("MAJIC_SESSION_MAX_ALLOC_BYTES");
  if (!Opts.SessionLimits.MaxWallMillis)
    Opts.SessionLimits.MaxWallMillis = envU64("MAJIC_SESSION_MAX_WALL_MILLIS");
  if (Opts.SessionDir.empty())
    if (const char *D = std::getenv("MAJIC_SESSION_DIR"))
      Opts.SessionDir = D;

  Inst.SessionsCreated = &Metrics.counter("service.sessions.created");
  Inst.SessionsRejected = &Metrics.counter("service.sessions.rejected");
  Inst.SessionsDestroyed = &Metrics.counter("service.sessions.destroyed");
  Inst.SessionsLive = &Metrics.gauge("service.sessions.live");
  Inst.ReqAccepted = &Metrics.counter("service.requests.accepted");
  Inst.ReqRejected = &Metrics.counter("service.requests.rejected");
  Inst.ReqCompleted = &Metrics.counter("service.requests.completed");
  Inst.ReqFailed = &Metrics.counter("service.requests.failed");
  Inst.ReqQueued = &Metrics.gauge("service.requests.queued");
  Inst.ShedEntered = &Metrics.counter("service.shed.entered");
  Inst.ShedExited = &Metrics.counter("service.shed.exited");
  Inst.ShedActive = &Metrics.gauge("service.shed.active");
  Inst.RequestSeconds = &Metrics.histogram("service.request.seconds");
  Inst.QueueSeconds = &Metrics.histogram("service.request.queue_seconds");
  Inst.Hibernates = &Metrics.counter("service.hibernates");
  Inst.HibernateFailures = &Metrics.counter("service.hibernate.failures");
  Inst.Resurrects = &Metrics.counter("service.resurrects");
  Inst.ResurrectCorrupt = &Metrics.counter("service.resurrect.corrupt");
  Inst.NoIdleRejects = &Metrics.counter("service.rejected.no_idle");
  Inst.SessionsHibernated = &Metrics.gauge("service.sessions.hibernated");
  Inst.HibernateSeconds = &Metrics.histogram("service.hibernate.seconds");
  Inst.ResurrectSeconds = &Metrics.histogram("service.resurrect.seconds");

  Cache = std::make_shared<SharedCodeCache>(Opts.SharedCacheCapacity);
  Cache->registerMetrics(Metrics);

  // Shared persistent repository: preload yesterday's compiles into the
  // cache, then persist tomorrow's through the publish hook. The preload
  // runs before the hook is installed so warm entries aren't rewritten.
  // Stored objects are keyed optimistic: serving *less* optimized code
  // under an optimistic key is always correct, never the reverse.
  if (!Opts.RepoDir.empty()) {
    Store = std::make_unique<RepoStore>(Opts.RepoDir);
    Store->sweepTemps();
    uint64_t CfgHash = Engine::sharedCacheConfigHash(sessionEngineOptions());
    for (RepoStore::Entry &E : Store->loadAll()) {
      std::string Key =
          SharedCodeCache::key(E.Obj.FunctionName, E.SourceHash, CfgHash,
                               E.Obj.Mode, /*Optimistic=*/true, E.Obj.Sig);
      auto Obj = std::make_shared<CompiledObject>(std::move(E.Obj));
      Cache->publish(Key, std::move(Obj), E.SourceHash);
      Store->noteAdopted();
    }
    Cache->setOnPublish(
        [S = Store.get()](const CompiledObjectPtr &Obj, uint64_t SrcHash) {
          S->save(*Obj, SrcHash);
        });
  }

  // Recovery sweep: before any traffic is admitted, clear torn temp files
  // a crashed save left behind and re-register every hibernated session
  // found on disk. A snapshot that turns out corrupt is only discovered -
  // and quarantined - at resurrect time; registration trusts nothing but
  // the file name. NextId advances past every recovered id so new
  // sessions can never collide with a hibernated one.
  if (!Opts.SessionDir.empty()) {
    Snapshots = std::make_unique<SnapshotStore>(Opts.SessionDir);
    Snapshots->sweepTemps();
    for (uint64_t Id : Snapshots->scan()) {
      auto S = std::make_shared<Session>();
      S->Id = Id;
      S->Hibernated = true;
      Sessions.emplace(Id, S);
      NextId = std::max(NextId, Id + 1);
    }
    Inst.SessionsHibernated->set(int64_t(hibernatedCountLocked()));
  }

  SpecPool =
      std::make_unique<ThreadPool>(Opts.SpecThreads, ThreadPool::Priority::Idle);

  Workers.reserve(Opts.Workers);
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

SessionManager::~SessionManager() { shutdown(); }

EngineOptions SessionManager::sessionEngineOptions() const {
  EngineOptions E = Opts.Session;
  E.Limits = Opts.SessionLimits;
  E.PerSessionLimits = true;
  E.SharedSpecPool = SpecPool.get(); // null during the preload hash; the
                                     // field is not part of the cfg hash
  E.SharedCache = Cache;
  E.EnvFallbacks = false; // N sessions must not race dumps into one file
  E.ComputeThreads = 1;   // request workers are the service's parallelism
  E.RepoDir.clear();      // persistence is service-wide, not per-session
  E.ProfileDir.clear();
  E.TracePath.clear();
  E.MetricsPath.clear();
  return E;
}

SessionId SessionManager::createSession() {
  // Build the engine outside the manager lock: creation cost must not
  // stall dispatch. The slot is only claimed under the lock afterwards.
  std::unique_ptr<Engine> Eng;
  try {
    faults::maybeThrow(faults::Site::SessionCreate);
    Eng = std::make_unique<Engine>(sessionEngineOptions());
  } catch (...) {
    Inst.SessionsRejected->inc();
    return 0;
  }

  SessionPtr S;
  {
    std::unique_lock<std::mutex> L(Mu);
    // At the cap, hibernate the LRU idle session to free a slot; the loop
    // re-checks because freeSlotLocked drops the lock and a concurrent
    // creator may claim the slot it freed.
    while (!Stopping && LiveEngines >= Opts.MaxSessions)
      if (!freeSlotLocked(L))
        break;
    if (Stopping || LiveEngines >= Opts.MaxSessions) {
      Inst.SessionsRejected->inc();
      S = nullptr;
    } else {
      S = std::make_shared<Session>();
      S->Id = NextId++;
      S->Eng = std::move(Eng);
      S->LastUsed = ++UseTick;
      ++LiveEngines;
      Sessions.emplace(S->Id, S);
      Inst.SessionsCreated->inc();
      Inst.SessionsLive->set(int64_t(LiveEngines));
    }
  }
  if (!S) {
    // Rejected after construction: tear the engine down off-lock.
    Eng.reset();
    return 0;
  }
  return S->Id;
}

bool SessionManager::destroySession(SessionId Id) {
  SessionPtr S;
  bool WasHibernated = false;
  {
    std::unique_lock<std::mutex> L(Mu);
    auto It = Sessions.find(Id);
    if (It == Sessions.end() || It->second->Closing)
      return false;
    S = It->second;
    S->Closing = true;
    // Accepted requests drain first - they were promised a Reply. The
    // session stays in the ready ring until its queue is empty. Busy also
    // covers an in-flight hibernate/resurrect of this session.
    DrainCv.wait(L, [&] {
      return (S->Queue.empty() && !S->Busy) || Stopping;
    });
    if (Stopping)
      return false; // shutdown() took over every session's teardown
    WasHibernated = S->Hibernated;
    if (S->Eng)
      --LiveEngines;
    Sessions.erase(Id);
    Inst.SessionsLive->set(int64_t(LiveEngines));
    Inst.SessionsHibernated->set(int64_t(hibernatedCountLocked()));
    Inst.SessionsDestroyed->inc();
  }
  // Engine teardown off-lock, on the caller's thread: it may wait out an
  // in-flight background compile on the shared pool, and that wait must
  // never hold up other sessions' dispatch.
  if (S->Eng)
    S->Eng->shutdown();
  S.reset();
  // A destroyed session's snapshot must not resurrect as a ghost at the
  // next service start.
  if (WasHibernated && Snapshots)
    Snapshots->remove(Id);
  return true;
}

std::future<Reply> SessionManager::submit(SessionId Id, std::string Text) {
  // Every rejection is counted once and answered by an already-resolved
  // future; accepted requests return the queued request's future instead.
  auto reject = [this](Reply::Status St,
                       Reply::Reason Why = Reply::Reason::None) {
    Inst.ReqRejected->inc();
    std::promise<Reply> P;
    P.set_value({St, "", Why});
    return P.get_future();
  };

  std::unique_lock<std::mutex> L(Mu);
  if (Stopping)
    return reject(Reply::Status::ShuttingDown);
  auto It = Sessions.find(Id);
  if (It == Sessions.end() || It->second->Closing)
    return reject(Reply::Status::SessionGone);
  SessionPtr S = It->second;
  bool Faulted = false;
  try {
    faults::maybeThrow(faults::Site::Admission);
  } catch (...) {
    Faulted = true;
  }
  if (Faulted || QueuedTotal >= Opts.MaxQueuedRequests)
    return reject(Reply::Status::RejectedOverloaded, Reply::Reason::QueueFull);
  if (S->Queue.size() >= Opts.MaxQueuedPerSession)
    return reject(Reply::Status::RejectedOverloaded,
                  Reply::Reason::BudgetExceeded);

  // A request for a hibernated session resurrects it transparently -
  // after securing a live slot, hibernating someone else's idle session
  // if need be. Only when nothing is idle does admission reject, and the
  // reason says so: this rejection is retryable the moment any session
  // goes quiet. Busy means another thread's resurrect is already in
  // flight; just queue behind it.
  bool NeedResurrect = S->Hibernated && !S->Busy;
  if (NeedResurrect) {
    while (!Stopping && !S->Closing && S->Hibernated && !S->Busy &&
           LiveEngines >= Opts.MaxSessions)
      if (!freeSlotLocked(L))
        break;
    // freeSlotLocked drops the lock; every precondition needs a re-check.
    if (Stopping)
      return reject(Reply::Status::ShuttingDown);
    if (S->Closing)
      return reject(Reply::Status::SessionGone);
    NeedResurrect = S->Hibernated && !S->Busy;
    if (NeedResurrect && LiveEngines >= Opts.MaxSessions) {
      Inst.NoIdleRejects->inc();
      return reject(Reply::Status::RejectedOverloaded,
                    Reply::Reason::SessionCapNoIdle);
    }
  }

  Request R;
  R.Text = std::move(Text);
  std::future<Reply> F = R.Promise.get_future();
  S->Queue.push_back(std::move(R));
  ++QueuedTotal;
  S->LastUsed = ++UseTick;
  Inst.ReqAccepted->inc();
  Inst.ReqQueued->set(int64_t(QueuedTotal));
  if (NeedResurrect)
    resurrectLocked(L, S); // ends with enqueueReady(S)
  else
    enqueueReady(S);
  updateShedLocked();
  L.unlock();
  WorkCv.notify_one();
  return F;
}

bool SessionManager::interrupt(SessionId Id) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sessions.find(Id);
  if (It == Sessions.end() || !It->second->Eng)
    return false; // hibernated (or mid-move): nothing is running
  // Token-based and internally synchronized; only this session's program
  // stops at its next poll point.
  It->second->Eng->requestInterrupt();
  return true;
}

size_t SessionManager::liveSessions() const {
  std::lock_guard<std::mutex> L(Mu);
  return LiveEngines;
}

size_t SessionManager::hibernatedSessions() const {
  std::lock_guard<std::mutex> L(Mu);
  return hibernatedCountLocked();
}

size_t SessionManager::hibernatedCountLocked() const {
  size_t N = 0;
  for (const auto &[Id, S] : Sessions) {
    (void)Id;
    N += S->Hibernated;
  }
  return N;
}

size_t SessionManager::queuedRequests() const {
  std::lock_guard<std::mutex> L(Mu);
  return QueuedTotal;
}

bool SessionManager::shedding() const {
  std::lock_guard<std::mutex> L(Mu);
  return SheddingFlag;
}

void SessionManager::setWorkersPaused(bool Paused) {
  {
    std::lock_guard<std::mutex> L(Mu);
    WorkersPausedFlag = Paused;
  }
  if (!Paused)
    WorkCv.notify_all();
}

void SessionManager::enqueueReady(const SessionPtr &S) {
  if (S->InReady || S->Busy || S->Queue.empty())
    return;
  S->InReady = true;
  Ready.push_back(S->Id);
}

void SessionManager::updateShedLocked() {
  // Speculation is the first load to go: pause the shared compile pool
  // when the backlog crosses the threshold, resume when it halves.
  // Running compiles finish (pausing is cooperative); queued ones hold,
  // freeing the idle workers' cores for the request backlog.
  if (!SheddingFlag && QueuedTotal >= Opts.ShedQueuedRequests) {
    SheddingFlag = true;
    SpecPool->setPaused(true);
    Inst.ShedEntered->inc();
    Inst.ShedActive->set(1);
  } else if (SheddingFlag && QueuedTotal <= Opts.ShedQueuedRequests / 2) {
    SheddingFlag = false;
    SpecPool->setPaused(false);
    Inst.ShedExited->inc();
    Inst.ShedActive->set(0);
  }
}

bool SessionManager::freeSlotLocked(std::unique_lock<std::mutex> &L) {
  if (!Snapshots || !Snapshots->usable())
    return false;
  // The LRU *idle* session: engine-resident, nothing queued, nothing
  // running, not being destroyed. Sessions mid-request are never torn
  // out from under their worker.
  SessionPtr V;
  for (const auto &[Id, S] : Sessions) {
    (void)Id;
    if (!S->Eng || S->Busy || S->Closing || !S->Queue.empty())
      continue;
    if (!V || S->LastUsed < V->LastUsed)
      V = S;
  }
  if (!V)
    return false;

  // Busy claims the victim against dispatch, destroy and rival hibernate
  // passes; moving the engine out makes interrupt() a clean no-op.
  V->Busy = true;
  std::unique_ptr<Engine> Eng = std::move(V->Eng);
  L.unlock();
  Timer T;
  ser::WorkspaceImage Img = Eng->workspaceImage();
  bool Saved = Snapshots->save(V->Id, Img);
  if (Saved) {
    Eng->shutdown();
    Eng.reset();
  }
  double Secs = T.seconds();
  L.lock();
  V->Busy = false;
  if (!Saved) {
    // Failed saves must not strand the victim: it keeps its engine and
    // stays fully live, and the caller reports the cap instead.
    V->Eng = std::move(Eng);
    Inst.HibernateFailures->inc();
    enqueueReady(V); // requests may have queued during the attempt
  } else {
    V->Hibernated = true;
    --LiveEngines;
    Inst.Hibernates->inc();
    Inst.HibernateSeconds->observe(Secs);
    Inst.SessionsLive->set(int64_t(LiveEngines));
    Inst.SessionsHibernated->set(int64_t(hibernatedCountLocked()));
    if (!V->Queue.empty() && !Stopping) {
      // A request slipped in while the snapshot was being written. It was
      // accepted - it must run - so the hibernation is immediately undone
      // (the slot this call freed goes right back to its old owner, and
      // the caller's retry loop looks for another victim).
      resurrectLocked(L, V);
    }
  }
  if (V->Closing && V->Queue.empty() && !V->Busy)
    DrainCv.notify_all();
  return Saved;
}

void SessionManager::resurrectLocked(std::unique_lock<std::mutex> &L,
                                     const SessionPtr &S) {
  S->Busy = true;
  L.unlock();
  Timer T;
  std::unique_ptr<Engine> Eng;
  std::string Loud;
  bool Corrupt = false;
  try {
    faults::maybeThrow(faults::Site::SessionCreate);
    Eng = std::make_unique<Engine>(sessionEngineOptions());
    ser::WorkspaceImage Img;
    switch (Snapshots->load(S->Id, Img)) {
    case SnapshotStore::LoadStatus::Ok:
      try {
        Eng->restoreWorkspaceImage(Img);
        // The snapshot must not outlive the live state it described: if
        // it did, a crash after the session mutates could resurrect the
        // past. Deleting it here, before any request runs, closes that
        // window (SnapshotStore's load-site kill point sits on either
        // side for the crash sweep).
        Snapshots->remove(S->Id);
        faults::killPoint(faults::Site::SessionSnapshotLoad);
      } catch (const std::exception &E) {
        // The ladder vouched for the bytes but the replay failed - a
        // writer bug, handled like corruption: evidence kept, loud
        // structured error, session restarts empty.
        Corrupt = true;
        Loud = format("??? resurrect: workspace snapshot for session %llu "
                      "failed to replay (%s); session restarts empty\n",
                      (unsigned long long)S->Id, E.what());
        Snapshots->remove(S->Id);
        Eng = std::make_unique<Engine>(sessionEngineOptions());
      }
      break;
    case SnapshotStore::LoadStatus::Missing:
      // No snapshot (vanished, or format turnover): a fresh empty
      // session, silently.
      break;
    case SnapshotStore::LoadStatus::Corrupt:
      // The store already quarantined the file and shouted to stderr;
      // the structured reply error makes the client hear it too.
      Corrupt = true;
      Loud = format("??? resurrect: workspace snapshot for session %llu "
                    "failed validation; quarantined, session restarts "
                    "empty\n",
                    (unsigned long long)S->Id);
      break;
    }
  } catch (const std::exception &E) {
    // Engine construction failed (injected session-create fault, OOM):
    // the snapshot stays on disk and the session stays hibernated, so a
    // later submit retries the whole resurrect. Queued requests fail
    // loudly through the worker's no-engine path below.
    Eng.reset();
    Loud = format("??? resurrect: session %llu engine construction failed "
                  "(%s)\n",
                  (unsigned long long)S->Id, E.what());
  }
  double Secs = T.seconds();
  L.lock();
  S->Busy = false;
  S->PendingError = Loud;
  if (Eng) {
    S->Eng = std::move(Eng);
    S->Hibernated = false;
    ++LiveEngines;
    Inst.Resurrects->inc();
    if (Corrupt)
      Inst.ResurrectCorrupt->inc();
    Inst.ResurrectSeconds->observe(Secs);
    Inst.SessionsLive->set(int64_t(LiveEngines));
    Inst.SessionsHibernated->set(int64_t(hibernatedCountLocked()));
  }
  enqueueReady(S);
  if (S->Closing && S->Queue.empty())
    DrainCv.notify_all();
}

Reply SessionManager::runRequest(Session &S, const std::string &Text) {
  try {
    faults::maybeThrow(faults::Site::BudgetCheck);
  } catch (const std::exception &E) {
    return {Reply::Status::Error, std::string("??? ") + E.what() + "\n"};
  }
  std::string Out;
  try {
    Out = S.Eng->runScript(Text);
  } catch (const std::exception &E) {
    S.Eng->clearInterrupt();
    // runScript reports program errors in its output; anything escaping
    // is unexpected - contain it to this reply.
    return {Reply::Status::Error, std::string("??? ") + E.what() + "\n"};
  }
  // An interrupt kills at most the request it raced with; the next one
  // starts clean.
  S.Eng->clearInterrupt();
  // The engine renders program errors as "??? <message>" lines.
  bool HasError =
      Out.rfind("??? ", 0) == 0 || Out.find("\n??? ") != std::string::npos;
  return {HasError ? Reply::Status::Error : Reply::Status::Ok, std::move(Out)};
}

void SessionManager::workerLoop() {
  for (;;) {
    SessionPtr S;
    Request R;
    std::string Pending;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkCv.wait(L, [this] {
        return Stopping || (!WorkersPausedFlag && !Ready.empty());
      });
      if (Stopping)
        return;
      SessionId Id = Ready.front();
      Ready.pop_front();
      auto It = Sessions.find(Id);
      if (It == Sessions.end())
        continue; // destroyed while queued; its requests were drained
      S = It->second;
      S->InReady = false;
      if (S->Busy || S->Queue.empty())
        continue;
      R = std::move(S->Queue.front());
      S->Queue.pop_front();
      S->Busy = true;
      Pending = std::move(S->PendingError);
      S->PendingError.clear();
      --QueuedTotal;
      Inst.ReqQueued->set(int64_t(QueuedTotal));
      updateShedLocked();
    }

    Inst.QueueSeconds->observe(R.Queued.seconds());
    Timer Run;
    // A pending resurrect diagnostic preempts the request: a session
    // whose workspace was quarantined must fail its triggering request
    // with the structured error, never silently recompute on an empty
    // workspace. The no-engine case is a resurrect whose engine
    // construction failed; the request was accepted, so it still gets a
    // (loud) reply. Busy is ours, so reading S->Eng off-lock is safe.
    Reply Rep;
    if (!Pending.empty())
      Rep = {Reply::Status::Error, std::move(Pending)};
    else if (!S->Eng)
      Rep = {Reply::Status::Error,
             "??? session not resident and resurrect failed; retry\n"};
    else
      Rep = runRequest(*S, R.Text);
    Inst.RequestSeconds->observe(Run.seconds());
    (Rep.St == Reply::Status::Ok ? Inst.ReqCompleted : Inst.ReqFailed)->inc();

    bool MoreWork;
    {
      std::lock_guard<std::mutex> L(Mu);
      S->Busy = false;
      // Round-robin fairness: the session rejoins at the *tail*, so a
      // session with an endless stream of requests advances one request
      // per turn of the ring, never starving the others.
      enqueueReady(S);
      MoreWork = !Ready.empty();
      if (S->Closing && S->Queue.empty())
        DrainCv.notify_all();
    }
    R.Promise.set_value(std::move(Rep));
    if (MoreWork)
      WorkCv.notify_one();
  }
}

obs::MetricsSnapshot SessionManager::sampleMetrics() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Inst.SessionsLive->set(int64_t(LiveEngines));
    Inst.SessionsHibernated->set(int64_t(hibernatedCountLocked()));
    Inst.ReqQueued->set(int64_t(QueuedTotal));
    Inst.ShedActive->set(SheddingFlag ? 1 : 0);
  }
  return Metrics.snapshot();
}

std::string SessionManager::metricsJson() {
  sampleMetrics();
  return Metrics.json();
}

void SessionManager::shutdown() {
  std::vector<SessionPtr> Doomed;
  std::vector<Request> Orphans;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (ShutdownDone)
      return;
    ShutdownDone = true;
    Stopping = true;
    for (auto &[Id, S] : Sessions) {
      (void)Id;
      for (Request &R : S->Queue)
        Orphans.push_back(std::move(R));
      S->Queue.clear();
      Doomed.push_back(S);
    }
    Sessions.clear();
    Ready.clear();
    QueuedTotal = 0;
    LiveEngines = 0;
  }
  WorkCv.notify_all();
  DrainCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  // Promises resolve after the workers are gone: a request that was
  // *running* at shutdown still resolved through its worker; only
  // never-started ones land here.
  for (Request &R : Orphans) {
    Inst.ReqFailed->inc();
    R.Promise.set_value({Reply::Status::ShuttingDown, ""});
  }

  // Engine shutdown needs the shared pool's workers awake (it waits out
  // its in-flight compiles), so lift any shed pause first.
  if (SpecPool)
    SpecPool->setPaused(false);
  // Hibernated sessions have no engine to tear down; their snapshots stay
  // on disk, to be re-registered by the next service start's recovery
  // sweep - that durability is the point of hibernation.
  for (SessionPtr &S : Doomed) {
    if (S->Eng)
      S->Eng->shutdown();
    S.reset();
  }
  Doomed.clear();
  SpecPool.reset();

  if (!Opts.MetricsPath.empty()) {
    std::string Json = metricsJson();
    if (FILE *F = std::fopen(Opts.MetricsPath.c_str(), "w")) {
      std::fwrite(Json.data(), 1, Json.size(), F);
      std::fclose(F);
    }
  }
}
