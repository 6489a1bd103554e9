//===- tests/AsyncCompileTest.cpp - Background speculative compilation ----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The asynchronous speculation subsystem (ISSUE 1): the worker pool, the
// thread-safe repository under concurrent lookup/insert, publication
// ordering against invalidation, and drain determinism. Run this suite
// under -DMAJIC_SANITIZE=thread to certify the concurrent paths.
//
//===----------------------------------------------------------------------===//

#include "engine/CompileQueue.h"
#include "engine/Engine.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace majic;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.size(), 3u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.enqueue([&Count] { Count.fetch_add(1); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, DestructorFinishesQueuedWork) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 50; ++I)
      Pool.enqueue([&Count] { Count.fetch_add(1); });
  } // ~ThreadPool drains the queue before joining
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool Pool(2);
  Pool.waitIdle(); // must not hang
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<bool> Ran{false};
  Pool.enqueue([&Ran] { Ran.store(true); });
  Pool.waitIdle();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPool, PromoteMovesQueuedTaskToFront) {
  ThreadPool Pool(1);
  Pool.setPaused(true); // build a backlog no worker can touch yet
  std::mutex M;
  std::vector<char> Order;
  auto Record = [&](char C) {
    return [&Order, &M, C] {
      std::lock_guard<std::mutex> Lock(M);
      Order.push_back(C);
    };
  };
  Pool.enqueue(Record('A'));
  Pool.enqueue(Record('B'));
  ThreadPool::TaskId IdC = Pool.enqueue(Record('C'));
  EXPECT_TRUE(Pool.promote(IdC));
  Pool.setPaused(false);
  Pool.waitIdle();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], 'C'); // promoted ahead of the FIFO backlog
  EXPECT_EQ(Order[1], 'A');
  EXPECT_EQ(Order[2], 'B');
}

TEST(ThreadPool, PromoteAfterCompletionReturnsFalse) {
  ThreadPool Pool(1);
  ThreadPool::TaskId Id = Pool.enqueue([] {});
  Pool.waitIdle();
  EXPECT_FALSE(Pool.promote(Id)); // already ran: nothing left to move
  EXPECT_FALSE(Pool.promote(Id + 1000)); // never existed
}

//===----------------------------------------------------------------------===//
// Repository under concurrency
//===----------------------------------------------------------------------===//

CompiledObject makeObj(const std::string &Name, TypeSignature Sig) {
  CompiledObject Obj;
  Obj.FunctionName = Name;
  Obj.Sig = std::move(Sig);
  Obj.Code = std::make_shared<IRFunction>();
  return Obj;
}

TEST(RepositoryConcurrency, ConcurrentLookupInsertInvalidate) {
  Repository R;
  constexpr int kWriters = 3, kReaders = 3, kRounds = 400;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;

  for (int W = 0; W != kWriters; ++W)
    Threads.emplace_back([&R, &Go, W] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I != kRounds; ++I) {
        // Alternate fresh signatures (vector growth), replacements of a
        // fixed signature, and whole-function invalidation.
        R.insert(makeObj("f", TypeSignature({Type::constant(I % 17)})));
        R.insert(makeObj("f", TypeSignature::generic(1)));
        if (I % 50 == 49 && W == 0)
          R.invalidate("f");
        R.insert(makeObj("g" + std::to_string(W), TypeSignature::generic(1)));
      }
    });

  std::atomic<uint64_t> SeenHits{0};
  for (int Rd = 0; Rd != kReaders; ++Rd)
    Threads.emplace_back([&R, &Go, &SeenHits] {
      while (!Go.load())
        std::this_thread::yield();
      TypeSignature Call({Type::ofValue(Value::intScalar(3))});
      for (int I = 0; I != kRounds; ++I) {
        CompiledObjectPtr Hit = R.lookup("f", Call);
        if (Hit) {
          // The handle stays valid regardless of concurrent replacement.
          EXPECT_NE(Hit->Code, nullptr);
          SeenHits.fetch_add(1);
        }
        (void)R.versions("f");
        (void)R.totalObjects();
      }
    });

  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  // Counter bookkeeping is consistent: every reader round either hit or
  // missed, and the split miss kinds sum to the combined counter.
  EXPECT_EQ(R.lookupHits(), SeenHits.load());
  EXPECT_EQ(R.lookupMisses() + R.lookupHits(),
            static_cast<uint64_t>(kReaders) * kRounds);
  EXPECT_EQ(R.lookupMisses(),
            R.lookupMissesNoFunction() + R.lookupMissesNoSafeVersion());
}

//===----------------------------------------------------------------------===//
// CompileQueue: the generation rule, without a pool or threads
//===----------------------------------------------------------------------===//

uint64_t generationOf(const CompileQueue &Q, const std::string &Name) {
  return Q.read(Name, [](const FnState &S) { return S.Generation; });
}

TEST(CompileQueueTest, FailureAtSupersededGenerationDoesNotQuarantine) {
  Repository Repo;
  obs::MetricsRegistry Metrics;
  CompileQueue Q(Repo, Metrics, nullptr, 0);
  auto Quarantined = [&] {
    return Q.read("f", [](const FnState &S) { return S.Quarantined; });
  };
  Q.startGeneration("f", 1);
  uint64_t Old = generationOf(Q, "f");
  Q.startGeneration("f", 2); // a reload while the compile ran
  Q.noteCompileFailure("f", Old);
  EXPECT_FALSE(Quarantined());
  EXPECT_EQ(Q.quarantineCount(), 0u);
  EXPECT_EQ(Q.stats().Failed, 1u); // counted, though not quarantined

  Q.noteCompileFailure("f", generationOf(Q, "f"));
  EXPECT_TRUE(Quarantined());
  EXPECT_EQ(Q.quarantineCount(), 1u);
  Q.startGeneration("f", 3); // new source, new chance
  EXPECT_FALSE(Quarantined());
}

TEST(CompileQueueTest, PublishAtSupersededGenerationIsRefused) {
  Repository Repo;
  obs::MetricsRegistry Metrics;
  CompileQueue Q(Repo, Metrics, nullptr, 0);
  TypeSignature Sig = TypeSignature::generic(1);
  Q.startGeneration("f", 1);
  uint64_t Old = generationOf(Q, "f");
  Q.startGeneration("f", 2);
  EXPECT_EQ(Q.publish(makeObj("f", Sig), Old), nullptr);
  EXPECT_EQ(Repo.versionCount("f"), 0u);
  EXPECT_FALSE(Q.setNative("f", Sig, {NativeVersion::State::Failed, nullptr},
                           Old));
  EXPECT_FALSE(Q.read("f", [&](const FnState &S) {
    return S.nativeModule(Sig).has_value();
  }));

  uint64_t Cur = generationOf(Q, "f");
  EXPECT_NE(Q.publish(makeObj("f", Sig), Cur), nullptr);
  EXPECT_EQ(Repo.versionCount("f"), 1u);
  // The native version is set under the hash of the source it came from.
  EXPECT_EQ(Q.setNative("f", Sig, {NativeVersion::State::Failed, nullptr},
                        Cur),
            std::optional<uint64_t>(2));
  // A new generation retires what the old one published.
  Q.startGeneration("f", 3);
  EXPECT_EQ(Repo.versionCount("f"), 0u);
  EXPECT_FALSE(Q.read("f", [&](const FnState &S) {
    return S.nativeModule(Sig).has_value();
  }));
}

TEST(CompileQueueTest, RemovalSetsTombstoneAndReregistrationClearsIt) {
  Repository Repo;
  obs::MetricsRegistry Metrics;
  CompileQueue Q(Repo, Metrics, nullptr, 0);
  auto Erased = [&] {
    return Q.read("f", [](const FnState &S) { return S.Erased; });
  };
  auto Hash = [&] {
    return Q.read("f", [](const FnState &S) { return S.SrcHash; });
  };
  EXPECT_FALSE(Erased()); // never registered: no tombstone either
  Q.startGeneration("f", 7);
  Q.setObservedSignature("f", TypeSignature::generic(1));
  EXPECT_FALSE(Erased());
  EXPECT_EQ(Hash(), std::optional<uint64_t>(7));

  uint64_t Before = generationOf(Q, "f");
  Q.startGeneration("f", std::nullopt); // the source was removed
  EXPECT_TRUE(Erased());
  EXPECT_EQ(Hash(), std::nullopt);
  EXPECT_GT(generationOf(Q, "f"), Before);
  EXPECT_FALSE(Q.read("f", [](const FnState &S) { return S.observed(1); }));

  Q.startGeneration("f", 8); // defined again
  EXPECT_FALSE(Erased());
  EXPECT_EQ(Hash(), std::optional<uint64_t>(8));
}

TEST(CompileQueueTest, WithoutPoolCallersWorkSynchronously) {
  Repository Repo;
  obs::MetricsRegistry Metrics;
  CompileQueue Q(Repo, Metrics, nullptr, 0);
  EXPECT_FALSE(Q.hasPool());
  Q.startGeneration("f", 1);
  EXPECT_FALSE(Q.enqueue(CompileQueue::TaskKind::Save, "f", [] {}));
  EXPECT_FALSE(Q.enqueueCompile("f", [](uint64_t) { return true; }));
  EXPECT_EQ(Q.stats().Queued + Q.stats().Failed, 0u);
  // A native build is entered Pending and handed back to build here, at
  // the current generation.
  TypeSignature Sig = TypeSignature::generic(1);
  EXPECT_EQ(Q.enqueueNative("f", Sig, [](uint64_t) {}),
            std::optional<uint64_t>(generationOf(Q, "f")));
  auto Version = Q.read("f", [&](const FnState &S) {
    return S.nativeModule(Sig);
  });
  ASSERT_TRUE(Version.has_value());
  EXPECT_EQ(*Version, nullptr);
  Q.drain(/*WithSaves=*/true); // nothing to wait for
}

//===----------------------------------------------------------------------===//
// Engine background speculation
//===----------------------------------------------------------------------===//

const char *kCountdownV1 = "function s = countdown(n)\ns = 0;\n"
                           "for k = 1:n\ns = s + k;\nend\n";
const char *kCountdownV2 = "function s = countdown(n)\ns = 0;\n"
                           "for k = 1:n\ns = s + 2 * k;\nend\n";

TEST(EngineAsync, SpeculateAsyncPublishesAfterDrain) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 2;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  ASSERT_TRUE(E.speculateAsync("countdown"));
  E.drainCompiles();

  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Queued, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Dropped, 0u);
  ASSERT_EQ(E.repository().versionCount("countdown"), 1u);
  EXPECT_EQ(E.repository().versions("countdown").front()->From,
            CompiledObject::Origin::Speculative);

  // The published object serves the matching invocation: no JIT compile.
  auto R = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                          SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
}

TEST(EngineAsync, InFlightRequestsAreDeduplicated) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  unsigned Queued = 0;
  for (int I = 0; I != 8; ++I)
    Queued += E.speculateAsync("countdown") ? 1 : 0;
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  // At least the first request queued; every request that found the same
  // signature still in flight was deduplicated, and the bookkeeping adds
  // up exactly.
  EXPECT_GE(Queued, 1u);
  EXPECT_EQ(S.Queued, Queued);
  EXPECT_EQ(S.Queued + S.DedupedRequests, 8u);
  EXPECT_EQ(S.Completed, S.Queued);
}

TEST(EngineAsync, InvalidationDropsInFlightResults) {
  // Reloading a function while its speculative compile is in flight must
  // never publish the stale object: after the drain, the invocation sees
  // only code compiled from the new source. Repeat to give the race a
  // chance to bite under TSan.
  for (int Round = 0; Round != 25; ++Round) {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = 2;
    Engine E(O);
    ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
    E.speculateAsync("countdown");
    // Immediately shadow with v2 (sum of 2k, not k): bumps the source
    // generation and invalidates published v1 code.
    ASSERT_TRUE(E.addSource("countdown", kCountdownV2));
    E.drainCompiles();

    auto R = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                            SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), 110) << "round " << Round;
    for (const CompiledObjectPtr &Obj : E.repository().versions("countdown"))
      EXPECT_NE(Obj->Code, nullptr);
  }
}

TEST(EngineAsync, DrainedResultsMatchSynchronousSpeculation) {
  // With a fixed RandSeed, background speculation + drain produces the
  // same numeric results as the synchronous pre-async path.
  const char *Source = "function y = noisy(n)\ny = 0;\n"
                       "for k = 1:n\ny = y + rand() * k;\nend\n";
  auto Run = [&](unsigned Threads) {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = Threads;
    O.RandSeed = 0xfeedbeef;
    Engine E(O);
    EXPECT_TRUE(E.addSource("noisy", Source));
    if (Threads > 0) {
      EXPECT_TRUE(E.speculateAsync("noisy"));
      E.drainCompiles();
    } else {
      EXPECT_TRUE(E.precompileSpeculative("noisy"));
    }
    auto R = E.callFunction("noisy", {makeValue(Value::intScalar(50))}, 1,
                            SourceLoc());
    EXPECT_EQ(E.jitCompiles(), 0u); // speculation hit in both modes
    return R[0]->scalarValue();
  };
  double Sync = Run(0);
  double Async = Run(2);
  EXPECT_DOUBLE_EQ(Sync, Async);
}

TEST(EngineAsync, FirstCallDuringCompileInterpretsAndLaterCallsHit) {
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
  E.speculateAsync("countdown");
  // Whether or not the worker finished yet, the result is correct and no
  // JIT compile is wasted while the speculative compile is in flight.
  auto R1 = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                           SourceLoc());
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
  E.drainCompiles();
  auto R2 = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                           SourceLoc());
  EXPECT_DOUBLE_EQ(R2[0]->scalarValue(), 55);
  EXPECT_EQ(E.jitCompiles(), 0u);
  // The published object (not a JIT one) now serves calls.
  ASSERT_EQ(E.repository().versionCount("countdown"), 1u);
  EXPECT_EQ(E.repository().versions("countdown").front()->From,
            CompiledObject::Origin::Speculative);
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_GE(S.TimeToFirstResultSeconds, 0.0);
}

TEST(EngineAsync, InvocationPromotesQueuedSpeculation) {
  // A call that misses on a function whose speculative compile is still
  // queued is the strongest priority signal there is: the entry jumps to
  // the front of the queue instead of waiting out the FIFO backlog.
  const char *Fns[] = {"aaa", "bbb", "ccc"};
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  for (const char *Name : Fns)
    ASSERT_TRUE(E.addSource(
        Name, "function y = " + std::string(Name) + "(x)\ny = x + 1;\n"));

  E.pauseBackgroundCompiles(); // freeze the worker so the queue is stable
  for (const char *Name : Fns)
    ASSERT_TRUE(E.speculateAsync(Name));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"aaa", "bbb", "ccc"}));

  // Explicit promotion moves ccc to the front...
  EXPECT_TRUE(E.promoteSpeculation("ccc"));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"ccc", "aaa", "bbb"}));
  // ...and an actual invocation of bbb promotes it implicitly (the call
  // itself interprets, since the compile hasn't finished).
  auto R =
      E.callFunction("bbb", {makeValue(Value::intScalar(4))}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5);
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"bbb", "ccc", "aaa"}));

  // Promotion of functions that are not queued reports false.
  EXPECT_FALSE(E.promoteSpeculation("nope"));

  E.resumeBackgroundCompiles();
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Completed, 3u);
  EXPECT_EQ(S.Promoted, 2u);
  EXPECT_TRUE(E.queuedSpeculations().empty());
  // Once drained nothing is queued, so promotion is a no-op again.
  EXPECT_FALSE(E.promoteSpeculation("ccc"));
}

TEST(EngineAsync, SnoopOrdersNeverRunBySourceRecency) {
  // Never-run functions tie at zero invocations, so the ranked queue falls
  // back to source recency: the file the user saved last speculates first.
  namespace fs = std::filesystem;
  std::string Dir = ::testing::TempDir() + "/majic_async_rank_mtime";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  auto Now = fs::file_time_type::clock::now();
  const struct {
    const char *Name;
    std::chrono::hours Age;
  } Files[] = {{"aa", std::chrono::hours(3)},
               {"bb", std::chrono::hours(2)},
               {"cc", std::chrono::hours(1)}};
  for (const auto &F : Files) {
    std::string Path = Dir + "/" + F.Name + ".m";
    std::ofstream(Path) << "function y = " << F.Name << "(x)\ny = x + 1;\n";
    fs::last_write_time(Path, Now - F.Age);
  }

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  E.pauseBackgroundCompiles();
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  // Newest source first: cc (1h old), bb (2h), aa (3h).
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"cc", "bb", "aa"}));
  E.resumeBackgroundCompiles();
  E.drainCompiles();
}

TEST(EngineAsync, SnoopOrdersHotFirstAndPromotionStillWins) {
  // Once the profile has invocation counts, they dominate the ranking -
  // even over source recency - and explicit promotion still reorders the
  // ranked queue.
  namespace fs = std::filesystem;
  std::string Dir = ::testing::TempDir() + "/majic_async_rank_hot";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  auto Write = [&](const char *Name, std::chrono::hours Age) {
    std::string Path = Dir + "/" + Name + std::string(".m");
    std::ofstream(Path) << "function y = " << Name << "(x)\ny = x + 1;\n";
    fs::last_write_time(Path, fs::file_time_type::clock::now() - Age);
  };
  Write("aa", std::chrono::hours(6));
  Write("bb", std::chrono::hours(5));
  Write("cc", std::chrono::hours(4));

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  Engine E(O);
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  E.drainCompiles();

  // The session's workload: bb is hot, aa lukewarm, cc never run.
  for (int I = 0; I != 3; ++I)
    E.callFunction("bb", {makeValue(Value::intScalar(1))}, 1, SourceLoc());
  E.callFunction("aa", {makeValue(Value::intScalar(1))}, 1, SourceLoc());

  // Touch every file - cc most recently, so recency alone would put the
  // never-run cc first. Invocation counts must win instead.
  Write("aa", std::chrono::hours(3));
  Write("bb", std::chrono::hours(2));
  Write("cc", std::chrono::hours(1));
  E.pauseBackgroundCompiles();
  EXPECT_EQ(E.snoop(), 3u);
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"bb", "aa", "cc"}));

  // Promotion of the coldest entry overrides the ranking; the rest keep
  // their relative hot-first order.
  EXPECT_TRUE(E.promoteSpeculation("cc"));
  EXPECT_EQ(E.queuedSpeculations(),
            (std::vector<std::string>{"cc", "bb", "aa"}));
  E.resumeBackgroundCompiles();
  E.drainCompiles();
  EXPECT_TRUE(E.queuedSpeculations().empty());
}

TEST(EngineAsync, ShutdownOnPausedSharedPoolCancelsEveryTaskKind) {
  // A session leaving a shared pool takes all of its queued work with it -
  // compiles, store saves and native builds alike - without waiting on the
  // pool (the service pauses it when shedding load) and without leaving a
  // task that would later run against the freed engine.
  std::string Dir = ::testing::TempDir() + "/majic_async_shutdown";
  std::filesystem::remove_all(Dir);
  ThreadPool Pool(1, ThreadPool::Priority::Idle);
  Pool.setPaused(true);
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.SharedSpecPool = &Pool;
    O.RepoDir = Dir;
    O.NativeTier = true;
    O.NativeHotThreshold = 1;
    Engine E(O);
    for (std::string Name : {"aa", "bb", "cc"})
      ASSERT_TRUE(
          E.addSource(Name, "function y = " + Name + "(x)\ny = x + 1;\n"));
    ASSERT_TRUE(E.speculateAsync("aa"));
    ASSERT_TRUE(E.speculateAsync("bb"));
    // The foreground compile queues its store save; with a usable C
    // compiler the call also crosses the hotness threshold and queues a
    // native build. The call itself is served by the VM.
    auto R =
        E.callFunction("cc", {makeValue(Value::intScalar(4))}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 5);
    size_t Queued = E.nativeTierAvailable() ? 4 : 3;
    EXPECT_EQ(Pool.queueDepth(), Queued);

    E.shutdown(); // returns although the pool will not run anything
    EXPECT_EQ(Pool.queueDepth(), 0u);
    EXPECT_EQ(E.speculationStats().Dropped, 2u);
    EXPECT_EQ(E.repoStoreStats().Saved, 0u);
    EXPECT_EQ(E.nativeCompiles(), 0u);
  }
  // Nothing is left to run against the destroyed engine (ASan would see
  // it).
  Pool.setPaused(false);
  Pool.waitIdle();
  EXPECT_EQ(Pool.metricsSink().Finished->value(), 0u);
  std::filesystem::remove_all(Dir);
}

TEST(EngineAsync, DrainCompilesLeavesSavesAndShutdownPersistsThem) {
  // The ledger's two barriers: drainCompiles() waits for compiles and
  // native builds only, so a foreground compile's store save may still be
  // queued when it returns. Destroying the engine drains its own (paused)
  // pool, so the save lands and the next engine warm-starts from it.
  std::string Dir = ::testing::TempDir() + "/majic_async_barriers";
  std::filesystem::remove_all(Dir);
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 1;
  O.RepoDir = Dir;
  {
    Engine E(O);
    E.pauseBackgroundCompiles();
    ASSERT_TRUE(E.addSource("countdown", kCountdownV1));
    auto R = E.callFunction("countdown", {makeValue(Value::intScalar(10))}, 1,
                            SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 55);
    EXPECT_EQ(E.jitCompiles(), 1u);
    E.drainCompiles(); // returns although the save cannot run
    EXPECT_EQ(E.metrics().gauge("pool.spec.queue_depth").value(), 1);
    EXPECT_EQ(E.repoStoreStats().Saved, 0u);
  }
  Engine Next(O);
  EXPECT_EQ(Next.repoStoreStats().Loaded, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(EngineAsync, NativeBuildsRacingReloadsPublishCleanly) {
  // Workers publish native versions while the engine thread reads them and
  // reloads the function. The compile fault fires before cc runs, so every
  // build publishes Failed and nothing is dlopen'd: what ThreadSanitizer
  // sees is the engine's own bookkeeping.
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 1;
  O.NativeTier = true;
  O.NativeHotThreshold = 1;
  Engine E(O);
  if (!E.nativeTierAvailable())
    GTEST_SKIP() << "no C compiler on host";
  faults::reset();
  faults::armEvery(faults::Site::NativeCompile, 1);
  for (int Round = 0; Round != 20; ++Round) {
    bool V2 = Round % 2;
    ASSERT_TRUE(E.addSource("countdown", V2 ? kCountdownV2 : kCountdownV1));
    for (int N = 1; N <= 3; ++N) {
      auto R = E.callFunction("countdown", {makeValue(Value::intScalar(N))},
                              1, SourceLoc());
      double Sum = N * (N + 1) / 2;
      ASSERT_DOUBLE_EQ(R[0]->scalarValue(), V2 ? 2 * Sum : Sum)
          << "round " << Round;
    }
  }
  E.drainCompiles();
  EXPECT_GT(faults::stats(faults::Site::NativeCompile).Fired, 0u);
  faults::reset();
  EXPECT_EQ(E.nativeCompiles(), 0u);
  EXPECT_EQ(E.nativeHits(), 0u);
  EXPECT_GT(E.nativeFailures(), 0u);
}

TEST(EngineAsync, SnoopQueuesAndStatsAddUp) {
  std::string Dir = ::testing::TempDir() + "/majic_async_snoop";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  for (const char *Name : {"aa", "bb", "cc"}) {
    std::ofstream F(Dir + "/" + Name + std::string(".m"));
    F << "function y = " << Name << "(x)\ny = x + 1;\n";
  }
  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 2;
  Engine E(O);
  E.watchDirectory(Dir);
  EXPECT_EQ(E.snoop(), 3u);
  E.drainCompiles();
  SpeculationStats S = E.speculationStats();
  EXPECT_EQ(S.Queued, 3u);
  EXPECT_EQ(S.Completed + S.Dropped, 3u);
  EXPECT_EQ(E.repository().totalObjects(), S.Completed);
  EXPECT_GT(S.BackgroundCompileSeconds, 0.0);
}

} // namespace
