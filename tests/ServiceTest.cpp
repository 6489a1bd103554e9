//===- tests/ServiceTest.cpp - Multi-session service tests -----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-session service contracts:
///
///  * Sharing: the second session hitting a (function, signature) another
///    session already compiled is served from the shared cache - a repo
///    hit, zero new compiles.
///
///  * Isolation: a session that trips its budget, quarantines a function,
///    is interrupted, or absorbs injected faults leaves every other
///    session's output bit-identical to a solo run.
///
///  * Admission: past the queue and session caps, requests and sessions
///    are rejected deterministically with explicit statuses; every
///    accepted request resolves.
///
///  * Degradation: overload sheds speculation first (shared compile pool
///    paused), recovers when the backlog drains, and service teardown
///    with queued work never loses an accepted request silently.
///
//===----------------------------------------------------------------------===//

#include "repo/SharedCache.h"
#include "service/SessionManager.h"
#include "service/SnapshotStore.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace majic;

namespace {

/// A function file submitted interactively (runScript registers it).
const char *kFibSrc = "function r = fib(n)\n"
                      "if n < 2\n r = n;\n else\n r = fib(n-1) + fib(n-2);\n"
                      "end\n";
const char *kCallFib = "x = fib(12)";

/// Deterministic numeric program used for bit-identity checks.
const char *kWorkSrc = "function r = work(n)\n"
                       "A = zeros(n, n);\n"
                       "for i = 1:n\n for j = 1:n\n"
                       "A(i, j) = sin(i * 0.37) + cos(j * 0.53);\n"
                       "end\n end\n"
                       "r = 0;\n"
                       "for i = 1:n\n for j = 1:n\n r = r + A(i, j) * A(j, i);\n"
                       "end\n end\n";
const char *kCallWork = "y = work(9)";

ServiceOptions baseOptions() {
  ServiceOptions O;
  O.Session.Policy = CompilePolicy::Jit;
  O.Workers = 2;
  O.SpecThreads = 1;
  return O;
}

Reply run(SessionManager &M, SessionId Id, const std::string &Text) {
  return M.submit(Id, Text).get();
}

/// The reference output of \p Call after \p Def, from a fresh solo session.
std::string soloOutput(const char *Def, const char *Call) {
  SessionManager M(baseOptions());
  SessionId Id = M.createSession();
  EXPECT_NE(Id, 0u);
  EXPECT_EQ(run(M, Id, Def).St, Reply::Status::Ok);
  Reply R = run(M, Id, Call);
  EXPECT_EQ(R.St, Reply::Status::Ok);
  return R.Output;
}

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

//===----------------------------------------------------------------------===//
// Sharing
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, SecondSessionIsServedFromSharedCache) {
  SessionManager M(baseOptions());
  SessionId A = M.createSession();
  ASSERT_NE(A, 0u);
  ASSERT_EQ(run(M, A, kFibSrc).St, Reply::Status::Ok);
  Reply RA = run(M, A, kCallFib);
  ASSERT_EQ(RA.St, Reply::Status::Ok);

  uint64_t Published = M.sharedCache().published();
  EXPECT_GE(Published, 1u); // session A's compile went into the cache
  uint64_t HitsBefore = M.sharedCache().hits();

  // Same source text, same call, different session: the compile must be
  // served from the cache - published stays put, hits move.
  SessionId B = M.createSession();
  ASSERT_NE(B, 0u);
  ASSERT_EQ(run(M, B, kFibSrc).St, Reply::Status::Ok);
  Reply RB = run(M, B, kCallFib);
  ASSERT_EQ(RB.St, Reply::Status::Ok);
  EXPECT_EQ(RB.Output, RA.Output);

  EXPECT_EQ(M.sharedCache().published(), Published)
      << "second session compiled fresh instead of reusing";
  EXPECT_GT(M.sharedCache().hits(), HitsBefore);
}

TEST_F(ServiceTest, DifferentSourceTextNeverShares) {
  SessionManager M(baseOptions());
  SessionId A = M.createSession(), B = M.createSession();
  ASSERT_EQ(run(M, A, "function r = f(n)\nr = n + 1;\n").St,
            Reply::Status::Ok);
  ASSERT_EQ(run(M, B, "function r = f(n)\nr = n + 2;\n").St,
            Reply::Status::Ok);
  Reply RA = run(M, A, "x = f(1)");
  Reply RB = run(M, B, "x = f(1)");
  ASSERT_EQ(RA.St, Reply::Status::Ok);
  ASSERT_EQ(RB.St, Reply::Status::Ok);
  // The source hash is in the cache key: B must not see A's f.
  EXPECT_NE(RA.Output, RB.Output);
  EXPECT_NE(RA.Output.find("2"), std::string::npos);
  EXPECT_NE(RB.Output.find("3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Isolation
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BudgetTrippedSessionLeavesOthersBitIdentical) {
  std::string Ref = soloOutput(kWorkSrc, kCallWork);

  ServiceOptions O = baseOptions();
  O.SessionLimits.MaxOps = 2000000; // plenty for work(9), not for the hog
  SessionManager M(O);
  SessionId Hog = M.createSession(), Victim = M.createSession();
  ASSERT_NE(Hog, 0u);
  ASSERT_NE(Victim, 0u);

  // The hog burns through its op budget; the error is its own.
  Reply RH = run(M, Hog, "s = 0;\nfor i = 1:10000000\n s = s + i;\nend\n");
  EXPECT_EQ(RH.St, Reply::Status::Error);
  EXPECT_NE(RH.Output.find("operation budget exceeded"), std::string::npos);

  ASSERT_EQ(run(M, Victim, kWorkSrc).St, Reply::Status::Ok);
  Reply RV = run(M, Victim, kCallWork);
  ASSERT_EQ(RV.St, Reply::Status::Ok);
  EXPECT_EQ(RV.Output, Ref);

  // The hog's session survives its own breach.
  Reply RH2 = run(M, Hog, "z = 41 + 1");
  EXPECT_EQ(RH2.St, Reply::Status::Ok);
  EXPECT_NE(RH2.Output.find("42"), std::string::npos);
}

TEST_F(ServiceTest, MemoryBreachIsContainedToItsSession) {
  std::string Ref = soloOutput(kWorkSrc, kCallWork);

  ServiceOptions O = baseOptions();
  O.SessionLimits.MaxAllocBytes = 8u << 20;
  SessionManager M(O);
  SessionId Hog = M.createSession(), Victim = M.createSession();

  Reply RH = run(M, Hog, "A = zeros(4000, 4000);");
  EXPECT_EQ(RH.St, Reply::Status::Error);
  EXPECT_NE(RH.Output.find("???"), std::string::npos);

  ASSERT_EQ(run(M, Victim, kWorkSrc).St, Reply::Status::Ok);
  Reply RV = run(M, Victim, kCallWork);
  ASSERT_EQ(RV.St, Reply::Status::Ok);
  EXPECT_EQ(RV.Output, Ref);
}

TEST_F(ServiceTest, InterruptKillsOnlyTheTargetedRequest) {
  std::string Ref = soloOutput(kWorkSrc, kCallWork);

  ServiceOptions O = baseOptions();
  O.Workers = 2;
  SessionManager M(O);
  SessionId Spinner = M.createSession(), Victim = M.createSession();

  std::future<Reply> Spin = M.submit(Spinner, "while 1\n x = 1;\nend\n");
  ASSERT_TRUE(M.interrupt(Spinner));
  Reply RS = Spin.get();
  EXPECT_EQ(RS.St, Reply::Status::Error);
  EXPECT_NE(RS.Output.find("interrupted"), std::string::npos);

  ASSERT_EQ(run(M, Victim, kWorkSrc).St, Reply::Status::Ok);
  Reply RV = run(M, Victim, kCallWork);
  ASSERT_EQ(RV.St, Reply::Status::Ok);
  EXPECT_EQ(RV.Output, Ref);

  // The interrupted session takes its next request cleanly.
  Reply RS2 = run(M, Spinner, "z = 1 + 1");
  EXPECT_EQ(RS2.St, Reply::Status::Ok);
}

TEST_F(ServiceTest, QuarantinedCompileIsContainedToItsSession) {
  std::string Ref = soloOutput(kWorkSrc, kCallWork);

  SessionManager M(baseOptions());
  SessionId Faulty = M.createSession(), Victim = M.createSession();

  // The first codegen in the process faults: that is Faulty's compile.
  // Its engine falls back to the interpreter (and quarantines the
  // function); the result is still correct, and Victim - whose compile
  // comes later, after the one-shot fault is spent - is untouched.
  ASSERT_EQ(run(M, Faulty, kFibSrc).St, Reply::Status::Ok);
  faults::armAt(faults::Site::CodeGen, 1);
  Reply RF = run(M, Faulty, kCallFib);
  faults::disarm(faults::Site::CodeGen);
  ASSERT_EQ(RF.St, Reply::Status::Ok);
  EXPECT_NE(RF.Output.find("144"), std::string::npos);

  ASSERT_EQ(run(M, Victim, kWorkSrc).St, Reply::Status::Ok);
  Reply RV = run(M, Victim, kCallWork);
  ASSERT_EQ(RV.St, Reply::Status::Ok);
  EXPECT_EQ(RV.Output, Ref);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, SessionCapRejectsDeterministically) {
  ServiceOptions O = baseOptions();
  O.MaxSessions = 2;
  SessionManager M(O);
  SessionId A = M.createSession(), B = M.createSession();
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_EQ(M.createSession(), 0u) << "third session must be rejected";
  EXPECT_EQ(M.liveSessions(), 2u);

  // Destroying one frees the slot.
  EXPECT_TRUE(M.destroySession(A));
  SessionId C = M.createSession();
  EXPECT_NE(C, 0u);

  // The destroyed session is gone for submits.
  EXPECT_EQ(run(M, A, "x = 1").St, Reply::Status::SessionGone);
}

TEST_F(ServiceTest, QueueCapsRejectExactlyPastTheLimit) {
  ServiceOptions O = baseOptions();
  O.MaxQueuedRequests = 4;
  O.MaxQueuedPerSession = 3;
  O.ShedQueuedRequests = 100; // out of the way for this test
  SessionManager M(O);
  M.setWorkersPaused(true); // stage the backlog deterministically

  SessionId A = M.createSession(), B = M.createSession();
  std::vector<std::future<Reply>> Accepted;

  // Session A hits its per-session wall at 3: its own backlog, so the
  // machine-readable reason says "drain your futures", not "back off".
  for (int I = 0; I != 3; ++I)
    Accepted.push_back(M.submit(A, "x = 1"));
  Reply RejA = M.submit(A, "x = 1").get();
  EXPECT_EQ(RejA.St, Reply::Status::RejectedOverloaded);
  EXPECT_EQ(RejA.Why, Reply::Reason::BudgetExceeded);
  EXPECT_STREQ(rejectReasonName(RejA.Why), "budget-exceeded");

  // Session B then hits the service-wide wall at 4 total: shared
  // pressure, the retryable kind.
  Accepted.push_back(M.submit(B, "x = 1"));
  Reply RejB = M.submit(B, "x = 1").get();
  EXPECT_EQ(RejB.St, Reply::Status::RejectedOverloaded);
  EXPECT_EQ(RejB.Why, Reply::Reason::QueueFull);
  EXPECT_STREQ(rejectReasonName(RejB.Why), "queue-full");
  EXPECT_EQ(M.queuedRequests(), 4u);

  // Every accepted request resolves once the workers resume.
  M.setWorkersPaused(false);
  for (auto &F : Accepted)
    EXPECT_EQ(F.get().St, Reply::Status::Ok);
  EXPECT_EQ(M.queuedRequests(), 0u);
}

TEST_F(ServiceTest, ShutdownResolvesEveryAcceptedRequest) {
  ServiceOptions O = baseOptions();
  SessionManager M(O);
  M.setWorkersPaused(true);
  SessionId A = M.createSession();
  std::vector<std::future<Reply>> Fs;
  for (int I = 0; I != 5; ++I)
    Fs.push_back(M.submit(A, "x = 1"));
  M.shutdown(); // workers never ran: the requests must still resolve
  for (auto &F : Fs) {
    Reply R = F.get();
    EXPECT_EQ(R.St, Reply::Status::ShuttingDown);
  }
  EXPECT_EQ(M.submit(A, "x = 1").get().St, Reply::Status::ShuttingDown);
  EXPECT_EQ(M.createSession(), 0u);
}

TEST_F(ServiceTest, DestroyDrainsAcceptedWorkAndLeavesOthersRunning) {
  ServiceOptions O = baseOptions();
  O.Workers = 2;
  SessionManager M(O);
  SessionId A = M.createSession(), B = M.createSession();
  std::vector<std::future<Reply>> Fs;
  for (int I = 0; I != 8; ++I)
    Fs.push_back(M.submit(A, "x = " + std::to_string(I)));
  ASSERT_TRUE(M.destroySession(A)); // blocks until A's queue drained
  for (auto &F : Fs)
    EXPECT_EQ(F.get().St, Reply::Status::Ok); // accepted => completed
  EXPECT_FALSE(M.destroySession(A));          // already gone

  Reply RB = run(M, B, "y = 2 + 2");
  EXPECT_EQ(RB.St, Reply::Status::Ok);
  EXPECT_NE(RB.Output.find("4"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Graceful degradation
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, OverloadShedsSpeculationFirstAndRecovers) {
  ServiceOptions O = baseOptions();
  O.Session.Policy = CompilePolicy::Speculative;
  O.MaxQueuedRequests = 64;
  O.ShedQueuedRequests = 4;
  SessionManager M(O);
  M.setWorkersPaused(true);

  SessionId A = M.createSession();
  std::vector<std::future<Reply>> Fs;
  for (int I = 0; I != 6; ++I)
    Fs.push_back(M.submit(A, "x = 1"));
  EXPECT_TRUE(M.shedding()) << "backlog over threshold must shed";

  M.setWorkersPaused(false);
  for (auto &F : Fs)
    EXPECT_EQ(F.get().St, Reply::Status::Ok);
  EXPECT_FALSE(M.shedding()) << "drained backlog must resume speculation";

  obs::MetricsSnapshot Snap = M.sampleMetrics();
  auto CounterOf = [&Snap](const std::string &Name) -> uint64_t {
    for (const auto &[N, V] : Snap.Counters)
      if (N == Name)
        return V;
    return 0;
  };
  EXPECT_GE(CounterOf("service.shed.entered"), 1u);
  EXPECT_GE(CounterOf("service.shed.exited"), 1u);
  EXPECT_EQ(CounterOf("service.requests.accepted"), 6u);
  EXPECT_EQ(CounterOf("service.requests.completed"), 6u);
}

//===----------------------------------------------------------------------===//
// Service fault sites
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, SessionCreateFaultIsACleanDenial) {
  SessionManager M(baseOptions());
  faults::armAt(faults::Site::SessionCreate, 1);
  EXPECT_EQ(M.createSession(), 0u);
  faults::disarm(faults::Site::SessionCreate);
  SessionId Id = M.createSession();
  ASSERT_NE(Id, 0u);
  EXPECT_EQ(run(M, Id, "x = 1 + 1").St, Reply::Status::Ok);
}

TEST_F(ServiceTest, AdmissionFaultRejectsWithoutLosingTheSession) {
  SessionManager M(baseOptions());
  SessionId Id = M.createSession();
  faults::armAt(faults::Site::Admission, 1);
  EXPECT_EQ(run(M, Id, "x = 1").St, Reply::Status::RejectedOverloaded);
  faults::disarm(faults::Site::Admission);
  EXPECT_EQ(run(M, Id, "x = 1").St, Reply::Status::Ok);
}

TEST_F(ServiceTest, BudgetCheckFaultFailsOnlyThatRequest) {
  SessionManager M(baseOptions());
  SessionId Id = M.createSession();
  faults::armAt(faults::Site::BudgetCheck, 1);
  Reply R = run(M, Id, "x = 1");
  faults::disarm(faults::Site::BudgetCheck);
  EXPECT_EQ(R.St, Reply::Status::Error);
  EXPECT_NE(R.Output.find("injected fault"), std::string::npos);
  EXPECT_EQ(run(M, Id, "x = 1").St, Reply::Status::Ok);
}

//===----------------------------------------------------------------------===//
// Multi-session fault sweep: seeded schedules over every site (including
// the service ones) against several concurrent sessions. Faults may deny
// sessions and requests; they must never crash the service, never break
// another session's reply, and a post-reset session must behave exactly
// like a fresh solo one.
//===----------------------------------------------------------------------===//

class ServiceFaultSweep : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

TEST_P(ServiceFaultSweep, ServiceSurvivesScheduleAndRecovers) {
  uint64_t Seed = GetParam();
  std::string Ref = soloOutput(kFibSrc, kCallFib);

  // xorshift-seeded schedule over every site, like tests/FuzzTest.cpp.
  uint64_t S = Seed * 0x9e3779b97f4a7c15ull + 0xda3e39cb94b95bdbull;
  auto Next = [&S] {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  };
  for (unsigned SI = 0; SI != faults::kNumSites; ++SI) {
    auto Site = static_cast<faults::Site>(SI);
    switch (Next() % 3) {
    case 0:
      break;
    case 1:
      faults::armAt(Site, 1 + Next() % 10);
      break;
    default:
      faults::armRandom(Site, 0.2, Next());
      break;
    }
  }

  {
    ServiceOptions O = baseOptions();
    O.Session.Policy = CompilePolicy::Speculative;
    O.MaxSessions = 4;
    SessionManager M(O);
    std::vector<SessionId> Ids;
    for (int I = 0; I != 3; ++I)
      if (SessionId Id = M.createSession())
        Ids.push_back(Id);
    for (int Round = 0; Round != 3; ++Round) {
      std::vector<std::future<Reply>> Fs;
      for (SessionId Id : Ids) {
        Fs.push_back(M.submit(Id, kFibSrc));
        Fs.push_back(M.submit(Id, kCallFib));
      }
      for (auto &F : Fs) {
        Reply R = F.get(); // every accepted or rejected request resolves
        if (R.St == Reply::Status::Ok && R.Output.find("x =") == 0) {
          EXPECT_NE(R.Output.find("144"), std::string::npos) << R.Output;
        }
      }
    }
    M.shutdown();
  }

  // Faults clear: a fresh solo session agrees with the reference exactly.
  faults::reset();
  EXPECT_EQ(soloOutput(kFibSrc, kCallFib), Ref);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ServiceFaultSweep,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Session hibernation
//===----------------------------------------------------------------------===//

namespace fs = std::filesystem;

/// Hibernation fixture: a scratch session directory per test, removed on
/// both sides so a crashed run can't leak state into the next.
class HibernationTest : public ServiceTest {
protected:
  void SetUp() override {
    ServiceTest::SetUp();
    Dir = fs::temp_directory_path() /
          ("majic_hib_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    fs::remove_all(Dir);
    ServiceTest::TearDown();
  }

  ServiceOptions hibOptions(unsigned Cap) {
    ServiceOptions O = baseOptions();
    O.Workers = 1; // deterministic idleness for LRU selection
    O.MaxSessions = Cap;
    O.SessionDir = Dir.string();
    return O;
  }

  size_t snapshotsOnDisk() {
    return SnapshotStore(Dir.string()).scan().size();
  }

  fs::path Dir;
};

TEST_F(HibernationTest, CapHibernatesLruIdleSessionTransparently) {
  const char *Setup = "v = 41;";
  const char *Use = "w = v + 1";
  std::string Ref = soloOutput(Setup, Use);

  SessionManager M(hibOptions(2));
  SessionId A = M.createSession();
  ASSERT_NE(A, 0u);
  ASSERT_EQ(run(M, A, Setup).St, Reply::Status::Ok);
  SessionId B = M.createSession();
  ASSERT_NE(B, 0u);
  ASSERT_EQ(run(M, B, "v = 1;").St, Reply::Status::Ok);

  // The third create does not reject: A (the LRU idle session) is
  // snapshotted to disk and its slot reused.
  SessionId C = M.createSession();
  ASSERT_NE(C, 0u) << "cap must hibernate, not reject";
  EXPECT_EQ(M.liveSessions(), 2u);
  EXPECT_EQ(M.hibernatedSessions(), 1u);
  EXPECT_EQ(snapshotsOnDisk(), 1u);

  // Submitting to A resurrects it transparently (hibernating another
  // idle session to make room) and the workspace is bit-identical to a
  // session that never left memory. The consumed snapshot is gone.
  Reply R = run(M, A, Use);
  EXPECT_EQ(R.St, Reply::Status::Ok) << R.Output;
  EXPECT_EQ(R.Output, Ref);
  EXPECT_EQ(M.hibernatedSessions(), 1u); // B or C took A's place on disk
  EXPECT_EQ(snapshotsOnDisk(), 1u);
}

TEST_F(HibernationTest, NothingIdleRejectsWithRetryableReason) {
  SessionManager M(hibOptions(1));
  SessionId A = M.createSession();
  ASSERT_NE(A, 0u);
  ASSERT_EQ(run(M, A, "v = 7;").St, Reply::Status::Ok);
  SessionId B = M.createSession(); // hibernates idle A
  ASSERT_NE(B, 0u);
  EXPECT_EQ(M.hibernatedSessions(), 1u);

  // Stage "nothing idle": B has a queued request, so it can't be torn
  // out. A's resurrect now has nowhere to live.
  M.setWorkersPaused(true);
  std::future<Reply> Busy = M.submit(B, "x = 1");
  Reply R = M.submit(A, "w = v").get();
  EXPECT_EQ(R.St, Reply::Status::RejectedOverloaded);
  EXPECT_EQ(R.Why, Reply::Reason::SessionCapNoIdle);
  EXPECT_STREQ(rejectReasonName(R.Why), "session-cap-no-idle");
  EXPECT_EQ(M.createSession(), 0u) << "creates reject too while nothing idle";

  // The reason is advertised as retryable: once B drains, the same
  // submit succeeds (B hibernates, A resurrects with its state).
  M.setWorkersPaused(false);
  EXPECT_EQ(Busy.get().St, Reply::Status::Ok);
  Reply Retry = run(M, A, "w = v");
  EXPECT_EQ(Retry.St, Reply::Status::Ok) << Retry.Output;
  EXPECT_NE(Retry.Output.find("7"), std::string::npos) << Retry.Output;
}

TEST_F(HibernationTest, CorruptSnapshotQuarantinesAndRestartsEmptyLoudly) {
  SessionManager M(hibOptions(1));
  SessionId A = M.createSession();
  ASSERT_NE(A, 0u);
  ASSERT_EQ(run(M, A, "v = 123;").St, Reply::Status::Ok);
  ASSERT_NE(M.createSession(), 0u); // hibernates A
  ASSERT_EQ(M.hibernatedSessions(), 1u);

  // Flip one payload byte of A's snapshot on disk.
  std::string Path = SnapshotStore(Dir.string()).pathFor(A);
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good());
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(Bytes.empty());
  Bytes.back() = char(Bytes.back() ^ 0x40);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), std::streamsize(Bytes.size()));
  }

  // The resurrect walks the ladder, refuses the bytes, quarantines the
  // file, and the triggering request fails with the structured error -
  // never a silent recompute on the empty workspace.
  Reply R = run(M, A, "w = v + 1");
  EXPECT_EQ(R.St, Reply::Status::Error);
  EXPECT_EQ(R.Output.find("??? resurrect:"), 0u) << R.Output;
  EXPECT_NE(R.Output.find("quarantined"), std::string::npos) << R.Output;

  bool SawQuarantine = false;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    SawQuarantine |=
        E.path().filename().string().find(".corrupt") != std::string::npos;
  EXPECT_TRUE(SawQuarantine) << "torn snapshot must be kept as evidence";

  // The session restarted empty and usable: old state gone, new state ok.
  EXPECT_EQ(run(M, A, "w = v").St, Reply::Status::Error) << "v must be gone";
  Reply Fresh = run(M, A, "x = 5");
  EXPECT_EQ(Fresh.St, Reply::Status::Ok);
}

TEST_F(HibernationTest, RestartReRegistersHibernatedSessions) {
  const char *Setup = "v = 19;";
  const char *Use = "w = v * 2";
  std::string Ref = soloOutput(Setup, Use);

  SessionId A = 0;
  {
    SessionManager M(hibOptions(1));
    A = M.createSession();
    ASSERT_NE(A, 0u);
    ASSERT_EQ(run(M, A, Setup).St, Reply::Status::Ok);
    ASSERT_NE(M.createSession(), 0u); // hibernates A
    ASSERT_EQ(M.hibernatedSessions(), 1u);
  } // shutdown: the snapshot stays on disk - that is the durability story

  // A brand-new service on the same directory recovers the session: same
  // id, same workspace, bit-identical output.
  SessionManager M2(hibOptions(1));
  EXPECT_EQ(M2.hibernatedSessions(), 1u);
  Reply R = run(M2, A, Use);
  EXPECT_EQ(R.St, Reply::Status::Ok) << R.Output;
  EXPECT_EQ(R.Output, Ref);
  // New ids never collide with recovered ones.
  SessionId Fresh = M2.createSession();
  EXPECT_NE(Fresh, 0u);
  EXPECT_NE(Fresh, A);
}

TEST_F(HibernationTest, FailedSaveLeavesVictimFullyLive) {
  SessionManager M(hibOptions(1));
  SessionId A = M.createSession();
  ASSERT_NE(A, 0u);
  ASSERT_EQ(run(M, A, "v = 7;").St, Reply::Status::Ok);

  // The snapshot write fails (injected): the victim must keep its engine
  // and state, and the create reports the cap instead.
  faults::armAt(faults::Site::SessionSnapshotSave, 1);
  EXPECT_EQ(M.createSession(), 0u);
  faults::disarm(faults::Site::SessionSnapshotSave);
  EXPECT_EQ(M.liveSessions(), 1u);
  EXPECT_EQ(M.hibernatedSessions(), 0u);
  EXPECT_EQ(snapshotsOnDisk(), 0u) << "failed save must leave no file";

  Reply R = run(M, A, "w = v + 1");
  EXPECT_EQ(R.St, Reply::Status::Ok) << R.Output;
  EXPECT_NE(R.Output.find("8"), std::string::npos) << R.Output;

  // With the fault gone the same create succeeds by hibernating A.
  EXPECT_NE(M.createSession(), 0u);
  EXPECT_EQ(M.hibernatedSessions(), 1u);
}

//===----------------------------------------------------------------------===//
// Shared-cache eviction
//===----------------------------------------------------------------------===//

CompiledObjectPtr dummyObject(const std::string &Name) {
  auto Obj = std::make_shared<CompiledObject>();
  Obj->FunctionName = Name;
  return Obj;
}

TEST(SharedCacheEvictionTest, HotEntrySurvivesColdFlood) {
  SharedCodeCache Cache(/*Capacity=*/4);
  ASSERT_TRUE(Cache.publish("hot", dummyObject("hot"), 1));
  for (int I = 0; I != 32; ++I)
    ASSERT_NE(Cache.lookup("hot"), nullptr);

  // A flood of cold entries (never looked up) churns through the cache;
  // the hot entry must outlive every one of them.
  for (int I = 0; I != 64; ++I) {
    std::string Key = "cold" + std::to_string(I);
    ASSERT_TRUE(Cache.publish(Key, dummyObject(Key), 2));
    EXPECT_NE(Cache.lookup("hot"), nullptr)
        << "hot entry evicted by cold insert " << I;
  }
  EXPECT_LE(Cache.size(), 4u);
  EXPECT_GE(Cache.evictions(), 61u); // 65 publishes into 4 slots
}

TEST(SharedCacheEvictionTest, FreshInsertIsSparedFromItsOwnEviction) {
  // Capacity 1 is the degenerate case: every publish must evict the
  // *previous* entry, never bounce the fresh one (the session that just
  // compiled it is about to use it).
  SharedCodeCache Cache(/*Capacity=*/1);
  ASSERT_TRUE(Cache.publish("a", dummyObject("a"), 1));
  for (int I = 0; I != 8; ++I)
    ASSERT_NE(Cache.lookup("a"), nullptr); // "a" is hot - and still loses:
  ASSERT_TRUE(Cache.publish("b", dummyObject("b"), 2));
  EXPECT_EQ(Cache.lookup("a"), nullptr) << "previous entry must be evicted";
  EXPECT_NE(Cache.lookup("b"), nullptr) << "fresh insert must be spared";
  EXPECT_EQ(Cache.size(), 1u);
}

#ifndef __SANITIZE_THREAD__
TEST_F(ServiceTest, NativeTierSessionMatchesVmOutput) {
  // The native tier rides the Session engine-options template: a service
  // configured with it produces byte-identical request output, whether
  // the host has a C compiler (machine code serves the hot calls) or not
  // (transparent VM fallback). Skipped under TSan: dlopen of the
  // uninstrumented generated .so is incompatible with the runtime.
  std::string Ref = soloOutput(kWorkSrc, kCallWork);

  ServiceOptions O = baseOptions();
  O.Session.NativeTier = true;
  O.Session.NativeHotThreshold = 1;
  SessionManager M(O);
  SessionId Id = M.createSession();
  ASSERT_NE(Id, 0u);
  ASSERT_EQ(run(M, Id, kWorkSrc).St, Reply::Status::Ok);
  for (int I = 0; I != 3; ++I) {
    Reply R = run(M, Id, kCallWork);
    ASSERT_EQ(R.St, Reply::Status::Ok);
    EXPECT_EQ(R.Output, Ref);
  }
}
#endif // !__SANITIZE_THREAD__

TEST(SharedCacheEvictionTest, TiesFallToTheOldestInsertion) {
  SharedCodeCache Cache(/*Capacity=*/2);
  ASSERT_TRUE(Cache.publish("first", dummyObject("first"), 1));
  ASSERT_TRUE(Cache.publish("second", dummyObject("second"), 2));
  // Zero hits everywhere: insertion order breaks the tie, FIFO-style.
  ASSERT_TRUE(Cache.publish("third", dummyObject("third"), 3));
  EXPECT_EQ(Cache.lookup("first"), nullptr);
  EXPECT_NE(Cache.lookup("second"), nullptr);
  EXPECT_NE(Cache.lookup("third"), nullptr);
}

} // namespace
