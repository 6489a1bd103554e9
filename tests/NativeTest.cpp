//===- tests/NativeTest.cpp - The native third tier ------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The native execution tier: C emission compiled by the system compiler,
// loaded with dlopen, promoted by hotness, persisted beside the .mjo files,
// and - above all - never able to change a program's results or crash the
// engine, whatever happens to the compiler or the cached shared objects.
//
// Every test that needs a real C compiler probes for one first and skips
// when the host has none; the fallback tests run everywhere.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/CEmitter.h"
#include "backend/Compiler.h"
#include "backend/Platform.h"
#include "backend/RegAlloc.h"
#include "engine/Corpus.h"
#include "engine/Engine.h"
#include "ir/Builder.h"
#include "native/NativeCompiler.h"
#include "native/NativeRuntime.h"
#include "repo/RepoStore.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

bool hostCompilerAvailable() {
  static const bool Available = native::NativeCompiler("cc").available();
  return Available;
}

//===----------------------------------------------------------------------===//
// Golden corpus sweep: every benchmark's emitted C must survive the real
// compiler at -std=c11 -Wall -Werror and load through the fixed ABI.
//===----------------------------------------------------------------------===//

struct Compiled {
  SourceManager SM;
  Diagnostics Diags;
  std::unique_ptr<Module> Mod;
  std::unique_ptr<FunctionInfo> Info;
  std::unique_ptr<IRFunction> Code;
  TypeSignature Sig;

  Compiled(const std::string &Src, std::vector<Type> Params) {
    Mod = parseModule("t", Src, SM, Diags);
    EXPECT_NE(Mod, nullptr) << Diags.render(SM);
    Info = disambiguate(*Mod->mainFunction(), *Mod);
    Sig = TypeSignature(std::move(Params));
    InferResult R = inferTypes(*Info, Sig);
    CodeGenOptions CG;
    CG.Mode = CodeGenMode::Optimized;
    Code = generateCode(*Info, R.Ann, Sig, CG);
    EXPECT_NE(Code, nullptr);
  }
};

TEST(NativeGolden, EveryCorpusBenchmarkCompilesAndLoads) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  native::NativeCompiler NC("cc");
  for (const BenchmarkSpec &Spec : benchmarkCorpus()) {
    std::ifstream In(mlibDirectory() + "/" + Spec.Name + ".m");
    std::stringstream SS;
    SS << In.rdbuf();
    std::vector<Type> Params;
    for (double A : Spec.Args)
      Params.push_back(A == static_cast<long long>(A)
                           ? Type::scalar(IntrinsicType::Int)
                           : Type::scalar(IntrinsicType::Real));
    Compiled C(SS.str(), std::move(Params));
    std::string Src = emitCSource(*C.Code, C.Sig);
    // -Wall -Werror is part of the compile() invocation: any warning in
    // the emitted C fails this sweep.
    std::vector<uint8_t> So;
    std::unique_ptr<native::NativeModule> Mod;
    try {
      So = NC.compile(Src, Spec.Name);
      Mod = native::NativeCompiler::load(So, Spec.Name, C.Code->NumOuts);
    } catch (MatlabError &ME) {
      FAIL() << Spec.Name << ": " << ME.message();
    }
    EXPECT_GT(So.size(), 0u) << Spec.Name;
    ASSERT_NE(Mod, nullptr) << Spec.Name;
    EXPECT_NE(Mod->entry(), nullptr) << Spec.Name;
    EXPECT_EQ(Mod->numOuts(), C.Code->NumOuts) << Spec.Name;
  }
}

//===----------------------------------------------------------------------===//
// Engine tiering
//===----------------------------------------------------------------------===//

class NativeEngineTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    Dir = fs::temp_directory_path() /
          ("majic_native_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  /// Deterministic native session: JIT policy, no worker pool (compiles,
  /// saves, and native builds all run synchronously on the engine thread).
  EngineOptions nativeOpts(unsigned HotThreshold = 1) {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.RepoDir = Dir.string();
    O.NativeTier = true;
    O.NativeHotThreshold = HotThreshold;
    return O;
  }

  std::vector<fs::path> filesWith(const std::string &Ext) {
    std::vector<fs::path> Out;
    if (!fs::exists(Dir))
      return Out;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == Ext)
        Out.push_back(E.path());
    return Out;
  }

  fs::path Dir;
};

ValuePtr intArg(double X) { return makeValue(Value::intScalar(X)); }

const char *kHotSource = "function y = hot(x)\n"
                         "y = 0;\n"
                         "for k = 1:x\n"
                         "y = y + k * k;\n"
                         "end\n";
const double kHotArg = 10;
const double kHotExpect = 385; // sum of squares 1..10

TEST_F(NativeEngineTest, HotFunctionPromotesAndMatchesVm) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  Engine E(nativeOpts(/*HotThreshold=*/2));
  ASSERT_TRUE(E.addSource("hot", kHotSource));

  // First call: below the hotness threshold, VM only.
  auto R1 = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(E.nativeCompiles(), 0u);
  EXPECT_EQ(E.nativeHits(), 0u);

  // Second call crosses the threshold: one native compile, served native,
  // bit-identical answer.
  auto R2 = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R2[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(E.nativeCompiles(), 1u);
  EXPECT_EQ(E.nativeHits(), 1u);
  EXPECT_EQ(E.nativeFailures(), 0u);
  EXPECT_EQ(E.nativeDeopts(), 0u);

  // Third call reuses the loaded module: still exactly one compile.
  E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_EQ(E.nativeCompiles(), 1u);
  EXPECT_EQ(E.nativeHits(), 2u);

  // The shared object was persisted beside the .mjo.
  EXPECT_EQ(E.repoStoreStats().NativeSaved, 1u);
  EXPECT_EQ(filesWith(".mjn").size(), 1u);

  // The profile records the tier.
  bool Profiled = false;
  for (const obs::FunctionProfile &P : E.profiles())
    if (P.Name == "hot") {
      Profiled = true;
      EXPECT_EQ(P.NativeRuns, 2u);
    }
  EXPECT_TRUE(Profiled);
}

TEST_F(NativeEngineTest, WarmStartRunsNativeWithZeroCompilerInvocations) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    auto R = Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
    ASSERT_EQ(Cold.nativeCompiles(), 1u);
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  EXPECT_EQ(Warm.nativeFailures(), 0u);

  // First warm call: served native straight from disk - no JIT compile,
  // no C compiler invocation, same answer.
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  EXPECT_EQ(Warm.nativeCompiles(), 0u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
  EXPECT_EQ(Warm.jitCompiles(), 0u);
}

TEST_F(NativeEngineTest, WarmStartAdoptsNativeEntryWithoutItsMjo) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.nativeCompiles(), 1u);
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }
  // The VM half of the warm start is gone (deleted or quarantined); the
  // .so is intact and must still be adopted on its own.
  auto Mjo = filesWith(".mjo");
  ASSERT_EQ(Mjo.size(), 1u);
  fs::remove(Mjo[0]);

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  // The VM version has to be recompiled (its .mjo is gone), but the native
  // version comes from disk: no C compiler invocation.
  EXPECT_EQ(Warm.jitCompiles(), 1u);
  EXPECT_EQ(Warm.nativeCompiles(), 0u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
}

TEST_F(NativeEngineTest, ReloadDuringNativeBuildNeverServesOldCode) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // A native build queued for the old source finishes after a reload: its
  // machine code must neither serve the new source nor be persisted under
  // the new source's hash.
  const char *kV1 = "function y = hot(x)\ny = x + 1;\n";
  const char *kV2 = "function y = hot(x)\ny = x + 100;\n";
  auto call = [](Engine &E) {
    return E.callFunction("hot", {intArg(2)}, 1, SourceLoc())[0]->scalarValue();
  };
  EngineOptions O = nativeOpts();
  O.BackgroundCompileThreads = 1;
  {
    Engine E(O);
    ASSERT_TRUE(E.addSource("hot", kV1));
    E.pauseBackgroundCompiles();
    // Crosses the hotness threshold: v1's native build waits in the queue.
    EXPECT_DOUBLE_EQ(call(E), 3);
    ASSERT_TRUE(E.addSource("hot", kV2));
    E.resumeBackgroundCompiles();
    E.drainCompiles();
    EXPECT_DOUBLE_EQ(call(E), 102);
    // v2 is promoted in its own right and then served natively.
    E.drainCompiles();
    EXPECT_DOUBLE_EQ(call(E), 102);
    EXPECT_EQ(E.nativeHits(), 1u);
    E.flushRepoStore();
  }

  // The persisted .so is v2's: served from disk, no compiler invocation.
  Engine Warm(nativeOpts());
  ASSERT_TRUE(Warm.addSource("hot", kV2));
  EXPECT_DOUBLE_EQ(call(Warm), 102);
  EXPECT_EQ(Warm.nativeCompiles(), 0u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
}

TEST_F(NativeEngineTest, NativeVersionsArePerSignature) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  Engine E(nativeOpts());
  ASSERT_TRUE(E.addSource("hot", kHotSource));
  auto call = [&E](ValuePtr X) {
    return E.callFunction("hot", {std::move(X)}, 1, SourceLoc())[0]
        ->scalarValue();
  };
  auto realArg = [] { return makeValue(Value::scalar(2.5)); };

  // Two argument signatures, two native versions, each serving its own.
  EXPECT_DOUBLE_EQ(call(intArg(kHotArg)), kHotExpect);
  EXPECT_DOUBLE_EQ(call(realArg()), 5); // 1:2.5 is [1 2]
  EXPECT_EQ(E.nativeCompiles(), 2u);
  EXPECT_EQ(E.nativeHits(), 2u);
  EXPECT_DOUBLE_EQ(call(intArg(kHotArg)), kHotExpect);
  EXPECT_DOUBLE_EQ(call(realArg()), 5);
  EXPECT_EQ(E.nativeCompiles(), 2u);
  EXPECT_EQ(E.nativeHits(), 4u);

  // A fault on the real call quarantines that version only.
  faults::armAt(faults::Site::NativeRun, 1);
  EXPECT_DOUBLE_EQ(call(realArg()), 5);
  faults::reset();
  EXPECT_EQ(E.nativeFailures(), 1u);
  EXPECT_EQ(E.nativeHits(), 4u);
  EXPECT_DOUBLE_EQ(call(realArg()), 5); // pinned to the VM
  EXPECT_EQ(E.nativeHits(), 4u);
  EXPECT_DOUBLE_EQ(call(intArg(kHotArg)), kHotExpect);
  EXPECT_EQ(E.nativeHits(), 5u);
  EXPECT_EQ(E.nativeCompiles(), 2u);

  // A reload drops both: the new source compiles natively at both
  // signatures again, quarantine lifted, and serves its own answers.
  ASSERT_TRUE(E.addSource("hot", "function y = hot(x)\ny = 0;\n"
                                 "for k = 1:x\ny = y + k;\nend\n"));
  EXPECT_DOUBLE_EQ(call(intArg(kHotArg)), 55);
  EXPECT_DOUBLE_EQ(call(realArg()), 3);
  EXPECT_EQ(E.nativeCompiles(), 4u);
  EXPECT_EQ(E.nativeHits(), 7u);
  EXPECT_EQ(E.nativeFailures(), 1u);
}

TEST_F(NativeEngineTest, SourceDriftDiscardsNativeEntry) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  // Changed .m text: the cached .so was compiled from different source and
  // must not run, however valid its bytes.
  Engine Warm(nativeOpts());
  ASSERT_TRUE(Warm.addSource("hot", "function y = hot(x)\ny = x + 1;\n"));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotArg + 1);
  // The stale module was discarded and the new source compiled fresh.
  EXPECT_EQ(Warm.nativeCompiles(), 1u);
  EXPECT_EQ(Warm.nativeHits(), 1u);
}

TEST_F(NativeEngineTest, TamperedNativeEntryQuarantinedAndRecompiled) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  {
    Engine Cold(nativeOpts());
    ASSERT_TRUE(Cold.addSource("hot", kHotSource));
    Cold.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().NativeSaved, 1u);
  }

  // Flip one byte in the middle of the .mjn: the CRC must catch it.
  auto Files = filesWith(".mjn");
  ASSERT_EQ(Files.size(), 1u);
  {
    std::fstream F(Files[0], std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(fs::file_size(Files[0])) / 2);
    F.put('\xa5');
  }

  Engine Warm(nativeOpts());
  EXPECT_EQ(Warm.repoStoreStats().NativeLoaded, 0u);
  EXPECT_EQ(Warm.repoStoreStats().NativeQuarantined, 1u);
  ASSERT_TRUE(Warm.addSource("hot", kHotSource));
  auto R = Warm.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  // Quarantined, then recompiled natively - the tier self-heals.
  EXPECT_EQ(Warm.nativeCompiles(), 1u);
  EXPECT_FALSE(filesWith(".corrupt").empty());
}

TEST_F(NativeEngineTest, MissingCompilerFallsBackToVm) {
  // No skip here: this must pass on compiler-less hosts too.
  EngineOptions O = nativeOpts();
  O.NativeCC = "/nonexistent/majic-cc";
  Engine E(O);
  EXPECT_FALSE(E.nativeTierAvailable());
  ASSERT_TRUE(E.addSource("hot", kHotSource));
  for (int I = 0; I != 3; ++I) {
    auto R = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect);
  }
  EXPECT_EQ(E.nativeCompiles(), 0u);
  EXPECT_EQ(E.nativeHits(), 0u);
  // Nothing bogus persisted either.
  EXPECT_EQ(E.repoStoreStats().NativeSaved, 0u);
  EXPECT_TRUE(filesWith(".mjn").empty());
}

TEST_F(NativeEngineTest, ScratchDirectoryHonorsTmpdir) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // A compiler wrapper logs its arguments, so the test can see where the
  // (already removed) scratch directory was.
  fs::path Tmp = Dir / "tmp";
  fs::create_directories(Tmp);
  fs::path Log = Dir / "cc-args.log";
  fs::path Wrapper = Dir / "cc-wrapper.sh";
  {
    std::ofstream W(Wrapper);
    W << "#!/bin/sh\nprintf '%s\\n' \"$@\" >> '" << Log.string()
      << "'\nexec cc \"$@\"\n";
  }
  fs::permissions(Wrapper, fs::perms::owner_all);

  const char *OldTmp = std::getenv("TMPDIR");
  std::string Saved = OldTmp ? OldTmp : "";
  setenv("TMPDIR", Tmp.c_str(), 1);
  double Native = 0;
  uint64_t Compiles = 0;
  {
    EngineOptions O = nativeOpts();
    O.NativeCC = Wrapper.string();
    Engine E(O);
    if (E.addSource("hot", kHotSource))
      Native = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc())[0]
                   ->scalarValue();
    Compiles = E.nativeCompiles();
  }
  if (OldTmp)
    setenv("TMPDIR", Saved.c_str(), 1);
  else
    unsetenv("TMPDIR");

  EXPECT_EQ(Compiles, 1u);
  EXPECT_DOUBLE_EQ(Native, kHotExpect); // the VM's answer

  std::ifstream In(Log);
  std::vector<std::string> Args;
  for (std::string A; std::getline(In, A);)
    Args.push_back(A);
  std::string Out;
  for (size_t I = 0; I + 1 < Args.size(); ++I)
    if (Args[I] == "-o")
      Out = Args[I + 1];
  ASSERT_FALSE(Out.empty()) << "the wrapper never saw a compile";
  EXPECT_EQ(Out.rfind((Tmp / "majic-native-").string(), 0), 0u) << Out;
  EXPECT_NE(Out.rfind("/tmp/majic-native-", 0), 0u) << Out;
  EXPECT_TRUE(fs::is_empty(Tmp)) << "scratch directory left behind";
}

TEST_F(NativeEngineTest, NativeErrorTextMatchesVm) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // One row per shared error path: the function is warmed on a good
  // argument, then tripped on a bad one, once per tier.
  struct Row {
    const char *Name;
    const char *Src;
    double Good, Bad;
  };
  const Row Rows[] = {
      {"oob",
       "function y = oob(x)\n"
       "A = zeros(3, 1);\n"
       "for k = 1:3\nA(k) = k;\nend\n"
       "y = A(x);\n",
       2, 10},
      {"oob2",
       "function y = oob2(r)\n"
       "A = zeros(3, 3);\n"
       "for k = 1:3\nA(k, k) = k;\nend\n"
       "y = A(r, 2);\n",
       2, 10},
      {"unassigned",
       "function y = unassigned(x)\n"
       "if x > 5\ny = x;\nend\n",
       10, 1},
      {"raise",
       "function y = raise(x)\n"
       "if x > 5\nerror('too big: %d', x);\nend\n"
       "y = x;\n",
       2, 10},
  };

  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Name);
    auto errorText = [&](EngineOptions O, bool ExpectNative) {
      Engine E(std::move(O));
      EXPECT_TRUE(E.addSource(R.Name, R.Src));
      // Warm the tier on a valid argument first, then trip the bad one.
      E.callFunction(R.Name, {intArg(R.Good)}, 1, SourceLoc());
      if (ExpectNative) { // else the row would compare the VM with itself
        EXPECT_GT(E.profile(R.Name).NativeRuns, 0u);
      }
      try {
        E.callFunction(R.Name, {intArg(R.Bad)}, 1, SourceLoc());
      } catch (MatlabError &ME) {
        return ME.message();
      }
      return std::string("<no error>");
    };

    EngineOptions Vm;
    Vm.Policy = CompilePolicy::Jit;
    Vm.BackgroundCompileThreads = 0;
    std::string VmMsg = errorText(std::move(Vm), false);
    std::string NativeMsg = errorText(nativeOpts(), true);
    EXPECT_NE(VmMsg, "<no error>");
    EXPECT_EQ(NativeMsg, VmMsg);
  }
}

TEST(NativeDirect, CheckDefErrorTextMatchesVm) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  // CodeGen sends functions that may read an unassigned variable to the
  // interpreter, so no engine program reaches CheckDef; run a hand-built
  // one on both tiers instead: z = <never assigned>; check z; y = z.
  IRFunction F;
  F.Name = "undef";
  F.NumOuts = 1;
  IRBuilder B(F);
  int32_t Z = B.newP();
  B.emitImmI(Opcode::CheckDef, F.internName("z"), Z);
  B.emitImmI(Opcode::StoreOut, 0, Z);
  B.emit(Opcode::Ret);
  B.finish();
  allocateRegisters(F, PlatformModel::sparc(), {});

  struct NoCalls : CallResolver, native::NativeHost {
    std::vector<ValuePtr> callFunction(const std::string &Name,
                                       std::vector<ValuePtr>, size_t,
                                       SourceLoc) override {
      return callFunction(Name, {}, 0);
    }
    std::vector<ValuePtr> callFunction(const std::string &Name,
                                       std::vector<ValuePtr>,
                                       size_t) override {
      throw MatlabError("unexpected call to '" + Name + "'");
    }
    bool knowsFunction(const std::string &) override { return false; }
  } Host;
  auto errorText = [](auto Run) {
    try {
      Run();
    } catch (MatlabError &ME) {
      return ME.message();
    }
    return std::string("<no error>");
  };

  Context Ctx;
  std::string VmMsg = errorText([&] { VM(Ctx, Host).run(F, {}, 1); });
  native::NativeCompiler NC("cc");
  std::unique_ptr<native::NativeModule> Mod = native::NativeCompiler::load(
      NC.compile(emitCSource(F, TypeSignature()), F.Name), F.Name, 1);
  std::string NativeMsg = errorText([&] {
    native::runNative(Mod->entry(), F.Name, 1, Ctx, Host, {}, 1);
  });
  EXPECT_EQ(VmMsg, "undefined function or variable 'z'");
  EXPECT_EQ(NativeMsg, VmMsg);
}

TEST_F(NativeEngineTest, InjectedFaultsDegradeToVmSilently) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no C compiler on host";
  for (faults::Site Site : {faults::Site::NativeCompile,
                            faults::Site::NativeLoad, faults::Site::NativeRun}) {
    faults::reset();
    faults::armEvery(Site, 1);
    fs::remove_all(Dir);
    Engine E(nativeOpts());
    ASSERT_TRUE(E.addSource("hot", kHotSource));
    for (int I = 0; I != 3; ++I) {
      auto R = E.callFunction("hot", {intArg(kHotArg)}, 1, SourceLoc());
      EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kHotExpect)
          << faults::siteName(Site);
    }
    // However the fault lands, the answer is right and nothing escapes.
    // The failed version is quarantined, not retried on every call.
    EXPECT_GT(faults::stats(Site).Fired, 0u) << faults::siteName(Site);
    EXPECT_GT(E.nativeFailures() + E.nativeDeopts(), 0u)
        << faults::siteName(Site);
    faults::reset();
  }
}

//===----------------------------------------------------------------------===//
// The .mjn validation ladder, store-level
//===----------------------------------------------------------------------===//

class NativeStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    Dir = fs::temp_directory_path() /
          ("majic_mjn_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  TypeSignature sig() { return TypeSignature({Type::scalar(IntrinsicType::Int)}); }

  /// A store with one saved native entry under stamp extra \p Extra.
  void saveOne(uint64_t Extra, const std::string &So = "\x7f""ELF-not-really") {
    RepoStore S(Dir.string());
    S.setNativeStampExtra(Extra);
    ASSERT_TRUE(S.saveNative("ff", sig(), 1, So, /*SourceHash=*/12345));
  }

  fs::path onlyMjn() {
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".mjn")
        return E.path();
    return {};
  }

  bool anyCorrupt() {
    if (!fs::exists(Dir))
      return false;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".corrupt")
        return true;
    return false;
  }

  fs::path Dir;
};

TEST_F(NativeStoreTest, RoundTrip) {
  saveOne(7, std::string("so-bytes\0with-nul", 17));
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  auto Entries = S.loadAllNative();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].FunctionName, "ff");
  EXPECT_EQ(Entries[0].NumOuts, 1u);
  EXPECT_EQ(Entries[0].SourceHash, 12345u);
  EXPECT_EQ(Entries[0].SoBytes, std::string("so-bytes\0with-nul", 17));
  EXPECT_EQ(S.stats().NativeLoaded, 1u);
}

TEST_F(NativeStoreTest, SharedWritableDirRefusesNativePayloads) {
  saveOne(7);
  // A group- or world-writable store directory means CRC-valid bytes could
  // have been planted by another user; dlopen'ing them would be code
  // execution, so both native save and native load must refuse. The .mjn
  // file is left untouched (it may be legitimate - just unprovable).
  fs::permissions(Dir, fs::perms::owner_all | fs::perms::group_all |
                           fs::perms::others_read | fs::perms::others_exec);
  {
    RepoStore S(Dir.string());
    S.setNativeStampExtra(7);
    EXPECT_FALSE(S.nativeTrusted());
    EXPECT_TRUE(S.loadAllNative().empty());
    EXPECT_EQ(S.stats().NativeUntrusted, 1u);
    EXPECT_EQ(S.stats().NativeLoaded, 0u);
    EXPECT_EQ(S.stats().NativeQuarantined, 0u);
    EXPECT_FALSE(S.saveNative("gg", sig(), 1, "bytes", 1));
    EXPECT_FALSE(anyCorrupt());
    EXPECT_FALSE(onlyMjn().empty());
  }
  // Tightening the permissions restores the tier: same bytes, now loadable.
  fs::permissions(Dir, fs::perms::owner_all);
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  EXPECT_TRUE(S.nativeTrusted());
  EXPECT_EQ(S.loadAllNative().size(), 1u);
}

TEST_F(NativeStoreTest, EraseNativeLeavesMjoAlone) {
  saveOne(7);
  fs::create_directories(Dir);
  std::ofstream(Dir / "ff.deadbeef.mjo") << "unrelated payload kind";
  RepoStore S(Dir.string());
  S.eraseNative("ff");
  EXPECT_TRUE(onlyMjn().empty());
  EXPECT_TRUE(fs::exists(Dir / "ff.deadbeef.mjo"));
}

TEST_F(NativeStoreTest, SaveFaultFailsSoft) {
  RepoStore S(Dir.string());
  S.setNativeStampExtra(7);
  faults::armEvery(faults::Site::RepoSave, 1);
  EXPECT_FALSE(S.saveNative("ff", sig(), 1, "so", 1));
  faults::reset();
  EXPECT_EQ(S.stats().NativeSaveFailures, 1u);
  EXPECT_TRUE(onlyMjn().empty());
}

} // namespace
