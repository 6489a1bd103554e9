//===- tests/SupportTest.cpp - Support utilities -------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/Repository.h"
#include "repo/Snooper.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

using namespace majic;

namespace {

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

TEST(StringUtils, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.0 / 3), "0.33");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(StringUtils, Split) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(StringUtils, EndsWith) {
  EXPECT_TRUE(endsWith("foo.m", ".m"));
  EXPECT_FALSE(endsWith("foo.mat", ".m"));
  EXPECT_FALSE(endsWith("m", ".m"));
}

TEST(StringUtils, IsIdentifier) {
  EXPECT_TRUE(isIdentifier("ff"));
  EXPECT_TRUE(isIdentifier("x_2"));
  EXPECT_TRUE(isIdentifier("_tmp"));
  EXPECT_TRUE(isIdentifier("_"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("2x"));
  EXPECT_FALSE(isIdentifier("9"));
  EXPECT_FALSE(isIdentifier("caf\xc3\xa9")); // non-ASCII letter
  EXPECT_FALSE(isIdentifier("\xc3\xa9t"));
  EXPECT_FALSE(isIdentifier("a/b"));
  EXPECT_FALSE(isIdentifier("../x"));
  EXPECT_FALSE(isIdentifier("f.m"));
  EXPECT_FALSE(isIdentifier("."));
  EXPECT_FALSE(isIdentifier("not an identifier"));
  EXPECT_FALSE(isIdentifier(std::string("a\0b", 3)));
}

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(formatDouble(42), "42");
  EXPECT_EQ(formatDouble(-3), "-3");
  EXPECT_EQ(formatDouble(2.5), "2.5");
  EXPECT_EQ(formatDouble(1e20), "1e+20");
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(123), B(123), C(124);
  for (int I = 0; I != 100; ++I) {
    uint64_t X = A.nextU64();
    EXPECT_EQ(X, B.nextU64());
  }
  EXPECT_NE(A.nextU64(), C.nextU64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng R(9);
  double Min = 1, Max = 0;
  for (int I = 0; I != 10000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
    Min = std::min(Min, X);
    Max = std::max(Max, X);
  }
  EXPECT_LT(Min, 0.05); // spreads over the interval
  EXPECT_GT(Max, 0.95);
}

TEST(Rng, ReseedRestartsStream) {
  Rng R(7);
  uint64_t First = R.nextU64();
  R.nextU64();
  R.reseed(7);
  EXPECT_EQ(R.nextU64(), First);
}

//===----------------------------------------------------------------------===//
// Diagnostics and source locations
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CollectsAndRenders) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("f.m", "x = 1;\n");
  Diagnostics D;
  D.error({Id, 1, 5}, "bad thing");
  D.warning({Id, 1, 1}, "odd thing");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.numErrors(), 1u);
  std::string Text = D.render(SM);
  EXPECT_NE(Text.find("f.m:1:5: error: bad thing"), std::string::npos);
  EXPECT_NE(Text.find("warning: odd thing"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
}

TEST(SourceManager, DescribeUnknown) {
  SourceManager SM;
  EXPECT_EQ(SM.describe(SourceLoc()), "<unknown>");
}

TEST(PhaseTimes, AccumulatesAndNames) {
  PhaseTimes P;
  P.add(Phase::Parse, 0.5);
  P.add(Phase::Parse, 0.25);
  P.add(Phase::Execute, 1.0);
  EXPECT_DOUBLE_EQ(P.get(Phase::Parse), 0.75);
  EXPECT_DOUBLE_EQ(P.total(), 1.75);
  EXPECT_STREQ(PhaseTimes::phaseName(Phase::TypeInference), "typeinf");
  P.clear();
  EXPECT_DOUBLE_EQ(P.total(), 0);
}

//===----------------------------------------------------------------------===//
// Repository
//===----------------------------------------------------------------------===//

CompiledObject makeObj(const std::string &Name, TypeSignature Sig) {
  CompiledObject Obj;
  Obj.FunctionName = Name;
  Obj.Sig = std::move(Sig);
  Obj.Code = std::make_shared<IRFunction>();
  return Obj;
}

TEST(Repository, MissOnEmptyAndUnknown) {
  Repository R;
  EXPECT_EQ(R.lookup("f", TypeSignature::generic(1)), nullptr);
  EXPECT_EQ(R.totalObjects(), 0u);
  EXPECT_EQ(R.lookupMisses(), 1u);
}

TEST(Repository, SafetyGovernsLookup) {
  Repository R;
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Real)})));
  // Int scalar is a subtype: safe.
  TypeSignature IntCall({Type::ofValue(Value::intScalar(5))});
  EXPECT_NE(R.lookup("f", IntCall), nullptr);
  // A matrix is not.
  TypeSignature MatCall({Type::ofValue(Value::zeros(2, 2))});
  EXPECT_EQ(R.lookup("f", MatCall), nullptr);
}

TEST(Repository, BestMatchByDistance) {
  Repository R;
  R.insert(makeObj("f", TypeSignature::generic(1)));
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Int)})));
  TypeSignature Call({Type::ofValue(Value::intScalar(3))});
  CompiledObjectPtr Hit = R.lookup("f", Call);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Sig[0].intrinsic(), IntrinsicType::Int);
  // A real-scalar call can only use the generic version.
  TypeSignature RealCall({Type::ofValue(Value::scalar(2.5))});
  CompiledObjectPtr Generic = R.lookup("f", RealCall);
  ASSERT_NE(Generic, nullptr);
  EXPECT_EQ(Generic->Sig[0].intrinsic(), IntrinsicType::Top);
}

TEST(Repository, InsertReplacesSameSignature) {
  Repository R;
  R.insert(makeObj("f", TypeSignature::generic(1)));
  auto Obj = makeObj("f", TypeSignature::generic(1));
  Obj.CompileSeconds = 42;
  R.insert(std::move(Obj));
  EXPECT_EQ(R.totalObjects(), 1u);
  CompiledObjectPtr Hit = R.lookup("f", TypeSignature::generic(1));
  ASSERT_NE(Hit, nullptr);
  EXPECT_DOUBLE_EQ(Hit->CompileSeconds, 42);
}

TEST(Repository, InvalidateDropsAllVersions) {
  Repository R;
  R.insert(makeObj("f", TypeSignature::generic(1)));
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Int)})));
  R.insert(makeObj("g", TypeSignature::generic(1)));
  R.invalidate("f");
  EXPECT_TRUE(R.versions("f").empty());
  EXPECT_EQ(R.totalObjects(), 1u);
}

TEST(Repository, HitCountersAdvance) {
  Repository R;
  R.insert(makeObj("f", TypeSignature::generic(1)));
  TypeSignature Call({Type::ofValue(Value::intScalar(1))});
  R.lookup("f", Call);
  R.lookup("f", Call);
  R.lookup("g", Call);
  EXPECT_EQ(R.lookupHits(), 2u);
  EXPECT_EQ(R.lookupMisses(), 1u);
  EXPECT_EQ(R.versions("f").front()->Hits, 2u);
}

TEST(Repository, MissKindsAreSplit) {
  Repository R;
  TypeSignature IntCall({Type::ofValue(Value::intScalar(1))});
  // Unknown function: a no-function miss.
  R.lookup("f", IntCall);
  EXPECT_EQ(R.lookupMissesNoFunction(), 1u);
  EXPECT_EQ(R.lookupMissesNoSafeVersion(), 0u);
  // Versions exist but none is safe for a matrix: a speculation miss.
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Real)})));
  TypeSignature MatCall({Type::ofValue(Value::zeros(2, 2))});
  R.lookup("f", MatCall);
  EXPECT_EQ(R.lookupMissesNoFunction(), 1u);
  EXPECT_EQ(R.lookupMissesNoSafeVersion(), 1u);
  // The combined counter is the sum of both kinds.
  EXPECT_EQ(R.lookupMisses(), 2u);
}

TEST(Repository, ReplacementPreservesHits) {
  Repository R;
  R.insert(makeObj("f", TypeSignature::generic(1)));
  TypeSignature Call({Type::ofValue(Value::intScalar(1))});
  R.lookup("f", Call);
  R.lookup("f", Call);
  R.lookup("f", Call);
  EXPECT_EQ(R.versions("f").front()->Hits, 3u);
  // Recompiling the same signature (e.g. the optimizing backend replacing
  // JIT code) must not zero the accumulated per-version hit count.
  auto Better = makeObj("f", TypeSignature::generic(1));
  Better.CompileSeconds = 0.5;
  R.insert(std::move(Better));
  EXPECT_EQ(R.totalObjects(), 1u);
  EXPECT_EQ(R.versions("f").front()->Hits, 3u);
  R.lookup("f", Call);
  EXPECT_EQ(R.versions("f").front()->Hits, 4u);
}

TEST(Repository, CompileSecondsAccumulateAcrossReplacement) {
  Repository R;
  auto A = makeObj("f", TypeSignature::generic(1));
  A.CompileSeconds = 1.0;
  R.insert(std::move(A));
  auto B = makeObj("f", TypeSignature::generic(1));
  B.CompileSeconds = 2.5;
  R.insert(std::move(B));
  // The replaced version's compile time is not lost to the statistics.
  EXPECT_DOUBLE_EQ(R.totalCompileSeconds(), 3.5);
  EXPECT_DOUBLE_EQ(R.versions("f").front()->CompileSeconds, 2.5);
}

TEST(Repository, LookupHandleSurvivesReplacementAndGrowth) {
  Repository R;
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Int)})));
  TypeSignature Call({Type::ofValue(Value::intScalar(1))});
  CompiledObjectPtr Hit = R.lookup("f", Call);
  ASSERT_NE(Hit, nullptr);
  std::shared_ptr<const IRFunction> Code = Hit->Code;
  // Push enough versions to force vector growth, then replace and
  // invalidate; the handle must stay fully usable (the latent
  // use-after-free this API change fixed).
  for (int I = 0; I != 64; ++I)
    R.insert(makeObj("f", TypeSignature({Type::constant(I)})));
  R.insert(makeObj("f", TypeSignature({Type::scalar(IntrinsicType::Int)})));
  R.invalidate("f");
  EXPECT_EQ(Hit->Code, Code);
  EXPECT_EQ(Hit->Sig[0].intrinsic(), IntrinsicType::Int);
}

//===----------------------------------------------------------------------===//
// Snooper
//===----------------------------------------------------------------------===//

TEST(Snooper, DetectsNewAndModified) {
  std::string Dir = ::testing::TempDir() + "/majic_snooper_unit";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  SourceSnooper S;
  S.watchDirectory(Dir);
  EXPECT_TRUE(S.scan().empty());

  {
    std::ofstream F(Dir + "/a.m");
    F << "function y = a(x)\ny = x;\n";
  }
  auto C1 = S.scan();
  ASSERT_EQ(C1.size(), 1u);
  EXPECT_EQ(C1[0].FunctionName, "a");
  EXPECT_EQ(C1[0].K, SourceSnooper::Change::Kind::Added);
  EXPECT_TRUE(S.scan().empty()); // unchanged

  // Touch with a strictly newer mtime.
  std::filesystem::last_write_time(
      Dir + "/a.m",
      std::filesystem::file_time_type::clock::now() + std::chrono::seconds(3));
  auto C2 = S.scan();
  ASSERT_EQ(C2.size(), 1u);
  EXPECT_EQ(C2[0].K, SourceSnooper::Change::Kind::Modified);

  // Deleting the file is reported exactly once, as Removed.
  std::filesystem::remove(Dir + "/a.m");
  auto C3 = S.scan();
  ASSERT_EQ(C3.size(), 1u);
  EXPECT_EQ(C3[0].FunctionName, "a");
  EXPECT_EQ(C3[0].K, SourceSnooper::Change::Kind::Removed);
  EXPECT_TRUE(S.scan().empty());

  // Non-.m files are ignored.
  {
    std::ofstream F(Dir + "/notes.txt");
    F << "hello";
  }
  EXPECT_TRUE(S.scan().empty());
}

TEST(Snooper, DeterministicOrder) {
  std::string Dir = ::testing::TempDir() + "/majic_snooper_order";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  for (const char *Name : {"zeta.m", "alpha.m", "mid.m"}) {
    std::ofstream F(Dir + "/" + Name);
    F << "function y = f(x)\ny = x;\n";
  }
  SourceSnooper S;
  S.watchDirectory(Dir);
  auto Changes = S.scan();
  ASSERT_EQ(Changes.size(), 3u);
  EXPECT_EQ(Changes[0].FunctionName, "alpha");
  EXPECT_EQ(Changes[2].FunctionName, "zeta");
}

} // namespace
