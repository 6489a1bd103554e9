//===- tests/SealedFileTest.cpp - Every sealed file kind ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every persisted payload kind - compiled IR (.mjo), native shared objects
// (.mjn), profile summaries (profiles.mjp) and hibernated workspaces
// (.mjws) - travels in the one sealed envelope of support/SealedFile. This
// suite attacks each kind through its own store (loadAll, loadAllNative,
// loadProfiles, SnapshotStore::load) and checks that store's counters:
//
//  * no single-bit flip ever loads: flips in the format version or stamp
//    are skew, every other flip is corruption;
//  * every truncation, an appended byte, seeded garbage and an oversized
//    file are quarantined as *.corrupt, out of the namespace;
//  * a version or stamp mismatch deletes the file silently;
//  * a file written by the previous (version-1) header layout skews out,
//    and the next save writes one that loads.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "repo/RepoStore.h"
#include "service/SnapshotStore.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void spit(const fs::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

fs::path onlyFileWith(const fs::path &Dir, const std::string &Ext) {
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.path().extension() == Ext)
      return E.path();
  return {};
}

/// What one load reported through its store's counters.
struct Counts {
  uint64_t Loaded = 0;
  uint64_t Quarantined = 0;
  uint64_t Skewed = 0;
};

/// One persisted payload kind, driven through its store.
struct KindCase {
  const char *Name;
  uint64_t MaxFileBytes;
  /// Which fields the version-1 header carried between version and size.
  bool V1HasStamp;
  bool V1HasSourceHash;
  /// Saves one valid file into the directory; returns its path.
  std::function<fs::path(const fs::path &)> Save;
  /// Loads the directory through a fresh store.
  std::function<Counts(const fs::path &)> Load;
};

const char *kSource = "function y = ff(x)\n"
                      "y = 0;\n"
                      "for k = 1:x\n"
                      "y = y + k * k;\n"
                      "end\n";

TypeSignature intSig() {
  return TypeSignature({Type::scalar(IntrinsicType::Int)});
}

KindCase objectCase() {
  return {"mjo", 64ull << 20, true, true,
          [](const fs::path &Dir) {
            EngineOptions O;
            O.Policy = CompilePolicy::Jit;
            O.BackgroundCompileThreads = 0;
            O.RepoDir = Dir.string();
            Engine E(O);
            EXPECT_TRUE(E.addSource("ff", kSource));
            E.callFunction("ff", {makeValue(Value::intScalar(10))}, 1,
                           SourceLoc());
            E.flushRepoStore();
            return onlyFileWith(Dir, ".mjo");
          },
          [](const fs::path &Dir) {
            RepoStore S(Dir.string());
            size_t N = S.loadAll().size();
            RepoStoreStats St = S.stats();
            EXPECT_EQ(N, St.Loaded);
            return Counts{St.Loaded, St.Quarantined, St.Skewed};
          }};
}

KindCase nativeCase() {
  return {"mjn", 64ull << 20, true, true,
          [](const fs::path &Dir) {
            RepoStore S(Dir.string());
            S.setNativeStampExtra(7);
            EXPECT_TRUE(S.saveNative("ff", intSig(), 1,
                                     std::string("\x7f" "ELF\0so", 7), 12345));
            return onlyFileWith(Dir, ".mjn");
          },
          [](const fs::path &Dir) {
            RepoStore S(Dir.string());
            S.setNativeStampExtra(7);
            size_t N = S.loadAllNative().size();
            RepoStoreStats St = S.stats();
            EXPECT_EQ(N, St.NativeLoaded);
            EXPECT_EQ(St.NativeUntrusted, 0u);
            return Counts{St.NativeLoaded, St.NativeQuarantined,
                          St.NativeSkewed};
          }};
}

KindCase profileCase() {
  return {"mjp", 64ull << 20, true, false,
          [](const fs::path &Dir) {
            RepoStore::ProfileSummary Hot;
            Hot.Name = "gg";
            Hot.Invocations = 41;
            Hot.OtherSignatures = 2;
            RepoStore::ProfileSig S1;
            S1.Sig = intSig();
            S1.SigStr = S1.Sig.str();
            S1.Count = 30;
            Hot.Sigs = {S1};
            RepoStore::ProfileSummary Cold;
            Cold.Name = "ff";
            Cold.Invocations = 1;
            RepoStore S(Dir.string());
            EXPECT_TRUE(S.saveProfiles({Hot, Cold}));
            return fs::path(S.profilePath());
          },
          [](const fs::path &Dir) {
            RepoStore S(Dir.string());
            bool Any = !S.loadProfiles().empty();
            RepoStoreStats St = S.stats();
            EXPECT_EQ(St.ProfilesLoaded, Any ? 2u : 0u);
            return Counts{Any ? 1u : 0u, St.ProfilesQuarantined,
                          St.ProfilesSkewed};
          }};
}

KindCase workspaceCase() {
  return {"mjws", 1ull << 30, false, false,
          [](const fs::path &Dir) {
            ser::WorkspaceImage Img;
            Img.Sources.push_back(
                {"bump", "function y = bump(x)\ny = x + 1;\n"});
            Value Cplx = Value::zeros(1, 2, MClass::Complex);
            Cplx.reData()[0] = -0.0;
            Cplx.imData()[1] = std::numeric_limits<double>::quiet_NaN();
            Img.Vars.push_back({"a", makeValue(Value::scalar(2.5))});
            Img.Vars.push_back({"b", makeValue(std::move(Cplx))});
            Img.Vars.push_back({"c", makeValue(Value::str("text"))});
            Img.Vars.push_back({"d", makeValue(Value::boolScalar(true))});
            Img.Vars.push_back(
                {"e", makeValue(Value::zeros(3, 1, MClass::Int))});
            Img.Vars.push_back(
                {"f", makeValue(Value::zeros(0, 5, MClass::Real))});
            SnapshotStore S(Dir.string());
            EXPECT_TRUE(S.save(1, Img));
            return fs::path(S.pathFor(1));
          },
          [](const fs::path &Dir) {
            SnapshotStore S(Dir.string());
            ser::WorkspaceImage Out;
            SnapshotStore::LoadStatus LS = S.load(1, Out);
            SnapshotStore::StatsSnapshot St = S.stats();
            EXPECT_EQ(LS == SnapshotStore::LoadStatus::Ok, St.Loaded == 1);
            return Counts{St.Loaded, St.Quarantined, St.Skewed};
          }};
}

class SealedFileTest : public ::testing::TestWithParam<KindCase> {
protected:
  void SetUp() override {
    faults::reset();
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string Name = std::string(Info->name());
    for (char &C : Name)
      if (C == '/')
        C = '_';
    Dir = fs::temp_directory_path() / ("majic_sealed_" + Name);
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    // Private, so the native kind's trust gate admits it.
    fs::permissions(Dir, fs::perms::owner_all);
    File = GetParam().Save(Dir);
    ASSERT_FALSE(File.empty());
    Good = slurp(File);
    ASSERT_GT(Good.size(), 28u);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  fs::path quarantined() const { return File.string() + ".corrupt"; }

  /// Puts \p Bytes in place of the kind's file and loads it.
  Counts loadBytes(const std::string &Bytes) {
    fs::remove(quarantined());
    spit(File, Bytes);
    return GetParam().Load(Dir);
  }

  void expectCorrupt(const Counts &C, const std::string &What) {
    EXPECT_EQ(C.Loaded, 0u) << What;
    EXPECT_EQ(C.Quarantined, 1u) << What;
    EXPECT_EQ(C.Skewed, 0u) << What;
    EXPECT_FALSE(fs::exists(File)) << What;
    EXPECT_TRUE(fs::exists(quarantined())) << What;
  }

  void expectSkew(const Counts &C, const std::string &What) {
    EXPECT_EQ(C.Loaded, 0u) << What;
    EXPECT_EQ(C.Quarantined, 0u) << What;
    EXPECT_EQ(C.Skewed, 1u) << What;
    EXPECT_FALSE(fs::exists(File)) << What;
    EXPECT_FALSE(fs::exists(quarantined())) << What;
  }

  void expectOk(const Counts &C) {
    EXPECT_EQ(C.Loaded, 1u);
    EXPECT_EQ(C.Quarantined, 0u);
    EXPECT_EQ(C.Skewed, 0u);
  }

  fs::path Dir;
  fs::path File;
  std::string Good;
};

TEST_P(SealedFileTest, ValidFileLoads) { expectOk(loadBytes(Good)); }

TEST_P(SealedFileTest, EverySingleBitFlipIsRejected) {
  // Bytes 4..15 are the format version and stamp: a flip there reads as
  // another build's file. Everything else - magic, size, CRC, payload
  // (including the .mjo/.mjn source hash) - is corruption.
  for (size_t I = 0; I != Good.size(); ++I) {
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Bad = Good;
      Bad[I] = char(uint8_t(Bad[I]) ^ uint8_t(1u << Bit));
      std::string What =
          "bit " + std::to_string(Bit) + " of byte " + std::to_string(I);
      Counts C = loadBytes(Bad);
      if (I >= 4 && I < 16)
        expectSkew(C, What);
      else
        expectCorrupt(C, What);
      if (HasFailure())
        return;
    }
  }
}

TEST_P(SealedFileTest, EveryTruncationAndAppendIsQuarantined) {
  for (size_t Len = 0; Len != Good.size(); ++Len) {
    expectCorrupt(loadBytes(Good.substr(0, Len)),
                  "truncation to " + std::to_string(Len));
    if (HasFailure())
      return;
  }
  expectCorrupt(loadBytes(Good + '\0'), "appended byte");
}

TEST_P(SealedFileTest, GarbageIsQuarantined) {
  std::mt19937 Rng(0x4d4a5753u); // deterministic: same sweep every run
  for (int Round = 0; Round != 256; ++Round) {
    std::string Junk(Rng() % 512, '\0');
    for (char &C : Junk)
      C = char(Rng() & 0xff);
    expectCorrupt(loadBytes(Junk), "garbage round " + std::to_string(Round));
    if (HasFailure())
      return;
  }
}

TEST_P(SealedFileTest, OversizedFileIsQuarantinedUnread) {
  // Sparse: the cap is checked against the file size before any read.
  fs::resize_file(File, GetParam().MaxFileBytes + 1);
  expectCorrupt(GetParam().Load(Dir), "oversized");
}

TEST_P(SealedFileTest, VersionOrStampSkewIsDeletedSilently) {
  std::string NextVersion = Good;
  NextVersion[4] = char(NextVersion[4] + 1); // little-endian low byte
  expectSkew(loadBytes(NextVersion), "version + 1");

  std::string OtherStamp = Good;
  OtherStamp[8] = char(OtherStamp[8] ^ 0x5a);
  expectSkew(loadBytes(OtherStamp), "changed stamp");
}

TEST_P(SealedFileTest, QuarantineLeavesTheNamespace) {
  expectCorrupt(loadBytes(std::string(256, '\x5a')), "garbage");
  Counts Again = GetParam().Load(Dir);
  EXPECT_EQ(Again.Loaded, 0u);
  EXPECT_EQ(Again.Quarantined, 0u);
  EXPECT_EQ(Again.Skewed, 0u);
}

TEST_P(SealedFileTest, VersionOneFileSkewsOutAndIsRewritten) {
  // The version-1 layout: magic | version | [stamp] | [source hash] |
  // payload size | CRC32 | payload. Magic and version sat where they sit
  // today, so the file reaches the version check.
  const KindCase &K = GetParam();
  std::string Payload = "a version-1 payload";
  ser::ByteWriter W;
  W.u32(ser::ByteReader(Good).u32()); // the kind's magic
  W.u32(1);
  if (K.V1HasStamp)
    W.u64(0x0123456789abcdefull);
  if (K.V1HasSourceHash)
    W.u64(12345);
  W.u64(Payload.size());
  W.u32(hashing::crc32(Payload));
  expectSkew(loadBytes(W.take() + Payload), "version-1 file");

  File = K.Save(Dir);
  std::string Fresh = slurp(File);
  ser::ByteReader R(Fresh);
  R.u32();
  EXPECT_EQ(R.u32(), 2u);
  expectOk(K.Load(Dir));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SealedFileTest,
                         ::testing::Values(objectCase(), nativeCase(),
                                           profileCase(), workspaceCase()),
                         [](const ::testing::TestParamInfo<KindCase> &I) {
                           return std::string(I.param.Name);
                         });

// The native stamp folds in the engine-supplied extra (native ABI version,
// compiler identity): a payload from another compiler is skew.
TEST(SealedNativeTest, StampExtraChangeIsSkew) {
  fs::path Dir = fs::temp_directory_path() / "majic_sealed_native_extra";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  fs::permissions(Dir, fs::perms::owner_all);
  fs::path File = nativeCase().Save(Dir);
  RepoStore S(Dir.string());
  S.setNativeStampExtra(8);
  EXPECT_TRUE(S.loadAllNative().empty());
  EXPECT_EQ(S.stats().NativeSkewed, 1u);
  EXPECT_EQ(S.stats().NativeQuarantined, 0u);
  EXPECT_FALSE(fs::exists(File));
  EXPECT_FALSE(fs::exists(File.string() + ".corrupt"));
  fs::remove_all(Dir);
}

} // namespace
