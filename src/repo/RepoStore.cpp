//===- repo/RepoStore.cpp - Persistent code repository ----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/RepoStore.h"

#include "ir/Serialize.h"
#include "obs/Trace.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/SealedFile.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <string_view>

#include <sys/stat.h>
#include <unistd.h>

using namespace majic;
namespace fs = std::filesystem;

namespace {

constexpr uint32_t kMagic = 0x4d4a4f42u; // "MJOB"
constexpr uint32_t kFormatVersion = 2;
constexpr const char *kExtension = ".mjo";
constexpr uint32_t kProfileMagic = 0x4d4a5046u; // "MJPF"
constexpr uint32_t kProfileFormatVersion = 2;
constexpr const char *kProfileExtension = ".mjp";
constexpr uint32_t kNativeMagic = 0x4d4a4e42u; // "MJNB"
constexpr uint32_t kNativeFormatVersion = 2;
constexpr const char *kNativeExtension = ".mjn";
/// Refuse to slurp absurdly large files: a cache entry is a few KB; a
/// multi-megabyte one is damage, not data.
constexpr uint64_t kMaxFileBytes = 64ull << 20;

/// The engine build stamp: compiled code is an internal ABI (IR opcodes,
/// register layout, VM semantics), so entries written under a different
/// ABI are discarded rather than decoded. The stamp derives from
/// ser::kCodeABIVersion - a constant bumped by hand with semantic changes -
/// plus mechanical facts of the opcode set that catch the most common
/// drift (adding an opcode, widening an instruction) automatically. A
/// compilation timestamp would do neither job: under incremental builds it
/// churns without a semantic change and, worse, stays fixed when a
/// semantic change lands in a translation unit this file never includes.
uint64_t buildStamp() {
  struct {
    uint32_t Abi;
    uint32_t MaxOpcode;
    uint32_t InstrBytes;
    uint32_t TypeBytes;
  } Facts = {ser::kCodeABIVersion, static_cast<uint32_t>(Opcode::PSpSt),
             static_cast<uint32_t>(sizeof(Instr)),
             static_cast<uint32_t>(sizeof(Type))};
  return hashing::fnv1a(&Facts, sizeof(Facts),
                        hashing::fnv1a("majic-repo-abi"));
}

/// The native payload stamp: machine code is a narrower ABI than
/// serialized IR (it bakes in the marshalling struct layout, the shim
/// table order, and the compiler that produced it), so .mjn files fold
/// the engine-supplied extra - native ABI version plus a hash of the C
/// compiler's identification line - on top of the code stamp. A compiler
/// upgrade invalidates the cached .so while the .mjo beside it survives.
uint64_t nativeStamp(uint64_t Extra) {
  struct {
    uint64_t Base;
    uint64_t Extra;
  } Facts = {buildStamp(), Extra};
  return hashing::fnv1a(&Facts, sizeof(Facts),
                        hashing::fnv1a("majic-native-abi"));
}

sealed::Kind objectKind() {
  return {kMagic, kFormatVersion, buildStamp(), kMaxFileBytes,
          faults::Site::RepoLoad};
}

sealed::Kind profileKind() {
  return {kProfileMagic, kProfileFormatVersion, buildStamp(), kMaxFileBytes,
          faults::Site::RepoLoad};
}

sealed::Kind nativeKind(uint64_t Extra) {
  return {kNativeMagic, kNativeFormatVersion, nativeStamp(Extra),
          kMaxFileBytes, faults::Site::RepoLoad};
}

std::string sigHashHex(const TypeSignature &Sig) {
  ser::ByteWriter SigBytes;
  ser::writeTypeSignature(SigBytes, Sig);
  return format("%016llx", static_cast<unsigned long long>(
                               hashing::fnv1a(SigBytes.bytes())));
}

/// An .mjo payload: the source hash the entry was compiled from, then the
/// compiled object.
void writeObject(ser::ByteWriter &W, const CompiledObject &Obj,
                 uint64_t SourceHash) {
  W.u64(SourceHash);
  W.str(Obj.FunctionName);
  ser::writeTypeSignature(W, Obj.Sig);
  W.u8(static_cast<uint8_t>(Obj.Mode));
  W.u8(static_cast<uint8_t>(Obj.From));
  W.f64(Obj.CompileSeconds);
  ser::writeIRFunction(W, *Obj.Code);
}

RepoStore::Entry readObject(ser::ByteReader &R) {
  RepoStore::Entry E;
  E.SourceHash = R.u64();
  CompiledObject &Obj = E.Obj;
  Obj.FunctionName = R.str();
  Obj.Sig = ser::readTypeSignature(R);
  uint8_t Mode = R.u8();
  if (Mode > static_cast<uint8_t>(CodeGenMode::Generic))
    throw ser::SerializeError("invalid codegen mode");
  Obj.Mode = static_cast<CodeGenMode>(Mode);
  uint8_t From = R.u8();
  if (From > static_cast<uint8_t>(CompiledObject::Origin::Generic))
    throw ser::SerializeError("invalid origin");
  Obj.From = static_cast<CompiledObject::Origin>(From);
  Obj.CompileSeconds = R.f64();
  Obj.Code = std::make_shared<IRFunction>(ser::readIRFunction(R));
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  if (Obj.Code->Name != Obj.FunctionName)
    throw ser::SerializeError("function name mismatch");
  return E;
}

/// An .mjn payload: source hash, then the entry's identity and .so bytes.
void writeNative(ser::ByteWriter &W, const std::string &FunctionName,
                 const TypeSignature &Sig, uint32_t NumOuts,
                 const std::string &SoBytes, uint64_t SourceHash) {
  W.u64(SourceHash);
  W.str(FunctionName);
  ser::writeTypeSignature(W, Sig);
  W.u32(NumOuts);
  W.str(SoBytes);
}

RepoStore::NativeEntry readNative(ser::ByteReader &R) {
  RepoStore::NativeEntry E;
  E.SourceHash = R.u64();
  E.FunctionName = R.str();
  if (!isIdentifier(E.FunctionName))
    throw ser::SerializeError("invalid function name");
  E.Sig = ser::readTypeSignature(R);
  E.NumOuts = R.u32();
  E.SoBytes = R.str();
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  if (E.SoBytes.empty())
    throw ser::SerializeError("empty shared object");
  return E;
}

/// A profiles.mjp payload: u32 count, then per function its name,
/// invocations, overflow count and top-K signatures with counts.
void writeProfiles(ser::ByteWriter &W,
                   const std::vector<RepoStore::ProfileSummary> &Ps) {
  W.u32(static_cast<uint32_t>(Ps.size()));
  for (const RepoStore::ProfileSummary &S : Ps) {
    W.str(S.Name);
    W.u64(S.Invocations);
    W.u64(S.OtherSignatures);
    size_t N = std::min(S.Sigs.size(), RepoStore::kProfileTopK);
    W.u32(static_cast<uint32_t>(N));
    for (size_t I = 0; I != N; ++I) {
      ser::writeTypeSignature(W, S.Sigs[I].Sig);
      W.u64(S.Sigs[I].Count);
    }
  }
}

std::vector<RepoStore::ProfileSummary> readProfiles(ser::ByteReader &R) {
  // Smallest summary: name prefix, two counts, signature count.
  uint32_t Count = R.arrayLen(4 + 8 + 8 + 4);
  std::vector<RepoStore::ProfileSummary> Ps;
  Ps.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    RepoStore::ProfileSummary S;
    S.Name = R.str();
    if (!isIdentifier(S.Name))
      throw ser::SerializeError("invalid function name");
    S.Invocations = R.u64();
    S.OtherSignatures = R.u64();
    uint32_t NSigs = R.u32();
    if (NSigs > RepoStore::kProfileTopK)
      throw ser::SerializeError("signature count out of range");
    S.Sigs.reserve(NSigs);
    for (uint32_t J = 0; J != NSigs; ++J) {
      RepoStore::ProfileSig PS;
      PS.Sig = ser::readTypeSignature(R);
      PS.Count = R.u64();
      PS.SigStr = PS.Sig.str();
      S.Sigs.push_back(std::move(PS));
    }
    Ps.push_back(std::move(S));
  }
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  return Ps;
}

/// The store's files with extension \p Ext, sorted so loads run in a
/// deterministic order.
std::vector<std::string> filesWithExtension(const std::string &Dir,
                                            const char *Ext) {
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (EC)
      break;
    if (E.is_regular_file() && E.path().extension() == Ext)
      Paths.push_back(E.path().string());
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

/// Deletes every `<FunctionName>.*` file whose extension is in \p Exts.
void removeVersions(const std::string &Dir, const std::string &FunctionName,
                    std::initializer_list<std::string_view> Exts) {
  std::string Prefix = FunctionName + ".";
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (EC)
      break;
    std::string Ext = E.path().extension().string();
    if (E.is_regular_file() &&
        std::find(Exts.begin(), Exts.end(), Ext) != Exts.end() &&
        E.path().filename().string().rfind(Prefix, 0) == 0) {
      std::error_code RmEC;
      fs::remove(E.path(), RmEC);
    }
  }
}

/// Whether \p Dir is private enough to carry machine code: owned by the
/// effective uid and neither group- nor world-writable. The validation
/// ladder proves the bytes are intact, not who wrote them - and a .mjn
/// payload gets dlopen'ed, so anyone who can write the directory can run
/// code in the engine process. Data-only .mjo entries are not held to
/// this bar: their worst case is a bounds-checked decode failure.
bool dirTrustedForNative(const std::string &Dir) {
  struct stat St;
  if (lstat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return false;
  if (St.st_uid != geteuid())
    return false;
  return (St.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

} // namespace

RepoStore::RepoStore(std::string DirIn) : Dir(std::move(DirIn)) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  Usable = !EC && fs::is_directory(Dir, EC);
  NativeTrusted = Usable && dirTrustedForNative(Dir);
}

unsigned RepoStore::sweepTemps() {
  if (!Usable)
    return 0;
  unsigned N = atomicfile::sweepTempFiles(Dir, kExtension);
  N += atomicfile::sweepTempFiles(Dir, kProfileExtension);
  N += atomicfile::sweepTempFiles(Dir, kNativeExtension);
  std::lock_guard<std::mutex> L(Mutex);
  Stats.SweptTemps += N;
  return N;
}

std::string RepoStore::entryPath(const CompiledObject &Obj) const {
  // One file per (function, signature) version: the signature hash keys
  // the version, so recompiling the same signature overwrites in place.
  return Dir + "/" + Obj.FunctionName + "." + sigHashHex(Obj.Sig) +
         kExtension;
}

std::string RepoStore::nativePath(const std::string &FunctionName,
                                  const TypeSignature &Sig) const {
  // Same naming scheme as entryPath so the .so lands beside its .mjo.
  return Dir + "/" + FunctionName + "." + sigHashHex(Sig) + kNativeExtension;
}

bool RepoStore::save(const CompiledObject &Obj, uint64_t SourceHash) {
  obs::TraceScope Span("repo.save", "repo", Obj.FunctionName.c_str());
  // Saving must never take down the caller (it runs on the idle pool or
  // inline on the compile path): any failure - injected fault, full disk,
  // unwritable directory - is swallowed into a counter.
  try {
    faults::maybeThrow(faults::Site::RepoSave);
    if (!Usable || !Obj.Code || !isIdentifier(Obj.FunctionName))
      throw std::runtime_error("store unusable");
    std::string Bytes = sealed::seal(objectKind(), [&](ser::ByteWriter &W) {
      writeObject(W, Obj, SourceHash);
    });
    std::string Error;
    if (!atomicfile::writeFileAtomic(entryPath(Obj), Bytes, &Error))
      throw std::runtime_error(Error);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.Saved;
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.SaveFailures;
    return false;
  }
}

std::vector<RepoStore::Entry> RepoStore::loadAll() {
  obs::TraceScope Span("repo.load", "repo", Dir.c_str());
  std::vector<Entry> Out;
  if (!Usable)
    return Out;
  // The source-hash check runs later, at adoption time, when the engine
  // knows the current source text.
  sealed::Kind K = objectKind();
  for (const std::string &Path : filesWithExtension(Dir, kExtension)) {
    Entry E;
    sealed::Verdict V =
        sealed::load(Path, K, [&](ser::ByteReader &R) { E = readObject(R); });
    if (V == sealed::Verdict::Ok) {
      E.Path = Path;
      Out.push_back(std::move(E));
    }
    std::lock_guard<std::mutex> L(Mutex);
    ++(V == sealed::Verdict::Ok     ? Stats.Loaded
       : V == sealed::Verdict::Skew ? Stats.Skewed
                                    : Stats.Quarantined);
  }
  return Out;
}

void RepoStore::erase(const std::string &FunctionName) {
  // Source turnover invalidates both payload kinds: the native .so was
  // compiled from the same stale source as the IR beside it.
  if (Usable && isIdentifier(FunctionName))
    removeVersions(Dir, FunctionName, {kExtension, kNativeExtension});
}

void RepoStore::eraseNative(const std::string &FunctionName) {
  if (Usable && isIdentifier(FunctionName))
    removeVersions(Dir, FunctionName, {kNativeExtension});
}

void RepoStore::discardStale(const std::string &Path) {
  std::error_code EC;
  fs::remove(Path, EC);
  std::lock_guard<std::mutex> L(Mutex);
  ++Stats.StaleSource;
}

void RepoStore::noteAdopted() {
  std::lock_guard<std::mutex> L(Mutex);
  ++Stats.Adopted;
}

//===----------------------------------------------------------------------===//
// Native payloads (.mjn)
//===----------------------------------------------------------------------===//

void RepoStore::setNativeStampExtra(uint64_t Extra) { NativeExtra = Extra; }

bool RepoStore::saveNative(const std::string &FunctionName,
                           const TypeSignature &Sig, uint32_t NumOuts,
                           const std::string &SoBytes, uint64_t SourceHash) {
  obs::TraceScope Span("repo.save_native", "repo", FunctionName.c_str());
  try {
    faults::maybeThrow(faults::Site::RepoSave);
    if (!Usable || !NativeTrusted || SoBytes.empty() ||
        !isIdentifier(FunctionName))
      throw std::runtime_error("store unusable or untrusted for native");
    std::string Bytes =
        sealed::seal(nativeKind(NativeExtra), [&](ser::ByteWriter &W) {
          writeNative(W, FunctionName, Sig, NumOuts, SoBytes, SourceHash);
        });
    std::string Error;
    if (!atomicfile::writeFileAtomic(nativePath(FunctionName, Sig), Bytes,
                                     &Error))
      throw std::runtime_error(Error);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.NativeSaved;
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.NativeSaveFailures;
    return false;
  }
}

std::vector<RepoStore::NativeEntry> RepoStore::loadAllNative() {
  obs::TraceScope Span("repo.load_native", "repo", Dir.c_str());
  std::vector<NativeEntry> Out;
  if (!Usable)
    return Out;
  if (!NativeTrusted) {
    // Integrity checks below cannot establish authenticity: loading from
    // a directory other users can write would hand them native code
    // execution. Leave the files alone and degrade to cold compiles.
    obs::traceInstant("repo.native_untrusted", "repo", Dir);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.NativeUntrusted;
    return Out;
  }

  // The source-hash check runs at adoption time, as for IR entries.
  sealed::Kind K = nativeKind(NativeExtra);
  for (const std::string &Path : filesWithExtension(Dir, kNativeExtension)) {
    NativeEntry E;
    sealed::Verdict V =
        sealed::load(Path, K, [&](ser::ByteReader &R) { E = readNative(R); });
    if (V == sealed::Verdict::Ok) {
      E.Path = Path;
      Out.push_back(std::move(E));
    }
    std::lock_guard<std::mutex> L(Mutex);
    ++(V == sealed::Verdict::Ok     ? Stats.NativeLoaded
       : V == sealed::Verdict::Skew ? Stats.NativeSkewed
                                    : Stats.NativeQuarantined);
  }
  return Out;
}

std::string RepoStore::profilePath() const {
  return Dir + "/" + kProfileFileName;
}

bool RepoStore::saveProfiles(const std::vector<ProfileSummary> &Ps) {
  obs::TraceScope Span("repo.save_profiles", "repo", Dir.c_str());
  try {
    faults::maybeThrow(faults::Site::RepoSave);
    if (!Usable)
      throw std::runtime_error("store unusable");
    // A summary whose name could not have come from a MATLAB identifier is
    // damage; persisting it would just feed loadProfiles a corrupt rung.
    std::vector<ProfileSummary> Clean;
    Clean.reserve(Ps.size());
    for (const ProfileSummary &S : Ps)
      if (isIdentifier(S.Name))
        Clean.push_back(S);
    std::string Bytes = sealed::seal(
        profileKind(), [&](ser::ByteWriter &W) { writeProfiles(W, Clean); });
    std::string Error;
    if (!atomicfile::writeFileAtomic(profilePath(), Bytes, &Error))
      throw std::runtime_error(Error);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.ProfilesSaved;
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.ProfileSaveFailures;
    return false;
  }
}

std::vector<RepoStore::ProfileSummary> RepoStore::loadProfiles() {
  obs::TraceScope Span("repo.load_profiles", "repo", Dir.c_str());
  std::vector<ProfileSummary> Out;
  if (!Usable)
    return Out;
  std::string Path = profilePath();
  std::error_code ExistsEC;
  if (!fs::exists(Path, ExistsEC) || ExistsEC)
    return Out; // a missing profile file is a routine cold start

  // There is no source-hash check: profiles are advisory - a stale profile
  // mis-ranks the queue, and the engine guards observed signatures against
  // the live arity before use.
  sealed::Verdict V = sealed::load(
      Path, profileKind(), [&](ser::ByteReader &R) { Out = readProfiles(R); });
  std::lock_guard<std::mutex> L(Mutex);
  if (V == sealed::Verdict::Ok)
    Stats.ProfilesLoaded += Out.size();
  else
    ++(V == sealed::Verdict::Skew ? Stats.ProfilesSkewed
                                  : Stats.ProfilesQuarantined);
  return Out;
}

RepoStoreStats RepoStore::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Stats;
}
