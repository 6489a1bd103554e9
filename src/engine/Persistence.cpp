//===- engine/Persistence.cpp - The engine's on-disk repository -----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Persistence.h"

#include "obs/Trace.h"
#include "support/Hashing.h"

using namespace majic;

void Persistence::open(const std::string &RepoDir,
                       const std::string &ProfileDir,
                       const native::NativeCompiler *NativeComp) {
  // Entries wait in Warm until their source is loaded: only then can the
  // source hash confirm the compiled code still matches the .m text.
  if (!RepoDir.empty()) {
    Store = std::make_unique<RepoStore>(RepoDir);
    Store->sweepTemps();
    for (RepoStore::Entry &E : Store->loadAll())
      Warm[E.Obj.FunctionName].Objects.push_back(std::move(E));
    if (NativeComp && NativeComp->available()) {
      // The ABI version and the compiler's identification fold into the
      // native stamp, so a cc upgrade or an ABI bump turns last session's
      // .so files into routine skew. Without a usable compiler the .mjn
      // files are left untouched: the tier is dormant anyway.
      struct {
        uint32_t Abi;
        uint32_t Zero;
        uint64_t CompilerId;
      } StampFacts = {native::kNativeABIVersion, 0,
                      hashing::fnv1a(NativeComp->compilerId())};
      Store->setNativeStampExtra(hashing::fnv1a(
          &StampFacts, sizeof(StampFacts), hashing::fnv1a("majic-native")));
      for (RepoStore::NativeEntry &E : Store->loadAllNative())
        Warm[E.FunctionName].Natives.push_back(std::move(E));
    }
  }
  // Persisted counts merge into the profiles right away, so the snooper
  // ranks hot-first before anything runs; the observed signatures wait in
  // Warm until their source is loaded and the arity can be checked.
  const std::string &ProfDir = ProfileDir.empty() ? RepoDir : ProfileDir;
  if (ProfDir.empty())
    return;
  if (Store && ProfDir == RepoDir) {
    ProfileStore = Store.get();
  } else {
    OwnedProfileStore = std::make_unique<RepoStore>(ProfDir);
    OwnedProfileStore->sweepTemps();
    ProfileStore = OwnedProfileStore.get();
  }
  for (RepoStore::ProfileSummary &PS : ProfileStore->loadProfiles()) {
    Profiles.mergePersisted(PS.Name, PS.Invocations, PS.OtherSignatures);
    for (const RepoStore::ProfileSig &Sg : PS.Sigs)
      Profiles.mergeSignatureCount(PS.Name, Sg.SigStr, Sg.Count);
    if (!PS.Sigs.empty())
      Warm[PS.Name].Sigs = std::move(PS.Sigs);
  }
}

unsigned Persistence::adopt(const std::string &Name, uint64_t SrcHash) {
  auto It = Warm.find(Name);
  if (!Store || It == Warm.end())
    return 0;
  // Each entry is offered once; the persisted signatures stay behind.
  for (RepoStore::Entry &E : std::exchange(It->second.Objects, {})) {
    if (E.SourceHash != SrcHash) {
      // The .m text changed since this was compiled: the final rung of the
      // ladder fails. Delete the file; the source recompiles on demand.
      Store->discardStale(E.Path);
      continue;
    }
    try {
      Repo.insert(std::move(E.Obj));
      Store->noteAdopted();
      Profiles.recordWarmAdoption(Name);
      obs::traceInstant("warm.adopt", "repo", Name);
    } catch (...) {
      // An injected repo-insert fault costs one recompile, nothing more.
    }
  }
  // The native half, independent of the .mjo half: a matching .mjn
  // dlopens straight into a Ready version, machine code with zero compiler
  // invocations. A loader refusal discards the file, and the function
  // stays on the VM until re-promoted.
  unsigned Refused = 0;
  for (RepoStore::NativeEntry &E : std::exchange(It->second.Natives, {})) {
    if (E.SourceHash != SrcHash) {
      Store->discardStale(E.Path);
      continue;
    }
    try {
      std::vector<uint8_t> So(E.SoBytes.begin(), E.SoBytes.end());
      Queue.setNative(Name, E.Sig,
                      {NativeVersion::State::Ready,
                       native::NativeCompiler::load(So, Name, E.NumOuts)});
      obs::traceInstant("warm.adopt_native", "native", Name);
    } catch (...) {
      ++Refused;
      Store->discardStale(E.Path);
    }
  }
  return Refused;
}

const std::vector<RepoStore::ProfileSig> &
Persistence::warmSignatures(const std::string &Name) const {
  static const std::vector<RepoStore::ProfileSig> None;
  auto It = Warm.find(Name);
  return It == Warm.end() ? None : It->second.Sigs;
}

void Persistence::forget(const std::string &Name) {
  // A deleted source must not resurrect, now or on the next warm start.
  Warm.erase(Name);
  if (Store)
    Store->erase(Name);
}

template <typename WriteFn>
void Persistence::writeUnlessErased(const std::string &Name, bool Native,
                                    WriteFn Write) {
  auto Erased = [&] {
    return Queue.read(Name, [](const FnState &S) { return S.Erased; });
  };
  if (Erased())
    return;
  Write();
  // A removal sets the tombstone before erasing the files. Unset here, our
  // file landed before the erase scanned the directory; set, the erase may
  // have missed it, and we take it back out. Either way nothing survives.
  if (Erased()) {
    if (Native)
      Store->eraseNative(Name);
    else
      Store->erase(Name);
  }
}

void Persistence::save(const CompiledObject &Obj, uint64_t SrcHash) {
  if (!Store || !Obj.Code)
    return;
  // Clone for the task (sharing the IR): the repository keeps the original.
  auto Clone = std::make_shared<CompiledObject>(Obj.clone());
  auto Save = [this, Clone, SrcHash] {
    writeUnlessErased(Clone->FunctionName, /*Native=*/false,
                      [&] { Store->save(*Clone, SrcHash); });
  };
  // The interactive thread never waits for the disk. While the queue
  // drains (shutdown) it refuses, and the save runs synchronously.
  if (!Queue.enqueue(CompileQueue::TaskKind::Save, Clone->FunctionName, Save))
    Save();
}

void Persistence::saveNative(const std::string &Name, const TypeSignature &Sig,
                             uint32_t NumOuts, const std::vector<uint8_t> &So,
                             uint64_t SrcHash) {
  if (Store)
    writeUnlessErased(Name, /*Native=*/true, [&] {
      Store->saveNative(Name, Sig, NumOuts, std::string(So.begin(), So.end()),
                        SrcHash);
    });
}

void Persistence::eraseNative(const std::string &Name) {
  if (Store)
    Store->eraseNative(Name);
}

void Persistence::saveProfiles(
    const std::function<const TypeSignature *(const std::string &,
                                              const std::string &)> &LiveSig) {
  if (!ProfileStore)
    return;
  // Counts are live plus what was merged at startup. The signature behind
  // a rendered string comes from the live caches, else the persisted ones;
  // untyped invocations (scripts, InterpretOnly) have none.
  std::vector<RepoStore::ProfileSummary> Out;
  for (obs::FunctionProfile &P : Profiles.snapshot()) {
    RepoStore::ProfileSummary S;
    S.Name = P.Name;
    S.Invocations = P.Invocations;
    S.OtherSignatures = P.OtherSignatures;
    const std::vector<RepoStore::ProfileSig> &Persisted =
        warmSignatures(P.Name);
    for (const auto &[Str, Count] : P.ArgSignatures) {
      const TypeSignature *Sig = LiveSig(P.Name, Str);
      for (size_t I = 0; !Sig && I != Persisted.size(); ++I)
        if (Persisted[I].SigStr == Str)
          Sig = &Persisted[I].Sig;
      if (Sig && S.Sigs.size() < RepoStore::kProfileTopK)
        S.Sigs.push_back({*Sig, Str, Count});
    }
    if (S.Invocations == 0 && S.Sigs.empty())
      continue;
    Out.push_back(std::move(S));
  }
  ProfileStore->saveProfiles(Out);
}

RepoStoreStats Persistence::stats() const {
  RepoStoreStats S = Store ? Store->stats() : RepoStoreStats();
  if (OwnedProfileStore) {
    // One snapshot covers both directories.
    RepoStoreStats P = OwnedProfileStore->stats();
    S.ProfilesSaved += P.ProfilesSaved;
    S.ProfileSaveFailures += P.ProfileSaveFailures;
    S.ProfilesLoaded += P.ProfilesLoaded;
    S.ProfilesQuarantined += P.ProfilesQuarantined;
    S.ProfilesSkewed += P.ProfilesSkewed;
    S.SweptTemps += P.SweptTemps;
  }
  return S;
}

void Persistence::sampleGauges(obs::MetricsRegistry &Metrics) const {
  RepoStoreStats SS = stats();
  const std::pair<const char *, uint64_t> Gauges[] = {
      {"saved", SS.Saved}, {"save_failures", SS.SaveFailures},
      {"loaded", SS.Loaded}, {"quarantined", SS.Quarantined},
      {"skewed", SS.Skewed}, {"stale_source", SS.StaleSource},
      {"adopted", SS.Adopted}, {"swept_temps", SS.SweptTemps},
      {"profiles_saved", SS.ProfilesSaved},
      {"profile_save_failures", SS.ProfileSaveFailures},
      {"profiles_loaded", SS.ProfilesLoaded},
      {"profiles_quarantined", SS.ProfilesQuarantined},
      {"profiles_skewed", SS.ProfilesSkewed},
      {"native_saved", SS.NativeSaved},
      {"native_save_failures", SS.NativeSaveFailures},
      {"native_loaded", SS.NativeLoaded},
      {"native_quarantined", SS.NativeQuarantined},
      {"native_skewed", SS.NativeSkewed},
      {"native_untrusted", SS.NativeUntrusted}};
  for (const auto &[Name, Value] : Gauges)
    Metrics.gauge(std::string("repo.store.") + Name).set(int64_t(Value));
}
