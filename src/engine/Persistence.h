//===- engine/Persistence.h - The engine's on-disk repository -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warm start and persistence for one engine: the .mjo/.mjn store and the
/// profile store, what startup read from disk until a source claims it,
/// and the saves. Saves ride the compile queue's pool and check its
/// tombstone around every write; the queue knows nothing of the disk.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_ENGINE_PERSISTENCE_H
#define MAJIC_ENGINE_PERSISTENCE_H

#include "engine/CompileQueue.h"
#include "obs/Profile.h"
#include "repo/RepoStore.h"

namespace majic {

class Persistence {
public:
  Persistence(CompileQueue &Queue, Repository &Repo,
              obs::FunctionProfiles &Profiles)
      : Queue(Queue), Repo(Repo), Profiles(Profiles) {}
  Persistence(const Persistence &) = delete; // queued saves hold its address
  Persistence &operator=(const Persistence &) = delete;

  /// Opens the store in \p RepoDir and the profile store in \p ProfileDir
  /// (default: RepoDir; either may be empty): sweeps temp files, validates
  /// every entry and merges the persisted profile counts. Native entries
  /// load only when \p NativeComp is usable.
  void open(const std::string &RepoDir, const std::string &ProfileDir,
            const native::NativeCompiler *NativeComp);

  /// Runs the source-hash rung over \p Name's pending warm entries:
  /// matching ones are published, drifted ones deleted from disk. Returns
  /// how many .mjn entries the loader refused.
  unsigned adopt(const std::string &Name, uint64_t SrcHash);
  /// \p Name's persisted observed signatures (empty when none).
  const std::vector<RepoStore::ProfileSig> &
  warmSignatures(const std::string &Name) const;
  /// A removed source: its pending entries and its files are dropped.
  void forget(const std::string &Name);

  /// Persists \p Obj, compiled from source hash \p SrcHash, on the queue's
  /// pool when it accepts. Never throws; a failed save costs a recompile.
  void save(const CompiledObject &Obj, uint64_t SrcHash);
  void saveNative(const std::string &Name, const TypeSignature &Sig,
                  uint32_t NumOuts, const std::vector<uint8_t> &So,
                  uint64_t SrcHash);
  void eraseNative(const std::string &Name);
  /// Writes the profile summaries; \p LiveSig maps a function's rendered
  /// signature back to the signature it renders, or null.
  void saveProfiles(const std::function<const TypeSignature *(
                        const std::string &Fn, const std::string &Str)> &LiveSig);

  RepoStoreStats stats() const;
  /// Mirrors stats() into the "repo.store.*" gauges.
  void sampleGauges(obs::MetricsRegistry &Metrics) const;

private:
  /// Runs \p Write unless \p Name is tombstoned; takes the file (\p Native:
  /// the .mjn) back out if the tombstone appeared meanwhile.
  template <typename WriteFn>
  void writeUnlessErased(const std::string &Name, bool Native, WriteFn Write);

  CompileQueue &Queue;
  Repository &Repo;
  obs::FunctionProfiles &Profiles;
  std::unique_ptr<RepoStore> Store;
  /// Separate instance when the profile directory differs from RepoDir.
  std::unique_ptr<RepoStore> OwnedProfileStore;
  RepoStore *ProfileStore = nullptr; ///< Store, OwnedProfileStore or null
  /// What startup read from disk for one function (engine thread only).
  /// Adoption moves the .mjo/.mjn entries out; the signatures stay.
  struct WarmEntries {
    std::vector<RepoStore::Entry> Objects;
    std::vector<RepoStore::NativeEntry> Natives;
    std::vector<RepoStore::ProfileSig> Sigs;
  };
  std::unordered_map<std::string, WarmEntries> Warm;
};

} // namespace majic

#endif // MAJIC_ENGINE_PERSISTENCE_H
