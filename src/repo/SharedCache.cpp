//===- repo/SharedCache.cpp - Cross-session compiled-code cache ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/SharedCache.h"

#include <cstdio>

using namespace majic;

std::string SharedCodeCache::key(const std::string &Name, uint64_t SrcHash,
                                 uint64_t CfgHash, CodeGenMode Mode,
                                 bool Optimistic, const TypeSignature &Sig) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "|%016llx|%016llx|%u%c|",
                static_cast<unsigned long long>(SrcHash),
                static_cast<unsigned long long>(CfgHash),
                static_cast<unsigned>(Mode), Optimistic ? 'o' : 'p');
  return Name + Buf + Sig.str();
}

CompiledObjectPtr SharedCodeCache::lookup(const std::string &Key) const {
  {
    std::shared_lock<std::shared_mutex> L(Mutex);
    auto It = Table.find(Key);
    if (It != Table.end()) {
      It->second.Hits.fetch_add(1, std::memory_order_relaxed);
      HitsCount.inc();
      return It->second.Obj;
    }
  }
  MissesCount.inc();
  return nullptr;
}

bool SharedCodeCache::publish(const std::string &Key, CompiledObjectPtr Obj,
                              uint64_t SrcHash) {
  if (!Obj)
    return false;
  {
    std::unique_lock<std::shared_mutex> L(Mutex);
    auto [It, Inserted] = Table.try_emplace(Key);
    if (!Inserted) {
      DuplicatesCount.inc();
      return false;
    }
    It->second.Obj = Obj;
    It->second.Seq = NextSeq++;
    PublishedCount.inc();
    // Evict by the shared least-hit policy, sparing the fresh insert: the
    // session that just compiled it is about to use it - churning it
    // straight back out would turn the cap into a compile amplifier. The
    // scan is O(n), but publishes are as rare as compiles; lookups, the
    // hot path, stay on the shared lock.
    while (Capacity && Table.size() > Capacity) {
      auto Victim = leastHitVictim(
          Table.begin(), Table.end(), It,
          [](auto I) {
            return I->second.Hits.load(std::memory_order_relaxed);
          },
          [](auto I) { return I->second.Seq; });
      if (Victim == Table.end())
        break; // capacity 1: the fresh insert is the whole cache
      Table.erase(Victim);
      EvictionsCount.inc();
    }
  }
  if (OnPublish)
    OnPublish(Obj, SrcHash);
  return true;
}

size_t SharedCodeCache::size() const {
  std::shared_lock<std::shared_mutex> L(Mutex);
  return Table.size();
}
