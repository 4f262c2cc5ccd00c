#ifndef SEQDET_INDEX_POSTING_CACHE_H_
#define SEQDET_INDEX_POSTING_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "index/pair.h"

namespace seqdet::index {

/// Aggregate counters of a PostingCache (summed over its shards).
struct PostingCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // entries dropped to honor the byte budget
  uint64_t invalidations = 0;  // entries dropped because their version aged
  size_t entries = 0;          // live entries
  size_t bytes = 0;            // live charged bytes
  size_t capacity_bytes = 0;   // configured budget (0 = disabled)
};

/// A sharded, versioned LRU cache of decoded+sorted posting lists — the
/// repo's analogue of the Cassandra row cache the paper leans on for
/// repeated pair reads (§3.1, §6).
///
/// Two entry granularities share the cache:
///  * whole-list entries keyed by (period, EventTypePair) — decoded,
///    sorted full posting lists (Get/Put);
///  * block entries keyed by (period, EventTypePair, block ordinal) —
///    one decoded posting block each (GetBlock/PutBlock), filled by the
///    trace-selective read path so hot blocks stay decoded while cold
///    blocks stay compressed in the store.
/// Values are immutable `shared_ptr<const vector<PairOccurrence>>`
/// snapshots, so any number of concurrent queries share one decoded copy
/// without copying or locking beyond the brief shard-mutex critical
/// section of the lookup itself.
///
/// Consistency is by version validation, never by key enumeration: every
/// entry is tagged with the storage table's Kv::Version() read *before* the
/// posting bytes were read (see kv.h for why that order is what makes a
/// matching tag prove freshness). A lookup presents the current version; a
/// tag mismatch invalidates the entry lazily. Writers (Update, compaction,
/// new periods) therefore never touch the cache — their version bump is the
/// invalidation.
///
/// Byte-budgeted: `capacity_bytes` is split evenly across the shards and
/// least-recently-used entries are evicted per shard. A capacity of 0
/// disables the cache entirely (every Get misses, Put is a no-op).
class PostingCache {
 public:
  using Snapshot = std::shared_ptr<const std::vector<PairOccurrence>>;

  /// The pseudo-period under which the cross-period merged list is cached
  /// (tagged with the sum of all period-table versions).
  static constexpr uint32_t kMergedPeriod = 0xffffffffu;

  /// The pseudo-block ordinal of whole-list entries.
  static constexpr uint32_t kWholeList = 0xffffffffu;

  explicit PostingCache(size_t capacity_bytes, size_t num_shards = 16);

  PostingCache(const PostingCache&) = delete;
  PostingCache& operator=(const PostingCache&) = delete;

  bool enabled() const { return capacity_bytes_ > 0; }
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// Returns the cached snapshot for (period, pair) if present and still
  /// tagged with `version`; null on miss. A version mismatch drops the
  /// stale entry and counts as invalidation + miss.
  Snapshot Get(uint32_t period, const EventTypePair& pair, uint64_t version);

  /// Inserts (or replaces) the snapshot for (period, pair) tagged with
  /// `version`, evicting LRU entries to stay within the shard budget.
  /// Snapshots larger than a whole shard's budget are not cached.
  void Put(uint32_t period, const EventTypePair& pair, uint64_t version,
           Snapshot postings);

  /// Block-granularity variants: the snapshot holds the decoded postings
  /// of one block, keyed by its ordinal within the stored value. The
  /// version tag covers the block layout too — any table mutation
  /// (append, fold, compaction) bumps the version, so a stale ordinal can
  /// never alias a reorganized value.
  Snapshot GetBlock(uint32_t period, const EventTypePair& pair,
                    uint32_t block, uint64_t version);
  void PutBlock(uint32_t period, const EventTypePair& pair, uint32_t block,
                uint64_t version, Snapshot postings);

  /// Drops every entry (counters are kept).
  void Clear();

  PostingCacheStats stats() const;

  /// Bytes charged for a snapshot (payload + bookkeeping overhead).
  static size_t ChargedBytes(const Snapshot& postings);

 private:
  struct Key {
    uint32_t period = 0;
    EventTypePair pair;
    uint32_t block = kWholeList;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (static_cast<uint64_t>(k.pair.first) << 32) | k.pair.second;
      h ^= (static_cast<uint64_t>(k.period) + 0x9e3779b97f4a7c15ULL) +
           (h << 6) + (h >> 2);
      h ^= (static_cast<uint64_t>(k.block) + 0x9e3779b97f4a7c15ULL) +
           (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    uint64_t version = 0;
    size_t bytes = 0;
    Snapshot postings;
    std::list<Key>::iterator lru_it;  // position in Shard::lru
  };

  struct Shard {
    /// Leaf lock (common/sync.h map): critical sections are pure map/LRU
    /// bookkeeping — no other mutex, no I/O, no allocation-heavy decode.
    /// Which shard's mu a method takes depends on the key hash, so the
    /// per-method negative annotations other classes carry cannot name it;
    /// seqdet-lint's nested-acquisition rule covers it instead.
    mutable Mutex mu;
    std::list<Key> lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, Entry, KeyHash> map GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    // Counters live under mu; Get/Put take it anyway.
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t invalidations GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }

  // Removes `it` from `shard`.
  void EraseLocked(Shard& shard,
                   std::unordered_map<Key, Entry, KeyHash>::iterator it)
      REQUIRES(shard.mu);

  size_t capacity_bytes_;
  size_t shard_capacity_bytes_;
  std::vector<Shard> shards_;
};

}  // namespace seqdet::index

#endif  // SEQDET_INDEX_POSTING_CACHE_H_
