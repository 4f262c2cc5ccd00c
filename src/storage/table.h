#ifndef SEQDET_STORAGE_TABLE_H_
#define SEQDET_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/kv.h"
#include "storage/memtable.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "storage/write_batch.h"

namespace seqdet::storage {

/// Tuning knobs for a table (shared by all tables of a Database).
struct TableOptions {
  /// Memtable size that triggers an automatic flush to a segment.
  size_t memtable_flush_bytes = 32u << 20;
  /// Write mutations to a WAL before applying (disabled in in-memory mode).
  bool use_wal = true;
  /// fflush the WAL after every record (slow; default batches).
  bool sync_wal = false;
  /// Keep segments purely in memory; nothing touches the filesystem.
  bool in_memory = false;
  /// Auto-compact when a flush leaves more than this many segments
  /// (size-tiered-style read-amplification bound). 0 disables.
  size_t max_segments = 0;
  /// Segment writer knobs (block size, restart interval, codec).
  SegmentWriteOptions segment;
};

/// Aggregated per-table segment facts for introspection (`seqdet info`).
struct TableSegmentStats {
  size_t num_segments = 0;
  size_t num_blocks = 0;
  uint64_t disk_bytes = 0;     // serialized segment bytes
  uint64_t logical_bytes = 0;  // see Segment::Stats::logical_bytes

  void Merge(const TableSegmentStats& other) {
    num_segments += other.num_segments;
    num_blocks += other.num_blocks;
    disk_bytes += other.disk_bytes;
    logical_bytes += other.logical_bytes;
  }
};

/// A named key-value table (the analogue of one Cassandra table in the
/// paper: Seq, Index, Count, ReverseCount, LastChecked each map to one
/// Table).
///
/// Write path: WAL append -> memtable fold. Reads consult the memtable and
/// then segments newest-to-oldest, folding `kAppend` fragments over the
/// newest `kPut` base (or over nothing). `Flush` turns the memtable into an
/// immutable sorted segment; `Compact` merges all segments into one,
/// resolving appends and dropping tombstones.
///
/// Thread-safe: reads take a shared lock, writes/flush/compact an exclusive
/// lock.
class Table : public Kv {
 public:
  /// Opens (and recovers) the table `name` inside `dir`. In in-memory mode
  /// `dir` is unused.
  static Result<std::unique_ptr<Table>> Open(const std::string& dir,
                                             const std::string& name,
                                             const TableOptions& options);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  Status Put(std::string_view key, std::string_view value) override
      REQUIRES(!mu_);
  Status Append(std::string_view key, std::string_view fragment) override
      REQUIRES(!mu_);
  Status Delete(std::string_view key) override REQUIRES(!mu_);

  /// Applies all records of `batch` atomically (one lock acquisition).
  Status Apply(const WriteBatch& batch) override REQUIRES(!mu_);

  /// See Kv::RewriteValue(). The whole read-transform-write runs under the
  /// exclusive lock and commits as one WAL'd kPut record, so the rewrite is
  /// atomic against concurrent writers, readers and crashes.
  Status RewriteValue(
      std::string_view key,
      const std::function<Status(std::string_view, std::string*)>& fn)
      override REQUIRES(!mu_);

  /// Reads the folded value of `key`. Returns NotFound when the key has no
  /// live value.
  Status Get(std::string_view key, std::string* value) const override
      REQUIRES(!mu_);

  bool Contains(std::string_view key) const override REQUIRES(!mu_);

  /// Calls `fn(key, folded_value)` for every live key in
  /// [start_key, end_key) in ascending order. An empty `end_key` means "to
  /// the end"; an empty `start_key` means "from the beginning". If `fn`
  /// returns false the scan stops early.
  Status Scan(
      std::string_view start_key, std::string_view end_key,
      const std::function<bool(std::string_view, std::string_view)>& fn)
      const override REQUIRES(!mu_);

  /// Scans all keys beginning with `prefix`.
  Status ScanPrefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, std::string_view)>& fn)
      const REQUIRES(!mu_);

  /// Persists the memtable as a new segment (no-op when empty).
  /// Blocking when the table is durable (segment + WAL file I/O under the
  /// exclusive lock — the lock *is* the flush's atomicity, by design).
  Status Flush() override REQUIRES(!mu_);

  /// Flushes, then merges every segment into a single one. Blocking, same
  /// rationale as Flush().
  Status Compact() override REQUIRES(!mu_);

  const std::string& name() const override { return name_; }

  /// See Kv::Version(). Incremented before the mutation is applied, under
  /// the exclusive lock; readable without any lock.
  uint64_t Version() const override {
    return version_.load(std::memory_order_acquire);
  }

  size_t NumSegments() const REQUIRES(!mu_);
  size_t MemTableBytes() const REQUIRES(!mu_);
  size_t ApproximateEntryCount() const override REQUIRES(!mu_);

  /// Aggregated segment size facts.
  TableSegmentStats GetSegmentStats() const REQUIRES(!mu_);

  /// Deletes this table's files. The table must be destroyed afterwards.
  Status DestroyFiles() REQUIRES(!mu_);

 private:
  Table(std::string dir, std::string name, TableOptions options);

  Status Recover() REQUIRES(!mu_);
  Status WriteRecordLocked(RecordKind kind, std::string_view key,
                           std::string_view value) REQUIRES(mu_);
  Status MaybeFlushLocked() REQUIRES(mu_);
  Status FlushLocked() REQUIRES(mu_);
  Status CompactLocked() REQUIRES(mu_);
  std::string SegmentPath(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  Status RotateWalLocked(uint64_t flushed_id) REQUIRES(mu_);

  // Folds the value of `key` across memtable + segments. Returns true when
  // a live value exists, an error when a segment block turns out to be
  // corrupt. Readers call it under the shared lock, RewriteValue under the
  // exclusive one.
  Result<bool> FoldGetLocked(std::string_view key, std::string* value) const
      REQUIRES_SHARED(mu_);

  std::string dir_;
  std::string name_;
  const TableOptions options_;

  /// Lock order: Table::mu_ -> Segment::decode_mu_ (reads touch lazily
  /// decoded segment blocks while holding mu_ shared); acquired *under*
  /// Database::mu_ by the open/flush-all paths. See common/sync.h.
  mutable SharedMutex mu_;
  MemTable mem_ GUARDED_BY(mu_);
  // Oldest first; segment_ids_ is parallel to segments_.
  std::vector<std::shared_ptr<Segment>> segments_ GUARDED_BY(mu_);
  std::vector<uint64_t> segment_ids_ GUARDED_BY(mu_);
  WalWriter wal_ GUARDED_BY(mu_);
  uint64_t next_segment_id_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> version_{0};
};

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_TABLE_H_
