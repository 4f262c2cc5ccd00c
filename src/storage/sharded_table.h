#ifndef SEQDET_STORAGE_SHARDED_TABLE_H_
#define SEQDET_STORAGE_SHARDED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/kv.h"
#include "storage/table.h"

namespace seqdet::storage {

/// A logical table hash-partitioned over N physical Tables — the embedded
/// analogue of a Cassandra table spread across token-ring partitions.
///
/// Each shard carries its own memtable, segments, WAL and lock, so writer
/// threads applying batches for different keys mostly do not contend: this
/// is what makes the index build scale with cores the way the paper's
/// "parallelization applies to both the event-pair creation and the
/// storage" claim requires (Table 6).
///
/// Keys route by FNV-1a hash; Scan materializes and merges all shards (it
/// is for introspection, not hot paths). Physical shards are named
/// `<name>_sNN`; reopening with the same shard count reassembles the
/// logical table from the shard files.
class ShardedTable : public Kv {
 public:
  /// Opens (recovering) `num_shards` physical shards of logical `name`.
  /// The shard Tables are owned by this object.
  static Result<std::unique_ptr<ShardedTable>> Open(
      const std::string& dir, const std::string& name, size_t num_shards,
      const TableOptions& options);

  /// Assembles a logical table from already-opened shard Tables (the
  /// Database uses this to adopt shards it discovered during recovery).
  static Result<std::unique_ptr<ShardedTable>> FromShards(
      std::string name, std::vector<std::unique_ptr<Table>> shards);

  Status Put(std::string_view key, std::string_view value) override;
  Status Append(std::string_view key, std::string_view fragment) override;
  Status Delete(std::string_view key) override;
  Status Apply(const WriteBatch& batch) override;
  Status RewriteValue(
      std::string_view key,
      const std::function<Status(std::string_view, std::string*)>& fn)
      override;
  Status Get(std::string_view key, std::string* value) const override;
  bool Contains(std::string_view key) const override;
  Status Scan(
      std::string_view start_key, std::string_view end_key,
      const std::function<bool(std::string_view, std::string_view)>& fn)
      const override;
  Status Flush() override;
  Status Compact() override;
  size_t ApproximateEntryCount() const override;
  const std::string& name() const override { return name_; }

  /// Sum of the shard counters. Monotonic for any observer that reads it
  /// with a happens-before edge to earlier reads (e.g. through a cache
  /// shard's mutex), which is all the snapshot-tagging protocol of
  /// Kv::Version() needs.
  uint64_t Version() const override;

  size_t num_shards() const { return shards_.size(); }

  /// Segment stats summed over the shards.
  TableSegmentStats GetSegmentStats() const;

  /// Deletes every shard's files.
  Status DestroyFiles();

 private:
  ShardedTable(std::string name) : name_(std::move(name)) {}

  Table* ShardFor(std::string_view key) const;

  std::string name_;
  std::vector<std::unique_ptr<Table>> shards_;
};

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_SHARDED_TABLE_H_
