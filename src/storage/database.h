#ifndef SEQDET_STORAGE_DATABASE_H_
#define SEQDET_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace seqdet::storage {

/// Database-wide options.
struct DbOptions {
  TableOptions table;
};

/// A directory of named Tables — the "indexing database" of Figure 1.
///
/// Opening a database recovers every table found in the directory (the
/// directory listing is the manifest: a table exists if any of its
/// `<name>.<id>.seg` / `<name>.wal` files do). In in-memory mode no
/// directory is used and tables live only as long as the Database.
class Database {
 public:
  /// Opens (creating if needed) the database at `dir`. Pass an empty `dir`
  /// together with `options.table.in_memory = true` for a pure in-memory
  /// database.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                const DbOptions& options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the table `name`, creating it when absent.
  Result<Table*> GetOrCreateTable(const std::string& name) REQUIRES(!mu_);

  /// Returns the logical table `name` hash-partitioned into `num_shards`
  /// physical tables (`name_sNN`). Re-assembles shards discovered on disk;
  /// the shard count must match across reopens (callers persist it — the
  /// SequenceIndex stores it in its meta table).
  Result<ShardedTable*> GetOrCreateShardedTable(const std::string& name,
                                                size_t num_shards)
      REQUIRES(!mu_);

  /// Returns the table `name` or nullptr.
  Table* GetTable(const std::string& name) const REQUIRES(!mu_);

  /// Drops `name`, deleting its files.
  Status DropTable(const std::string& name) REQUIRES(!mu_);

  /// Flushes every table's memtable.
  Status FlushAll() REQUIRES(!mu_);

  /// Compacts every table.
  Status CompactAll() REQUIRES(!mu_);

  /// Names of the plain (non-sharded) tables.
  std::vector<std::string> TableNames() const REQUIRES(!mu_);

  /// Names of the assembled logical sharded tables.
  std::vector<std::string> ShardedTableNames() const REQUIRES(!mu_);

  /// Returns the assembled sharded table `name` or nullptr.
  ShardedTable* GetShardedTable(const std::string& name) const
      REQUIRES(!mu_);

  /// Segment stats summed over every open table (plain + sharded).
  TableSegmentStats GetSegmentStats() const REQUIRES(!mu_);

  const std::string& dir() const { return dir_; }
  bool in_memory() const { return options_.table.in_memory; }

 private:
  Database(std::string dir, DbOptions options);

  Status DiscoverExistingTables() REQUIRES(!mu_);

  std::string dir_;
  DbOptions options_;
  /// Lock order: Database::mu_ -> Table::mu_ (FlushAll/CompactAll and the
  /// stats rollups call into tables while holding it) — the root of the
  /// storage chain in common/sync.h's map.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ShardedTable>> sharded_
      GUARDED_BY(mu_);
};

}  // namespace seqdet::storage

#endif  // SEQDET_STORAGE_DATABASE_H_
