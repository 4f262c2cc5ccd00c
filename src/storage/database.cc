#include "storage/database.h"

#include <filesystem>
#include <set>

#include "common/strings.h"

namespace seqdet::storage {

namespace fs = std::filesystem;

Database::Database(std::string dir, DbOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 const DbOptions& options) {
  if (dir.empty() && !options.table.in_memory) {
    return Status::InvalidArgument(
        "a directory is required unless in_memory is set");
  }
  auto db = std::unique_ptr<Database>(new Database(dir, options));
  if (!options.table.in_memory) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create " + dir + ": " + ec.message());
    }
    SEQDET_RETURN_IF_ERROR(db->DiscoverExistingTables());
  }
  return db;
}

Status Database::DiscoverExistingTables() {
  // Runs inside Open() before the database is published; the lock only
  // satisfies the GUARDED_BY discipline on tables_.
  MutexLock lock(mu_);
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string fname = entry.path().filename().string();
    if (EndsWith(fname, ".wal") || EndsWith(fname, ".seg")) {
      // "<table>.<id>.seg" / "<table>.<id>.wal": strip two components.
      size_t dot = fname.rfind('.', fname.size() - 5);
      if (dot != std::string::npos) names.insert(fname.substr(0, dot));
    }
  }
  if (ec) return Status::IOError("cannot list " + dir_ + ": " + ec.message());
  for (const std::string& name : names) {
    auto opened = Table::Open(dir_, name, options_.table);
    if (!opened.ok()) return opened.status();
    tables_.emplace(name, std::move(opened).value());
  }
  return Status::OK();
}

Result<Table*> Database::GetOrCreateTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto opened = Table::Open(dir_, name, options_.table);
  if (!opened.ok()) return opened.status();
  Table* raw = opened.value().get();
  tables_.emplace(name, std::move(opened).value());
  return raw;
}

Result<ShardedTable*> Database::GetOrCreateShardedTable(
    const std::string& name, size_t num_shards) {
  MutexLock lock(mu_);
  auto it = sharded_.find(name);
  if (it != sharded_.end()) {
    if (it->second->num_shards() != num_shards) {
      return Status::InvalidArgument(StringPrintf(
          "sharded table %s already open with %zu shards, requested %zu",
          name.c_str(), it->second->num_shards(), num_shards));
    }
    return it->second.get();
  }
  // Adopt shards discovered during recovery, open the rest fresh.
  std::vector<std::unique_ptr<Table>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    std::string shard_name = StringPrintf("%s_s%02zu", name.c_str(), s);
    auto found = tables_.find(shard_name);
    if (found != tables_.end()) {
      shards.push_back(std::move(found->second));
      tables_.erase(found);
    } else {
      auto opened = Table::Open(dir_, shard_name, options_.table);
      if (!opened.ok()) return opened.status();
      shards.push_back(std::move(opened).value());
    }
  }
  auto assembled = ShardedTable::FromShards(name, std::move(shards));
  if (!assembled.ok()) return assembled.status();
  ShardedTable* raw = assembled.value().get();
  sharded_.emplace(name, std::move(assembled).value());
  return raw;
}

Table* Database::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  SEQDET_RETURN_IF_ERROR(it->second->DestroyFiles());
  tables_.erase(it);
  return Status::OK();
}

Status Database::FlushAll() {
  MutexLock lock(mu_);
  for (auto& [name, table] : tables_) {
    SEQDET_RETURN_IF_ERROR(table->Flush());
  }
  for (auto& [name, table] : sharded_) {
    SEQDET_RETURN_IF_ERROR(table->Flush());
  }
  return Status::OK();
}

Status Database::CompactAll() {
  MutexLock lock(mu_);
  for (auto& [name, table] : tables_) {
    SEQDET_RETURN_IF_ERROR(table->Compact());
  }
  for (auto& [name, table] : sharded_) {
    SEQDET_RETURN_IF_ERROR(table->Compact());
  }
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::ShardedTableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(sharded_.size());
  for (const auto& [name, table] : sharded_) names.push_back(name);
  return names;
}

ShardedTable* Database::GetShardedTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sharded_.find(name);
  return it == sharded_.end() ? nullptr : it->second.get();
}

TableSegmentStats Database::GetSegmentStats() const {
  MutexLock lock(mu_);
  TableSegmentStats out;
  for (const auto& [name, table] : tables_) {
    out.Merge(table->GetSegmentStats());
  }
  for (const auto& [name, table] : sharded_) {
    out.Merge(table->GetSegmentStats());
  }
  return out;
}

}  // namespace seqdet::storage
