#include "storage/sharded_table.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace seqdet::storage {

namespace {

// FNV-1a; stable across platforms so shard routing survives reopen.
uint64_t ShardHash(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Result<std::unique_ptr<ShardedTable>> ShardedTable::Open(
    const std::string& dir, const std::string& name, size_t num_shards,
    const TableOptions& options) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<std::unique_ptr<Table>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    SEQDET_ASSIGN_OR_RETURN(
        auto shard,
        Table::Open(dir, StringPrintf("%s_s%02zu", name.c_str(), s),
                    options));
    shards.push_back(std::move(shard));
  }
  return FromShards(name, std::move(shards));
}

Result<std::unique_ptr<ShardedTable>> ShardedTable::FromShards(
    std::string name, std::vector<std::unique_ptr<Table>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("a sharded table needs >= 1 shard");
  }
  auto sharded =
      std::unique_ptr<ShardedTable>(new ShardedTable(std::move(name)));
  sharded->shards_ = std::move(shards);
  return sharded;
}

Table* ShardedTable::ShardFor(std::string_view key) const {
  return shards_[ShardHash(key) % shards_.size()].get();
}

Status ShardedTable::Put(std::string_view key, std::string_view value) {
  return ShardFor(key)->Put(key, value);
}

Status ShardedTable::Append(std::string_view key, std::string_view fragment) {
  return ShardFor(key)->Append(key, fragment);
}

Status ShardedTable::Delete(std::string_view key) {
  return ShardFor(key)->Delete(key);
}

Status ShardedTable::RewriteValue(
    std::string_view key,
    const std::function<Status(std::string_view, std::string*)>& fn) {
  return ShardFor(key)->RewriteValue(key, fn);
}

Status ShardedTable::Apply(const WriteBatch& batch) {
  if (shards_.size() == 1) return shards_[0]->Apply(batch);
  // Split into per-shard sub-batches so each shard's lock is taken once.
  std::vector<WriteBatch> per_shard(shards_.size());
  for (const Record& r : batch.records()) {
    per_shard[ShardHash(r.key) % shards_.size()].Add(r);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    SEQDET_RETURN_IF_ERROR(shards_[s]->Apply(per_shard[s]));
  }
  return Status::OK();
}

Status ShardedTable::Get(std::string_view key, std::string* value) const {
  return ShardFor(key)->Get(key, value);
}

bool ShardedTable::Contains(std::string_view key) const {
  return ShardFor(key)->Contains(key);
}

Status ShardedTable::Scan(
    std::string_view start_key, std::string_view end_key,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  // Materialize every shard's range and merge. Acceptable for the
  // introspection/debug uses Scan serves; point ops never come here.
  std::map<std::string, std::string> merged;
  for (const auto& shard : shards_) {
    SEQDET_RETURN_IF_ERROR(shard->Scan(
        start_key, end_key,
        [&merged](std::string_view k, std::string_view v) {
          merged.emplace(std::string(k), std::string(v));
          return true;
        }));
  }
  for (const auto& [key, value] : merged) {
    if (!fn(key, value)) break;
  }
  return Status::OK();
}

Status ShardedTable::Flush() {
  for (const auto& shard : shards_) {
    SEQDET_RETURN_IF_ERROR(shard->Flush());
  }
  return Status::OK();
}

Status ShardedTable::Compact() {
  for (const auto& shard : shards_) {
    SEQDET_RETURN_IF_ERROR(shard->Compact());
  }
  return Status::OK();
}

uint64_t ShardedTable::Version() const {
  uint64_t v = 0;
  for (const auto& shard : shards_) v += shard->Version();
  return v;
}

TableSegmentStats ShardedTable::GetSegmentStats() const {
  TableSegmentStats out;
  for (const auto& shard : shards_) out.Merge(shard->GetSegmentStats());
  return out;
}

size_t ShardedTable::ApproximateEntryCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->ApproximateEntryCount();
  return n;
}

Status ShardedTable::DestroyFiles() {
  for (const auto& shard : shards_) {
    SEQDET_RETURN_IF_ERROR(shard->DestroyFiles());
  }
  return Status::OK();
}

}  // namespace seqdet::storage
