#include "storage/table.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/strings.h"

namespace seqdet::storage {

namespace fs = std::filesystem;

Table::Table(std::string dir, std::string name, TableOptions options)
    : dir_(std::move(dir)), name_(std::move(name)), options_(options) {}

Result<std::unique_ptr<Table>> Table::Open(const std::string& dir,
                                           const std::string& name,
                                           const TableOptions& options) {
  if (name.empty() ||
      name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-") !=
          std::string::npos) {
    return Status::InvalidArgument("bad table name: '" + name + "'");
  }
  auto table = std::unique_ptr<Table>(new Table(dir, name, options));
  SEQDET_RETURN_IF_ERROR(table->Recover());
  return table;
}

std::string Table::SegmentPath(uint64_t id) const {
  return dir_ + "/" + name_ + "." + StringPrintf("%06llu",
                                                 static_cast<unsigned long long>(id)) +
         ".seg";
}

std::string Table::WalPath(uint64_t id) const {
  return dir_ + "/" + name_ + "." +
         StringPrintf("%06llu", static_cast<unsigned long long>(id)) + ".wal";
}

Status Table::Recover() {
  // Recovery runs inside Open() before the table is published, so there is
  // no contention — the lock is taken only to satisfy the static analysis's
  // GUARDED_BY discipline on the fields it initializes.
  WriterLock lock(mu_);
  if (options_.in_memory) return Status::OK();

  // The directory listing is the manifest: segment files are
  // "<name>.<id>.seg"; ids define recency (higher = newer).
  std::vector<uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string fname = entry.path().filename().string();
    std::string prefix = name_ + ".";
    if (!StartsWith(fname, prefix) || !EndsWith(fname, ".seg")) continue;
    std::string id_part =
        fname.substr(prefix.size(), fname.size() - prefix.size() - 4);
    int64_t id;
    if (!ParseInt64(id_part, &id) || id < 0) continue;
    ids.push_back(static_cast<uint64_t>(id));
  }
  if (ec) return Status::IOError("cannot list " + dir_ + ": " + ec.message());
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    SEQDET_ASSIGN_OR_RETURN(auto segment, Segment::Load(SegmentPath(id)));
    segments_.push_back(std::move(segment));
    segment_ids_.push_back(id);
    next_segment_id_ = std::max(next_segment_id_, id + 1);
  }

  if (options_.use_wal) {
    // WAL files are versioned by the segment id their memtable will flush
    // into ("<name>.<id>.wal"). A WAL whose id is at most the newest
    // segment id is stale — its contents were already flushed but the
    // crash happened before the log rotation — and replaying it would
    // duplicate appends, so it is discarded instead.
    std::vector<uint64_t> wal_ids;
    std::error_code wal_ec;
    for (const auto& entry : fs::directory_iterator(dir_, wal_ec)) {
      if (!entry.is_regular_file()) continue;
      std::string fname = entry.path().filename().string();
      std::string prefix = name_ + ".";
      if (!StartsWith(fname, prefix) || !EndsWith(fname, ".wal")) continue;
      std::string id_part =
          fname.substr(prefix.size(), fname.size() - prefix.size() - 4);
      int64_t id;
      if (!ParseInt64(id_part, &id) || id < 0) continue;
      wal_ids.push_back(static_cast<uint64_t>(id));
    }
    if (wal_ec) {
      return Status::IOError("cannot list " + dir_ + ": " + wal_ec.message());
    }
    std::sort(wal_ids.begin(), wal_ids.end());
    for (uint64_t id : wal_ids) {
      if (id < next_segment_id_) {
        std::remove(WalPath(id).c_str());  // stale: already in a segment
        continue;
      }
      SEQDET_RETURN_IF_ERROR(ReplayWal(
          WalPath(id),
          [this](RecordKind kind, std::string_view key,
                 std::string_view value) { mem_.Apply(kind, key, value); }));
      if (id > next_segment_id_) {
        // A WAL beyond the live generation means an interrupted rotation;
        // fold it into the current memtable and drop the file.
        std::remove(WalPath(id).c_str());
      }
    }
    SEQDET_RETURN_IF_ERROR(
        wal_.Open(WalPath(next_segment_id_), options_.sync_wal));
  }
  return Status::OK();
}

Status Table::WriteRecordLocked(RecordKind kind, std::string_view key,
                                std::string_view value) {
  if (options_.use_wal && !options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(wal_.Add(kind, key, value));
  }
  mem_.Apply(kind, key, value);
  return Status::OK();
}

Status Table::MaybeFlushLocked() {
  if (mem_.ApproximateBytes() >= options_.memtable_flush_bytes) {
    SEQDET_RETURN_IF_ERROR(FlushLocked());
    if (options_.max_segments != 0 &&
        segments_.size() > options_.max_segments) {
      return CompactLocked();
    }
  }
  return Status::OK();
}

Status Table::Put(std::string_view key, std::string_view value) {
  WriterLock lock(mu_);
  version_.fetch_add(1, std::memory_order_release);
  SEQDET_RETURN_IF_ERROR(WriteRecordLocked(RecordKind::kPut, key, value));
  return MaybeFlushLocked();
}

Status Table::Append(std::string_view key, std::string_view fragment) {
  WriterLock lock(mu_);
  version_.fetch_add(1, std::memory_order_release);
  SEQDET_RETURN_IF_ERROR(WriteRecordLocked(RecordKind::kAppend, key, fragment));
  return MaybeFlushLocked();
}

Status Table::Delete(std::string_view key) {
  WriterLock lock(mu_);
  version_.fetch_add(1, std::memory_order_release);
  SEQDET_RETURN_IF_ERROR(WriteRecordLocked(RecordKind::kDelete, key, {}));
  return MaybeFlushLocked();
}

Status Table::Apply(const WriteBatch& batch) {
  WriterLock lock(mu_);
  // One bump per batch: the batch becomes visible atomically under the
  // exclusive lock, so a single version step covers all of its records.
  if (!batch.empty()) version_.fetch_add(1, std::memory_order_release);
  for (const Record& r : batch.records()) {
    SEQDET_RETURN_IF_ERROR(WriteRecordLocked(r.kind, r.key, r.value));
  }
  if (options_.use_wal && !options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(wal_.Flush());
  }
  return MaybeFlushLocked();
}

Status Table::RewriteValue(
    std::string_view key,
    const std::function<Status(std::string_view, std::string*)>& fn) {
  WriterLock lock(mu_);
  std::string current;
  SEQDET_ASSIGN_OR_RETURN(bool found, FoldGetLocked(key, &current));
  if (!found) return Status::NotFound("key not found");
  std::string rewritten;
  SEQDET_RETURN_IF_ERROR(fn(current, &rewritten));
  version_.fetch_add(1, std::memory_order_release);
  SEQDET_RETURN_IF_ERROR(WriteRecordLocked(RecordKind::kPut, key, rewritten));
  // The rewrite replaces (not extends) prior state; make sure the WAL
  // record reaches the OS like Apply() does, so a crash either keeps the
  // old fragments or the whole folded value, never a torn middle.
  if (options_.use_wal && !options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(wal_.Flush());
  }
  return MaybeFlushLocked();
}

Result<bool> Table::FoldGetLocked(std::string_view key,
                                  std::string* value) const {
  // Fragments discovered newest-to-oldest; final value is
  // base + fragments oldest-to-newest.
  std::vector<std::string_view> fragments;
  std::string_view base;
  bool have_base = false;
  bool terminated = false;  // saw kPut or kDelete

  if (const MemTable::Entry* e = mem_.Find(key)) {
    switch (e->kind) {
      case RecordKind::kPut:
        base = e->value;
        have_base = true;
        terminated = true;
        break;
      case RecordKind::kDelete:
        return false;
      case RecordKind::kAppend:
        fragments.push_back(e->value);
        break;
    }
  }
  if (!terminated) {
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
      SEQDET_ASSIGN_OR_RETURN(const Segment::EntryRef* e, (*it)->Find(key));
      if (e == nullptr) continue;
      if (e->kind == RecordKind::kPut) {
        base = e->value;
        have_base = true;
        terminated = true;
        break;
      }
      if (e->kind == RecordKind::kDelete) {
        terminated = true;
        break;
      }
      fragments.push_back(e->value);
    }
  }
  if (!have_base && fragments.empty()) return false;
  value->clear();
  size_t total = base.size();
  for (auto f : fragments) total += f.size();
  value->reserve(total);
  value->append(base);
  for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
    value->append(*it);
  }
  return true;
}

Status Table::Get(std::string_view key, std::string* value) const {
  ReaderLock lock(mu_);
  SEQDET_ASSIGN_OR_RETURN(bool found, FoldGetLocked(key, value));
  if (!found) return Status::NotFound("key not found");
  return Status::OK();
}

bool Table::Contains(std::string_view key) const {
  std::string value;
  return Get(key, &value).ok();
}

Status Table::Scan(
    std::string_view start_key, std::string_view end_key,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  ReaderLock lock(mu_);

  // Cursors over every source, merged by key. Rank 0 is the memtable
  // (newest); segment ranks grow with age. Segment cursors cache the
  // current entry because SDSEG2 segments materialize entries per block on
  // demand (the cached views stay valid for the segment's lifetime).
  struct Cursor {
    size_t rank;
    // Memtable cursor:
    std::map<std::string, MemTable::Entry, std::less<>>::const_iterator
        mem_it;
    bool is_mem = false;
    // Segment cursor:
    const Segment* segment = nullptr;
    size_t pos = 0;
    Segment::EntryRef cur;

    std::string_view key() const {
      return is_mem ? std::string_view(mem_it->first) : cur.key;
    }
  };

  std::vector<Cursor> cursors;
  {
    Cursor c;
    c.rank = 0;
    c.is_mem = true;
    c.mem_it = start_key.empty()
                   ? mem_.entries().begin()
                   : mem_.entries().lower_bound(start_key);
    if (c.mem_it != mem_.entries().end()) cursors.push_back(c);
  }
  for (size_t i = 0; i < segments_.size(); ++i) {
    Cursor c;
    // segments_ is oldest-first; newest segment gets rank 1.
    c.rank = 1 + (segments_.size() - 1 - i);
    c.segment = segments_[i].get();
    if (start_key.empty()) {
      c.pos = 0;
    } else {
      SEQDET_ASSIGN_OR_RETURN(c.pos, c.segment->LowerBound(start_key));
    }
    if (c.pos < c.segment->size()) {
      SEQDET_ASSIGN_OR_RETURN(c.cur, c.segment->Entry(c.pos));
      cursors.push_back(c);
    }
  }

  std::string value;
  while (!cursors.empty()) {
    // Smallest key across cursors.
    std::string_view min_key = cursors[0].key();
    for (const Cursor& c : cursors) {
      std::string_view k = c.key();
      if (k < min_key) min_key = k;
    }
    if (!end_key.empty() && min_key >= end_key) break;

    // Fold entries for min_key across sources, newest rank first.
    std::vector<std::pair<size_t, const Cursor*>> hits;
    for (const Cursor& c : cursors) {
      if (c.key() == min_key) hits.emplace_back(c.rank, &c);
    }
    std::sort(hits.begin(), hits.end());

    std::vector<std::string_view> fragments;
    std::string_view base;
    bool have_base = false;
    for (auto& [rank, cur] : hits) {
      RecordKind kind;
      std::string_view v;
      if (cur->is_mem) {
        kind = cur->mem_it->second.kind;
        v = cur->mem_it->second.value;
      } else {
        kind = cur->cur.kind;
        v = cur->cur.value;
      }
      if (kind == RecordKind::kPut) {
        base = v;
        have_base = true;
        break;
      }
      if (kind == RecordKind::kDelete) break;
      fragments.push_back(v);
    }

    bool keep_going = true;
    if (have_base || !fragments.empty()) {
      value.clear();
      value.append(base);
      for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
        value.append(*it);
      }
      // min_key views into a cursor we are about to advance; copy first.
      std::string key_copy(min_key);
      keep_going = fn(key_copy, value);
    }

    // Advance every cursor positioned at min_key (note: min_key may now be
    // dangling for the memtable cursor after advancing it, so compute
    // matches first).
    std::string advanced_key(min_key);
    for (size_t i = 0; i < cursors.size();) {
      Cursor& c = cursors[i];
      if (c.key() == advanced_key) {
        bool exhausted;
        if (c.is_mem) {
          ++c.mem_it;
          exhausted = c.mem_it == mem_.entries().end();
        } else {
          ++c.pos;
          exhausted = c.pos >= c.segment->size();
          if (!exhausted) {
            SEQDET_ASSIGN_OR_RETURN(c.cur, c.segment->Entry(c.pos));
          }
        }
        if (exhausted) {
          cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
      }
      ++i;
    }
    if (!keep_going) break;
  }
  return Status::OK();
}

Status Table::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  return Scan(prefix, PrefixScanEnd(prefix), fn);
}

Status Table::FlushLocked() {
  if (mem_.empty()) return Status::OK();
  SegmentBuilder builder(options_.segment);
  for (const auto& [key, entry] : mem_.entries()) {
    SEQDET_RETURN_IF_ERROR(builder.Add(key, entry.kind, entry.value));
  }
  std::string buffer = builder.Finish();
  uint64_t id = next_segment_id_++;
  if (!options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(WriteFileAtomic(SegmentPath(id), buffer));
  }
  SEQDET_ASSIGN_OR_RETURN(auto segment, Segment::FromBuffer(std::move(buffer)));
  segments_.push_back(std::move(segment));
  segment_ids_.push_back(id);
  mem_.Clear();
  if (options_.use_wal && !options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(RotateWalLocked(id));
  }
  return Status::OK();
}

// Opens a fresh WAL for the next memtable generation and removes the log
// whose contents segment `flushed_id` now holds. Ordering matters for
// crash safety: the new log exists before the old one disappears, and a
// stale old log is recognized by its id on recovery.
Status Table::RotateWalLocked(uint64_t flushed_id) {
  wal_.Close();
  SEQDET_RETURN_IF_ERROR(
      wal_.Open(WalPath(next_segment_id_), options_.sync_wal));
  std::remove(WalPath(flushed_id).c_str());
  return Status::OK();
}

Status Table::Flush() {
  WriterLock lock(mu_);
  return FlushLocked();
}

Status Table::Compact() {
  WriterLock lock(mu_);
  // Compaction preserves the folded contents, but bump anyway: derived
  // caches must treat any physical rewrite as a new generation.
  version_.fetch_add(1, std::memory_order_release);
  return CompactLocked();
}

Status Table::CompactLocked() {
  SEQDET_RETURN_IF_ERROR(FlushLocked());
  if (segments_.size() <= 1) return Status::OK();

  // Since every segment participates, appends fold into kPut entries and
  // tombstones drop.
  SegmentBuilder builder(options_.segment);
  // Reuse the Scan merge: it already folds values across all segments (the
  // memtable is empty after FlushLocked). Scan takes a shared lock, so
  // inline the logic over segments directly instead. `cur[i]` caches the
  // entry at pos[i] (valid while pos[i] is in range).
  std::vector<size_t> pos(segments_.size(), 0);
  std::vector<Segment::EntryRef> cur(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (pos[i] < segments_[i]->size()) {
      SEQDET_ASSIGN_OR_RETURN(cur[i], segments_[i]->Entry(pos[i]));
    }
  }
  for (;;) {
    bool any = false;
    std::string_view min_key;
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (pos[i] >= segments_[i]->size()) continue;
      std::string_view k = cur[i].key;
      if (!any || k < min_key) {
        min_key = k;
        any = true;
      }
    }
    if (!any) break;

    std::vector<std::string_view> fragments;
    std::string_view base;
    bool have_base = false;
    // Newest segment is last in segments_.
    for (size_t j = segments_.size(); j-- > 0;) {
      if (pos[j] >= segments_[j]->size()) continue;
      const Segment::EntryRef& e = cur[j];
      if (e.key != min_key) continue;
      if (e.kind == RecordKind::kPut) {
        base = e.value;
        have_base = true;
        break;
      }
      if (e.kind == RecordKind::kDelete) break;
      fragments.push_back(e.value);
    }
    if (have_base || !fragments.empty()) {
      std::string folded(base);
      for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
        folded.append(*it);
      }
      SEQDET_RETURN_IF_ERROR(builder.Add(min_key, RecordKind::kPut, folded));
    }
    std::string advanced(min_key);
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (pos[i] < segments_[i]->size() && cur[i].key == advanced) {
        ++pos[i];
        if (pos[i] < segments_[i]->size()) {
          SEQDET_ASSIGN_OR_RETURN(cur[i], segments_[i]->Entry(pos[i]));
        }
      }
    }
  }

  std::string buffer = builder.Finish();
  uint64_t id = next_segment_id_++;
  if (!options_.in_memory) {
    SEQDET_RETURN_IF_ERROR(WriteFileAtomic(SegmentPath(id), buffer));
  }
  SEQDET_ASSIGN_OR_RETURN(auto merged, Segment::FromBuffer(std::move(buffer)));

  // Remove the old segment files only after the merged one is durable.
  if (!options_.in_memory) {
    for (uint64_t old_id : segment_ids_) {
      std::remove(SegmentPath(old_id).c_str());
    }
  }
  segments_.clear();
  segment_ids_.clear();
  segments_.push_back(std::move(merged));
  segment_ids_.push_back(id);
  if (options_.use_wal && !options_.in_memory) {
    // The merged segment consumed the id the live (empty) WAL was named
    // after; rotate so post-compaction writes land in a log recovery will
    // replay.
    SEQDET_RETURN_IF_ERROR(RotateWalLocked(id));
  }
  return Status::OK();
}

size_t Table::NumSegments() const {
  ReaderLock lock(mu_);
  return segments_.size();
}

size_t Table::MemTableBytes() const {
  ReaderLock lock(mu_);
  return mem_.ApproximateBytes();
}

TableSegmentStats Table::GetSegmentStats() const {
  ReaderLock lock(mu_);
  TableSegmentStats out;
  for (const auto& s : segments_) {
    const Segment::Stats& stats = s->stats();
    ++out.num_segments;
    out.num_blocks += stats.num_blocks;
    out.disk_bytes += stats.disk_bytes;
    out.logical_bytes += stats.logical_bytes;
  }
  return out;
}

size_t Table::ApproximateEntryCount() const {
  ReaderLock lock(mu_);
  size_t n = mem_.size();
  for (const auto& s : segments_) n += s->size();
  return n;
}

Status Table::DestroyFiles() {
  WriterLock lock(mu_);
  version_.fetch_add(1, std::memory_order_release);
  if (options_.in_memory) {
    segments_.clear();
    segment_ids_.clear();
    mem_.Clear();
    return Status::OK();
  }
  wal_.Close();
  std::remove(WalPath(next_segment_id_).c_str());
  for (uint64_t id : segment_ids_) {
    std::remove(SegmentPath(id).c_str());
  }
  segments_.clear();
  segment_ids_.clear();
  mem_.Clear();
  return Status::OK();
}

}  // namespace seqdet::storage
