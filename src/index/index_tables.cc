#include "index/index_tables.h"

#include <algorithm>
#include <unordered_map>

#include "common/coding.h"

namespace seqdet::index {

using eventlog::ActivityId;
using eventlog::Event;
using eventlog::Timestamp;
using eventlog::TraceId;

// ---------------------------------------------------------------------------
// SeqTable
// ---------------------------------------------------------------------------

std::string SeqTable::EncodeKey(TraceId trace) {
  std::string key;
  PutKeyU64(&key, trace);
  return key;
}

void SeqTable::EncodeEvents(const std::vector<Event>& events,
                            std::string* out) {
  for (const Event& e : events) {
    PutVarint32(out, e.activity);
    PutVarint64SignedZigZag(out, e.ts);
  }
}

bool SeqTable::DecodeEvents(std::string_view data, std::vector<Event>* out) {
  while (!data.empty()) {
    uint32_t activity;
    int64_t ts;
    if (!GetVarint32(&data, &activity) ||
        !GetVarint64SignedZigZag(&data, &ts)) {
      out->clear();  // never leave a partially decoded sequence behind
      return false;
    }
    out->push_back(Event{activity, ts});
  }
  return true;
}

void SeqTable::StageAppend(TraceId trace, const std::vector<Event>& events,
                           storage::WriteBatch* batch) const {
  if (events.empty()) return;
  std::string value;
  EncodeEvents(events, &value);
  batch->Append(EncodeKey(trace), value);
}

Result<std::vector<Event>> SeqTable::Get(TraceId trace) const {
  std::string value;
  Status s = table_->Get(EncodeKey(trace), &value);
  if (s.IsNotFound()) return std::vector<Event>{};
  SEQDET_RETURN_IF_ERROR(s);
  std::vector<Event> events;
  if (!DecodeEvents(value, &events)) {
    return Status::Corruption("bad Seq value");
  }
  return events;
}

void SeqTable::StageDelete(TraceId trace, storage::WriteBatch* batch) const {
  batch->Delete(EncodeKey(trace));
}

// ---------------------------------------------------------------------------
// PairIndexTable
// ---------------------------------------------------------------------------

std::string PairIndexTable::EncodeKey(const EventTypePair& pair) {
  std::string key;
  PutKeyU32(&key, pair.first);
  PutKeyU32(&key, pair.second);
  return key;
}

void PairIndexTable::EncodeValue(const std::vector<PairOccurrence>& postings,
                                 std::string* out) {
  if (std::is_sorted(postings.begin(), postings.end())) {
    EncodePostingBlocks(postings, kDefaultPostingBlockBytes, out);
  } else {
    std::vector<PairOccurrence> sorted = postings;
    std::sort(sorted.begin(), sorted.end());
    EncodePostingBlocks(sorted, kDefaultPostingBlockBytes, out);
  }
}

void PairIndexTable::StageAppend(const EventTypePair& pair,
                                 const std::vector<PairOccurrence>& postings,
                                 storage::WriteBatch* batch) const {
  if (postings.empty()) return;
  std::string value;
  EncodeValue(postings, &value);
  batch->Append(EncodeKey(pair), value);
}

Result<std::vector<PairOccurrence>> PairIndexTable::Get(
    const EventTypePair& pair) const {
  std::string value;
  Status s = table_->Get(EncodeKey(pair), &value);
  if (s.IsNotFound()) return std::vector<PairOccurrence>{};
  SEQDET_RETURN_IF_ERROR(s);
  std::vector<PairOccurrence> postings;
  if (!DecodeBlockedPostings(value, &postings)) {
    return Status::Corruption("bad Index posting list");
  }
  // Appends from successive update batches interleave traces; queries group
  // by trace, so normalize here. Folded (or single-batch) values are
  // already sorted — don't pay the sort for them.
  if (!std::is_sorted(postings.begin(), postings.end())) {
    std::sort(postings.begin(), postings.end());
  }
  return postings;
}

namespace {

// True when the block sequence is not what a fold would produce: blocks
// whose trace ranges overlap a predecessor (append fragments interleave
// traces) or non-final blocks below the fold's per-block posting count.
bool BlocksNeedFold(const std::vector<PostingBlockRef>& refs,
                    size_t target_block_bytes) {
  if (refs.size() <= 1) return false;
  // Non-final folded blocks hold exactly PostingsPerBlock postings, so a
  // freshly folded value never re-triggers.
  const size_t per_block = PostingsPerBlock(target_block_bytes);
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0 && refs[i].header.min_trace < refs[i - 1].header.max_trace) {
      return true;
    }
    if (i + 1 < refs.size() && refs[i].header.count < per_block) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool PairIndexTable::NeedsFold(std::string_view value,
                               size_t target_block_bytes) {
  std::vector<PostingBlockRef> refs;
  // Undecodable values are "fold-worthy" so the pass surfaces the
  // corruption instead of silently skipping it.
  if (!ParsePostingBlockRefs(value, &refs)) return true;
  return BlocksNeedFold(refs, target_block_bytes);
}

Result<PostingFragmentation> PairIndexTable::Fragmentation(
    size_t target_block_bytes) const {
  PostingFragmentation out;
  SEQDET_RETURN_IF_ERROR(table_->Scan(
      "", "", [&](std::string_view, std::string_view value) {
        ++out.keys;
        out.value_bytes += value.size();
        std::vector<PostingBlockRef> refs;
        const bool parsed = ParsePostingBlockRefs(value, &refs);
        if (parsed) out.blocks += refs.size();
        if (!parsed || BlocksNeedFold(refs, target_block_bytes)) {
          ++out.fragmented_keys;
          out.fragment_bytes += value.size();
        }
        return true;
      }));
  return out;
}

Status PairIndexTable::FoldAll(size_t target_block_bytes, FoldStats* stats,
                               const FoldPace& pace) {
  FoldStats local;
  FoldStats* fs = stats != nullptr ? stats : &local;
  // Collect candidates first — the scan holds the table's read lock, so
  // the per-key commits (which take the write lock) cannot run inside it.
  std::vector<std::string> keys;
  SEQDET_RETURN_IF_ERROR(table_->Scan(
      "", "", [&](std::string_view key, std::string_view value) {
        ++fs->keys_scanned;
        if (NeedsFold(value, target_block_bytes)) keys.emplace_back(key);
        return true;
      }));
  for (const std::string& key : keys) {
    Status s = table_->RewriteValue(
        key, [&](std::string_view current, std::string* rewritten) {
          std::vector<PairOccurrence> postings;
          if (!DecodeBlockedPostings(current, &postings)) {
            return Status::Corruption("bad Index posting list");
          }
          if (!std::is_sorted(postings.begin(), postings.end())) {
            std::sort(postings.begin(), postings.end());
          }
          EncodePostingBlocks(postings, target_block_bytes, rewritten);
          fs->bytes_read += current.size();
          fs->bytes_written += rewritten->size();
          return Status::OK();
        });
    if (s.IsNotFound()) continue;  // key deleted since the scan
    SEQDET_RETURN_IF_ERROR(s);
    ++fs->keys_folded;
    if (pace) SEQDET_RETURN_IF_ERROR(pace(*fs));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CountTable
// ---------------------------------------------------------------------------

std::string CountTable::EncodeKey(ActivityId activity) {
  std::string key;
  PutKeyU32(&key, activity);
  return key;
}

void CountTable::StageDelta(ActivityId key_activity,
                            const PairCountStats& delta,
                            storage::WriteBatch* batch) const {
  std::string value;
  PutVarint32(&value, delta.other);
  PutVarint64SignedZigZag(&value, delta.sum_duration);
  PutVarint64(&value, delta.total_completions);
  batch->Append(EncodeKey(key_activity), value);
}

Status CountTable::DecodeDeltas(std::string_view value,
                                std::vector<PairCountStats>* out) {
  std::unordered_map<ActivityId, PairCountStats> totals;
  while (!value.empty()) {
    uint32_t other;
    int64_t sum_duration;
    uint64_t completions;
    if (!GetVarint32(&value, &other) ||
        !GetVarint64SignedZigZag(&value, &sum_duration) ||
        !GetVarint64(&value, &completions)) {
      out->clear();  // never leave partially aggregated stats behind
      return Status::Corruption("bad Count delta list");
    }
    PairCountStats& stats = totals[other];
    stats.other = other;
    stats.sum_duration += sum_duration;
    stats.total_completions += completions;
  }
  out->reserve(totals.size());
  for (auto& [other, stats] : totals) out->push_back(stats);
  std::sort(out->begin(), out->end(),
            [](const PairCountStats& a, const PairCountStats& b) {
              if (a.total_completions != b.total_completions) {
                return a.total_completions > b.total_completions;
              }
              return a.other < b.other;
            });
  return Status::OK();
}

Result<std::vector<PairCountStats>> CountTable::Get(
    ActivityId activity) const {
  std::string value;
  Status s = table_->Get(EncodeKey(activity), &value);
  if (s.IsNotFound()) return std::vector<PairCountStats>{};
  SEQDET_RETURN_IF_ERROR(s);
  std::vector<PairCountStats> out;
  SEQDET_RETURN_IF_ERROR(DecodeDeltas(value, &out));
  return out;
}

namespace {

// A folded Count value has exactly one delta per follower. Count raw
// records vs distinct `other` ids without materializing the aggregation.
bool CountValueNeedsFold(std::string_view value) {
  std::vector<uint32_t> others;
  while (!value.empty()) {
    uint32_t other;
    int64_t sum_duration;
    uint64_t completions;
    if (!GetVarint32(&value, &other) ||
        !GetVarint64SignedZigZag(&value, &sum_duration) ||
        !GetVarint64(&value, &completions)) {
      return true;  // corrupt: let the fold surface the error
    }
    others.push_back(other);
  }
  std::sort(others.begin(), others.end());
  return std::adjacent_find(others.begin(), others.end()) != others.end();
}

}  // namespace

Status CountTable::FoldAll(FoldStats* stats, const FoldPace& pace) {
  FoldStats local;
  FoldStats* fs = stats != nullptr ? stats : &local;
  std::vector<std::string> keys;
  SEQDET_RETURN_IF_ERROR(table_->Scan(
      "", "", [&](std::string_view key, std::string_view value) {
        ++fs->keys_scanned;
        if (CountValueNeedsFold(value)) keys.emplace_back(key);
        return true;
      }));
  for (const std::string& key : keys) {
    Status s = table_->RewriteValue(
        key, [&](std::string_view current, std::string* rewritten) {
          std::vector<PairCountStats> folded;
          SEQDET_RETURN_IF_ERROR(DecodeDeltas(current, &folded));
          for (const PairCountStats& delta : folded) {
            PutVarint32(rewritten, delta.other);
            PutVarint64SignedZigZag(rewritten, delta.sum_duration);
            PutVarint64(rewritten, delta.total_completions);
          }
          fs->bytes_read += current.size();
          fs->bytes_written += rewritten->size();
          return Status::OK();
        });
    if (s.IsNotFound()) continue;  // key deleted since the scan
    SEQDET_RETURN_IF_ERROR(s);
    ++fs->keys_folded;
    if (pace) SEQDET_RETURN_IF_ERROR(pace(*fs));
  }
  return Status::OK();
}

Result<PairCountStats> CountTable::GetPair(ActivityId key_activity,
                                           ActivityId other) const {
  SEQDET_ASSIGN_OR_RETURN(auto all, Get(key_activity));
  for (const PairCountStats& stats : all) {
    if (stats.other == other) return stats;
  }
  return PairCountStats{other, 0, 0};
}

// ---------------------------------------------------------------------------
// LastCheckedTable
// ---------------------------------------------------------------------------

std::string LastCheckedTable::EncodeKey(const EventTypePair& pair,
                                        TraceId trace) {
  std::string key;
  PutKeyU32(&key, pair.first);
  PutKeyU32(&key, pair.second);
  PutKeyU64(&key, trace);
  return key;
}

void LastCheckedTable::StagePut(const EventTypePair& pair, TraceId trace,
                                Timestamp last_completion,
                                storage::WriteBatch* batch) const {
  std::string value;
  PutVarint64SignedZigZag(&value, last_completion);
  batch->Put(EncodeKey(pair, trace), value);
}

Result<std::optional<Timestamp>> LastCheckedTable::Get(
    const EventTypePair& pair, TraceId trace) const {
  std::string value;
  Status s = table_->Get(EncodeKey(pair, trace), &value);
  if (s.IsNotFound()) return std::optional<Timestamp>{};
  SEQDET_RETURN_IF_ERROR(s);
  std::string_view cursor(value);
  int64_t ts;
  if (!GetVarint64SignedZigZag(&cursor, &ts)) {
    return Status::Corruption("bad LastChecked value");
  }
  return std::optional<Timestamp>{ts};
}

void LastCheckedTable::StageDelete(const EventTypePair& pair, TraceId trace,
                                   storage::WriteBatch* batch) const {
  batch->Delete(EncodeKey(pair, trace));
}

}  // namespace seqdet::index
