#include "index/sequence_index.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/coding.h"
#include "common/strings.h"
#include "common/sync.h"

namespace seqdet::index {

using eventlog::Event;
using eventlog::EventLog;
using eventlog::Timestamp;
using eventlog::Trace;
using eventlog::TraceId;

namespace {
constexpr std::string_view kPeriodCountKey = "period_count";
constexpr std::string_view kActivitiesKey = "activities";
constexpr std::string_view kShardCountKey = "shard_count";
constexpr std::string_view kPolicyKey = "policy";
constexpr std::string_view kPostingFormatKey = "posting_format";

// Saturating subtract: concurrent fold passes (service + a manual
// FoldPostings) may both observe and consume overlapping pending load;
// clamping at zero keeps the counters meaningful instead of wrapping.
void ConsumePending(std::atomic<uint64_t>& counter, uint64_t amount) {
  uint64_t current = counter.load(std::memory_order_relaxed);
  while (!counter.compare_exchange_weak(
      current, current >= amount ? current - amount : 0,
      std::memory_order_relaxed)) {
  }
}
}  // namespace

SequenceIndex::SequenceIndex(storage::Database* db,
                             const IndexOptions& options)
    : db_(db), options_(options), cache_(options.cache_bytes) {
  size_t threads = options_.num_threads == 0
                       ? ThreadPool::HardwareConcurrency()
                       : options_.num_threads;
  pool_ = std::make_unique<ThreadPool>(threads);
}

Result<std::unique_ptr<SequenceIndex>> SequenceIndex::Open(
    storage::Database* db, const IndexOptions& options) {
  auto index =
      std::unique_ptr<SequenceIndex>(new SequenceIndex(db, options));
  SEQDET_RETURN_IF_ERROR(index->OpenTables());
  if (options.maintenance.auto_fold) {
    // The pending counters only see appends made through this process, so
    // seed them from the on-disk fragmentation: a service opening an
    // already-fragmented index (e.g. built without --auto-fold) should fold
    // it instead of waiting for fresh appends.
    auto frag = index->PostingFragmentationStats();
    if (frag.ok() && frag->fragmented_keys > 0) {
      index->pending_fold_bytes_.fetch_add(frag->fragment_bytes,
                                           std::memory_order_relaxed);
      index->pending_fold_ops_.fetch_add(frag->fragmented_keys,
                                         std::memory_order_relaxed);
    }
    index->maintenance_ = std::make_unique<MaintenanceService>(
        index.get(), options.maintenance);
    index->maintenance_->Start();
  }
  return index;
}

SequenceIndex::~SequenceIndex() {
  if (maintenance_ != nullptr) maintenance_->Stop();
}

Status SequenceIndex::OpenTables() {
  SEQDET_ASSIGN_OR_RETURN(storage::Table * meta,
                          db_->GetOrCreateTable("meta"));
  meta_ = meta;

  // The shard count of the physical tables is persisted so reopening with
  // different options cannot mis-route keys. Its absence also identifies a
  // freshly created index (the key is written on first open).
  bool fresh_index = false;
  uint64_t shards = 0;
  {
    std::string value;
    Status s = meta_->Get(kShardCountKey, &value);
    if (s.ok()) {
      std::string_view cursor(value);
      if (!GetVarint64(&cursor, &shards) || shards == 0) {
        return Status::Corruption("bad meta shard_count");
      }
    } else if (s.IsNotFound()) {
      fresh_index = true;
      shards = options_.storage_shards != 0
                   ? options_.storage_shards
                   : std::min<size_t>(16, 2 * pool_->num_threads());
      std::string encoded;
      PutVarint64(&encoded, shards);
      SEQDET_RETURN_IF_ERROR(meta_->Put(kShardCountKey, encoded));
    } else {
      return s;
    }
  }
  shards_ = static_cast<size_t>(shards);

  // Posting-list value format. Persisted because stored bytes are only
  // decodable with the format that wrote them. Only the blocked format is
  // read: an index in a retired format (1 or 2, or one predating the key,
  // which is flat 1) must be rebuilt. A `posting_upgrade` key left by the
  // retired in-place 1 -> 3 upgrade is ignored: beside format 3 it can
  // only remain from an upgrade that completed.
  {
    std::string value;
    Status s = meta_->Get(kPostingFormatKey, &value);
    uint64_t format = 1;
    if (s.ok()) {
      std::string_view cursor(value);
      if (!GetVarint64(&cursor, &format)) {
        return Status::Corruption("bad meta posting_format");
      }
    } else if (!s.IsNotFound()) {
      return s;
    } else if (fresh_index) {
      format = kPostingFormatBlocked;
      std::string encoded;
      PutVarint64(&encoded, format);
      SEQDET_RETURN_IF_ERROR(meta_->Put(kPostingFormatKey, encoded));
    }
    if (format != kPostingFormatBlocked) {
      return Status::Unsupported(StringPrintf(
          "index stores posting_format %llu, which this version does not "
          "read; rebuild the index from its log",
          static_cast<unsigned long long>(format)));
    }
  }

  // The detection policy is baked into the stored pair semantics; reopening
  // an SC index with STNM options (or vice versa) would silently return
  // wrong results, so it is persisted and checked.
  {
    std::string value;
    Status s = meta_->Get(kPolicyKey, &value);
    if (s.ok()) {
      Policy stored;
      if (!ParsePolicyName(value, &stored)) {
        return Status::Corruption("bad meta policy: " + value);
      }
      if (stored != options_.policy) {
        return Status::InvalidArgument(
            StringPrintf("index was built with policy %s but opened with %s",
                         PolicyName(stored), PolicyName(options_.policy)));
      }
    } else if (s.IsNotFound()) {
      SEQDET_RETURN_IF_ERROR(
          meta_->Put(kPolicyKey, PolicyName(options_.policy)));
    } else {
      return s;
    }
  }

  auto open = [this](const std::string& name) -> Result<storage::Kv*> {
    auto sharded = db_->GetOrCreateShardedTable(name, shards_);
    if (!sharded.ok()) return sharded.status();
    return static_cast<storage::Kv*>(*sharded);
  };

  SEQDET_ASSIGN_OR_RETURN(storage::Kv * seq, open("seq"));
  seq_ = std::make_unique<SeqTable>(seq);
  SEQDET_ASSIGN_OR_RETURN(storage::Kv * count, open("count"));
  count_ = std::make_unique<CountTable>(count);
  SEQDET_ASSIGN_OR_RETURN(storage::Kv * rcount, open("rcount"));
  reverse_count_ = std::make_unique<CountTable>(rcount);
  SEQDET_ASSIGN_OR_RETURN(storage::Kv * lastchecked, open("lastchecked"));
  last_checked_ = std::make_unique<LastCheckedTable>(lastchecked);

  // Recover the period count (>= 1).
  uint64_t periods = 1;
  std::string value;
  Status s = meta_->Get(kPeriodCountKey, &value);
  if (s.ok()) {
    std::string_view cursor(value);
    if (!GetVarint64(&cursor, &periods) || periods == 0) {
      return Status::Corruption("bad meta period_count");
    }
  } else if (!s.IsNotFound()) {
    return s;
  }
  for (uint64_t p = 0; p < periods; ++p) {
    SEQDET_ASSIGN_OR_RETURN(
        storage::Kv * t,
        open(StringPrintf("index_p%llu",
                          static_cast<unsigned long long>(p))));
    index_tables_.push_back(std::make_unique<PairIndexTable>(t));
  }
  SEQDET_RETURN_IF_ERROR(LoadDictionary());
  return PersistPeriodCount();
}

Status SequenceIndex::LoadDictionary() {
  std::string value;
  Status s = meta_->Get(kActivitiesKey, &value);
  if (s.IsNotFound()) return Status::OK();
  SEQDET_RETURN_IF_ERROR(s);
  std::string_view cursor(value);
  while (!cursor.empty()) {
    std::string_view name;
    if (!GetLengthPrefixed(&cursor, &name)) {
      return Status::Corruption("bad meta activities list");
    }
    dictionary_.Intern(name);
  }
  return Status::OK();
}

Status SequenceIndex::PersistDictionary() {
  std::string value;
  for (const std::string& name : dictionary_.names()) {
    PutLengthPrefixed(&value, name);
  }
  return meta_->Put(kActivitiesKey, value);
}

Status SequenceIndex::PersistPeriodCount() {
  std::string value;
  PutVarint64(&value, index_tables_.size());
  return meta_->Put(kPeriodCountKey, value);
}

Status SequenceIndex::StartNewPeriod() {
  SEQDET_ASSIGN_OR_RETURN(
      storage::ShardedTable * t,
      db_->GetOrCreateShardedTable(
          StringPrintf("index_p%llu",
                       static_cast<unsigned long long>(index_tables_.size())),
          shards_));
  index_tables_.push_back(std::make_unique<PairIndexTable>(t));
  return PersistPeriodCount();
}

Result<UpdateStats> SequenceIndex::Update(const EventLog& new_events) {
  // Algorithm 1. Each trace is independent ("each trace is processed
  // separately in parallel using Spark", §4), so the batch is partitioned
  // into contiguous chunks across the pool; every worker stages into its
  // own WriteBatches and commits them to the (thread-safe) tables.
  // Remap the batch's activity ids (which are local to its own dictionary)
  // into the index's persistent dictionary by name — what keeps ids stable
  // across batches and restarts.
  std::vector<eventlog::ActivityId> remap;
  remap.reserve(new_events.dictionary().size());
  bool identity = true;
  for (const std::string& name : new_events.dictionary().names()) {
    eventlog::ActivityId id = dictionary_.Intern(name);
    if (id != remap.size()) identity = false;
    remap.push_back(id);
  }
  SEQDET_RETURN_IF_ERROR(PersistDictionary());

  const auto& traces = new_events.traces();
  const size_t num_chunks =
      std::min<size_t>(std::max<size_t>(1, pool_->num_threads()),
                       std::max<size_t>(1, traces.size()));
  const size_t per_chunk = (traces.size() + num_chunks - 1) / num_chunks;

  PairIndexTable* active_index = index_tables_.back().get();

  std::atomic<size_t> pairs_extracted{0};
  std::atomic<size_t> pairs_indexed{0};
  std::atomic<size_t> events_appended{0};
  Mutex error_mu;
  Status first_error;

  auto process_chunk = [&](size_t begin, size_t end) {
    storage::WriteBatch seq_batch, index_batch, lastchecked_batch;
    std::vector<PairRow> rows;
    // Count/ReverseCount deltas aggregate across the whole chunk (one delta
    // per pair per chunk, not per trace) — Count reads decode every stored
    // delta, so keeping the delta count low is what keeps the Statistics
    // and Fast-continuation queries O(#followers).
    std::unordered_map<EventTypePair, PairCountStats, EventTypePairHash>
        count_deltas;

    auto fail = [&](const Status& s) {
      MutexLock lock(error_mu);
      if (first_error.ok()) first_error = s;
    };

    for (size_t t = begin; t < end; ++t) {
      const Trace& incoming = traces[t];
      if (incoming.empty()) continue;

      // Line 2: rebuild the full trace sequence as in the Seq table.
      std::vector<Event> stored;
      if (options_.maintain_seq) {
        auto stored_result = seq_->Get(incoming.id);
        if (!stored_result.ok()) {
          fail(stored_result.status());
          return;
        }
        stored = std::move(stored_result).value();
        if (!std::is_sorted(stored.begin(), stored.end())) {
          std::sort(stored.begin(), stored.end());
        }
      }

      std::vector<Event> incoming_events;
      incoming_events.reserve(incoming.events.size());
      for (const Event& e : incoming.events) {
        incoming_events.push_back(identity ? e
                                           : Event{remap[e.activity], e.ts});
      }
      std::stable_sort(incoming_events.begin(), incoming_events.end());

      // Fresh events = incoming minus stored (multiset difference), so a
      // replayed batch is fully idempotent: it neither re-indexes pairs
      // (LastChecked) nor duplicates the Seq table.
      std::vector<Event> fresh_events;
      fresh_events.reserve(incoming_events.size());
      {
        size_t si = 0;
        for (const Event& e : incoming_events) {
          while (si < stored.size() && stored[si] < e) ++si;
          if (si < stored.size() && stored[si] == e) {
            ++si;  // already stored; consume one occurrence
          } else {
            fresh_events.push_back(e);
          }
        }
      }

      Trace full;
      full.id = incoming.id;
      full.events.resize(stored.size() + fresh_events.size());
      std::merge(stored.begin(), stored.end(), fresh_events.begin(),
                 fresh_events.end(), full.events.begin());
      const size_t stored_count = stored.size();

      // create_pairs: any of the Section 4 flavors.
      rows.clear();
      ExtractPairs(full, options_.policy, options_.method, &rows);
      pairs_extracted.fetch_add(rows.size(), std::memory_order_relaxed);

      // Group by pair so LastChecked is consulted once per (pair, trace).
      // Sorting the flat row vector is considerably cheaper than building a
      // per-trace map — the grouping is on the hot path of every build.
      std::sort(rows.begin(), rows.end(),
                [](const PairRow& a, const PairRow& b) {
                  if (a.pair != b.pair) return a.pair < b.pair;
                  return a.occurrence < b.occurrence;
                });

      std::vector<PairOccurrence> occurrences;
      for (size_t row_begin = 0; row_begin < rows.size();) {
        size_t row_end = row_begin + 1;
        while (row_end < rows.size() &&
               rows[row_end].pair == rows[row_begin].pair) {
          ++row_end;
        }
        const EventTypePair pair = rows[row_begin].pair;
        occurrences.clear();
        for (size_t r = row_begin; r < row_end; ++r) {
          occurrences.push_back(rows[r].occurrence);
        }
        row_begin = row_end;
        Timestamp last_completion = std::numeric_limits<Timestamp>::min();
        if (options_.maintain_last_checked && stored_count > 0) {
          auto lt = last_checked_->Get(pair, full.id);
          if (!lt.ok()) {
            fail(lt.status());
            return;
          }
          if (lt.value().has_value()) last_completion = *lt.value();
        }

        // Lines 9-10 of Algorithm 1, with the guard on the *completion*
        // timestamp rather than the paper's first-event timestamp: under SC
        // consecutive completions of a self-pair share an event
        // (ts_first == previous ts_second), so `ev_a.ts > lt` would drop a
        // genuinely new completion. `ts_second > lt` is exact for both
        // policies (STNM completions never overlap, SC completions have
        // strictly increasing end timestamps).
        std::vector<PairOccurrence> fresh;
        Timestamp newest = last_completion;
        for (const PairOccurrence& occurrence : occurrences) {
          if (occurrence.ts_second > last_completion) {
            fresh.push_back(occurrence);
            newest = std::max(newest, occurrence.ts_second);
          }
        }
        if (fresh.empty()) continue;
        pairs_indexed.fetch_add(fresh.size(), std::memory_order_relaxed);

        active_index->StageAppend(pair, fresh, &index_batch);
        if (options_.maintain_last_checked) {
          last_checked_->StagePut(pair, full.id, newest, &lastchecked_batch);
        }
        if (options_.maintain_counts) {
          PairCountStats& delta = count_deltas[pair];
          delta.total_completions += fresh.size();
          for (const PairOccurrence& occurrence : fresh) {
            delta.sum_duration += occurrence.ts_second - occurrence.ts_first;
          }
        }
      }

      events_appended.fetch_add(fresh_events.size(),
                                std::memory_order_relaxed);
      if (options_.maintain_seq) {
        seq_->StageAppend(full.id, fresh_events, &seq_batch);
      }
    }

    // Line 14: append the staged postings.
    auto commit = [&](storage::Kv* table, const storage::WriteBatch& b) {
      if (b.empty()) return;
      Status s = table->Apply(b);
      if (!s.ok()) fail(s);
    };
    commit(active_index->table(), index_batch);
    // Feed the maintenance thresholds: posting bytes/records committed by
    // this chunk count as pending fold load until a fold pass consumes
    // them. Counted only once committed: a pass that snapshots the load
    // must find every counted fragment on disk, or it would consume load
    // whose fragments it never saw and leave them unfolded.
    if (!index_batch.empty()) {
      uint64_t staged_bytes = 0;
      for (const storage::Record& r : index_batch.records()) {
        staged_bytes += r.value.size();
      }
      pending_fold_bytes_.fetch_add(staged_bytes, std::memory_order_relaxed);
      pending_fold_ops_.fetch_add(index_batch.records().size(),
                                  std::memory_order_relaxed);
    }
    if (options_.maintain_seq) commit(seq_->table(), seq_batch);
    if (options_.maintain_counts) {
      storage::WriteBatch count_batch, rcount_batch;
      for (const auto& [pair, stats] : count_deltas) {
        PairCountStats delta = stats;
        delta.other = pair.second;
        count_->StageDelta(pair.first, delta, &count_batch);
        delta.other = pair.first;
        reverse_count_->StageDelta(pair.second, delta, &rcount_batch);
      }
      commit(count_->table(), count_batch);
      commit(reverse_count_->table(), rcount_batch);
    }
    if (options_.maintain_last_checked) {
      commit(last_checked_->table(), lastchecked_batch);
    }
  };

  if (num_chunks <= 1) {
    process_chunk(0, traces.size());
  } else {
    std::vector<std::future<void>> futures;
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t begin = c * per_chunk;
      size_t end = std::min(traces.size(), begin + per_chunk);
      if (begin >= end) break;
      futures.push_back(
          pool_->Submit([&process_chunk, begin, end] {
            process_chunk(begin, end);
          }));
    }
    for (auto& f : futures) f.get();
  }
  if (!first_error.ok()) return first_error;

  UpdateStats stats;
  stats.traces_processed = traces.size();
  stats.events_appended = events_appended.load();
  stats.pairs_extracted = pairs_extracted.load();
  stats.pairs_indexed = pairs_indexed.load();
  return stats;
}

Status SequenceIndex::PruneTrace(TraceId trace) {
  if (!options_.maintain_seq) {
    return Status::Unsupported("pruning requires the Seq table");
  }
  SEQDET_ASSIGN_OR_RETURN(auto events, seq_->Get(trace));
  storage::WriteBatch seq_batch, lastchecked_batch;
  seq_->StageDelete(trace, &seq_batch);

  if (options_.maintain_last_checked) {
    std::unordered_set<eventlog::ActivityId> distinct;
    for (const Event& e : events) distinct.insert(e.activity);
    for (eventlog::ActivityId a : distinct) {
      for (eventlog::ActivityId b : distinct) {
        last_checked_->StageDelete(EventTypePair{a, b}, trace,
                                   &lastchecked_batch);
      }
    }
    SEQDET_RETURN_IF_ERROR(
        last_checked_->table()->Apply(lastchecked_batch));
  }
  return seq_->table()->Apply(seq_batch);
}

Result<std::vector<PairOccurrence>> SequenceIndex::ReadPeriodPostings(
    size_t period, const EventTypePair& pair) const {
  std::string value;
  Status s = index_tables_[period]->table()->Get(
      PairIndexTable::EncodeKey(pair), &value);
  if (s.IsNotFound()) return std::vector<PairOccurrence>{};
  SEQDET_RETURN_IF_ERROR(s);
  return DecodePeriodValue(value, nullptr);
}

Result<std::vector<PairOccurrence>> SequenceIndex::DecodePeriodValue(
    std::string_view value, const std::vector<PostingBlockRef>* refs) const {
  std::vector<PairOccurrence> postings;
  const bool ok = refs != nullptr
                      ? DecodePostingBlocks(value, *refs, &postings)
                      : DecodeBlockedPostings(value, &postings);
  if (!ok) return Status::Corruption("bad Index posting list");
  read_counters_.bytes_decoded.fetch_add(value.size(),
                                         std::memory_order_relaxed);
  read_counters_.postings_decoded.fetch_add(postings.size(),
                                            std::memory_order_relaxed);
  if (!std::is_sorted(postings.begin(), postings.end())) {
    std::sort(postings.begin(), postings.end());
  }
  return postings;
}

Result<PostingCache::Snapshot> SequenceIndex::GetPairPostingsShared(
    const EventTypePair& pair) const {
  // Versions are read BEFORE the posting bytes (see Kv::Version() for the
  // tagging protocol); each period list is cached under its own period key,
  // the cross-period merge under kMergedPeriod tagged with the version sum.
  const size_t periods = index_tables_.size();
  uint64_t merged_version = 0;
  std::vector<uint64_t> period_versions(periods, 0);
  for (size_t p = 0; p < periods; ++p) {
    period_versions[p] = index_tables_[p]->table()->Version();
    merged_version += period_versions[p];
  }
  if (periods > 1) {
    if (auto hit = cache_.Get(PostingCache::kMergedPeriod, pair,
                              merged_version)) {
      return hit;
    }
  }

  std::vector<PostingCache::Snapshot> per_period;
  per_period.reserve(periods);
  for (size_t p = 0; p < periods; ++p) {
    auto snapshot =
        cache_.Get(static_cast<uint32_t>(p), pair, period_versions[p]);
    if (snapshot == nullptr) {
      SEQDET_ASSIGN_OR_RETURN(auto postings, ReadPeriodPostings(p, pair));
      snapshot = std::make_shared<const std::vector<PairOccurrence>>(
          std::move(postings));
      cache_.Put(static_cast<uint32_t>(p), pair, period_versions[p],
                 snapshot);
    }
    per_period.push_back(std::move(snapshot));
  }
  if (periods == 1) return per_period[0];

  // Per-period lists are already sorted, so merge instead of re-sorting the
  // concatenation: append each period and inplace_merge at the boundary.
  auto merged = std::make_shared<std::vector<PairOccurrence>>();
  size_t total = 0;
  for (const auto& snapshot : per_period) total += snapshot->size();
  merged->reserve(total);
  for (const auto& snapshot : per_period) {
    const size_t boundary = merged->size();
    merged->insert(merged->end(), snapshot->begin(), snapshot->end());
    if (boundary > 0) {
      std::inplace_merge(merged->begin(),
                         merged->begin() + static_cast<ptrdiff_t>(boundary),
                         merged->end());
    }
  }
  PostingCache::Snapshot result = std::move(merged);
  cache_.Put(PostingCache::kMergedPeriod, pair, merged_version, result);
  return result;
}

Result<std::vector<PairOccurrence>> SequenceIndex::GetPairPostings(
    const EventTypePair& pair) const {
  SEQDET_ASSIGN_OR_RETURN(auto snapshot, GetPairPostingsShared(pair));
  return *snapshot;
}

Result<PairPostingSummary> SequenceIndex::GetPairSummary(
    const EventTypePair& pair) const {
  PairPostingSummary summary;
  std::vector<TraceInterval> intervals;
  const std::string key = PairIndexTable::EncodeKey(pair);
  for (size_t p = 0; p < index_tables_.size(); ++p) {
    std::string value;
    Status s = index_tables_[p]->table()->Get(key, &value);
    if (s.IsNotFound()) continue;
    SEQDET_RETURN_IF_ERROR(s);
    std::vector<PostingBlockRef> refs;
    if (!ParsePostingBlockRefs(value, &refs)) {
      return Status::Corruption("bad Index posting list");
    }
    for (const PostingBlockRef& ref : refs) {
      intervals.push_back(
          TraceInterval{ref.header.min_trace, ref.header.max_trace});
      summary.postings += ref.header.count;
    }
  }
  summary.traces = TraceIntervalSet::FromIntervals(std::move(intervals));
  return summary;
}

Result<PostingCache::Snapshot> SequenceIndex::GetPairPostingsFiltered(
    const EventTypePair& pair, const TraceIntervalSet& candidates) const {
  const std::string key = PairIndexTable::EncodeKey(pair);
  // Whole period lists (shared, sorted) and the postings of the blocks
  // decoded one by one; merged only when there is more than one part.
  std::vector<PostingCache::Snapshot> wholes;
  std::vector<PairOccurrence> merged;
  for (size_t p = 0; p < index_tables_.size(); ++p) {
    // Version before bytes — same tagging protocol as the shared path.
    const uint64_t version = index_tables_[p]->table()->Version();
    if (auto whole = cache_.Get(static_cast<uint32_t>(p), pair, version)) {
      // An already decoded full list is cheaper than any selective decode;
      // the extra postings are a harmless superset.
      wholes.push_back(std::move(whole));
      continue;
    }
    std::string value;
    Status s = index_tables_[p]->table()->Get(key, &value);
    if (s.IsNotFound()) continue;
    SEQDET_RETURN_IF_ERROR(s);
    std::vector<PostingBlockRef> refs;
    if (!ParsePostingBlockRefs(value, &refs)) {
      return Status::Corruption("bad Index posting list");
    }
    const bool skips_any = std::any_of(
        refs.begin(), refs.end(), [&](const PostingBlockRef& ref) {
          return !candidates.Overlaps(ref.header.min_trace,
                                      ref.header.max_trace);
        });
    if (!skips_any) {
      SEQDET_ASSIGN_OR_RETURN(auto postings,
                              DecodePeriodValue(value, &refs));
      read_counters_.blocks_decoded.fetch_add(refs.size(),
                                              std::memory_order_relaxed);
      PostingCache::Snapshot whole =
          std::make_shared<const std::vector<PairOccurrence>>(
              std::move(postings));
      cache_.Put(static_cast<uint32_t>(p), pair, version, whole);
      wholes.push_back(std::move(whole));
      continue;
    }
    for (size_t b = 0; b < refs.size(); ++b) {
      const PostingBlockRef& ref = refs[b];
      if (!candidates.Overlaps(ref.header.min_trace, ref.header.max_trace)) {
        read_counters_.blocks_skipped.fetch_add(1, std::memory_order_relaxed);
        read_counters_.bytes_skipped.fetch_add(ref.header.byte_len,
                                               std::memory_order_relaxed);
        continue;
      }
      auto block = cache_.GetBlock(static_cast<uint32_t>(p), pair,
                                   static_cast<uint32_t>(b), version);
      if (block == nullptr) {
        auto decoded = std::make_shared<std::vector<PairOccurrence>>();
        decoded->reserve(ref.header.count);
        if (!DecodePostingBlockPayload(
                std::string_view(value).substr(
                    ref.payload_offset,
                    static_cast<size_t>(ref.header.byte_len)),
                ref.header, decoded.get())) {
          return Status::Corruption("bad Index posting block");
        }
        read_counters_.blocks_decoded.fetch_add(1, std::memory_order_relaxed);
        read_counters_.bytes_decoded.fetch_add(ref.header.byte_len,
                                               std::memory_order_relaxed);
        read_counters_.postings_decoded.fetch_add(ref.header.count,
                                                  std::memory_order_relaxed);
        block = decoded;
        cache_.PutBlock(static_cast<uint32_t>(p), pair,
                        static_cast<uint32_t>(b), version, block);
      }
      merged.insert(merged.end(), block->begin(), block->end());
    }
  }
  if (wholes.size() == 1 && merged.empty()) return wholes.front();
  for (const PostingCache::Snapshot& whole : wholes) {
    merged.insert(merged.end(), whole->begin(), whole->end());
  }
  // Folded blocks are globally sorted but append fragments (and period
  // boundaries) interleave traces; normalize like every other read path.
  if (!std::is_sorted(merged.begin(), merged.end())) {
    std::sort(merged.begin(), merged.end());
  }
  return PostingCache::Snapshot(
      std::make_shared<const std::vector<PairOccurrence>>(std::move(merged)));
}

IndexReadStats SequenceIndex::read_stats() const {
  IndexReadStats stats;
  stats.postings_decoded =
      read_counters_.postings_decoded.load(std::memory_order_relaxed);
  stats.bytes_decoded =
      read_counters_.bytes_decoded.load(std::memory_order_relaxed);
  stats.blocks_decoded =
      read_counters_.blocks_decoded.load(std::memory_order_relaxed);
  stats.blocks_skipped =
      read_counters_.blocks_skipped.load(std::memory_order_relaxed);
  stats.bytes_skipped =
      read_counters_.bytes_skipped.load(std::memory_order_relaxed);
  return stats;
}

Result<std::vector<PairCountStats>> SequenceIndex::GetFollowerStats(
    eventlog::ActivityId activity) const {
  if (!options_.maintain_counts) {
    return Status::Unsupported("Count table disabled");
  }
  return count_->Get(activity);
}

Result<std::vector<PairCountStats>> SequenceIndex::GetPredecessorStats(
    eventlog::ActivityId activity) const {
  if (!options_.maintain_counts) {
    return Status::Unsupported("ReverseCount table disabled");
  }
  return reverse_count_->Get(activity);
}

Result<PairCountStats> SequenceIndex::GetPairStats(
    const EventTypePair& pair) const {
  if (!options_.maintain_counts) {
    return Status::Unsupported("Count table disabled");
  }
  return count_->GetPair(pair.first, pair.second);
}

Result<std::optional<Timestamp>> SequenceIndex::GetLastCompletion(
    const EventTypePair& pair, TraceId trace) const {
  if (!options_.maintain_last_checked) {
    return Status::Unsupported("LastChecked table disabled");
  }
  return last_checked_->Get(pair, trace);
}

Result<std::optional<Timestamp>> SequenceIndex::GetPairLastCompletion(
    const EventTypePair& pair) const {
  if (!options_.maintain_last_checked) {
    return Status::Unsupported("LastChecked table disabled");
  }
  std::string prefix = PairIndexTable::EncodeKey(pair);
  std::optional<Timestamp> newest;
  Status scan = last_checked_->table()->Scan(
      prefix, storage::PrefixScanEnd(prefix),
      [&newest](std::string_view, std::string_view value) {
        std::string_view cursor(value);
        int64_t ts;
        if (GetVarint64SignedZigZag(&cursor, &ts)) {
          if (!newest.has_value() || ts > *newest) newest = ts;
        }
        return true;
      });
  SEQDET_RETURN_IF_ERROR(scan);
  return newest;
}

Result<std::vector<Event>> SequenceIndex::GetTraceSequence(
    TraceId trace) const {
  if (!options_.maintain_seq) {
    return Status::Unsupported("Seq table disabled");
  }
  return seq_->Get(trace);
}

Result<std::vector<TraceId>> SequenceIndex::ListTraces() const {
  if (!options_.maintain_seq) {
    return Status::Unsupported("Seq table disabled");
  }
  std::vector<TraceId> traces;
  SEQDET_RETURN_IF_ERROR(seq_->table()->Scan(
      "", "", [&traces](std::string_view key, std::string_view) {
        std::string_view key_cursor(key);
        uint64_t trace = 0;
        if (GetKeyU64(&key_cursor, &trace)) {
          traces.push_back(trace);
        }
        return true;
      }));
  return traces;
}

Result<ConsistencyReport> SequenceIndex::CheckConsistency() const {
  ConsistencyReport report;
  constexpr size_t kMaxViolations = 100;
  auto violate = [&report](std::string message) {
    if (report.violations.size() < kMaxViolations) {
      report.violations.push_back(std::move(message));
    }
  };
  const bool overlap_allowed =
      options_.policy == Policy::kSkipTillAnyMatch;

  // Pass 1: walk every period's posting lists, verifying per-posting and
  // per-trace ordering invariants and accumulating per-pair totals.
  struct PairTotals {
    uint64_t completions = 0;
    int64_t sum_duration = 0;
  };
  std::unordered_map<EventTypePair, PairTotals, EventTypePairHash> totals;
  std::unordered_map<EventTypePair,
                     std::unordered_map<TraceId, Timestamp>,
                     EventTypePairHash>
      newest_completion;

  for (size_t period = 0; period < index_tables_.size(); ++period) {
    Status scan = index_tables_[period]->table()->Scan(
        "", "", [&](std::string_view key, std::string_view value) {
          std::string_view key_cursor(key);
          uint32_t first, second;
          if (!GetKeyU32(&key_cursor, &first) ||
              !GetKeyU32(&key_cursor, &second) || !key_cursor.empty()) {
            violate(StringPrintf("period %zu: malformed index key", period));
            return true;
          }
          EventTypePair pair{first, second};
          std::vector<PairOccurrence> postings;
          if (!DecodeBlockedPostings(value, &postings)) {
            violate(StringPrintf("pair (%u,%u): undecodable posting list",
                                 first, second));
            return true;
          }
          ++report.pairs_checked;
          report.postings_checked += postings.size();

          std::sort(postings.begin(), postings.end());
          PairTotals& pair_totals = totals[pair];
          auto& newest = newest_completion[pair];
          const PairOccurrence* previous = nullptr;
          for (const PairOccurrence& p : postings) {
            if (p.ts_first >= p.ts_second) {
              violate(StringPrintf(
                  "pair (%u,%u) trace %llu: posting with ts_first >= "
                  "ts_second",
                  first, second,
                  static_cast<unsigned long long>(p.trace)));
            }
            if (!overlap_allowed && previous != nullptr &&
                previous->trace == p.trace &&
                p.ts_first <= previous->ts_second) {
              violate(StringPrintf(
                  "pair (%u,%u) trace %llu: overlapping postings under %s",
                  first, second, static_cast<unsigned long long>(p.trace),
                  PolicyName(options_.policy)));
            }
            previous = &p;
            ++pair_totals.completions;
            pair_totals.sum_duration += p.ts_second - p.ts_first;
            auto [entry, inserted] = newest.try_emplace(p.trace, p.ts_second);
            if (!inserted) {
              entry->second = std::max(entry->second, p.ts_second);
            }
          }
          return true;
        });
    SEQDET_RETURN_IF_ERROR(scan);
  }

  // Pass 2: Count / ReverseCount agree with the posting lists.
  if (options_.maintain_counts) {
    for (const auto& [pair, expected] : totals) {
      SEQDET_ASSIGN_OR_RETURN(PairCountStats forward,
                              count_->GetPair(pair.first, pair.second));
      if (forward.total_completions != expected.completions ||
          forward.sum_duration != expected.sum_duration) {
        violate(StringPrintf(
            "pair (%u,%u): Count says %llu completions / %lld duration, "
            "postings say %llu / %lld",
            pair.first, pair.second,
            static_cast<unsigned long long>(forward.total_completions),
            static_cast<long long>(forward.sum_duration),
            static_cast<unsigned long long>(expected.completions),
            static_cast<long long>(expected.sum_duration)));
      }
      SEQDET_ASSIGN_OR_RETURN(PairCountStats reverse,
                              reverse_count_->GetPair(pair.second,
                                                      pair.first));
      if (reverse.total_completions != expected.completions) {
        violate(StringPrintf(
            "pair (%u,%u): ReverseCount completions %llu != postings %llu",
            pair.first, pair.second,
            static_cast<unsigned long long>(reverse.total_completions),
            static_cast<unsigned long long>(expected.completions)));
      }
    }
  }

  // Pass 3: LastChecked matches the newest posting end, unless the trace
  // was pruned (no Seq entry).
  if (options_.maintain_last_checked && options_.maintain_seq) {
    std::unordered_map<TraceId, bool> pruned;
    auto is_pruned = [&](TraceId trace) -> Result<bool> {
      auto it = pruned.find(trace);
      if (it != pruned.end()) return it->second;
      SEQDET_ASSIGN_OR_RETURN(auto events, seq_->Get(trace));
      bool gone = events.empty();
      pruned.emplace(trace, gone);
      return gone;
    };
    for (const auto& [pair, by_trace] : newest_completion) {
      for (const auto& [trace, newest] : by_trace) {
        SEQDET_ASSIGN_OR_RETURN(bool gone, is_pruned(trace));
        if (gone) continue;
        SEQDET_ASSIGN_OR_RETURN(auto lt, last_checked_->Get(pair, trace));
        if (!lt.has_value() || *lt != newest) {
          violate(StringPrintf(
              "pair (%u,%u) trace %llu: LastChecked %s != newest posting "
              "end %lld",
              pair.first, pair.second,
              static_cast<unsigned long long>(trace),
              lt.has_value()
                  ? std::to_string(static_cast<long long>(*lt)).c_str()
                  : "absent",
              static_cast<long long>(newest)));
        }
      }
    }
  }

  // Pass 4: stored sequences are sorted.
  if (options_.maintain_seq) {
    Status scan = seq_->table()->Scan(
        "", "", [&](std::string_view key, std::string_view value) {
          std::string_view key_cursor(key);
          uint64_t trace = 0;
          GetKeyU64(&key_cursor, &trace);
          std::vector<Event> events;
          if (!SeqTable::DecodeEvents(value, &events)) {
            violate(StringPrintf("trace %llu: undecodable Seq value",
                                 static_cast<unsigned long long>(trace)));
            return true;
          }
          ++report.traces_checked;
          if (!std::is_sorted(events.begin(), events.end())) {
            // Out-of-order appends are tolerated by Update (it re-sorts),
            // but flag them: they indicate batches arrived out of time
            // order.
            violate(StringPrintf(
                "trace %llu: Seq events stored out of timestamp order",
                static_cast<unsigned long long>(trace)));
          }
          return true;
        });
    SEQDET_RETURN_IF_ERROR(scan);
  }
  return report;
}

Status SequenceIndex::CompactStatistics(FoldStats* stats,
                                        const FoldPace& pace) {
  if (!options_.maintain_counts) {
    return Status::Unsupported("Count table disabled");
  }
  SEQDET_RETURN_IF_ERROR(count_->FoldAll(stats, pace));
  SEQDET_RETURN_IF_ERROR(reverse_count_->FoldAll(stats, pace));
  SEQDET_RETURN_IF_ERROR(count_->table()->Compact());
  return reverse_count_->table()->Compact();
}

Status SequenceIndex::FoldPostings(FoldStats* stats, const FoldPace& pace) {
  // Snapshot the pending load first: anything staged before this point is
  // covered by the pass (per-key rewrites re-read under the write lock);
  // appends racing in later stay pending for the next cycle.
  const PendingFoldLoad observed = pending_fold_load();
  for (const auto& table : index_tables_) {
    SEQDET_RETURN_IF_ERROR(
        table->FoldAll(options_.posting_block_bytes, stats, pace));
  }
  for (const auto& table : index_tables_) {
    SEQDET_RETURN_IF_ERROR(table->table()->Compact());
  }
  ConsumePending(pending_fold_bytes_, observed.bytes);
  ConsumePending(pending_fold_ops_, observed.ops);
  return Status::OK();
}

PendingFoldLoad SequenceIndex::pending_fold_load() const {
  PendingFoldLoad load;
  load.bytes = pending_fold_bytes_.load(std::memory_order_relaxed);
  load.ops = pending_fold_ops_.load(std::memory_order_relaxed);
  return load;
}

Result<PostingFragmentation> SequenceIndex::PostingFragmentationStats()
    const {
  PostingFragmentation total;
  for (const auto& table : index_tables_) {
    SEQDET_ASSIGN_OR_RETURN(
        PostingFragmentation f,
        table->Fragmentation(options_.posting_block_bytes));
    total.keys += f.keys;
    total.blocks += f.blocks;
    total.fragmented_keys += f.fragmented_keys;
    total.value_bytes += f.value_bytes;
    total.fragment_bytes += f.fragment_bytes;
  }
  return total;
}

MaintenanceStats SequenceIndex::maintenance_stats() const {
  if (maintenance_ == nullptr) {
    MaintenanceStats stats;
    const PendingFoldLoad pending = pending_fold_load();
    stats.queue_depth = pending.ops;
    stats.pending_bytes = pending.bytes;
    return stats;
  }
  return maintenance_->stats();
}

Status SequenceIndex::Flush() {
  SEQDET_RETURN_IF_ERROR(seq_->table()->Flush());
  for (const auto& t : index_tables_) {
    SEQDET_RETURN_IF_ERROR(t->table()->Flush());
  }
  SEQDET_RETURN_IF_ERROR(count_->table()->Flush());
  SEQDET_RETURN_IF_ERROR(reverse_count_->table()->Flush());
  SEQDET_RETURN_IF_ERROR(last_checked_->table()->Flush());
  return meta_->Flush();
}

}  // namespace seqdet::index
