#ifndef SEQDET_INDEX_SEQUENCE_INDEX_H_
#define SEQDET_INDEX_SEQUENCE_INDEX_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/index_tables.h"
#include "index/maintenance.h"
#include "index/pair.h"
#include "index/pair_extraction.h"
#include "index/posting_cache.h"
#include "log/event_log.h"
#include "storage/database.h"

namespace seqdet::index {

/// Configuration of the pre-processing component.
struct IndexOptions {
  Policy policy = Policy::kSkipTillNextMatch;
  ExtractionMethod method = ExtractionMethod::kIndexing;
  /// Worker threads for per-trace pair extraction (the paper's Spark
  /// executors). 1 disables parallelism.
  size_t num_threads = 0;  // 0 = hardware concurrency
  /// Maintain the Count/ReverseCount statistics tables (needed by the
  /// Statistics query and the Fast/Hybrid continuation).
  bool maintain_counts = true;
  /// Maintain the Seq table (needed for incremental updates that span
  /// multiple batches and for trace pruning).
  bool maintain_seq = true;
  /// Maintain LastChecked (needed to avoid duplicate postings across
  /// batches; disabling it is only safe when every trace arrives whole in a
  /// single batch — the ablation bench measures the cost).
  bool maintain_last_checked = true;
  /// Physical shards per logical table (the Cassandra-partition analogue;
  /// lets parallel builders commit without contending on one table lock).
  /// 0 picks a default from the thread count. The value is persisted in the
  /// meta table on first build and reused on reopen.
  size_t storage_shards = 0;
  /// Byte budget of the decoded-postings read cache (the repo's analogue of
  /// the Cassandra row cache, §3.1/§6): hot pair posting lists are decoded
  /// and sorted once and served as shared immutable snapshots until an
  /// Update/compaction bumps the backing table's version. 0 disables.
  size_t cache_bytes = 64u << 20;
  /// Target payload bytes of one folded posting block.
  size_t posting_block_bytes = kDefaultPostingBlockBytes;
  /// Background auto-fold + compaction service. With
  /// `maintenance.auto_fold` set, Open() starts a MaintenanceService that
  /// folds posting fragments and statistics deltas whenever the pending
  /// append load crosses the configured thresholds.
  MaintenanceOptions maintenance;
};

/// Decode-side counters of the posting read path (monotonic; snapshot via
/// SequenceIndex::read_stats()). The blocked format's skip metadata shows
/// up here: bytes_skipped counts payload bytes the trace-selective path
/// never decoded.
struct IndexReadStats {
  uint64_t postings_decoded = 0;
  uint64_t bytes_decoded = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t bytes_skipped = 0;
};

/// Header-level description of one pair's posting list across all periods:
/// the exact posting count and the union of the blocks' trace-id ranges.
struct PairPostingSummary {
  uint64_t postings = 0;
  TraceIntervalSet traces;
};

/// Result of a CheckConsistency() sweep.
struct ConsistencyReport {
  size_t pairs_checked = 0;
  size_t postings_checked = 0;
  size_t traces_checked = 0;
  /// Human-readable descriptions of every violated invariant; empty means
  /// the index is internally consistent.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Aggregate counters of one Update() call.
struct UpdateStats {
  size_t traces_processed = 0;
  size_t events_appended = 0;
  size_t pairs_extracted = 0;  // before LastChecked filtering
  size_t pairs_indexed = 0;    // actually appended to the Index table
};

/// The pre-processing component of Figure 1: builds and incrementally
/// maintains the inverted event-pair index inside a storage::Database.
///
/// Tables managed (names in the database):
///   seq, index_p<N> (one per period), count, rcount, lastchecked, meta.
class SequenceIndex {
 public:
  /// Opens (or creates) the index structures inside `db`. The database
  /// retains ownership of the tables; `db` must outlive the index.
  static Result<std::unique_ptr<SequenceIndex>> Open(storage::Database* db,
                                                     const IndexOptions&
                                                         options);

  SequenceIndex(const SequenceIndex&) = delete;
  SequenceIndex& operator=(const SequenceIndex&) = delete;

  /// Stops the maintenance service (if one is running) before any table
  /// state is torn down.
  ~SequenceIndex();

  /// Algorithm 1: indexes a batch of new events. Traces already indexed are
  /// extended; previously indexed completions are skipped via LastChecked.
  /// Returns counters for observability.
  ///
  /// Crash/error semantics: commits are per-table (the underlying store has
  /// no cross-table transactions — neither does the paper's Cassandra). If
  /// Update fails partway, the Index table may already hold postings whose
  /// LastChecked entries were not yet written, in which case retrying the
  /// same batch can duplicate those postings. Treat a failed Update as
  /// requiring manual inspection rather than a blind retry.
  Result<UpdateStats> Update(const eventlog::EventLog& new_events);

  /// Closes the current index period and routes subsequent postings to a
  /// fresh index table (§3.1.3: "a separate index table can be used for
  /// different periods"). Queries transparently merge all periods.
  Status StartNewPeriod();

  /// Removes a completed trace from Seq and LastChecked (§3.1.3 pruning).
  /// Index postings remain queryable. "Completed" is a contract: pruning
  /// removes the dedup state, so if the trace's events are ever re-sent in
  /// a later batch they will be re-indexed as duplicates — only prune
  /// traces that can receive no further (or repeated) events.
  Status PruneTrace(eventlog::TraceId trace);

  // --- read path used by the query processor -----------------------------

  /// An immutable shared snapshot of all completions of `pair` across every
  /// period, sorted by (trace, ts_first). Never null on success. Served
  /// from the posting cache when warm: concurrent queries (DetectBatch
  /// workers, continuation verification) share one decoded copy instead of
  /// each re-decoding and re-sorting the stored bytes. The snapshot stays
  /// valid — frozen at its fill time — even if the index is updated while
  /// the caller holds it.
  Result<PostingCache::Snapshot> GetPairPostingsShared(
      const EventTypePair& pair) const;

  /// Copying convenience over GetPairPostingsShared for callers that want
  /// to own (or mutate) the list.
  Result<std::vector<PairOccurrence>> GetPairPostings(
      const EventTypePair& pair) const;

  /// Header-level summary of `pair`'s posting list (across all periods)
  /// without decoding any posting payload: block skip metadata only. The
  /// cheap first phase of the selectivity-ordered Detect join.
  Result<PairPostingSummary> GetPairSummary(const EventTypePair& pair) const;

  /// Like GetPairPostingsShared restricted to `candidates`: only blocks
  /// whose [min_trace, max_trace] range intersects the candidate set are
  /// decoded (block-granular cache entries keep hot blocks decoded). A
  /// period whose every block overlaps the candidates has nothing to skip:
  /// it is decoded whole, once, into the whole-list cache entry
  /// GetPairPostingsShared serves. The result is a sorted *superset* of
  /// the candidate traces' postings — a whole-list entry is returned
  /// as-is, and block ranges are coarse — so callers must treat extra
  /// postings as harmless (the Algorithm-2 join does). Never null on
  /// success.
  Result<PostingCache::Snapshot> GetPairPostingsFiltered(
      const EventTypePair& pair, const TraceIntervalSet& candidates) const;

  /// Count table: stats of pairs (activity, *), most frequent first.
  Result<std::vector<PairCountStats>> GetFollowerStats(
      eventlog::ActivityId activity) const;

  /// ReverseCount table: stats of pairs (*, activity).
  Result<std::vector<PairCountStats>> GetPredecessorStats(
      eventlog::ActivityId activity) const;

  /// Stats of one specific pair (zero stats when never completed).
  Result<PairCountStats> GetPairStats(const EventTypePair& pair) const;

  /// LastChecked lookup.
  Result<std::optional<eventlog::Timestamp>> GetLastCompletion(
      const EventTypePair& pair, eventlog::TraceId trace) const;

  /// The most recent completion timestamp of `pair` across *all* traces
  /// (LastChecked range scan; powers the Statistics query's
  /// last-completion column, §3.2.1).
  Result<std::optional<eventlog::Timestamp>> GetPairLastCompletion(
      const EventTypePair& pair) const;

  /// The stored event sequence of `trace` (empty when unknown or pruned).
  /// Activity ids are in terms of dictionary().
  Result<std::vector<eventlog::Event>> GetTraceSequence(
      eventlog::TraceId trace) const;

  /// Every trace id with a stored sequence, ascending (a Seq-table key
  /// scan; pruned traces are absent). Powers the extended-pattern queries
  /// that must enumerate traces — single-positive-element patterns and
  /// compliance templates (DESIGN.md §14). Unsupported when the Seq table
  /// is disabled.
  Result<std::vector<eventlog::TraceId>> ListTraces() const;

  /// The index's own persistent activity dictionary. Batches passed to
  /// Update() may carry arbitrary per-log dictionaries; events are remapped
  /// by *name* into this dictionary, which is what makes ids stable across
  /// batches and reopen. All ids accepted/returned by the read path are in
  /// terms of this dictionary.
  const eventlog::ActivityDictionary& dictionary() const {
    return dictionary_;
  }

  /// Flushes all managed tables.
  Status Flush();

  /// fsck for the index: verifies the cross-table invariants that
  /// Update() maintains —
  ///   * every Index posting has ts_first < ts_second;
  ///   * per (pair, trace), postings never overlap under SC/STNM;
  ///   * Count/ReverseCount totals equal the posting-list lengths and
  ///     duration sums;
  ///   * LastChecked equals the newest posting end per (pair, trace);
  ///   * Seq sequences are sorted.
  /// Read-only; scans every table, so run it offline. Pruned traces
  /// legitimately retain postings without Seq/LastChecked entries — those
  /// are not reported.
  Result<ConsistencyReport> CheckConsistency() const;

  /// Maintenance: folds the Count/ReverseCount delta lists into single
  /// values and compacts those tables. Every Update() appends one delta
  /// per pair, so periodic folding keeps statistics reads O(#followers).
  /// Per-key commits are atomic (Kv::RewriteValue), so this is safe to run
  /// concurrently with Update() and reads.
  Status CompactStatistics(FoldStats* stats = nullptr,
                           const FoldPace& pace = {});

  /// Maintenance sibling of CompactStatistics for the posting lists:
  /// rewrites every period's append fragments as globally sorted blocks,
  /// then compacts the tables. Safe to run concurrently with Update() and
  /// the query read path: each key commits atomically through the
  /// WAL/version protocol, so a concurrent Detect sees either the old
  /// fragments or the folded value, and PostingCache entries
  /// self-invalidate via Kv::Version(). This is what the
  /// MaintenanceService runs. On success the pending append load observed
  /// at entry is consumed from pending_fold_load().
  Status FoldPostings(FoldStats* stats = nullptr, const FoldPace& pace = {});

  /// Posting bytes / append records staged by Update() since the last
  /// completed fold — the fragmentation signal the MaintenanceService
  /// thresholds test. Process-local (reopening an index resets it).
  PendingFoldLoad pending_fold_load() const;

  /// Block-level fragmentation of every period's posting lists (disk
  /// truth, via a header scan). Read-only; used by `seqdet info` and
  /// tests.
  Result<PostingFragmentation> PostingFragmentationStats() const;

  /// The background maintenance service, or nullptr when
  /// options().maintenance.auto_fold was not set.
  MaintenanceService* maintenance() const { return maintenance_.get(); }

  /// Maintenance observability counters; `enabled == false` zeros when no
  /// service is attached.
  MaintenanceStats maintenance_stats() const;

  const IndexOptions& options() const { return options_; }
  size_t num_periods() const { return index_tables_.size(); }
  storage::Database* database() const { return db_; }

  /// Read-cache observability counters (all zero when cache_bytes == 0).
  PostingCacheStats cache_stats() const { return cache_.stats(); }

  /// Posting decode counters (see IndexReadStats).
  IndexReadStats read_stats() const;

 private:
  SequenceIndex(storage::Database* db, const IndexOptions& options);

  Status OpenTables();
  Status PersistPeriodCount();
  Status LoadDictionary();
  Status PersistDictionary();

  /// Uncached decode of one period's full posting list (sorted), with
  /// read-stats accounting.
  Result<std::vector<PairOccurrence>> ReadPeriodPostings(
      size_t period, const EventTypePair& pair) const;
  /// The decode half of ReadPeriodPostings for a stored `value` already
  /// read. `refs`, when given, are the value's parsed block headers, so a
  /// caller that parsed them does not parse them again.
  Result<std::vector<PairOccurrence>> DecodePeriodValue(
      std::string_view value, const std::vector<PostingBlockRef>* refs) const;

  storage::Database* db_;
  IndexOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  eventlog::ActivityDictionary dictionary_;

  std::unique_ptr<SeqTable> seq_;
  std::vector<std::unique_ptr<PairIndexTable>> index_tables_;  // one/period
  std::unique_ptr<CountTable> count_;
  std::unique_ptr<CountTable> reverse_count_;
  std::unique_ptr<LastCheckedTable> last_checked_;
  storage::Kv* meta_ = nullptr;
  size_t shards_ = 1;
  /// Decoded-postings read cache; logically const (a memo over the tables),
  /// hence usable from the const read path.
  mutable PostingCache cache_;
  /// Monotonic decode counters behind read_stats(); logically const.
  struct ReadCounters {
    std::atomic<uint64_t> postings_decoded{0};
    std::atomic<uint64_t> bytes_decoded{0};
    std::atomic<uint64_t> blocks_decoded{0};
    std::atomic<uint64_t> blocks_skipped{0};
    std::atomic<uint64_t> bytes_skipped{0};
  };
  mutable ReadCounters read_counters_;
  /// Append load staged since the last completed fold (pending_fold_load).
  std::atomic<uint64_t> pending_fold_bytes_{0};
  std::atomic<uint64_t> pending_fold_ops_{0};
  /// Keep last: destroyed first, so the service thread is joined before
  /// any state it touches goes away (the explicit destructor also stops it
  /// up front).
  std::unique_ptr<MaintenanceService> maintenance_;
};

}  // namespace seqdet::index

#endif  // SEQDET_INDEX_SEQUENCE_INDEX_H_
