#ifndef SEQDET_INDEX_INDEX_TABLES_H_
#define SEQDET_INDEX_INDEX_TABLES_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/pair.h"
#include "index/posting_blocks.h"
#include "log/event.h"
#include "storage/kv.h"
#include "storage/write_batch.h"

namespace seqdet::index {

/// Typed accessors over the five key-value tables of §3.1.2. Each wrapper
/// owns only the encoding; the storage::Table pointers are owned by the
/// Database. Write methods stage into a WriteBatch so that a trace batch
/// commits with one lock acquisition per table.

// ---------------------------------------------------------------------------
// Seq: trace_id -> [(activity, ts), ...]  (appendable)
// ---------------------------------------------------------------------------
class SeqTable {
 public:
  explicit SeqTable(storage::Kv* table) : table_(table) {}

  static std::string EncodeKey(eventlog::TraceId trace);
  static void EncodeEvents(const std::vector<eventlog::Event>& events,
                           std::string* out);
  static bool DecodeEvents(std::string_view data,
                           std::vector<eventlog::Event>* out);

  /// Stages an append of `events` to the stored sequence of `trace`.
  void StageAppend(eventlog::TraceId trace,
                   const std::vector<eventlog::Event>& events,
                   storage::WriteBatch* batch) const;

  /// Reads the full stored sequence of `trace` (empty when unknown).
  Result<std::vector<eventlog::Event>> Get(eventlog::TraceId trace) const;

  /// Stages the removal of a completed trace (§3.1.3 pruning).
  void StageDelete(eventlog::TraceId trace, storage::WriteBatch* batch) const;

  storage::Kv* table() const { return table_; }

 private:
  storage::Kv* table_;
};

// ---------------------------------------------------------------------------
// Index: (ev_a, ev_b) -> [(trace, ts_a, ts_b), ...]  (appendable)
// ---------------------------------------------------------------------------

/// Posting-list value format (persisted in the meta table as
/// `posting_format`): block-structured with skip headers and bit-packed
/// payloads (posting_blocks.h). Appends write mini-blocks; FoldPostings()
/// rewrites fragment piles into globally sorted target-size blocks. The
/// earlier formats 1 (flat varint stream) and 2 (blocks with varint
/// payloads) are retired: such an index does not open and must be rebuilt.
inline constexpr uint32_t kPostingFormatBlocked = 3;

/// Progress counters of one fold pass (PairIndexTable::FoldAll,
/// CountTable::FoldAll).
struct FoldStats {
  size_t keys_scanned = 0;  // every live key visited by the candidate scan
  size_t keys_folded = 0;   // keys actually rewritten
  uint64_t bytes_read = 0;      // pre-fold value bytes of rewritten keys
  uint64_t bytes_written = 0;   // post-fold value bytes of rewritten keys
};

/// Called by a fold pass after each per-key commit (folds rewrite one key
/// at a time). Returning a non-OK status stops the pass early with that
/// status — the keys already folded stay folded; every commit is atomic and
/// self-contained. Lets the maintenance service rate-limit and abort folds.
using FoldPace = std::function<Status(const FoldStats&)>;

/// Block-level shape of a table's stored posting lists, the signal the
/// maintenance service (and `seqdet info`) read to decide whether a fold
/// pass would pay off. `fragment_bytes` counts bytes in values a fold would
/// rewrite.
struct PostingFragmentation {
  size_t keys = 0;
  size_t blocks = 0;
  size_t fragmented_keys = 0;    // keys NeedsFold() would rewrite
  uint64_t value_bytes = 0;      // total stored posting bytes
  uint64_t fragment_bytes = 0;   // bytes in fold-worthy values

  double FragmentRatio() const {
    return value_bytes == 0
               ? 0.0
               : static_cast<double>(fragment_bytes) /
                     static_cast<double>(value_bytes);
  }
};

class PairIndexTable {
 public:
  explicit PairIndexTable(storage::Kv* table) : table_(table) {}

  static std::string EncodeKey(const EventTypePair& pair);

  /// Encodes `postings` as one value fragment (a block sequence). Blocks
  /// require sorted input; unsorted postings are sorted into a local copy
  /// first. Stored values decode with DecodeBlockedPostings().
  static void EncodeValue(const std::vector<PairOccurrence>& postings,
                          std::string* out);

  void StageAppend(const EventTypePair& pair,
                   const std::vector<PairOccurrence>& postings,
                   storage::WriteBatch* batch) const;

  /// Reads all completions of `pair`, sorted by (trace, ts_first) so that
  /// query processing can group by trace. Empty when the pair never occurs.
  Result<std::vector<PairOccurrence>> Get(const EventTypePair& pair) const;

  /// Incremental maintenance fold: rewrites each key whose value has
  /// accumulated append fragments into one globally sorted value of
  /// ~target_block_bytes blocks. Each key commits atomically
  /// through Kv::RewriteValue(), so the pass is safe to run concurrently
  /// with writers and readers: a concurrent Detect sees either the old
  /// fragments or the folded value, and appends landing mid-pass are
  /// either folded in (the rewrite re-reads under the write lock) or land
  /// on top of the folded base. Keys already in folded shape are skipped.
  /// `pace` (optional) runs between key commits — see FoldPace.
  Status FoldAll(size_t target_block_bytes = kDefaultPostingBlockBytes,
                 FoldStats* stats = nullptr, const FoldPace& pace = {});

  /// True when a fold pass would rewrite `value`: values whose blocks
  /// overlap in trace range (append fragments) or run undersized, and
  /// values that do not parse. Fold output is stable — a freshly folded
  /// value never needs folding again.
  static bool NeedsFold(std::string_view value, size_t target_block_bytes);

  /// Scans block headers to report how fragmented the stored posting lists
  /// currently are. Read-only.
  Result<PostingFragmentation> Fragmentation(
      size_t target_block_bytes = kDefaultPostingBlockBytes) const;

  storage::Kv* table() const { return table_; }

 private:
  storage::Kv* table_;
};

// ---------------------------------------------------------------------------
// Count / ReverseCount: ev -> [(other_ev, sum_duration, completions), ...]
// Stored as appendable deltas, aggregated on read (Cassandra-counter
// style); compaction concatenates deltas without losing information.
// ---------------------------------------------------------------------------
struct PairCountStats {
  eventlog::ActivityId other = 0;
  int64_t sum_duration = 0;
  uint64_t total_completions = 0;

  double AverageDuration() const {
    return total_completions == 0
               ? 0.0
               : static_cast<double>(sum_duration) /
                     static_cast<double>(total_completions);
  }
};

class CountTable {
 public:
  explicit CountTable(storage::Kv* table) : table_(table) {}

  static std::string EncodeKey(eventlog::ActivityId activity);

  /// Stages a delta for the pair (key_activity, stats.other).
  void StageDelta(eventlog::ActivityId key_activity,
                  const PairCountStats& delta,
                  storage::WriteBatch* batch) const;

  /// Aggregated statistics of every pair whose *key side* is `activity`
  /// (first component for Count, second for ReverseCount), in descending
  /// completion count.
  Result<std::vector<PairCountStats>> Get(eventlog::ActivityId activity) const;

  /// Aggregated statistics of one pair; zero stats when absent.
  Result<PairCountStats> GetPair(eventlog::ActivityId key_activity,
                                 eventlog::ActivityId other) const;

  /// Rewrites every key's accumulated delta list as a single folded value.
  /// Each Update() appends one delta per pair per chunk, so long-running
  /// deployments should fold periodically to keep reads O(#followers).
  /// Keys commit one at a time through Kv::RewriteValue(), so the pass is
  /// safe to run concurrently with Update(): a delta landing mid-pass is
  /// either folded in or appended onto the folded base — never lost.
  /// Already-folded keys (no duplicate `other` entries) are skipped.
  Status FoldAll(FoldStats* stats = nullptr, const FoldPace& pace = {});

  storage::Kv* table() const { return table_; }

 private:
  static Status DecodeDeltas(std::string_view value,
                             std::vector<PairCountStats>* out);

  storage::Kv* table_;
};

// ---------------------------------------------------------------------------
// LastChecked: (ev_a, ev_b, trace) -> last completion ts   (overwrite)
// ---------------------------------------------------------------------------
class LastCheckedTable {
 public:
  explicit LastCheckedTable(storage::Kv* table) : table_(table) {}

  static std::string EncodeKey(const EventTypePair& pair,
                               eventlog::TraceId trace);

  void StagePut(const EventTypePair& pair, eventlog::TraceId trace,
                eventlog::Timestamp last_completion,
                storage::WriteBatch* batch) const;

  /// Timestamp of the last indexed completion of `pair` in `trace`, or
  /// nullopt when the pair has not been indexed for that trace.
  Result<std::optional<eventlog::Timestamp>> Get(const EventTypePair& pair,
                                                 eventlog::TraceId trace)
      const;

  /// Stages removal of every (pair, trace) entry for a pruned trace; the
  /// caller supplies the pairs that exist (from the trace's events).
  void StageDelete(const EventTypePair& pair, eventlog::TraceId trace,
                   storage::WriteBatch* batch) const;

  storage::Kv* table() const { return table_; }

 private:
  storage::Kv* table_;
};

}  // namespace seqdet::index

#endif  // SEQDET_INDEX_INDEX_TABLES_H_
