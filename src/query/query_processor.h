#ifndef SEQDET_QUERY_QUERY_PROCESSOR_H_
#define SEQDET_QUERY_QUERY_PROCESSOR_H_

#include <optional>
#include <vector>

#include "common/inline_vector.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/sequence_index.h"
#include "query/pattern.h"

namespace seqdet::query {

/// One detected occurrence of a pattern: the trace and the timestamp of
/// each matched event (so callers get start/end times for free, §3.2.1).
/// Timestamps live inline for patterns of up to 8 events — materializing
/// the tens of thousands of matches a hot pair produces costs no heap
/// allocations (longer patterns spill transparently).
struct PatternMatch {
  eventlog::TraceId trace = 0;
  InlineVector<eventlog::Timestamp, 8> timestamps;

  friend bool operator==(const PatternMatch&, const PatternMatch&) = default;
};

/// Statistics-query output for one consecutive pair of the pattern.
struct PairStatisticsRow {
  index::EventTypePair pair;
  uint64_t total_completions = 0;
  double average_duration = 0;
  /// The integer duration sum average_duration derives from — the
  /// associative form a shard router needs to merge rows exactly
  /// (DESIGN.md §15).
  int64_t sum_duration = 0;
  /// Timestamp of the pair's most recent indexed completion across all
  /// traces (from LastChecked, §3.2.1); absent unless requested or never
  /// completed.
  std::optional<eventlog::Timestamp> last_completion;
};

/// Knobs for the Statistics query.
struct StatisticsOptions {
  /// Also retrieve each pair's most recent completion timestamp. Costs one
  /// LastChecked range scan per pair.
  bool include_last_completion = false;
};

/// Optional constraints for detection queries (a practical extension the
/// paper's time-aware queries motivate).
struct DetectionConstraints {
  /// Max time between consecutive matched events.
  std::optional<eventlog::Timestamp> max_gap;
  /// Max time between the first and the last matched event.
  std::optional<eventlog::Timestamp> max_span;
  /// Cooperative cancellation budget: Detect/DetectBatch poll it between
  /// posting scans and inside long pair joins, returning Status::Aborted
  /// once expired. Default: never expires. Serving deadlines come from
  /// here (QueryService turns the per-request budget into this field).
  Deadline deadline;
};

/// Output of the Statistics query: pairwise rows plus the derived
/// whole-pattern insights §3.2.1 describes.
struct StatisticsResult {
  std::vector<PairStatisticsRow> pairs;
  /// Upper bound on whole-pattern completions (min over pair completions).
  uint64_t completions_upper_bound = 0;
  /// Estimate of the whole-pattern duration (sum of pair avg durations).
  double estimated_duration = 0;
};

/// One ranked pattern-continuation candidate.
struct ContinuationProposal {
  eventlog::ActivityId activity = 0;
  uint64_t total_completions = 0;
  double average_duration = 0;
  /// Equation 1: total_completions / average_duration.
  double score = 0;
  /// The integer gap sum average_duration was derived from (0 when the
  /// producing path only had averages, e.g. the insert-in-the-middle
  /// heuristic). The shard router merges this instead of the double:
  /// integer sums are associative across shards, re-dividing reproduces
  /// the single-process average bit-for-bit (DESIGN.md §15).
  int64_t sum_duration = 0;
};

/// Optional constraints for the accurate continuations. `max_gap` is
/// Algorithm 3 line 7: only count completions whose gap between ev_p and the
/// appended event is at most `max_gap`.
struct ContinuationConstraints {
  std::optional<eventlog::Timestamp> max_gap;
  /// Cooperative cancellation budget, as in DetectionConstraints: the base
  /// detection and the per-candidate verification poll it and return
  /// Status::Aborted once expired. Default: never expires.
  Deadline deadline;
};

/// The query-processor component of Figure 1. All queries run against a
/// SequenceIndex; none touches the raw log. Each query runs serially on the
/// calling thread (Algorithm 2 is one pair join after another); parallelism
/// lives across queries — DetectBatch, the HTTP worker pool — and across
/// shards (DESIGN.md §13).
class QueryProcessor {
 public:
  explicit QueryProcessor(const index::SequenceIndex* index)
      : index_(index) {}

  /// Statistics query: per consecutive pair, completions and average
  /// duration from the Count table; plus whole-pattern bounds.
  Result<StatisticsResult> Statistics(
      const Pattern& pattern, const StatisticsOptions& options = {}) const;

  /// Pattern detection (Algorithm 2): every trace occurrence of `pattern`
  /// under the index's policy. Patterns need >= 2 events (the index is
  /// pair-based).
  Result<std::vector<PatternMatch>> Detect(
      const Pattern& pattern,
      const DetectionConstraints& constraints = {}) const;

  /// Extended-operator detection (DESIGN.md §14): expands disjunctions and
  /// Kleene+ into a positive pair-join skeleton over the index — shared
  /// posting snapshots (k-way merged across alternatives) run through the
  /// same flat join kernel Detect uses — then
  /// post-verifies negation intervals per candidate match. Time windows
  /// are applied after every extension. The deadline is polled per pair
  /// fetch and inside every merge, join and extension.
  ///
  /// Contract:
  ///  * a plain pattern (>= 2 single-alternative positives, no operators)
  ///    delegates to Detect unchanged — identical join plan, identical
  ///    result order;
  ///  * patterns that use extended operators return their matches
  ///    deduplicated and sorted by (trace, timestamps) — distinct Kleene
  ///    depth splits can assemble the same timestamp vector;
  ///  * time bounds embedded in the pattern (`within`/`gap <=`) combine
  ///    with `constraints` — the tighter bound wins; both are inclusive
  ///    (pattern.h);
  ///  * single-positive-element skeletons (compliance templates) and
  ///    negation checks replay Seq-table sequences, so they are
  ///    Unsupported when the index runs without the Seq table.
  Result<std::vector<PatternMatch>> DetectExtended(
      const ExtendedPattern& pattern,
      const DetectionConstraints& constraints = {}) const;

  /// Accurate continuation (Algorithm 3): every candidate continuation is
  /// verified against the base pattern's matches. The base is detected
  /// once; each candidate is then scored by one count-only merge of the
  /// base matches' (trace, last timestamp) keys with the candidate pair's
  /// postings — no extended match is materialized (DESIGN.md §13).
  Result<std::vector<ContinuationProposal>> ContinueAccurate(
      const Pattern& pattern,
      const ContinuationConstraints& constraints = {}) const;

  /// Algorithm 3 exactly as printed: getCompletions(tempPattern) re-runs
  /// the full detection for every candidate, so the cost is
  /// |candidates| x Detect(p+1). ContinueAccurate computes the base
  /// matches once and only counts each candidate's single extra pair
  /// against them — same results, and the ablation bench quantifies the
  /// gap. Kept as the reference the differential tests compare against.
  Result<std::vector<ContinuationProposal>> ContinueAccurateNaive(
      const Pattern& pattern,
      const ContinuationConstraints& constraints = {}) const;

  /// Fast continuation (Algorithm 4): pure Count-table heuristic; the
  /// completion count is the min of the pattern's pairwise upper bound and
  /// the candidate pair's count.
  Result<std::vector<ContinuationProposal>> ContinueFast(
      const Pattern& pattern) const;

  /// Hybrid continuation (Algorithm 5): Fast ranking, then Accurate
  /// verification of the topK candidates; only the verified candidates are
  /// returned, re-ranked by their accurate scores. topK = 0 degenerates to
  /// Fast (the full heuristic list); topK >= |A| to Accurate.
  Result<std::vector<ContinuationProposal>> ContinueHybrid(
      const Pattern& pattern, size_t top_k,
      const ContinuationConstraints& constraints = {}) const;

  /// Evaluates many detection queries, optionally in parallel on `pool`
  /// (reads are lock-free against a quiescent index, so this scales with
  /// cores); a null `pool` runs them one after another on the calling
  /// thread. Result i corresponds to patterns[i]; a failed query yields an
  /// empty result and the first error is returned.
  Result<std::vector<std::vector<PatternMatch>>> DetectBatch(
      const std::vector<Pattern>& patterns, ThreadPool* pool = nullptr,
      const DetectionConstraints& constraints = {}) const;

  /// Drill-down: detects `pattern` inside one stored trace by replaying
  /// its Seq-table sequence. Unlike Detect this uses *whole-pattern*
  /// semantics (SC: all windows; STNM: greedy non-overlapping), so it can
  /// also verify Algorithm 2 results. Requires the Seq table; STAM is
  /// unsupported (enumeration can be exponential — use Detect).
  Result<std::vector<PatternMatch>> DetectInTrace(
      eventlog::TraceId trace, const Pattern& pattern) const;

  /// §7 extension — continuation "at arbitrary places in the query
  /// pattern": proposes events to insert between pattern[gap_index-1] and
  /// pattern[gap_index]. gap_index = pattern.size() appends at the end
  /// (== ContinueAccurate). Candidates are events that both follow the
  /// left neighbour and precede the right neighbour (Count ∩ ReverseCount);
  /// each is verified with a full detection of the spliced pattern.
  Result<std::vector<ContinuationProposal>> ContinueInsertAccurate(
      const Pattern& pattern, size_t gap_index,
      const ContinuationConstraints& constraints = {}) const;

  /// Heuristic flavor of ContinueInsertAccurate: pairwise Count bounds
  /// only, no detection.
  Result<std::vector<ContinuationProposal>> ContinueInsertFast(
      const Pattern& pattern, size_t gap_index) const;

  const index::SequenceIndex* index() const { return index_; }

  /// Scores + sorts proposals by Equation 1 (descending; ties broken by
  /// activity id, making the order a deterministic total order). Public
  /// because the shard router re-ranks merged per-shard aggregates with
  /// exactly this code — any drift would break its byte-identity
  /// guarantee.
  static void RankProposals(std::vector<ContinuationProposal>* proposals);

 private:
  /// Algorithm 3 lines 3-9 for the given candidates of `pattern`, ranked:
  /// the shared verification step of ContinueAccurate and ContinueHybrid.
  /// Detects the base pattern once (the "incremental" advantage of §5.4.2)
  /// and scores every candidate with a count-only merge over the base
  /// matches' end keys; an empty base scores every candidate zero without
  /// fetching its postings.
  Result<std::vector<ContinuationProposal>> VerifyContinuations(
      const Pattern& pattern,
      const std::vector<eventlog::ActivityId>& candidates,
      const ContinuationConstraints& constraints) const;

  const index::SequenceIndex* index_;
};

}  // namespace seqdet::query

#endif  // SEQDET_QUERY_QUERY_PROCESSOR_H_
