#include "query/query_processor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>

namespace seqdet::query {

using eventlog::ActivityId;
using eventlog::Timestamp;
using eventlog::TraceId;
using index::EventTypePair;
using index::PairCountStats;
using index::PairOccurrence;

namespace {

/// Equation 1. A zero average duration (instantaneous completions) would
/// divide by zero; such candidates are maximally "close", so rank them by
/// completions alone.
double Score(uint64_t completions, double average_duration) {
  if (average_duration <= 0) return static_cast<double>(completions);
  return static_cast<double>(completions) / average_duration;
}

struct TraceTsKey {
  TraceId trace;
  Timestamp ts;
  friend bool operator==(const TraceTsKey&, const TraceTsKey&) = default;
};

struct TraceTsKeyHash {
  size_t operator()(const TraceTsKey& k) const {
    uint64_t h = k.trace * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(k.ts) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// How many loop iterations pass between Deadline polls. steady_clock reads
/// cost tens of nanoseconds, so at this stride the checks are free while
/// still bounding deadline overshoot to a few thousand joined matches.
constexpr size_t kDeadlineStride = 4096;

Status DeadlineExceeded() {
  return Status::Aborted("query deadline exceeded");
}

/// The join's working representation of a match set. Every match at a given
/// join depth has the same number of timestamps, so the set is stored as a
/// flat structure-of-arrays — a trace column plus a row-major timestamp
/// matrix — instead of one heap-allocated vector per match. A detection
/// over a hot pair joins tens of thousands of matches per stage; keeping
/// them in two contiguous buffers turns the join into sequential scans and
/// removes every per-match allocation (PatternMatch objects are
/// materialized once, on return).
struct MatchSet {
  size_t width = 0;  // timestamps per match
  std::vector<TraceId> traces;
  std::vector<Timestamp> ts;  // traces.size() * width, row-major
  /// Whether rows are sorted by (trace, last timestamp) — the join key of
  /// the next stage. Holds under SC/STNM (pair completions never cross, so
  /// extending in row order keeps the order); STAM extensions can break it.
  bool sorted_by_key = true;

  size_t size() const { return traces.size(); }
  const Timestamp* row(size_t r) const { return ts.data() + r * width; }
  Timestamp last(size_t r) const { return ts[r * width + width - 1]; }

  /// Appends a row of `width` timestamps, clearing sorted_by_key when its
  /// key falls before the current last row's.
  void PushRow(TraceId trace, const Timestamp* src) {
    if (!traces.empty() &&
        (trace < traces.back() ||
         (trace == traces.back() && src[width - 1] < last(size() - 1)))) {
      sorted_by_key = false;
    }
    traces.push_back(trace);
    // Element-wise: a range insert costs a library copy call per row.
    for (size_t i = 0; i < width; ++i) ts.push_back(src[i]);
  }
};

/// Drops every row for which keep(trace, row_timestamps) is false,
/// preserving order (and therefore sortedness).
template <typename Keep>
void FilterRows(MatchSet* set, Keep keep) {
  size_t out_row = 0;
  for (size_t r = 0; r < set->size(); ++r) {
    const Timestamp* src = set->row(r);
    if (!keep(set->traces[r], src)) continue;
    if (out_row != r) {
      set->traces[out_row] = set->traces[r];
      std::copy(src, src + set->width, set->ts.data() + out_row * set->width);
    }
    ++out_row;
  }
  set->traces.resize(out_row);
  set->ts.resize(out_row * set->width);
}

void AppendPatternMatches(const MatchSet& set, std::vector<PatternMatch>* out) {
  for (size_t r = 0; r < set.size(); ++r) {
    PatternMatch m;
    m.trace = set.traces[r];
    const Timestamp* src = set.row(r);
    m.timestamps.assign(src, src + set.width);
    out->push_back(std::move(m));
  }
}

/// Algorithm 2 lines 5-13: keep matches whose last event coincides with the
/// first event of a posting — a join on (trace, ts_first). Under SC/STNM a
/// pair's completions never share their first event, so each key has one
/// continuation; under skip-till-any-match several postings share a first
/// event and every one extends the match (overlapping results are the point
/// of that policy). `postings` must be sorted by (trace, ts_first) — what
/// GetPairPostingsShared returns. Whichever internal path runs, rows are
/// visited in order and each row's continuations appended in posting order.
Result<MatchSet> ExtendMatchSet(const MatchSet& matches,
                                const std::vector<PairOccurrence>& postings,
                                const Deadline& deadline) {
  const size_t rows = matches.size();
  const size_t num_postings = postings.size();
  const PairOccurrence* p_begin = postings.data();
  const PairOccurrence* p_end = p_begin + num_postings;
  MatchSet out;
  out.width = matches.width + 1;
  out.traces.reserve(rows);
  out.ts.reserve(rows * out.width);
  size_t ticks = 0;

  TraceId prev_trace = 0;
  Timestamp prev_last = 0;
  auto append = [&](size_t r, Timestamp next) {
    TraceId trace = matches.traces[r];
    if (!out.traces.empty() &&
        (trace < prev_trace || (trace == prev_trace && next < prev_last))) {
      out.sorted_by_key = false;
    }
    prev_trace = trace;
    prev_last = next;
    out.traces.push_back(trace);
    const Timestamp* src = matches.row(r);
    out.ts.insert(out.ts.end(), src, src + matches.width);
    out.ts.push_back(next);
  };

  // When the surviving match set is much smaller than the posting list —
  // the shape selective patterns produce — binary-probing the sorted
  // snapshot per match beats scanning it, and touches none of the shared
  // snapshot's cache lines beyond the probed ranges.
  const bool probe_sorted = rows < num_postings / 8 || num_postings < 16;
  if (probe_sorted) {
    for (size_t r = 0; r < rows; ++r) {
      if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
        return DeadlineExceeded();
      }
      const PairOccurrence probe{matches.traces[r], matches.last(r),
                                 std::numeric_limits<Timestamp>::min()};
      auto it = std::lower_bound(p_begin, p_end, probe);
      while (it != p_end && it->trace == probe.trace &&
             it->ts_first == probe.ts_first) {
        append(r, it->ts_second);
        ++it;
      }
    }
    return out;
  }

  // Comparable sizes and both sides sorted by the join key: a linear merge
  // join — no hash table, no allocations, two sequential scans.
  if (matches.sorted_by_key) {
    const PairOccurrence* p = p_begin;
    for (size_t r = 0; r < rows; ++r) {
      if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
        return DeadlineExceeded();
      }
      const TraceId trace = matches.traces[r];
      const Timestamp key = matches.last(r);
      while (p != p_end && (p->trace < trace ||
                            (p->trace == trace && p->ts_first < key))) {
        ++p;
      }
      // Consume the matching run without advancing p: a later row may
      // share the key (STAM inputs), and keys only grow.
      for (const PairOccurrence* q = p;
           q != p_end && q->trace == trace && q->ts_first == key; ++q) {
        append(r, q->ts_second);
      }
    }
    return out;
  }

  // Unsorted matches (STAM after a key-order-breaking extension): hash the
  // posting runs. Postings with the same (trace, ts_first) are contiguous,
  // so the map needs one entry per run pointing back into the snapshot.
  struct Run {
    const PairOccurrence* start;
    size_t len;
  };
  std::unordered_map<TraceTsKey, Run, TraceTsKeyHash> continuation;
  continuation.reserve(num_postings);
  for (const PairOccurrence* p = p_begin; p != p_end;) {
    if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
      return DeadlineExceeded();
    }
    const PairOccurrence* start = p;
    const PairOccurrence& head = *p;
    do {
      ++p;
    } while (p != p_end && p->trace == head.trace &&
             p->ts_first == head.ts_first);
    continuation.emplace(TraceTsKey{head.trace, head.ts_first},
                         Run{start, static_cast<size_t>(p - start)});
  }
  for (size_t r = 0; r < rows; ++r) {
    if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
      return DeadlineExceeded();
    }
    auto it = continuation.find(TraceTsKey{matches.traces[r], matches.last(r)});
    if (it == continuation.end()) continue;
    const Run run = it->second;
    for (size_t s = 0; s < run.len; ++s) {
      append(r, run.start[s].ts_second);
    }
  }
  return out;
}

}  // namespace

Result<StatisticsResult> QueryProcessor::Statistics(
    const Pattern& pattern, const StatisticsOptions& options) const {
  if (pattern.size() < 2) {
    return Status::InvalidArgument("statistics needs a pattern of >= 2");
  }
  StatisticsResult result;
  result.completions_upper_bound = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i + 1 < pattern.size(); ++i) {
    EventTypePair pair{pattern.activities[i], pattern.activities[i + 1]};
    SEQDET_ASSIGN_OR_RETURN(PairCountStats stats,
                            index_->GetPairStats(pair));
    PairStatisticsRow row;
    row.pair = pair;
    row.total_completions = stats.total_completions;
    row.average_duration = stats.AverageDuration();
    row.sum_duration = stats.sum_duration;
    if (options.include_last_completion) {
      SEQDET_ASSIGN_OR_RETURN(row.last_completion,
                              index_->GetPairLastCompletion(pair));
    }
    result.completions_upper_bound =
        std::min(result.completions_upper_bound, stats.total_completions);
    result.estimated_duration += row.average_duration;
    result.pairs.push_back(row);
  }
  return result;
}

Result<std::vector<PatternMatch>> QueryProcessor::Detect(
    const Pattern& pattern, const DetectionConstraints& constraints) const {
  if (pattern.size() < 2) {
    return Status::InvalidArgument(
        "detection needs a pattern of >= 2 events (the index is pair-based)");
  }
  if (constraints.deadline.Expired()) return DeadlineExceeded();
  const size_t num_pairs = pattern.size() - 1;
  auto pair_at = [&pattern](size_t i) {
    return EventTypePair{pattern.activities[i], pattern.activities[i + 1]};
  };

  // Selectivity-ordered pruning (>= 2 pairs; one pair has nothing to
  // intersect with). Every full match needs a completion of *every*
  // adjacent pair in its trace, so the block-header trace ranges of each
  // pair's posting list bound the candidate traces: intersect them —
  // starting from the smallest list, the cheapest place to run dry — and
  // the join then decodes only blocks overlapping the survivors.
  index::TraceIntervalSet candidates;
  uint64_t candidate_span = 0;
  std::vector<index::PairPostingSummary> summaries;
  if (num_pairs >= 2) {
    summaries.resize(num_pairs);
    for (size_t i = 0; i < num_pairs; ++i) {
      SEQDET_ASSIGN_OR_RETURN(summaries[i],
                              index_->GetPairSummary(pair_at(i)));
      if (summaries[i].postings == 0) return std::vector<PatternMatch>{};
    }
    std::vector<size_t> order(num_pairs);
    for (size_t i = 0; i < num_pairs; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&summaries](size_t a, size_t b) {
      return summaries[a].postings < summaries[b].postings;
    });
    candidates = summaries[order[0]].traces;
    for (size_t k = 1; k < num_pairs && !candidates.empty(); ++k) {
      candidates = index::TraceIntervalSet::Intersect(
          candidates, summaries[order[k]].traces);
    }
    if (candidates.empty()) return std::vector<PatternMatch>{};
    candidate_span = candidates.Span();
  }
  // Filtering a pair's list pays only when the candidate set is narrower
  // than the list's own trace span — when the spans are equal (a pattern
  // of uniformly hot pairs) no block can be skipped and the selective
  // decode path is pure per-query overhead. Decided per pair: a rare
  // anchor narrows the hot pairs it is joined with but not itself.
  auto want_filter = [&](size_t i) {
    return !summaries.empty() &&
           candidate_span < summaries[i].traces.Span();
  };
  if (constraints.deadline.Expired()) return DeadlineExceeded();

  // Each pair's list is fetched lazily, one join step at a time, so a join
  // that runs dry never touches the remaining pairs' lists.
  auto fetch = [&](size_t i) -> Result<index::PostingCache::Snapshot> {
    return want_filter(i)
               ? index_->GetPairPostingsFiltered(pair_at(i), candidates)
               : index_->GetPairPostingsShared(pair_at(i));
  };
  SEQDET_ASSIGN_OR_RETURN(auto first_postings, fetch(0));
  // Trace-level refinement of the first matches is worthwhile under the
  // same selectivity condition as block filtering (Contains is a binary
  // search per posting — pure overhead when nothing gets dropped).
  const bool prune_first = want_filter(0);
  MatchSet matches;
  matches.width = 2;
  matches.traces.reserve(first_postings->size());
  matches.ts.reserve(first_postings->size() * 2);
  size_t ticks = 0;
  for (const PairOccurrence& posting : *first_postings) {
    if (++ticks % kDeadlineStride == 0 && constraints.deadline.Expired()) {
      return DeadlineExceeded();
    }
    if (prune_first && !candidates.Contains(posting.trace)) continue;
    if (constraints.max_gap.has_value() &&
        posting.ts_second - posting.ts_first > *constraints.max_gap) {
      continue;
    }
    if (!matches.traces.empty() &&
        (posting.trace < matches.traces.back() ||
         (posting.trace == matches.traces.back() &&
          posting.ts_second < matches.last(matches.size() - 1)))) {
      matches.sorted_by_key = false;
    }
    matches.traces.push_back(posting.trace);
    matches.ts.push_back(posting.ts_first);
    matches.ts.push_back(posting.ts_second);
  }
  for (size_t i = 1; i + 1 < pattern.size() && matches.size() > 0; ++i) {
    if (constraints.deadline.Expired()) return DeadlineExceeded();
    SEQDET_ASSIGN_OR_RETURN(auto postings, fetch(i));
    SEQDET_ASSIGN_OR_RETURN(
        matches, ExtendMatchSet(matches, *postings, constraints.deadline));
    if (constraints.max_gap.has_value()) {
      const size_t w = matches.width;
      const Timestamp max_gap = *constraints.max_gap;
      FilterRows(&matches, [w, max_gap](TraceId, const Timestamp* row) {
        return row[w - 1] - row[w - 2] <= max_gap;
      });
    }
  }
  if (constraints.max_span.has_value()) {
    const size_t w = matches.width;
    const Timestamp max_span = *constraints.max_span;
    FilterRows(&matches, [w, max_span](TraceId, const Timestamp* row) {
      return row[w - 1] - row[0] <= max_span;
    });
  }
  std::vector<PatternMatch> out;
  out.reserve(matches.size());
  AppendPatternMatches(matches, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Extended-operator detection (DESIGN.md §14).
// ---------------------------------------------------------------------------

namespace {

/// The working state of the extended join: rows of one uniform width
/// sharing the same Kleene depth distribution, plus — per positive pattern
/// element — the index of the LAST timestamp its chain occupies (the first
/// follows as last_of[j-1] + 1). Groups stay separate because a MatchSet
/// is fixed-width; every group flows through the same join kernel Detect
/// uses.
struct ExtGroup {
  MatchSet matches;
  std::vector<uint32_t> last_of;
};

/// The tighter of two optional inclusive bounds.
std::optional<Timestamp> TighterBound(std::optional<Timestamp> a,
                                      std::optional<Timestamp> b) {
  if (!a) return b;
  if (!b) return a;
  return std::min(*a, *b);
}

/// Union of the concrete pair posting lists over `from` x `to`, sorted by
/// (trace, ts_first, ts_second) and deduplicated (two concrete pairs emit
/// the same occurrence only when events share timestamps). With
/// `strict_progress`, occurrences whose timestamp does not advance are
/// dropped — the rule that bounds Kleene closures.
///
/// A single non-empty list is the cached snapshot itself, copied only when
/// strict progress really drops a posting (SC ties). Several lists are
/// k-way merged from their sorted snapshots in O(n log k). The deadline is
/// polled before every concrete pair fetch and every kDeadlineStride merged
/// postings, so a wide disjunction cannot overrun it while gathering.
Result<index::PostingCache::Snapshot> MergedPostings(
    const index::SequenceIndex* index, const std::vector<ActivityId>& from,
    const std::vector<ActivityId>& to, bool strict_progress,
    const Deadline& deadline) {
  std::vector<index::PostingCache::Snapshot> lists;
  for (ActivityId a : from) {
    for (ActivityId b : to) {
      if (deadline.Expired()) return DeadlineExceeded();
      SEQDET_ASSIGN_OR_RETURN(auto snapshot,
                              index->GetPairPostingsShared({a, b}));
      if (!snapshot->empty()) lists.push_back(std::move(snapshot));
    }
  }
  auto keep = [strict_progress](const PairOccurrence& p) {
    return !strict_progress || p.ts_second > p.ts_first;
  };
  if (lists.size() == 1 &&
      (!strict_progress ||
       std::all_of(lists[0]->begin(), lists[0]->end(), keep))) {
    return lists[0];
  }

  // A min-heap of cursors, one per list. Equal occurrences pop one after
  // another, so comparing with the last one kept deduplicates.
  struct Cursor {
    const PairOccurrence* at;
    const PairOccurrence* end;
  };
  auto later = [](const Cursor& x, const Cursor& y) { return *y.at < *x.at; };
  std::vector<Cursor> heap;
  size_t total = 0;
  for (const auto& list : lists) {
    heap.push_back({list->data(), list->data() + list->size()});
    total += list->size();
  }
  std::make_heap(heap.begin(), heap.end(), later);
  auto merged = std::make_shared<std::vector<PairOccurrence>>();
  merged->reserve(total);
  size_t ticks = 0;
  while (!heap.empty()) {
    if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
      return DeadlineExceeded();
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    if (keep(*c.at) && (merged->empty() || merged->back() != *c.at)) {
      merged->push_back(*c.at);
    }
    if (++c.at == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return index::PostingCache::Snapshot(std::move(merged));
}

/// (trace, ts_second, ts_first) order: how the leading-Kleene left
/// extension probes postings.
bool BySecondLess(const PairOccurrence& p, const PairOccurrence& q) {
  return std::tie(p.trace, p.ts_second, p.ts_first) <
         std::tie(q.trace, q.ts_second, q.ts_first);
}

/// Prepends postings to rows whose first timestamp equals the posting's
/// second — the leading-Kleene left extension. `by_second` must be sorted
/// by BySecondLess. A row's extensions are appended together and keep its
/// last timestamp, so the output inherits the input's key order.
Result<MatchSet> LeftExtendMatchSet(
    const MatchSet& matches, const std::vector<PairOccurrence>& by_second,
    const Deadline& deadline) {
  MatchSet out;
  out.width = matches.width + 1;
  out.sorted_by_key = matches.sorted_by_key;
  size_t ticks = 0;
  for (size_t r = 0; r < matches.size(); ++r) {
    if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
      return DeadlineExceeded();
    }
    const TraceId trace = matches.traces[r];
    const Timestamp* src = matches.row(r);
    const PairOccurrence probe{trace, std::numeric_limits<Timestamp>::min(),
                               src[0]};
    for (auto it = std::lower_bound(by_second.begin(), by_second.end(), probe,
                                    BySecondLess);
         it != by_second.end() && it->trace == trace &&
         it->ts_second == src[0];
         ++it) {
      out.traces.push_back(trace);
      out.ts.push_back(it->ts_first);
      out.ts.insert(out.ts.end(), src, src + matches.width);
    }
  }
  return out;
}

/// Puts rows in (trace, last timestamp) order — the next join's key — so
/// ExtendMatchSet runs its merge/probe kernel instead of hashing the whole
/// posting list. Rows with equal keys end up in no particular order.
void SortByKey(MatchSet* set) {
  if (set->sorted_by_key) return;
  std::vector<size_t> order(set->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [set](size_t a, size_t b) {
    return std::pair(set->traces[a], set->last(a)) <
           std::pair(set->traces[b], set->last(b));
  });
  MatchSet sorted;
  sorted.width = set->width;
  sorted.traces.reserve(set->size());
  sorted.ts.reserve(set->ts.size());
  for (size_t r : order) sorted.PushRow(set->traces[r], set->row(r));
  *set = std::move(sorted);
}

/// Canonical result order of extended detection: (trace, timestamps
/// lexicographic). Distinct Kleene depth splits can assemble identical
/// vectors, so callers dedupe right after sorting.
bool CanonicalMatchLess(const PatternMatch& a, const PatternMatch& b) {
  if (a.trace != b.trace) return a.trace < b.trace;
  return std::lexicographical_compare(a.timestamps.begin(),
                                      a.timestamps.end(),
                                      b.timestamps.begin(),
                                      b.timestamps.end());
}

}  // namespace

Result<std::vector<PatternMatch>> QueryProcessor::DetectExtended(
    const ExtendedPattern& pattern,
    const DetectionConstraints& constraints) const {
  SEQDET_RETURN_IF_ERROR(pattern.Validate());
  const Deadline& deadline = constraints.deadline;
  if (deadline.Expired()) return DeadlineExceeded();

  const std::optional<Timestamp> max_gap =
      TighterBound(pattern.max_gap, constraints.max_gap);
  const std::optional<Timestamp> max_span =
      TighterBound(pattern.max_span, constraints.max_span);

  // Plain patterns take the identical Detect join plan (selectivity-ordered
  // pruning) and keep its result order.
  if (pattern.IsPlain() && pattern.size() >= 2) {
    DetectionConstraints plain;
    plain.max_gap = max_gap;
    plain.max_span = max_span;
    plain.deadline = deadline;
    return Detect(pattern.AsPlain(), plain);
  }

  // The extended composition is defined over SC/STNM pair sets (the SASE
  // oracle is the normative spec and covers exactly those policies).
  if (index_->options().policy == index::Policy::kSkipTillAnyMatch) {
    return Status::Unsupported(
        "extended operators are only defined under strict-contiguity and "
        "skip-till-next-match");
  }

  // Inclusive time bounds, applied eagerly after every extension: a
  // violated gap or span never heals, and eager dropping is what keeps
  // Kleene closures small.
  auto gap_ok = [&max_gap](Timestamp prev, Timestamp next) {
    return !max_gap || next - prev <= *max_gap;
  };
  auto span_ok = [&max_span](Timestamp first, Timestamp last) {
    return !max_span || last - first <= *max_span;
  };
  auto filter_bounds = [&](MatchSet* set) {
    if (!max_gap && !max_span) return;
    const size_t w = set->width;
    FilterRows(set, [&](TraceId, const Timestamp* row) {
      for (size_t i = 1; i < w; ++i) {
        if (!gap_ok(row[i - 1], row[i])) return false;
      }
      return span_ok(row[0], row[w - 1]);
    });
  };

  // Every join runs on key-ordered rows. Disjunction seeds and Kleene
  // depths can leave (trace, last timestamp) order; sorting them first
  // keeps ExtendMatchSet on its merge/probe kernel. The intermediate order
  // is free to change: the result is sorted canonically at the end.
  auto join = [&](MatchSet* rows, const std::vector<PairOccurrence>& postings) {
    SortByKey(rows);
    return ExtendMatchSet(*rows, postings, deadline);
  };

  std::vector<size_t> positives;
  for (size_t i = 0; i < pattern.elements.size(); ++i) {
    if (!pattern.elements[i].negated) positives.push_back(i);
  }
  auto elem = [&](size_t j) -> const PatternElement& {
    return pattern.elements[positives[j]];
  };
  const size_t k = positives.size();

  // Seq-table sequences, fetched once per trace — shared by the
  // single-positive seed and the negation checks.
  std::unordered_map<TraceId, std::vector<eventlog::Event>> sequences;
  auto trace_events =
      [&](TraceId trace) -> Result<const std::vector<eventlog::Event>*> {
    auto it = sequences.find(trace);
    if (it == sequences.end()) {
      SEQDET_ASSIGN_OR_RETURN(auto events, index_->GetTraceSequence(trace));
      it = sequences.emplace(trace, std::move(events)).first;
    }
    return &it->second;
  };

  // Only non-empty groups are kept, so an empty list means no matches and
  // no further postings are fetched.
  std::vector<ExtGroup> groups;
  if (k == 1) {
    // Single positive element (compliance templates): every matching event
    // across every stored trace seeds a width-1 match. All policies agree
    // on length-1 occurrences.
    SEQDET_ASSIGN_OR_RETURN(std::vector<TraceId> traces,
                            index_->ListTraces());
    ExtGroup seed;
    seed.matches.width = 1;
    seed.last_of = {0};
    size_t ticks = 0;
    for (TraceId trace : traces) {
      if (++ticks % 64 == 0 && deadline.Expired()) return DeadlineExceeded();
      SEQDET_ASSIGN_OR_RETURN(const auto* events, trace_events(trace));
      for (const eventlog::Event& ev : *events) {
        if (elem(0).Matches(ev.activity)) seed.matches.PushRow(trace, &ev.ts);
      }
    }
    if (seed.matches.size() > 0) groups.push_back(std::move(seed));
  } else {
    // Seed with the (P0, P1) pair, then left-close a leading Kleene: the
    // pair index has no single-event occurrence lists, so the first
    // transition is folded into the seed and earlier chain members of a
    // Kleene P0 are prepended afterwards.
    SEQDET_ASSIGN_OR_RETURN(
        auto seed_postings,
        MergedPostings(index_, elem(0).alternatives, elem(1).alternatives,
                       /*strict_progress=*/false, deadline));
    ExtGroup seed;
    seed.matches.width = 2;
    seed.last_of = {0, 1};
    seed.matches.traces.reserve(seed_postings->size());
    seed.matches.ts.reserve(seed_postings->size() * 2);
    size_t ticks = 0;
    for (const PairOccurrence& p : *seed_postings) {
      if (++ticks % kDeadlineStride == 0 && deadline.Expired()) {
        return DeadlineExceeded();
      }
      if (!gap_ok(p.ts_first, p.ts_second) ||
          !span_ok(p.ts_first, p.ts_second)) {
        continue;
      }
      const Timestamp row[2] = {p.ts_first, p.ts_second};
      seed.matches.PushRow(p.trace, row);
    }
    if (seed.matches.size() > 0) groups.push_back(std::move(seed));
    if (elem(0).kleene && !groups.empty()) {
      SEQDET_ASSIGN_OR_RETURN(
          auto self,
          MergedPostings(index_, elem(0).alternatives, elem(0).alternatives,
                         /*strict_progress=*/true, deadline));
      // One self pair's completions never cross, so only merged
      // alternatives need the re-sort by second event.
      if (!std::is_sorted(self->begin(), self->end(), BySecondLess)) {
        auto by_second = std::make_shared<std::vector<PairOccurrence>>(*self);
        std::sort(by_second->begin(), by_second->end(), BySecondLess);
        self = std::move(by_second);
      }
      size_t frontier = 0;  // groups[frontier..] are the newest depth
      while (frontier < groups.size()) {
        if (deadline.Expired()) return DeadlineExceeded();
        SEQDET_ASSIGN_OR_RETURN(
            MatchSet deeper,
            LeftExtendMatchSet(groups[frontier].matches, *self, deadline));
        filter_bounds(&deeper);
        ++frontier;
        if (deeper.size() == 0) continue;
        ExtGroup g;
        for (uint32_t idx : groups[frontier - 1].last_of) {
          g.last_of.push_back(idx + 1);  // the prepend shifted every index
        }
        g.matches = std::move(deeper);
        groups.push_back(std::move(g));
      }
    }
  }

  // Close the remaining positives left to right. j == 1 was folded into
  // the seed (and a leading Kleene left-closed above); each Kleene element
  // gets a right closure chaining strict-progress self pairs.
  for (size_t j = (k == 1 ? 0 : 1); j < k && !groups.empty(); ++j) {
    if (deadline.Expired()) return DeadlineExceeded();
    if (j >= 2) {
      SEQDET_ASSIGN_OR_RETURN(
          auto postings,
          MergedPostings(index_, elem(j - 1).alternatives,
                         elem(j).alternatives, /*strict_progress=*/false,
                         deadline));
      std::vector<ExtGroup> next;
      next.reserve(groups.size());
      for (ExtGroup& g : groups) {
        SEQDET_ASSIGN_OR_RETURN(MatchSet extended,
                                join(&g.matches, *postings));
        g.matches = MatchSet();
        filter_bounds(&extended);
        if (extended.size() == 0) continue;
        g.last_of.push_back(static_cast<uint32_t>(extended.width - 1));
        next.push_back(ExtGroup{std::move(extended), std::move(g.last_of)});
      }
      groups = std::move(next);
    }
    if (elem(j).kleene && !groups.empty()) {
      SEQDET_ASSIGN_OR_RETURN(
          auto self,
          MergedPostings(index_, elem(j).alternatives, elem(j).alternatives,
                         /*strict_progress=*/true, deadline));
      // Close every existing group; newly produced depths join the queue
      // and are themselves closed until the strict-progress rule runs the
      // frontier dry.
      size_t frontier = 0;
      while (frontier < groups.size()) {
        if (deadline.Expired()) return DeadlineExceeded();
        SEQDET_ASSIGN_OR_RETURN(MatchSet deeper,
                                join(&groups[frontier].matches, *self));
        filter_bounds(&deeper);
        ++frontier;
        if (deeper.size() == 0) continue;
        std::vector<uint32_t> last_of = groups[frontier - 1].last_of;
        last_of.back() += 1;
        groups.push_back(ExtGroup{std::move(deeper), std::move(last_of)});
      }
    }
  }

  // Negation post-verification: a match dies when an event of the negated
  // set lies strictly inside the open interval between its positive
  // neighbours' matched events (unbounded at the pattern ends).
  struct Negation {
    const PatternElement* element;
    size_t left;   // positive neighbour indices; k = no such neighbour
    size_t right;
  };
  std::vector<Negation> negations;
  for (size_t e = 0; e < pattern.elements.size(); ++e) {
    if (!pattern.elements[e].negated) continue;
    Negation n{&pattern.elements[e], k, k};
    for (size_t j = 0; j < k; ++j) {
      if (positives[j] < e) n.left = j;
      if (positives[j] > e) {
        n.right = j;
        break;
      }
    }
    negations.push_back(n);
  }
  if (!negations.empty()) {
    Status status;
    size_t ticks = 0;
    for (ExtGroup& g : groups) {
      FilterRows(&g.matches, [&](TraceId trace, const Timestamp* row) {
        if (!status.ok()) return false;
        if (++ticks % 1024 == 0 && deadline.Expired()) {
          status = DeadlineExceeded();
          return false;
        }
        auto events = trace_events(trace);
        if (!events.ok()) {
          status = events.status();
          return false;
        }
        for (const Negation& n : negations) {
          const bool has_left = n.left != k;
          const bool has_right = n.right != k;
          const Timestamp left_ts = has_left ? row[g.last_of[n.left]] : 0;
          const Timestamp right_ts =
              has_right ? row[n.right == 0 ? 0 : g.last_of[n.right - 1] + 1]
                        : 0;
          for (const eventlog::Event& ev : **events) {
            if (!n.element->Matches(ev.activity)) continue;
            if (has_left && ev.ts <= left_ts) continue;
            if (has_right && ev.ts >= right_ts) continue;
            return false;
          }
        }
        return true;
      });
      SEQDET_RETURN_IF_ERROR(status);
    }
  }

  // Canonical order + dedup across groups; the only PatternMatch build.
  std::vector<PatternMatch> out;
  size_t total = 0;
  for (const ExtGroup& g : groups) total += g.matches.size();
  out.reserve(total);
  for (const ExtGroup& g : groups) AppendPatternMatches(g.matches, &out);
  std::sort(out.begin(), out.end(), CanonicalMatchLess);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<std::vector<PatternMatch>>> QueryProcessor::DetectBatch(
    const std::vector<Pattern>& patterns, ThreadPool* pool,
    const DetectionConstraints& constraints) const {
  std::vector<std::vector<PatternMatch>> results(patterns.size());
  std::vector<Status> statuses(patterns.size());
  auto run_one = [&](size_t i) {
    auto matches = Detect(patterns[i], constraints);
    if (matches.ok()) {
      results[i] = std::move(matches).value();
    } else {
      statuses[i] = matches.status();
    }
  };
  if (pool != nullptr && patterns.size() > 1) {
    pool->ParallelFor(patterns.size(), run_one);
  } else {
    for (size_t i = 0; i < patterns.size(); ++i) run_one(i);
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return results;
}

Result<std::vector<PatternMatch>> QueryProcessor::DetectInTrace(
    eventlog::TraceId trace, const Pattern& pattern) const {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty pattern");
  }
  if (index_->options().policy == index::Policy::kSkipTillAnyMatch) {
    return Status::Unsupported(
        "per-trace drill-down is not available under skip-till-any-match");
  }
  SEQDET_ASSIGN_OR_RETURN(auto events, index_->GetTraceSequence(trace));
  std::vector<PatternMatch> matches;
  const auto& ids = pattern.activities;
  if (index_->options().policy == index::Policy::kStrictContiguity) {
    for (size_t start = 0; start + ids.size() <= events.size(); ++start) {
      bool ok = true;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (events[start + i].activity != ids[i]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      PatternMatch match;
      match.trace = trace;
      for (size_t i = 0; i < ids.size(); ++i) {
        match.timestamps.push_back(events[start + i].ts);
      }
      matches.push_back(std::move(match));
    }
  } else {
    // Greedy whole-pattern STNM.
    size_t state = 0;
    PatternMatch current;
    current.trace = trace;
    for (const auto& e : events) {
      if (e.activity != ids[state]) continue;
      current.timestamps.push_back(e.ts);
      if (++state == ids.size()) {
        matches.push_back(current);
        current.timestamps.clear();
        state = 0;
      }
    }
  }
  return matches;
}

void QueryProcessor::RankProposals(
    std::vector<ContinuationProposal>* proposals) {
  for (ContinuationProposal& p : *proposals) {
    p.score = Score(p.total_completions, p.average_duration);
  }
  std::sort(proposals->begin(), proposals->end(),
            [](const ContinuationProposal& a, const ContinuationProposal& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.activity < b.activity;
            });
}

namespace {

/// One distinct (trace, last timestamp) end key of the base pattern's
/// matches, with the number of matches ending there. Under SC/STNM every
/// key is unique; under STAM overlapping matches can share their last event
/// and each of them is extended separately, so the key counts that often.
struct EndKey {
  TraceId trace;
  Timestamp ts;
  uint64_t multiplicity;
};

/// The base matches' end keys, sorted by (trace, ts) — the order of the
/// candidates' posting snapshots — with equal keys collapsed.
std::vector<EndKey> BaseEndKeys(const std::vector<PatternMatch>& matches) {
  std::vector<EndKey> keys;
  keys.reserve(matches.size());
  for (const PatternMatch& m : matches) {
    keys.push_back(EndKey{m.trace, m.timestamps.back(), 1});
  }
  auto key_less = [](const EndKey& a, const EndKey& b) {
    return a.trace < b.trace || (a.trace == b.trace && a.ts < b.ts);
  };
  if (!std::is_sorted(keys.begin(), keys.end(), key_less)) {
    std::sort(keys.begin(), keys.end(), key_less);
  }
  size_t out = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (out > 0 && keys[out - 1].trace == keys[i].trace &&
        keys[out - 1].ts == keys[i].ts) {
      ++keys[out - 1].multiplicity;
    } else {
      keys[out++] = keys[i];
    }
  }
  keys.resize(out);
  return keys;
}

/// Algorithm 3 lines 6-8 for one candidate: the completions and the integer
/// gap sum under the optional max_gap (line 7).
struct CompletionTally {
  uint64_t completions = 0;
  int64_t sum_gap = 0;

  void Add(Timestamp gap, uint64_t times,
           const std::optional<Timestamp>& max_gap) {
    if (max_gap.has_value() && gap > *max_gap) return;
    completions += times;
    sum_gap += static_cast<int64_t>(times) * gap;
  }

  ContinuationProposal ToProposal(ActivityId activity) const {
    ContinuationProposal proposal;
    proposal.activity = activity;
    proposal.total_completions = completions;
    proposal.sum_duration = sum_gap;
    proposal.average_duration =
        completions == 0 ? 0.0
                         : static_cast<double>(sum_gap) /
                               static_cast<double>(completions);
    return proposal;
  }
};

/// Count-only verification of one candidate: walks the base end keys
/// against the (last, candidate) postings — sorted by (trace, ts_first) —
/// in one forward pass. Every posting whose first event is a base match's
/// last event extends each of the key's `multiplicity` matches by its
/// second event, which is exactly the set of rows the pair join would
/// materialize; here each only adds to the tally. The cursor advances by
/// linear scan, or by binary search when the keys are far fewer than the
/// postings (the ExtendMatchSet rule). Allocates nothing.
Status CountCompletions(const std::vector<EndKey>& keys,
                        const std::vector<PairOccurrence>& postings,
                        const ContinuationConstraints& constraints,
                        CompletionTally* tally) {
  const PairOccurrence* p = postings.data();
  const PairOccurrence* const end = p + postings.size();
  const bool probe_sorted =
      keys.size() < postings.size() / 8 || postings.size() < 16;
  size_t ticks = 0;
  for (const EndKey& key : keys) {
    if (++ticks % kDeadlineStride == 0 && constraints.deadline.Expired()) {
      return DeadlineExceeded();
    }
    const PairOccurrence probe{key.trace, key.ts,
                               std::numeric_limits<Timestamp>::min()};
    if (probe_sorted) {
      p = std::lower_bound(p, end, probe);
    } else {
      while (p != end && *p < probe) ++p;
    }
    for (; p != end && p->trace == key.trace && p->ts_first == key.ts; ++p) {
      tally->Add(p->ts_second - key.ts, key.multiplicity, constraints.max_gap);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ContinuationProposal>> QueryProcessor::VerifyContinuations(
    const Pattern& pattern, const std::vector<ActivityId>& candidates,
    const ContinuationConstraints& constraints) const {
  const ActivityId last = pattern.activities.back();
  // Detect the base pattern once; each candidate only counts one more pair
  // (§5.4.2: continuation is incremental, the base is not re-queried).
  std::vector<EndKey> keys;
  if (pattern.size() >= 2) {
    DetectionConstraints base;
    base.deadline = constraints.deadline;
    SEQDET_ASSIGN_OR_RETURN(auto base_matches, Detect(pattern, base));
    keys = BaseEndKeys(base_matches);
  }

  std::vector<ContinuationProposal> proposals;
  proposals.reserve(candidates.size());
  for (ActivityId candidate : candidates) {
    CompletionTally tally;
    // No base match to extend: the candidate scores zero, unfetched.
    if (pattern.size() >= 2 && keys.empty()) {
      proposals.push_back(tally.ToProposal(candidate));
      continue;
    }
    if (constraints.deadline.Expired()) return DeadlineExceeded();
    SEQDET_ASSIGN_OR_RETURN(
        auto postings,
        index_->GetPairPostingsShared(EventTypePair{last, candidate}));
    if (pattern.size() == 1) {
      // A single-event base: the pair's postings are themselves the
      // completions.
      for (const PairOccurrence& posting : *postings) {
        tally.Add(posting.ts_second - posting.ts_first, 1,
                  constraints.max_gap);
      }
    } else {
      SEQDET_RETURN_IF_ERROR(
          CountCompletions(keys, *postings, constraints, &tally));
    }
    proposals.push_back(tally.ToProposal(candidate));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ContinuationProposal>> QueryProcessor::ContinueAccurate(
    const Pattern& pattern, const ContinuationConstraints& constraints) const {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty continuation pattern");
  }
  // Line 2: candidate continuations from the Count table.
  SEQDET_ASSIGN_OR_RETURN(
      auto followers, index_->GetFollowerStats(pattern.activities.back()));
  std::vector<ActivityId> candidates;
  candidates.reserve(followers.size());
  for (const PairCountStats& follower : followers) {
    candidates.push_back(follower.other);
  }
  return VerifyContinuations(pattern, candidates, constraints);
}

Result<std::vector<ContinuationProposal>> QueryProcessor::ContinueAccurateNaive(
    const Pattern& pattern, const ContinuationConstraints& constraints) const {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty continuation pattern");
  }
  SEQDET_ASSIGN_OR_RETURN(
      auto candidates, index_->GetFollowerStats(pattern.activities.back()));
  DetectionConstraints detect;
  detect.deadline = constraints.deadline;
  std::vector<ContinuationProposal> proposals;
  proposals.reserve(candidates.size());
  for (const PairCountStats& candidate : candidates) {
    Pattern extended = pattern.Extended(candidate.other);
    ContinuationProposal proposal;
    proposal.activity = candidate.other;
    if (extended.size() < 2) {
      proposals.push_back(proposal);
      continue;
    }
    SEQDET_ASSIGN_OR_RETURN(auto matches, Detect(extended, detect));
    int64_t total_gap = 0;
    for (const PatternMatch& match : matches) {
      Timestamp gap = match.timestamps[match.timestamps.size() - 1] -
                      match.timestamps[match.timestamps.size() - 2];
      if (constraints.max_gap.has_value() && gap > *constraints.max_gap) {
        continue;
      }
      ++proposal.total_completions;
      total_gap += gap;
    }
    proposal.sum_duration = total_gap;
    proposal.average_duration =
        proposal.total_completions == 0
            ? 0.0
            : static_cast<double>(total_gap) /
                  static_cast<double>(proposal.total_completions);
    proposals.push_back(proposal);
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ContinuationProposal>> QueryProcessor::ContinueFast(
    const Pattern& pattern) const {
  if (pattern.empty()) {
    return Status::InvalidArgument("empty continuation pattern");
  }
  // Lines 2-8: upper bound of whole-pattern completions.
  uint64_t max_completions = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i + 1 < pattern.size(); ++i) {
    SEQDET_ASSIGN_OR_RETURN(
        PairCountStats stats,
        index_->GetPairStats(EventTypePair{pattern.activities[i],
                                           pattern.activities[i + 1]}));
    max_completions = std::min(max_completions, stats.total_completions);
  }
  // Lines 10-13: cap each candidate's count by the pattern bound.
  SEQDET_ASSIGN_OR_RETURN(
      auto candidates, index_->GetFollowerStats(pattern.activities.back()));
  std::vector<ContinuationProposal> proposals;
  proposals.reserve(candidates.size());
  for (const PairCountStats& candidate : candidates) {
    ContinuationProposal proposal;
    proposal.activity = candidate.other;
    proposal.total_completions =
        std::min(max_completions, candidate.total_completions);
    proposal.average_duration = candidate.AverageDuration();
    proposal.sum_duration = candidate.sum_duration;
    proposals.push_back(proposal);
  }
  RankProposals(&proposals);
  return proposals;
}

namespace {

/// The pattern with `candidate` inserted before position `gap_index`.
Pattern Spliced(const Pattern& pattern, size_t gap_index,
                ActivityId candidate) {
  Pattern out;
  out.activities.reserve(pattern.size() + 1);
  out.activities.insert(out.activities.end(), pattern.activities.begin(),
                        pattern.activities.begin() +
                            static_cast<ptrdiff_t>(gap_index));
  out.activities.push_back(candidate);
  out.activities.insert(out.activities.end(),
                        pattern.activities.begin() +
                            static_cast<ptrdiff_t>(gap_index),
                        pattern.activities.end());
  return out;
}

}  // namespace

Result<std::vector<ContinuationProposal>> QueryProcessor::ContinueInsertFast(
    const Pattern& pattern, size_t gap_index) const {
  if (pattern.empty() || gap_index > pattern.size()) {
    return Status::InvalidArgument("bad continuation gap index");
  }
  if (gap_index == pattern.size()) return ContinueFast(pattern);
  if (gap_index == 0) {
    // Prepend: candidates are predecessors of the first event.
    SEQDET_ASSIGN_OR_RETURN(
        auto predecessors,
        index_->GetPredecessorStats(pattern.activities.front()));
    std::vector<ContinuationProposal> proposals;
    for (const PairCountStats& candidate : predecessors) {
      proposals.push_back(ContinuationProposal{
          candidate.other, candidate.total_completions,
          candidate.AverageDuration(), 0});
    }
    RankProposals(&proposals);
    return proposals;
  }

  const ActivityId left = pattern.activities[gap_index - 1];
  const ActivityId right = pattern.activities[gap_index];
  SEQDET_ASSIGN_OR_RETURN(auto followers, index_->GetFollowerStats(left));
  SEQDET_ASSIGN_OR_RETURN(auto predecessors,
                          index_->GetPredecessorStats(right));
  std::unordered_map<ActivityId, PairCountStats> into_right;
  for (const PairCountStats& p : predecessors) into_right.emplace(p.other, p);

  // Upper bound from the rest of the pattern's pairs.
  uint64_t pattern_bound = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i + 1 < pattern.size(); ++i) {
    if (i + 1 == gap_index) continue;  // the split pair is replaced
    SEQDET_ASSIGN_OR_RETURN(
        PairCountStats stats,
        index_->GetPairStats(EventTypePair{pattern.activities[i],
                                           pattern.activities[i + 1]}));
    pattern_bound = std::min(pattern_bound, stats.total_completions);
  }

  std::vector<ContinuationProposal> proposals;
  for (const PairCountStats& out_of_left : followers) {
    auto it = into_right.find(out_of_left.other);
    if (it == into_right.end()) continue;  // never precedes `right`
    ContinuationProposal proposal;
    proposal.activity = out_of_left.other;
    proposal.total_completions =
        std::min({pattern_bound, out_of_left.total_completions,
                  it->second.total_completions});
    proposal.average_duration =
        out_of_left.AverageDuration() + it->second.AverageDuration();
    proposals.push_back(proposal);
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ContinuationProposal>>
QueryProcessor::ContinueInsertAccurate(
    const Pattern& pattern, size_t gap_index,
    const ContinuationConstraints& constraints) const {
  if (pattern.empty() || gap_index > pattern.size()) {
    return Status::InvalidArgument("bad continuation gap index");
  }
  if (gap_index == pattern.size()) {
    return ContinueAccurate(pattern, constraints);
  }
  SEQDET_ASSIGN_OR_RETURN(auto candidates,
                          ContinueInsertFast(pattern, gap_index));
  DetectionConstraints detect;
  detect.deadline = constraints.deadline;
  std::vector<ContinuationProposal> proposals;
  proposals.reserve(candidates.size());
  for (const ContinuationProposal& candidate : candidates) {
    Pattern spliced = Spliced(pattern, gap_index, candidate.activity);
    if (spliced.size() < 2) {
      proposals.push_back(candidate);
      continue;
    }
    SEQDET_ASSIGN_OR_RETURN(auto matches, Detect(spliced, detect));
    CompletionTally tally;
    for (const PatternMatch& match : matches) {
      // Duration of the detour through the inserted event.
      size_t at = gap_index;  // index of the inserted event in the match
      Timestamp gap =
          at + 1 < match.timestamps.size()
              ? match.timestamps[at + 1] -
                    (at > 0 ? match.timestamps[at - 1] : match.timestamps[at])
              : match.timestamps[at] - match.timestamps[at - 1];
      tally.Add(gap, 1, constraints.max_gap);
    }
    proposals.push_back(tally.ToProposal(candidate.activity));
  }
  RankProposals(&proposals);
  return proposals;
}

Result<std::vector<ContinuationProposal>> QueryProcessor::ContinueHybrid(
    const Pattern& pattern, size_t top_k,
    const ContinuationConstraints& constraints) const {
  // Line 3: initial ranking from the Fast heuristic.
  SEQDET_ASSIGN_OR_RETURN(auto fast, ContinueFast(pattern));
  if (top_k == 0) return fast;

  // Line 4: Accurate verification of the topK candidates only. Line 5:
  // only the verified candidates are returned, re-ranked by their accurate
  // scores. (Mixing the unverified Fast tail back in would let its
  // optimistic upper-bound counts outrank verified candidates.)
  std::vector<ActivityId> candidates;
  const size_t limit = std::min(top_k, fast.size());
  candidates.reserve(limit);
  for (size_t i = 0; i < limit; ++i) candidates.push_back(fast[i].activity);
  return VerifyContinuations(pattern, candidates, constraints);
}

}  // namespace seqdet::query
