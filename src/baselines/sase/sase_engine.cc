#include "baselines/sase/sase_engine.h"

#include <algorithm>
#include <limits>

namespace seqdet::baseline {

using eventlog::ActivityId;
using eventlog::Timestamp;
using eventlog::Trace;
using eventlog::TraceId;

void SaseEngine::DetectInTrace(const Trace& trace,
                               const std::vector<ActivityId>& pattern,
                               index::Policy policy,
                               std::vector<SaseMatch>* out) const {
  const auto& events = trace.events;
  const size_t n = events.size();
  const size_t p = pattern.size();
  if (p == 0 || n < p) return;

  if (policy == index::Policy::kStrictContiguity) {
    // One NFA run per e_1 instance; under strict contiguity a run either
    // advances on every event or dies, so runs are just window checks.
    for (size_t start = 0; start + p <= n; ++start) {
      bool ok = true;
      for (size_t i = 0; i < p; ++i) {
        if (events[start + i].activity != pattern[i]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      SaseMatch match;
      match.trace = trace.id;
      match.timestamps.reserve(p);
      for (size_t i = 0; i < p; ++i) {
        match.timestamps.push_back(events[start + i].ts);
      }
      out->push_back(std::move(match));
    }
    return;
  }

  // Skip-till-next-match: a single greedy run; after a complete match the
  // automaton resets and continues after the match's last event, so matches
  // never overlap.
  size_t state = 0;
  SaseMatch current;
  current.trace = trace.id;
  for (size_t i = 0; i < n; ++i) {
    if (events[i].activity != pattern[state]) continue;  // skip irrelevant
    current.timestamps.push_back(events[i].ts);
    if (++state == p) {
      out->push_back(current);
      current.timestamps.clear();
      state = 0;
    }
  }
}

std::vector<SaseMatch> SaseEngine::Detect(
    const std::vector<ActivityId>& pattern, index::Policy policy) const {
  std::vector<SaseMatch> out;
  for (const Trace& trace : log_->traces()) {
    DetectInTrace(trace, pattern, policy, &out);
  }
  return out;
}

size_t SaseEngine::Count(const std::vector<ActivityId>& pattern,
                         index::Policy policy) const {
  return Detect(pattern, policy).size();
}

// ---------------------------------------------------------------------------
// Extended operators (DESIGN.md §14) — the normative oracle implementation.
// Deliberately simple and log-only: per-trace scans, sorted vectors, and
// binary-searched nested-loop joins. The index-side compiler reaches the
// same match sets through postings, codecs, caches, and flat pair joins;
// the differential harness compares the two byte-for-byte.
// ---------------------------------------------------------------------------

namespace {

using query::ExtendedPattern;
using query::PatternElement;

/// A partially built match: the timestamps assigned so far plus, per
/// completed positive element, the index of the LAST timestamp its (chain
/// of) events occupies. first-of follows as last_of[j-1] + 1.
struct Partial {
  TraceId trace = 0;
  std::vector<Timestamp> ts;
  std::vector<size_t> last_of;
};

bool PairLess(const SaseMatch& a, const SaseMatch& b) {
  if (a.trace != b.trace) return a.trace < b.trace;
  if (a.timestamps[0] != b.timestamps[0]) {
    return a.timestamps[0] < b.timestamps[0];
  }
  return a.timestamps[1] < b.timestamps[1];
}

/// Sorted-by-(trace, ts[1], ts[0]) order for the leading-Kleene left join.
bool PairLessBySecond(const SaseMatch& a, const SaseMatch& b) {
  if (a.trace != b.trace) return a.trace < b.trace;
  if (a.timestamps[1] != b.timestamps[1]) {
    return a.timestamps[1] < b.timestamps[1];
  }
  return a.timestamps[0] < b.timestamps[0];
}

/// Inclusive time bounds: a gap or span EQUAL to the bound passes.
bool GapOk(const ExtendedPattern& pattern, Timestamp prev, Timestamp next) {
  return !pattern.max_gap || next - prev <= *pattern.max_gap;
}
bool SpanOk(const ExtendedPattern& pattern, Timestamp first, Timestamp last) {
  return !pattern.max_span || last - first <= *pattern.max_span;
}

/// Extends every partial to the right with pairs whose first timestamp
/// equals the partial's last. `repeat` distinguishes a Kleene repetition
/// (the current element's chain grows) from a transition to a new element.
/// Monotone time bounds are applied eagerly — a violated gap or span can
/// never heal, and eager dropping is what keeps Kleene closures small.
std::vector<Partial> JoinRight(const ExtendedPattern& pattern,
                               const std::vector<Partial>& in,
                               const std::vector<SaseMatch>& pairs,
                               bool repeat) {
  std::vector<Partial> out;
  for (const Partial& m : in) {
    SaseMatch probe;
    probe.trace = m.trace;
    probe.timestamps = {m.ts.back(), std::numeric_limits<Timestamp>::min()};
    for (auto it = std::lower_bound(pairs.begin(), pairs.end(), probe,
                                    PairLess);
         it != pairs.end() && it->trace == m.trace &&
         it->timestamps[0] == m.ts.back();
         ++it) {
      const Timestamp next = it->timestamps[1];
      if (!GapOk(pattern, m.ts.back(), next) ||
          !SpanOk(pattern, m.ts.front(), next)) {
        continue;
      }
      Partial np = m;
      np.ts.push_back(next);
      if (repeat) {
        np.last_of.back() = np.ts.size() - 1;
      } else {
        np.last_of.push_back(np.ts.size() - 1);
      }
      out.push_back(std::move(np));
    }
  }
  return out;
}

/// Leading-Kleene left extension: prepends pairs whose SECOND timestamp
/// equals the partial's first. `pairs_by_second` must be sorted with
/// PairLessBySecond. All last-of indices shift by one.
std::vector<Partial> JoinLeft(const ExtendedPattern& pattern,
                              const std::vector<Partial>& in,
                              const std::vector<SaseMatch>& pairs_by_second) {
  std::vector<Partial> out;
  for (const Partial& m : in) {
    SaseMatch probe;
    probe.trace = m.trace;
    probe.timestamps = {std::numeric_limits<Timestamp>::min(), m.ts.front()};
    for (auto it = std::lower_bound(pairs_by_second.begin(),
                                    pairs_by_second.end(), probe,
                                    PairLessBySecond);
         it != pairs_by_second.end() && it->trace == m.trace &&
         it->timestamps[1] == m.ts.front();
         ++it) {
      const Timestamp prev = it->timestamps[0];
      if (!GapOk(pattern, prev, m.ts.front()) ||
          !SpanOk(pattern, prev, m.ts.back())) {
        continue;
      }
      Partial np;
      np.trace = m.trace;
      np.ts.reserve(m.ts.size() + 1);
      np.ts.push_back(prev);
      np.ts.insert(np.ts.end(), m.ts.begin(), m.ts.end());
      np.last_of.reserve(m.last_of.size());
      for (size_t idx : m.last_of) np.last_of.push_back(idx + 1);
      out.push_back(std::move(np));
    }
  }
  return out;
}

}  // namespace

Result<std::vector<SaseMatch>> SaseEngine::DetectExtended(
    const ExtendedPattern& pattern, index::Policy policy,
    SasePairCache* cache) const {
  SEQDET_RETURN_IF_ERROR(pattern.Validate());
  if (policy != index::Policy::kStrictContiguity &&
      policy != index::Policy::kSkipTillNextMatch) {
    return Status::Unsupported(
        "extended oracle supports SC and STNM policies only");
  }
  SasePairCache local;
  if (cache == nullptr) cache = &local;
  if (!cache->initialized) {
    cache->initialized = true;
    cache->policy = policy;
  } else if (cache->policy != policy) {
    return Status::InvalidArgument("SasePairCache policy mismatch");
  }

  // Union of NFA pair sets over the concrete cross product of two
  // alternative sets, canonically sorted and deduplicated (two concrete
  // pairs can emit the same (trace, ts, ts') when events share timestamps).
  auto pair_set = [&](const std::vector<ActivityId>& from,
                      const std::vector<ActivityId>& to) {
    std::vector<SaseMatch> out;
    for (ActivityId a : from) {
      for (ActivityId b : to) {
        auto key = std::make_pair(a, b);
        auto it = cache->pairs.find(key);
        if (it == cache->pairs.end()) {
          it = cache->pairs.emplace(key, Detect({a, b}, cache->policy)).first;
        }
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(out.begin(), out.end(), PairLess);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  // Kleene repetitions chain through the element's self pairs under the
  // strict-progress rule: only pairs whose timestamp actually advances may
  // extend a chain, which is what bounds the closure.
  auto strict_self_set = [&](const std::vector<ActivityId>& alts) {
    std::vector<SaseMatch> pairs = pair_set(alts, alts);
    std::erase_if(pairs, [](const SaseMatch& p) {
      return p.timestamps[1] <= p.timestamps[0];
    });
    return pairs;
  };

  // Positive skeleton: element indices of the non-negated elements.
  std::vector<size_t> positives;
  for (size_t i = 0; i < pattern.elements.size(); ++i) {
    if (!pattern.elements[i].negated) positives.push_back(i);
  }
  auto elem = [&](size_t j) -> const PatternElement& {
    return pattern.elements[positives[j]];
  };

  std::vector<Partial> partials;
  if (positives.size() == 1) {
    // Single positive element: every matching event seeds a width-1 match.
    for (const Trace& trace : log_->traces()) {
      for (const eventlog::Event& ev : trace.events) {
        if (!elem(0).Matches(ev.activity)) continue;
        partials.push_back(Partial{trace.id, {ev.ts}, {0}});
      }
    }
  } else {
    // Seed with the first pair, then left-close a leading Kleene.
    for (const SaseMatch& p : pair_set(elem(0).alternatives,
                                       elem(1).alternatives)) {
      if (!GapOk(pattern, p.timestamps[0], p.timestamps[1]) ||
          !SpanOk(pattern, p.timestamps[0], p.timestamps[1])) {
        continue;
      }
      partials.push_back(
          Partial{p.trace, {p.timestamps[0], p.timestamps[1]}, {0, 1}});
    }
    if (elem(0).kleene) {
      std::vector<SaseMatch> self = strict_self_set(elem(0).alternatives);
      std::sort(self.begin(), self.end(), PairLessBySecond);
      std::vector<Partial> frontier = partials;
      while (!frontier.empty()) {
        frontier = JoinLeft(pattern, frontier, self);
        partials.insert(partials.end(), frontier.begin(), frontier.end());
      }
    }
  }

  // Close the remaining positives left to right; each Kleene element gets a
  // right closure before the next transition.
  for (size_t j = (positives.size() == 1 ? 0 : 1); j < positives.size();
       ++j) {
    // j == 1 was the seed pair; transitions start at j == 2. A leading
    // Kleene (j == 0 with >= 2 positives) was left-closed above.
    if (j >= 2) {
      partials = JoinRight(pattern, partials,
                           pair_set(elem(j - 1).alternatives,
                                    elem(j).alternatives),
                           /*repeat=*/false);
    }
    if (elem(j).kleene && !(j == 0 && positives.size() > 1)) {
      std::vector<SaseMatch> self = strict_self_set(elem(j).alternatives);
      std::vector<Partial> frontier = partials;
      std::vector<Partial> closed = std::move(partials);
      while (!frontier.empty()) {
        frontier = JoinRight(pattern, frontier, self, /*repeat=*/true);
        closed.insert(closed.end(), frontier.begin(), frontier.end());
      }
      partials = std::move(closed);
    }
  }

  // Negation post-verification: no matching event strictly inside the open
  // interval between the neighbouring positive matches (unbounded at the
  // pattern ends).
  std::vector<size_t> negations;
  for (size_t i = 0; i < pattern.elements.size(); ++i) {
    if (pattern.elements[i].negated) negations.push_back(i);
  }
  if (!negations.empty() && !partials.empty()) {
    std::erase_if(partials, [&](const Partial& m) {
      const Trace* trace = log_->FindTrace(m.trace);
      if (trace == nullptr) return true;
      for (size_t e : negations) {
        // Positive neighbours of the negation in element order.
        size_t left = positives.size();  // sentinel: none
        size_t right = positives.size();
        for (size_t j = 0; j < positives.size(); ++j) {
          if (positives[j] < e) left = j;
          if (positives[j] > e) {
            right = j;
            break;
          }
        }
        const bool has_left = left != positives.size();
        const bool has_right = right != positives.size();
        const Timestamp left_ts = has_left ? m.ts[m.last_of[left]] : 0;
        const Timestamp right_ts =
            has_right ? m.ts[right == 0 ? 0 : m.last_of[right - 1] + 1] : 0;
        for (const eventlog::Event& ev : trace->events) {
          if (!pattern.elements[e].Matches(ev.activity)) continue;
          if (has_left && ev.ts <= left_ts) continue;
          if (has_right && ev.ts >= right_ts) continue;
          return true;  // violating event found — drop the match
        }
      }
      return false;
    });
  }

  // Final time-bound filter (the eager drops above are an optimization; the
  // seed and single-event paths still need the checks), then canonical
  // order + dedup: different Kleene depth splits can assemble the same
  // timestamp vector.
  std::vector<SaseMatch> out;
  out.reserve(partials.size());
  for (const Partial& m : partials) {
    bool ok = SpanOk(pattern, m.ts.front(), m.ts.back());
    for (size_t i = 1; ok && i < m.ts.size(); ++i) {
      ok = GapOk(pattern, m.ts[i - 1], m.ts[i]);
    }
    if (!ok) continue;
    out.push_back(SaseMatch{m.trace, m.ts});
  }
  std::sort(out.begin(), out.end(), [](const SaseMatch& a, const SaseMatch& b) {
    if (a.trace != b.trace) return a.trace < b.trace;
    return a.timestamps < b.timestamps;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace seqdet::baseline
