#include "index/posting_blocks.h"

#include <algorithm>
#include <cstdint>

#include "common/bitpack.h"
#include "common/coding.h"

namespace seqdet::index {

namespace {

// Postings per FOR group: small enough that one outlier cannot widen a
// whole block's columns, large enough to amortize the per-column frame
// (varint minimum + width byte).
constexpr size_t kGroupSize = 128;

// Smallest encoding of one group: a 1-byte slope and three columns of a
// 1-byte minimum and a width byte (width 0 packs no bits). Bounds the
// posting count a header may claim for its payload size.
constexpr uint64_t kMinGroupBytes = 7;

// Appends one FOR column: varint frame minimum, width byte, then each
// value's offset from the minimum packed at that width.
void PutForColumn(const uint64_t* values, size_t n, std::string* out) {
  uint64_t min_v = values[0], max_v = values[0];
  for (size_t i = 1; i < n; ++i) {
    min_v = std::min(min_v, values[i]);
    max_v = std::max(max_v, values[i]);
  }
  const uint32_t bits = BitsNeeded(max_v - min_v);
  PutVarint64(out, min_v);
  out->push_back(static_cast<char>(bits));
  BitPacker packer(out);
  for (size_t i = 0; i < n; ++i) packer.Put(values[i] - min_v, bits);
  packer.Finish();
}

// Reads one FOR column into out[0..n) as offsets from the frame minimum,
// which goes to *min_v (the caller adds it while combining columns).
bool GetForColumn(std::string_view* input, size_t n, uint64_t* min_v,
                  uint64_t* out) {
  if (!GetVarint64(input, min_v) || input->empty()) return false;
  const uint32_t bits = static_cast<unsigned char>(input->front());
  input->remove_prefix(1);
  return UnpackBits(input, n, bits, out);
}

// The ms-per-trace slope of one group: the ts_first advance across the
// group over its trace span. Only a predictor — encoder and decoder agree
// on it through the stored value, so any slope round-trips; the wrapped
// difference keeps extreme timestamps free of signed overflow.
int64_t GroupSlope(uint64_t prev_ts, uint64_t last_ts, uint64_t span) {
  if (span == 0 || span > static_cast<uint64_t>(INT64_MAX)) return 0;
  return static_cast<int64_t>(last_ts - prev_ts) /
         static_cast<int64_t>(span);
}

// Encodes postings[begin, end) as one block appended to *out. The slice
// must be sorted by (trace, ts_first, ts_second).
void EncodeOneBlock(const std::vector<PairOccurrence>& postings, size_t begin,
                    size_t end, std::string* out) {
  int64_t min_ts = postings[begin].ts_first;
  int64_t max_ts = postings[begin].ts_second;
  for (size_t i = begin; i < end; ++i) {
    min_ts = std::min(min_ts, postings[i].ts_first);
    max_ts = std::max(max_ts, postings[i].ts_second);
  }
  std::string payload;
  uint64_t trace_delta[kGroupSize], ts_residual[kGroupSize],
      duration[kGroupSize];
  uint64_t prev_trace = postings[begin].trace;
  uint64_t prev_ts = static_cast<uint64_t>(min_ts);
  for (size_t group = begin; group < end; group += kGroupSize) {
    const size_t n = std::min(kGroupSize, end - group);
    uint64_t span = 0;
    for (size_t i = 0; i < n; ++i) {
      const PairOccurrence& p = postings[group + i];
      trace_delta[i] = p.trace - prev_trace;
      duration[i] = static_cast<uint64_t>(p.ts_second) -
                    static_cast<uint64_t>(p.ts_first);
      span += trace_delta[i];
      prev_trace = p.trace;
    }
    const int64_t slope = GroupSlope(
        prev_ts, static_cast<uint64_t>(postings[group + n - 1].ts_first),
        span);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t ts = static_cast<uint64_t>(postings[group + i].ts_first);
      const uint64_t predicted =
          prev_ts + static_cast<uint64_t>(slope) * trace_delta[i];
      ts_residual[i] = ZigZagEncode64(static_cast<int64_t>(ts - predicted));
      prev_ts = ts;
    }
    PutVarint64SignedZigZag(&payload, slope);
    PutForColumn(trace_delta, n, &payload);
    PutForColumn(ts_residual, n, &payload);
    PutForColumn(duration, n, &payload);
  }
  PutVarint64(out, postings[begin].trace);
  PutVarint64(out, postings[end - 1].trace);
  PutVarint64SignedZigZag(out, min_ts);
  PutVarint64SignedZigZag(out, max_ts);
  PutVarint64(out, end - begin);
  PutVarint64(out, payload.size());
  out->append(payload);
}

}  // namespace

size_t PostingsPerBlock(size_t target_block_bytes) {
  constexpr size_t kEstimatedPostingBytes = 12;
  return std::max<size_t>(1, target_block_bytes / kEstimatedPostingBytes);
}

void EncodePostingBlocks(const std::vector<PairOccurrence>& postings,
                         size_t target_block_bytes, std::string* out) {
  const size_t per_block = PostingsPerBlock(target_block_bytes);
  for (size_t begin = 0; begin < postings.size(); begin += per_block) {
    size_t end = std::min(postings.size(), begin + per_block);
    EncodeOneBlock(postings, begin, end, out);
  }
}

bool ParsePostingBlockRefs(std::string_view value,
                           std::vector<PostingBlockRef>* out) {
  out->clear();
  const char* base = value.data();
  while (!value.empty()) {
    PostingBlockRef ref;
    PostingBlockHeader& h = ref.header;
    if (!GetVarint64(&value, &h.min_trace) ||
        !GetVarint64(&value, &h.max_trace) ||
        !GetVarint64SignedZigZag(&value, &h.min_ts) ||
        !GetVarint64SignedZigZag(&value, &h.max_ts) ||
        !GetVarint64(&value, &h.count) || !GetVarint64(&value, &h.byte_len) ||
        h.count == 0 || h.min_trace > h.max_trace ||
        h.byte_len > value.size() ||
        // A count the payload cannot hold even at the smallest group
        // encoding is corruption; rejecting it here keeps downstream
        // count-sized allocations bounded by the value size.
        h.count / kGroupSize + (h.count % kGroupSize != 0) >
            h.byte_len / kMinGroupBytes) {
      out->clear();
      return false;
    }
    ref.payload_offset = static_cast<size_t>(value.data() - base);
    value.remove_prefix(static_cast<size_t>(h.byte_len));
    out->push_back(ref);
  }
  return true;
}

bool DecodePostingBlockPayload(std::string_view payload,
                               const PostingBlockHeader& header,
                               std::vector<PairOccurrence>* out) {
  const size_t base = out->size();
  uint64_t trace_delta[kGroupSize], ts_residual[kGroupSize],
      duration[kGroupSize];
  uint64_t trace = header.min_trace;
  uint64_t ts = static_cast<uint64_t>(header.min_ts);
  for (uint64_t left = header.count; left > 0;) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kGroupSize, left));
    int64_t slope = 0;
    uint64_t trace_min = 0, residual_min = 0, duration_min = 0;
    if (!GetVarint64SignedZigZag(&payload, &slope) ||
        !GetForColumn(&payload, n, &trace_min, trace_delta) ||
        !GetForColumn(&payload, n, &residual_min, ts_residual) ||
        !GetForColumn(&payload, n, &duration_min, duration)) {
      out->resize(base);
      return false;
    }
    // Each posting is written once, by push_back (no zero-fill first);
    // callers reserve the block counts.
    for (size_t i = 0; i < n; ++i) {
      const uint64_t delta = trace_min + trace_delta[i];
      trace += delta;
      ts += static_cast<uint64_t>(slope) * delta +
            static_cast<uint64_t>(
                ZigZagDecode64(residual_min + ts_residual[i]));
      out->push_back(PairOccurrence{
          trace, static_cast<int64_t>(ts),
          static_cast<int64_t>(ts + duration_min + duration[i])});
    }
    left -= n;
  }
  if (!payload.empty() || trace != header.max_trace) {
    out->resize(base);
    return false;
  }
  return true;
}

bool DecodePostingBlocks(std::string_view value,
                         const std::vector<PostingBlockRef>& refs,
                         std::vector<PairOccurrence>* out) {
  uint64_t total = 0;
  for (const PostingBlockRef& ref : refs) total += ref.header.count;
  // Grow once: per-block growth would re-copy the accumulated prefix on
  // every reallocation.
  out->reserve(out->size() + total);
  for (const PostingBlockRef& ref : refs) {
    if (!DecodePostingBlockPayload(
            value.substr(ref.payload_offset,
                         static_cast<size_t>(ref.header.byte_len)),
            ref.header, out)) {
      out->clear();
      return false;
    }
  }
  return true;
}

bool DecodeBlockedPostings(std::string_view value,
                           std::vector<PairOccurrence>* out) {
  std::vector<PostingBlockRef> refs;
  if (!ParsePostingBlockRefs(value, &refs)) {
    out->clear();
    return false;
  }
  return DecodePostingBlocks(value, refs, out);
}

TraceIntervalSet TraceIntervalSet::FromIntervals(
    std::vector<TraceInterval> intervals) {
  TraceIntervalSet set;
  std::sort(intervals.begin(), intervals.end(),
            [](const TraceInterval& a, const TraceInterval& b) {
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi < b.hi;
            });
  for (const TraceInterval& interval : intervals) {
    if (interval.lo > interval.hi) continue;
    if (!set.intervals_.empty()) {
      TraceInterval& last = set.intervals_.back();
      // Merge overlapping or adjacent ranges (hi + 1 may not overflow:
      // guard before adding).
      if (interval.lo <= last.hi ||
          (last.hi != std::numeric_limits<uint64_t>::max() &&
           interval.lo == last.hi + 1)) {
        last.hi = std::max(last.hi, interval.hi);
        continue;
      }
    }
    set.intervals_.push_back(interval);
  }
  return set;
}

uint64_t TraceIntervalSet::Span() const {
  uint64_t total = 0;
  for (const TraceInterval& interval : intervals_) {
    uint64_t len = interval.hi - interval.lo;  // inclusive: count is len + 1
    if (len == std::numeric_limits<uint64_t>::max() ||
        total + len + 1 < total) {
      return std::numeric_limits<uint64_t>::max();
    }
    total += len + 1;
  }
  return total;
}

bool TraceIntervalSet::Overlaps(uint64_t lo, uint64_t hi) const {
  // First interval whose hi >= lo; overlaps iff it also starts <= hi.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](const TraceInterval& interval, uint64_t key) {
        return interval.hi < key;
      });
  return it != intervals_.end() && it->lo <= hi;
}

TraceIntervalSet TraceIntervalSet::Intersect(const TraceIntervalSet& a,
                                             const TraceIntervalSet& b) {
  TraceIntervalSet out;
  size_t i = 0, j = 0;
  while (i < a.intervals_.size() && j < b.intervals_.size()) {
    const TraceInterval& x = a.intervals_[i];
    const TraceInterval& y = b.intervals_[j];
    uint64_t lo = std::max(x.lo, y.lo);
    uint64_t hi = std::min(x.hi, y.hi);
    if (lo <= hi) out.intervals_.push_back(TraceInterval{lo, hi});
    if (x.hi < y.hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

}  // namespace seqdet::index
