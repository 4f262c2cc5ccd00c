#ifndef SEQDET_INDEX_POSTING_BLOCKS_H_
#define SEQDET_INDEX_POSTING_BLOCKS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "index/pair.h"

namespace seqdet::index {

/// Blocked posting-list value format (`posting_format` 3): a
/// concatenation of self-describing blocks whose payloads are bit-packed
/// frame-of-reference (FOR) columns. This is the only posting codec: the
/// bytes written here are the bytes the storage layer keeps on disk and
/// the bytes the read path decodes.
///
///   value   := block*
///   block   := header payload
///   header  := varint   min_trace
///              varint   max_trace      (>= min_trace)
///              zigzag64 min_ts         (min ts_first in the block)
///              zigzag64 max_ts         (max ts_second in the block)
///              varint   count          (postings in the payload, > 0)
///              varint   byte_len       (payload bytes)
///   payload := group{ceil(count / 128)}
///   group   := zigzag64 slope          (ms per trace id, the predictor)
///              column trace_delta
///              column ts_residual
///              column duration
///   column  := varint frame_min, u8 width (0..64),
///              n fields of `width` bits, little-endian packed, padded to
///              a byte (n = postings in the group, 128 but the last)
///
/// Within a block postings are sorted by (trace, ts_first, ts_second).
/// Each field stores `value - frame_min`. trace_delta is the difference
/// to the previous posting's trace (to min_trace for the first posting),
/// so the last posting's trace equals max_trace. duration = ts_second -
/// ts_first (non-negative by the index invariant). ts_first is coded
/// against a linear trace predictor: trace ids correlate with arrival
/// time, so each group stores its observed ms-per-trace slope and each
/// row the zigzag residual `ts_first - prev_ts - slope * trace_delta`,
/// where prev_ts is the previous posting's ts_first (min_ts for the first
/// posting of a block). For rows of one trace the residual is the in-trace
/// gap; for rows that cross traces the slope absorbs the inter-trace jump.
/// All arithmetic wraps in uint64, so any int64 timestamps round-trip and
/// corrupt input cannot overflow.
///
/// The header alone supports two skip decisions without touching the
/// payload: trace-range pruning ([min_trace, max_trace] vs a candidate
/// set) and time-range pruning ([min_ts, max_ts] vs a query window).
///
/// Append fragments written by Update() are themselves one (or more)
/// blocks, so a stored value is *always* a valid block sequence; only the
/// global sort across blocks is re-established by FoldPostings(), which
/// rewrites a fragment pile into globally sorted blocks of
/// PostingsPerBlock(target_block_bytes) postings each.

/// Default payload target of one folded block: 341 postings (see
/// PostingsPerBlock), small enough that trace-range skips are selective,
/// large enough that header overhead stays < 1%.
inline constexpr size_t kDefaultPostingBlockBytes = 4096;

/// Postings per folded block for a payload target. Blocks are sized by a
/// fixed 12-byte-per-posting estimate rather than by the encoded size, so
/// a block's posting count (and with it skip granularity) does not depend
/// on how well its postings compress. Every full block of a folded value
/// holds exactly this many postings; the needs-fold test relies on it.
size_t PostingsPerBlock(size_t target_block_bytes);

/// Parsed block header.
struct PostingBlockHeader {
  uint64_t min_trace = 0;
  uint64_t max_trace = 0;
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  uint64_t count = 0;
  uint64_t byte_len = 0;
};

/// One block located inside a stored value: header plus payload position.
struct PostingBlockRef {
  PostingBlockHeader header;
  size_t payload_offset = 0;  // byte offset of the payload in the value
};

/// Encodes `postings` (must be sorted by (trace, ts_first, ts_second)) as
/// a sequence of blocks of PostingsPerBlock(target_block_bytes) postings
/// each, appended to `*out`. Empty input appends nothing.
void EncodePostingBlocks(const std::vector<PairOccurrence>& postings,
                         size_t target_block_bytes, std::string* out);

/// Parses the headers of every block of `value` without decoding any
/// payload. False (and `out` cleared) on malformed data.
bool ParsePostingBlockRefs(std::string_view value,
                           std::vector<PostingBlockRef>* out);

/// Decodes the payload of one block, appending `header.count` postings to
/// `*out`. False on malformed data, with `*out` back at its size on entry
/// (postings appended for earlier blocks are the caller's to discard).
bool DecodePostingBlockPayload(std::string_view payload,
                               const PostingBlockHeader& header,
                               std::vector<PairOccurrence>* out);

/// Decodes a whole blocked value, appending to `*out`. False (and `out`
/// cleared) on corruption.
bool DecodeBlockedPostings(std::string_view value,
                           std::vector<PairOccurrence>* out);

/// DecodeBlockedPostings for a value whose headers the caller already
/// parsed into `refs` (ParsePostingBlockRefs of the same `value`).
bool DecodePostingBlocks(std::string_view value,
                         const std::vector<PostingBlockRef>& refs,
                         std::vector<PairOccurrence>* out);

// ---------------------------------------------------------------------------
// Trace interval sets — the candidate representation of the block-skip
// read path. Coarse by design: a set of disjoint [lo, hi] trace-id ranges
// built from block headers; intersecting the per-pair sets yields a
// superset of the traces that can hold a full pattern match.
// ---------------------------------------------------------------------------

struct TraceInterval {
  uint64_t lo = 0;
  uint64_t hi = 0;  // inclusive

  friend bool operator==(const TraceInterval&, const TraceInterval&) = default;
};

class TraceIntervalSet {
 public:
  TraceIntervalSet() = default;

  /// The set covering every trace id.
  static TraceIntervalSet All() {
    TraceIntervalSet set;
    set.intervals_.push_back(
        TraceInterval{0, std::numeric_limits<uint64_t>::max()});
    return set;
  }

  /// Builds the normalized (sorted, disjoint) set from arbitrary
  /// intervals; overlapping and adjacent ranges are merged.
  static TraceIntervalSet FromIntervals(std::vector<TraceInterval> intervals);

  bool empty() const { return intervals_.empty(); }
  size_t size() const { return intervals_.size(); }
  const std::vector<TraceInterval>& intervals() const { return intervals_; }

  /// True when the set is the full id space (no pruning possible).
  bool IsAll() const {
    return intervals_.size() == 1 && intervals_[0].lo == 0 &&
           intervals_[0].hi == std::numeric_limits<uint64_t>::max();
  }

  /// Number of trace ids the set covers, saturating at uint64 max. The
  /// selectivity signal pruning decisions compare against a posting list's
  /// own span.
  uint64_t Span() const;

  /// True when [lo, hi] intersects any interval of the set.
  bool Overlaps(uint64_t lo, uint64_t hi) const;

  /// True when `trace` lies in the set.
  bool Contains(uint64_t trace) const { return Overlaps(trace, trace); }

  /// Set intersection (two-pointer sweep over the sorted interval lists).
  static TraceIntervalSet Intersect(const TraceIntervalSet& a,
                                    const TraceIntervalSet& b);

 private:
  std::vector<TraceInterval> intervals_;  // sorted by lo, disjoint
};

}  // namespace seqdet::index

#endif  // SEQDET_INDEX_POSTING_BLOCKS_H_
