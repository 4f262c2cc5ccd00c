// Tests of the block-structured posting-list format: encode/decode round
// trips, header parsing, trace-interval pruning machinery, corruption
// behavior of every value decoder, the fold path, the refusal of retired
// formats, and the selectivity-filtered read path.

#include <algorithm>
#include <limits>
#include <memory>

#include "common/coding.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "index/index_tables.h"
#include "index/posting_blocks.h"
#include "index/sequence_index.h"
#include "query/query_processor.h"
#include "storage/database.h"

namespace seqdet::index {
namespace {

using eventlog::EventLog;

std::unique_ptr<storage::Database> InMemoryDb() {
  storage::DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = storage::Database::Open("", options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

IndexOptions SingleThreaded() {
  IndexOptions options;
  options.num_threads = 1;
  return options;
}

std::vector<PairOccurrence> RoundTrip(
    const std::vector<PairOccurrence>& postings, size_t target_bytes) {
  std::string encoded;
  EncodePostingBlocks(postings, target_bytes, &encoded);
  std::vector<PairOccurrence> decoded;
  EXPECT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  return decoded;
}

// ---------------------------------------------------------------------------
// Block encode/decode round trips
// ---------------------------------------------------------------------------

TEST(PostingBlocksTest, EmptyListEncodesToNothing) {
  std::string encoded;
  EncodePostingBlocks({}, kDefaultPostingBlockBytes, &encoded);
  EXPECT_TRUE(encoded.empty());
  std::vector<PairOccurrence> decoded;
  EXPECT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(PostingBlocksTest, SinglePostingRoundTrip) {
  std::vector<PairOccurrence> postings{{42, -100, 250}};
  EXPECT_EQ(RoundTrip(postings, kDefaultPostingBlockBytes), postings);
}

TEST(PostingBlocksTest, MultiBlockRoundTrip) {
  // A tiny target forces many blocks; the round trip must be exact and
  // block-order-preserving.
  std::vector<PairOccurrence> postings;
  Rng rng(7);
  int64_t ts = -5000;
  for (uint64_t trace = 0; trace < 100; ++trace) {
    for (int k = 0; k < 5; ++k) {
      ts += static_cast<int64_t>(rng.NextBounded(50));
      postings.push_back(
          PairOccurrence{trace, ts, ts + 1 + static_cast<int64_t>(
                                             rng.NextBounded(100))});
    }
  }
  std::string encoded;
  EncodePostingBlocks(postings, 64, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  EXPECT_GT(refs.size(), 10u);
  std::vector<PairOccurrence> decoded;
  ASSERT_TRUE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_EQ(decoded, postings);
}

TEST(PostingBlocksTest, MaxDeltaTracesRoundTrip) {
  // Extreme trace-id spread within one block: deltas up to 2^64 - 1.
  std::vector<PairOccurrence> postings{
      {0, 1, 2},
      {1, 5, 9},
      {std::numeric_limits<uint64_t>::max() - 1, -10, 10},
      {std::numeric_limits<uint64_t>::max(), 100, 200},
  };
  EXPECT_EQ(RoundTrip(postings, kDefaultPostingBlockBytes), postings);
}

TEST(PostingBlocksTest, HeadersDescribeBlocks) {
  std::vector<PairOccurrence> postings{
      {10, -7, 3}, {10, 5, 8}, {20, 1, 90}, {30, 2, 4}};
  std::string encoded;
  EncodePostingBlocks(postings, kDefaultPostingBlockBytes, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].header.min_trace, 10u);
  EXPECT_EQ(refs[0].header.max_trace, 30u);
  EXPECT_EQ(refs[0].header.min_ts, -7);
  EXPECT_EQ(refs[0].header.max_ts, 90);
  EXPECT_EQ(refs[0].header.count, 4u);
}

TEST(PostingBlocksTest, GroupAndBlockBoundaryCountsRoundTrip) {
  // 128 postings fill one FOR group, 341 one block at the default target:
  // counts on both sides of each boundary.
  ASSERT_EQ(PostingsPerBlock(kDefaultPostingBlockBytes), 341u);
  for (size_t count : {1, 127, 128, 129, 341, 342}) {
    std::vector<PairOccurrence> postings;
    int64_t ts = 1700000000000;
    for (size_t i = 0; i < count; ++i) {
      ts += 250 + static_cast<int64_t>(i % 17);
      postings.push_back(PairOccurrence{3 + i / 4, ts,
                                        ts + static_cast<int64_t>(i % 9)});
    }
    std::string encoded;
    EncodePostingBlocks(postings, kDefaultPostingBlockBytes, &encoded);
    std::vector<PostingBlockRef> refs;
    ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
    EXPECT_EQ(refs.size(), (count + 340) / 341) << count;
    std::vector<PairOccurrence> decoded;
    ASSERT_TRUE(DecodeBlockedPostings(encoded, &decoded)) << count;
    EXPECT_EQ(decoded, postings) << count;
  }
}

TEST(PostingBlocksTest, ExtremeColumnWidthsRoundTrip) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  // Width 0: every column constant (one trace, fixed gaps and duration).
  std::vector<PairOccurrence> constant;
  for (int64_t i = 0; i < 300; ++i) {
    constant.push_back(PairOccurrence{5, 1000 + 10 * i, 1010 + 10 * i});
  }
  EXPECT_EQ(RoundTrip(constant, kDefaultPostingBlockBytes), constant);
  // Width 64 in every column: timestamps at the int64 limits, trace
  // deltas near 2^63, zero and full-range durations.
  std::vector<PairOccurrence> extreme{
      {0, kMin, kMin},
      {1, kMin, kMax},
      {kHalf - 1, kMax, kMax},
      {kHalf, kMin, kMin + 1},
      {kHalf + 3, 0, kMax},
      {std::numeric_limits<uint64_t>::max(), kMax, kMax},
  };
  EXPECT_EQ(RoundTrip(extreme, kDefaultPostingBlockBytes), extreme);
  EXPECT_EQ(RoundTrip(extreme, 1), extreme);  // one posting per block
  // Epoch-ms timestamps across traces next to in-trace gaps.
  std::vector<PairOccurrence> epoch;
  Rng rng(11);
  int64_t ts = 1700000000000;
  for (uint64_t trace = 10; trace < 400; trace += 1 + rng.NextBounded(3)) {
    for (int k = 0; k < 3; ++k) {
      ts += static_cast<int64_t>(rng.NextBounded(100000));
      epoch.push_back(PairOccurrence{
          trace, ts, ts + static_cast<int64_t>(rng.NextBounded(1u << 30))});
    }
  }
  EXPECT_EQ(RoundTrip(epoch, kDefaultPostingBlockBytes), epoch);
}

TEST(PostingBlocksTest, EpochMsValueIsMuchSmallerThanFlat) {
  // The compression the storage layer used to add now lives in the value
  // itself: epoch-ms postings must encode to well under half the retired
  // flat encoding of the same postings (per posting: varint trace, zigzag
  // varint ts_first, varint duration). That encoding of exactly these
  // 3,000 postings took kFlatBytes bytes, measured with the flat encoder
  // before it was deleted.
  constexpr size_t kFlatBytes = 26800;
  std::vector<PairOccurrence> postings;
  uint64_t trace = 7;
  int64_t ts = 1700000000000;
  for (int i = 0; i < 3000; ++i) {
    trace += (i % 5 == 0) ? 3 : 0;
    ts += 1000 + (i % 97);
    postings.push_back(PairOccurrence{trace, ts, ts + 40 + i % 13});
  }
  std::string blocked;
  PairIndexTable::EncodeValue(postings, &blocked);
  EXPECT_LT(blocked.size() * 2, kFlatBytes) << "blocked=" << blocked.size();
  std::vector<PairOccurrence> decoded;
  ASSERT_TRUE(DecodeBlockedPostings(blocked, &decoded));
  EXPECT_EQ(decoded, postings);
}

// ---------------------------------------------------------------------------
// Corruption: every decoder must leave its output empty on failure
// ---------------------------------------------------------------------------

TEST(PostingBlocksTest, CorruptedBlockedValueClearsOutput) {
  std::vector<PairOccurrence> postings{{1, 2, 3}, {4, 5, 6}};
  std::string encoded;
  EncodePostingBlocks(postings, kDefaultPostingBlockBytes, &encoded);
  encoded.resize(encoded.size() - 1);  // truncate inside the payload
  std::vector<PairOccurrence> decoded;
  EXPECT_FALSE(DecodeBlockedPostings(encoded, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(SeqTableTest, CorruptedEventsClearOutput) {
  std::string value;
  SeqTable::EncodeEvents({{1, 10}, {2, 20}}, &value);
  value.resize(value.size() - 1);
  std::vector<eventlog::Event> decoded;
  EXPECT_FALSE(SeqTable::DecodeEvents(value, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(PairIndexTableTest, CorruptedStoredValueSurfacesAsCorruption) {
  auto db = InMemoryDb();
  PairIndexTable index(*db->GetOrCreateTable("index"));
  EventTypePair pair{1, 2};
  ASSERT_TRUE(index.table()
                  ->Put(PairIndexTable::EncodeKey(pair), "\x07garbage")
                  .ok());
  auto postings = index.Get(pair);
  EXPECT_FALSE(postings.ok());
}

// ---------------------------------------------------------------------------
// TraceIntervalSet
// ---------------------------------------------------------------------------

TEST(TraceIntervalSetTest, MergesOverlappingAndAdjacent) {
  auto set = TraceIntervalSet::FromIntervals(
      {{5, 9}, {1, 3}, {4, 6}, {20, 30}, {31, 35}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], (TraceInterval{1, 9}));
  EXPECT_EQ(set.intervals()[1], (TraceInterval{20, 35}));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Contains(9));
  EXPECT_FALSE(set.Contains(10));
  EXPECT_TRUE(set.Overlaps(10, 25));
  EXPECT_FALSE(set.Overlaps(10, 19));
}

TEST(TraceIntervalSetTest, IntersectIsSetIntersection) {
  auto a = TraceIntervalSet::FromIntervals({{0, 10}, {20, 30}});
  auto b = TraceIntervalSet::FromIntervals({{5, 25}});
  auto both = TraceIntervalSet::Intersect(a, b);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both.intervals()[0], (TraceInterval{5, 10}));
  EXPECT_EQ(both.intervals()[1], (TraceInterval{20, 25}));

  auto empty = TraceIntervalSet::Intersect(
      TraceIntervalSet::FromIntervals({{0, 4}}),
      TraceIntervalSet::FromIntervals({{5, 9}}));
  EXPECT_TRUE(empty.empty());
}

TEST(TraceIntervalSetTest, AllIsUnbounded) {
  auto all = TraceIntervalSet::All();
  EXPECT_TRUE(all.IsAll());
  EXPECT_TRUE(all.Contains(std::numeric_limits<uint64_t>::max()));
  auto narrowed = TraceIntervalSet::Intersect(
      all, TraceIntervalSet::FromIntervals({{3, 7}}));
  EXPECT_FALSE(narrowed.IsAll());
  EXPECT_TRUE(narrowed.Contains(5));
}

// ---------------------------------------------------------------------------
// Index-level: format refusal, fold, filtered reads
// ---------------------------------------------------------------------------

EventLog SkewedLog(size_t traces) {
  // Every trace completes (A, B); only every 16th trace contains the rare
  // R before them — the trace-selective shape the block skip serves.
  EventLog log;
  for (size_t t = 0; t < traces; ++t) {
    int64_t ts = static_cast<int64_t>(t) * 100;
    if (t % 16 == 0) log.Append(t, "R", ts);
    log.Append(t, "A", ts + 1);
    log.Append(t, "B", ts + 2);
    log.Append(t, "A", ts + 3);
    log.Append(t, "B", ts + 4);
  }
  log.SortAllTraces();
  return log;
}

std::vector<query::PatternMatch> DetectAB(const SequenceIndex& index) {
  query::QueryProcessor qp(&index);
  query::Pattern ab(
      {index.dictionary().Lookup("A"), index.dictionary().Lookup("B")});
  auto matches = qp.Detect(ab);
  EXPECT_TRUE(matches.ok()) << matches.status();
  return matches.ok() ? *matches : std::vector<query::PatternMatch>{};
}

TEST(PostingFormatTest, FreshIndexDefaultsToBlocked) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  std::string value;
  ASSERT_TRUE(db->GetTable("meta")->Get("posting_format", &value).ok());
  std::string expected;
  PutVarint64(&expected, kPostingFormatBlocked);
  EXPECT_EQ(value, expected);
}

TEST(PostingFormatTest, RetiredVarintBlockFormatRefusesToOpen) {
  // The meta table rewritten the way older builds left it. Formats 1 (flat
  // varint postings; also what a missing key means on an index that
  // already has a shard_count) and 2 (varint block payloads) are refused
  // with a rebuild hint.
  auto db = InMemoryDb();
  std::vector<query::PatternMatch> expected;
  {
    auto index = SequenceIndex::Open(db.get(), SingleThreaded());
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Update(SkewedLog(32)).ok());
    expected = DetectAB(**index);
    ASSERT_FALSE(expected.empty());
  }
  storage::Table* meta = db->GetTable("meta");
  ASSERT_NE(meta, nullptr);
  auto put_format = [meta](uint64_t format) {
    std::string value;
    PutVarint64(&value, format);
    ASSERT_TRUE(meta->Put("posting_format", value).ok());
  };
  auto expect_refused = [&db](const char* what) {
    auto index = SequenceIndex::Open(db.get(), SingleThreaded());
    ASSERT_FALSE(index.ok()) << what;
    EXPECT_TRUE(index.status().IsUnsupported())
        << what << ": " << index.status();
    EXPECT_NE(index.status().ToString().find("rebuild"), std::string::npos)
        << what << ": " << index.status();
  };
  put_format(2);
  expect_refused("posting_format 2");
  put_format(1);
  expect_refused("posting_format 1");
  ASSERT_TRUE(meta->Delete("posting_format").ok());
  expect_refused("no posting_format key");

  // A value that does not decode is corruption, not a retired format.
  ASSERT_TRUE(meta->Put("posting_format", std::string("\x80", 1)).ok());
  {
    auto index = SequenceIndex::Open(db.get(), SingleThreaded());
    ASSERT_FALSE(index.ok());
    EXPECT_TRUE(index.status().IsCorruption()) << index.status();
  }

  // A posting_upgrade marker beside format 3 can only be left by an
  // upgrade that completed: it is ignored.
  put_format(kPostingFormatBlocked);
  ASSERT_TRUE(meta->Put("posting_upgrade", "1").ok());
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(DetectAB(**index), expected);
}

TEST(PostingFormatTest, FoldedIndexStaysConsistent) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.posting_block_bytes = 128;  // force multi-block values
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SkewedLog(200);
  ASSERT_TRUE((*index)->Update(log).ok());

  query::QueryProcessor qp(index->get());
  query::Pattern ab({(*index)->dictionary().Lookup("A"),
                     (*index)->dictionary().Lookup("B")});
  auto before = qp.Detect(ab);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE((*index)->FoldPostings().ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();

  auto after = qp.Detect(ab);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST(PostingFormatTest, FilteredReadEquivalence) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.posting_block_bytes = 64;
  // No read cache: a cached whole list is served as a (valid) superset,
  // which would hide the block-skip path this test is about.
  options.cache_bytes = 0;
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SkewedLog(300);
  ASSERT_TRUE((*index)->Update(log).ok());
  ASSERT_TRUE((*index)->FoldPostings().ok());

  eventlog::ActivityId a = (*index)->dictionary().Lookup("A");
  eventlog::ActivityId b = (*index)->dictionary().Lookup("B");
  EventTypePair pair{a, b};
  auto full = (*index)->GetPairPostings(pair);
  ASSERT_TRUE(full.ok());

  // Unbounded candidates reproduce the full list.
  auto all = (*index)->GetPairPostingsFiltered(pair, TraceIntervalSet::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(**all, *full);

  // A narrow candidate set returns a sorted superset of its traces'
  // postings and skips blocks.
  auto candidates = TraceIntervalSet::FromIntervals({{32, 32}, {160, 160}});
  auto filtered = (*index)->GetPairPostingsFiltered(pair, candidates);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT((*filtered)->size(), full->size());
  EXPECT_TRUE(std::is_sorted((*filtered)->begin(), (*filtered)->end()));
  std::vector<PairOccurrence> expected, got;
  for (const PairOccurrence& p : *full) {
    if (candidates.Contains(p.trace)) expected.push_back(p);
  }
  for (const PairOccurrence& p : **filtered) {
    if (candidates.Contains(p.trace)) got.push_back(p);
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT((*index)->read_stats().blocks_skipped, 0u);
}

TEST(PostingFormatTest, SelectiveDetectMatchesUnprunedResults) {
  // The same skewed log folded into small blocks and into one block per
  // pair: the pruned join must return exactly what the join that cannot
  // skip any block returns.
  EventLog log = SkewedLog(256);
  auto build = [&log](size_t block_bytes,
                      std::unique_ptr<storage::Database>* db)
      -> std::unique_ptr<SequenceIndex> {
    *db = InMemoryDb();
    IndexOptions options;
    options.num_threads = 1;
    options.posting_block_bytes = block_bytes;
    auto index = SequenceIndex::Open(db->get(), options);
    EXPECT_TRUE(index.ok());
    EXPECT_TRUE((*index)->Update(log).ok());
    EXPECT_TRUE((*index)->FoldPostings().ok());
    return std::move(index).value();
  };
  std::unique_ptr<storage::Database> db1, db2;
  auto unpruned = build(size_t{1} << 40, &db1);
  auto v2 = build(64, &db2);

  query::QueryProcessor qp1(unpruned.get());
  query::QueryProcessor qp2(v2.get());
  eventlog::ActivityId r = v2->dictionary().Lookup("R");
  eventlog::ActivityId a = v2->dictionary().Lookup("A");
  eventlog::ActivityId b = v2->dictionary().Lookup("B");
  for (const query::Pattern& pattern :
       {query::Pattern({r, a, b}), query::Pattern({a, b, a}),
        query::Pattern({a, b, a, b})}) {
    auto lhs = qp1.Detect(pattern);
    auto rhs = qp2.Detect(pattern);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rhs.ok());
    auto sort_matches = [](std::vector<query::PatternMatch>* m) {
      std::sort(m->begin(), m->end(),
                [](const query::PatternMatch& x,
                   const query::PatternMatch& y) {
                  return std::tie(x.trace, x.timestamps) <
                         std::tie(y.trace, y.timestamps);
                });
    };
    sort_matches(&*lhs);
    sort_matches(&*rhs);
    EXPECT_EQ(*lhs, *rhs);
  }
  // The rare-anchored pattern must actually have skipped blocks of the
  // hot (A,B) list, and the reference none.
  EXPECT_GT(v2->read_stats().blocks_skipped, 0u);
  EXPECT_EQ(unpruned->read_stats().blocks_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Randomized codec properties (satellite of the differential-test PR):
// encode -> append fragments -> fold -> decode round trips, and clean
// failure on truncated / corrupted values. Seeds are fixed so failures
// reproduce; bump kRounds locally for a longer fuzz session.
// ---------------------------------------------------------------------------

namespace {

// A heap copy of `bytes` with no slack after the last byte, so a decoder
// that reads past the value trips ASan (a std::string's spare capacity
// would hide such a read).
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : data_(new char[bytes.size()]), size_(bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), data_.get());
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  size_t size_;
};

std::vector<PairOccurrence> RandomPostings(Rng* rng, size_t count) {
  std::vector<PairOccurrence> postings(count);
  for (auto& p : postings) {
    p.trace = rng->NextBounded(200);
    p.ts_first = rng->NextInRange(0, 100000);
    p.ts_second = p.ts_first + rng->NextInRange(0, 5000);
  }
  std::sort(postings.begin(), postings.end());
  return postings;
}

}  // namespace

TEST(PostingBlocksPropertyTest, RandomRoundTripAnyBlockSize) {
  constexpr int kRounds = 200;
  Rng rng(20210323);
  for (int round = 0; round < kRounds; ++round) {
    size_t count = static_cast<size_t>(rng.NextInRange(0, 400));
    auto postings = RandomPostings(&rng, count);
    // Target sizes below one posting exercise the clamp to 1/block.
    size_t target = static_cast<size_t>(rng.NextInRange(1, 512));
    std::string encoded;
    EncodePostingBlocks(postings, target, &encoded);
    std::vector<PairOccurrence> decoded;
    ASSERT_TRUE(DecodeBlockedPostings(encoded, &decoded)) << "round " << round;
    ASSERT_EQ(decoded, postings) << "round " << round << " target " << target;
  }
}

TEST(PostingBlocksPropertyTest, FragmentPileThenFoldRoundTrip) {
  constexpr int kRounds = 100;
  Rng rng(987654321);
  for (int round = 0; round < kRounds; ++round) {
    // Simulate the write path: several independently sorted fragments
    // appended to one value (what Update() produces across batches)...
    std::string value;
    std::vector<PairOccurrence> all;
    size_t fragments = static_cast<size_t>(rng.NextInRange(1, 8));
    for (size_t f = 0; f < fragments; ++f) {
      auto fragment =
          RandomPostings(&rng, static_cast<size_t>(rng.NextInRange(1, 60)));
      EncodePostingBlocks(fragment, 64, &value);
      all.insert(all.end(), fragment.begin(), fragment.end());
    }
    // ...the pile must decode to the concatenation (per-fragment order)...
    std::vector<PairOccurrence> decoded;
    ASSERT_TRUE(DecodeBlockedPostings(value, &decoded));
    ASSERT_EQ(decoded.size(), all.size());
    // ...and folding (sort + re-encode, what FoldAll commits) must round
    // trip to the globally sorted multiset.
    std::sort(all.begin(), all.end());
    std::string folded;
    EncodePostingBlocks(all, 128, &folded);
    decoded.clear();
    ASSERT_TRUE(DecodeBlockedPostings(folded, &decoded));
    ASSERT_EQ(decoded, all) << "round " << round;
  }
}

TEST(PostingBlocksPropertyTest, TruncationFailsCleanlyOrYieldsPrefix) {
  Rng rng(5551212);
  auto postings = RandomPostings(&rng, 120);
  std::string encoded;
  EncodePostingBlocks(postings, 96, &encoded);
  std::vector<PostingBlockRef> refs;
  ASSERT_TRUE(ParsePostingBlockRefs(encoded, &refs));
  ASSERT_GT(refs.size(), 1u);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    ExactBuffer buffer(std::string_view(encoded.data(), cut));
    std::string_view prefix = buffer.view();
    // Pre-filled with a sentinel: a failed decode must clear it; a
    // successful decode appends after it (the decoder's append contract).
    std::vector<PairOccurrence> decoded{{1, 2, 3}};
    bool ok = DecodeBlockedPostings(prefix, &decoded);
    bool at_block_boundary = cut == 0;
    for (const PostingBlockRef& ref : refs) {
      if (cut == ref.payload_offset + ref.header.byte_len) {
        at_block_boundary = true;
      }
    }
    if (at_block_boundary) {
      // A prefix ending exactly between blocks is itself a valid value (a
      // shorter fragment pile) and decodes to a posting prefix.
      EXPECT_TRUE(ok) << "cut " << cut;
      ASSERT_GE(decoded.size(), 1u);
      EXPECT_EQ(decoded.front(), (PairOccurrence{1, 2, 3}));
      EXPECT_TRUE(std::equal(decoded.begin() + 1, decoded.end(),
                             postings.begin()))
          << "cut " << cut;
    } else {
      EXPECT_FALSE(ok) << "cut " << cut;
      EXPECT_TRUE(decoded.empty()) << "failed decode must clear output";
      std::vector<PostingBlockRef> truncated_refs{{}};
      EXPECT_FALSE(ParsePostingBlockRefs(prefix, &truncated_refs));
      EXPECT_TRUE(truncated_refs.empty());
    }
  }
}

TEST(PostingBlocksPropertyTest, RandomCorruptionNeverCrashes) {
  constexpr int kRounds = 300;
  Rng rng(424242);
  auto postings = RandomPostings(&rng, 150);
  std::string pristine;
  EncodePostingBlocks(postings, 128, &pristine);
  int accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::string mutated = pristine;
    size_t flips = static_cast<size_t>(rng.NextInRange(1, 8));
    for (size_t i = 0; i < flips; ++i) {
      size_t pos = static_cast<size_t>(rng.NextBounded(mutated.size()));
      mutated[pos] = static_cast<char>(mutated[pos] ^
                                       (1u << rng.NextBounded(8)));
    }
    // Decoding must either reject (clearing the output) or produce a
    // structurally valid result — a flip inside packed bits can decode to
    // other in-range values, which only a checksum could catch — and it
    // must never crash or read past the value (ASan/UBSan cover the
    // latter in check_all.sh and CI).
    ExactBuffer buffer(mutated);
    std::vector<PairOccurrence> decoded{{7, 8, 9}};
    if (DecodeBlockedPostings(buffer.view(), &decoded)) {
      ++accepted;
    } else {
      EXPECT_TRUE(decoded.empty()) << "round " << round;
    }
    std::vector<PostingBlockRef> refs{{}};
    if (!ParsePostingBlockRefs(buffer.view(), &refs)) {
      EXPECT_TRUE(refs.empty()) << "round " << round;
    }
  }
  // The structural checks (exact payload length, last trace == max_trace)
  // catch most damage: everything but flips inside the ts and duration
  // bits.
  EXPECT_LT(accepted, kRounds / 2);
}

TEST(PostingBlocksPropertyTest, RandomGarbageNeverCrashes) {
  constexpr int kRounds = 500;
  Rng rng(31337);
  for (int round = 0; round < kRounds; ++round) {
    std::string garbage(static_cast<size_t>(rng.NextInRange(1, 300)), 0);
    for (auto& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    ExactBuffer buffer(garbage);
    std::vector<PairOccurrence> decoded{{1, 1, 1}};
    if (!DecodeBlockedPostings(buffer.view(), &decoded)) {
      EXPECT_TRUE(decoded.empty());
    }
  }
}

}  // namespace
}  // namespace seqdet::index
