#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "index/index_tables.h"
#include "index/sequence_index.h"
#include "storage/database.h"

namespace seqdet::index {
namespace {

using eventlog::Event;
using eventlog::EventLog;
using eventlog::Timestamp;
using eventlog::Trace;

namespace fs = std::filesystem;

std::unique_ptr<storage::Database> InMemoryDb() {
  storage::DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = storage::Database::Open("", options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// ---------------------------------------------------------------------------
// Table wrappers
// ---------------------------------------------------------------------------

TEST(SeqTableTest, AppendAndGet) {
  auto db = InMemoryDb();
  SeqTable seq(*db->GetOrCreateTable("seq"));
  storage::WriteBatch batch;
  seq.StageAppend(7, {{0, 1}, {1, 2}}, &batch);
  ASSERT_TRUE(seq.table()->Apply(batch).ok());
  batch.Clear();
  seq.StageAppend(7, {{2, 3}}, &batch);
  ASSERT_TRUE(seq.table()->Apply(batch).ok());

  auto events = seq.Get(7);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[2].activity, 2u);
  EXPECT_EQ((*events)[2].ts, 3);

  auto missing = seq.Get(99);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

TEST(SeqTableTest, DeleteRemovesTrace) {
  auto db = InMemoryDb();
  SeqTable seq(*db->GetOrCreateTable("seq"));
  storage::WriteBatch batch;
  seq.StageAppend(7, {{0, 1}}, &batch);
  seq.StageDelete(7, &batch);
  ASSERT_TRUE(seq.table()->Apply(batch).ok());
  auto events = seq.Get(7);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(SeqTableTest, NegativeTimestampsSurvive) {
  auto db = InMemoryDb();
  SeqTable seq(*db->GetOrCreateTable("seq"));
  storage::WriteBatch batch;
  seq.StageAppend(1, {{0, -5000}}, &batch);
  ASSERT_TRUE(seq.table()->Apply(batch).ok());
  auto events = seq.Get(1);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ((*events)[0].ts, -5000);
}

TEST(PairIndexTableTest, PostingsSortedAcrossAppends) {
  auto db = InMemoryDb();
  PairIndexTable index(*db->GetOrCreateTable("index"));
  EventTypePair pair{3, 4};
  storage::WriteBatch batch;
  index.StageAppend(pair, {{9, 10, 20}, {9, 30, 40}}, &batch);
  index.StageAppend(pair, {{2, 5, 6}}, &batch);
  ASSERT_TRUE(index.table()->Apply(batch).ok());
  auto postings = index.Get(pair);
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ(postings->size(), 3u);
  EXPECT_EQ((*postings)[0].trace, 2u);  // sorted by (trace, ts_first)
  EXPECT_EQ((*postings)[1].trace, 9u);
  EXPECT_EQ((*postings)[1].ts_first, 10);
}

TEST(PairIndexTableTest, MissingPairIsEmpty) {
  auto db = InMemoryDb();
  PairIndexTable index(*db->GetOrCreateTable("index"));
  auto postings = index.Get(EventTypePair{1, 2});
  ASSERT_TRUE(postings.ok());
  EXPECT_TRUE(postings->empty());
}

TEST(CountTableTest, DeltasAggregate) {
  auto db = InMemoryDb();
  CountTable count(*db->GetOrCreateTable("count"));
  storage::WriteBatch batch;
  count.StageDelta(1, PairCountStats{2, 100, 4}, &batch);
  count.StageDelta(1, PairCountStats{2, 60, 2}, &batch);
  count.StageDelta(1, PairCountStats{3, 10, 1}, &batch);
  ASSERT_TRUE(count.table()->Apply(batch).ok());

  auto stats = count.Get(1);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 2u);
  // Sorted by completions desc: (1,2) has 6 completions.
  EXPECT_EQ((*stats)[0].other, 2u);
  EXPECT_EQ((*stats)[0].total_completions, 6u);
  EXPECT_EQ((*stats)[0].sum_duration, 160);
  EXPECT_NEAR((*stats)[0].AverageDuration(), 160.0 / 6, 1e-9);

  auto pair = count.GetPair(1, 3);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->total_completions, 1u);

  auto absent = count.GetPair(1, 99);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent->total_completions, 0u);
}

TEST(LastCheckedTableTest, PutOverwritesAndGet) {
  auto db = InMemoryDb();
  LastCheckedTable lc(*db->GetOrCreateTable("lastchecked"));
  EventTypePair pair{1, 2};
  storage::WriteBatch batch;
  lc.StagePut(pair, 5, 100, &batch);
  ASSERT_TRUE(lc.table()->Apply(batch).ok());
  batch.Clear();
  lc.StagePut(pair, 5, 200, &batch);
  ASSERT_TRUE(lc.table()->Apply(batch).ok());

  auto ts = lc.Get(pair, 5);
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(ts->has_value());
  EXPECT_EQ(**ts, 200);

  auto missing = lc.Get(pair, 6);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

// ---------------------------------------------------------------------------
// SequenceIndex
// ---------------------------------------------------------------------------

EventLog SmallLog() {
  // Two traces using the paper's example plus a second trace.
  EventLog log;
  log.Append(7, "A", 1);
  log.Append(7, "A", 2);
  log.Append(7, "B", 3);
  log.Append(7, "A", 4);
  log.Append(7, "B", 5);
  log.Append(7, "A", 6);
  log.Append(8, "A", 10);
  log.Append(8, "B", 20);
  log.SortAllTraces();
  return log;
}

IndexOptions SingleThreaded() {
  IndexOptions options;
  options.num_threads = 1;
  return options;
}

TEST(SequenceIndexTest, BuildsStnmIndex) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok()) << index.status();
  EventLog log = SmallLog();
  auto stats = (*index)->Update(log);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->traces_processed, 2u);
  EXPECT_EQ(stats->events_appended, 8u);
  EXPECT_EQ(stats->pairs_extracted, stats->pairs_indexed);  // fresh build

  auto ab = (*index)->GetPairPostings(EventTypePair{0, 1});  // (A,B)
  ASSERT_TRUE(ab.ok());
  ASSERT_EQ(ab->size(), 3u);  // trace7: (1,3),(4,5); trace8: (10,20)
  EXPECT_EQ((*ab)[0].trace, 7u);
  EXPECT_EQ((*ab)[0].ts_first, 1);
  EXPECT_EQ((*ab)[2].trace, 8u);

  auto followers = (*index)->GetFollowerStats(0);
  ASSERT_TRUE(followers.ok());
  ASSERT_EQ(followers->size(), 2u);  // A->A and A->B

  auto predecessors = (*index)->GetPredecessorStats(1);  // *->B
  ASSERT_TRUE(predecessors.ok());
  ASSERT_EQ(predecessors->size(), 2u);  // A->B and B->B
}

TEST(SequenceIndexTest, ScPolicy) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.policy = Policy::kStrictContiguity;
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  auto bb = (*index)->GetPairPostings(EventTypePair{1, 1});  // (B,B)
  ASSERT_TRUE(bb.ok());
  EXPECT_TRUE(bb->empty());  // no consecutive B,B anywhere
  auto aa = (*index)->GetPairPostings(EventTypePair{0, 0});
  ASSERT_TRUE(aa.ok());
  EXPECT_EQ(aa->size(), 1u);  // only (1,2) in trace 7
}

TEST(SequenceIndexTest, DuplicateBatchAddsNothing) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  auto before = (*index)->GetPairPostings(EventTypePair{0, 1});
  ASSERT_TRUE(before.ok());

  // Re-sending the same events must not duplicate postings: the trace is
  // re-extracted but every completion is at or below LastChecked.
  auto stats = (*index)->Update(log);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pairs_indexed, 0u);
  EXPECT_EQ(stats->events_appended, 0u);
  auto after = (*index)->GetPairPostings(EventTypePair{0, 1});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size());
  // The Seq table must not grow either (replays are fully idempotent).
  auto seq = (*index)->GetTraceSequence(7);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->size(), 6u);
}

TEST(SequenceIndexTest, OverlappingBatchesStayIdempotent) {
  // Batches that overlap (events 1-4, then 3-8) must index each event and
  // pair exactly once.
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog full = SmallLog();
  const Trace& trace = *full.FindTrace(7);
  EventLog batch1, batch2;
  for (size_t i = 0; i < trace.size(); ++i) {
    const std::string& name = full.dictionary().Name(trace.events[i].activity);
    if (i < 4) batch1.Append(7, name, trace.events[i].ts);
    if (i >= 2) batch2.Append(7, name, trace.events[i].ts);
  }
  batch1.SortAllTraces();
  batch2.SortAllTraces();
  ASSERT_TRUE((*index)->Update(batch1).ok());
  auto stats2 = (*index)->Update(batch2);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->events_appended, 2u);  // only events 5 and 6 are new

  auto seq = (*index)->GetTraceSequence(7);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->size(), 6u);

  // Postings equal a one-shot build.
  auto db2 = InMemoryDb();
  auto oneshot = SequenceIndex::Open(db2.get(), SingleThreaded());
  EventLog log7;
  for (const auto& e : trace.events) {
    log7.Append(7, full.dictionary().Name(e.activity), e.ts);
  }
  log7.SortAllTraces();
  ASSERT_TRUE((*oneshot)->Update(log7).ok());
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t b = 0; b < 2; ++b) {
      auto p1 = (*index)->GetPairPostings(EventTypePair{a, b});
      auto p2 = (*oneshot)->GetPairPostings(EventTypePair{a, b});
      ASSERT_TRUE(p1.ok());
      ASSERT_TRUE(p2.ok());
      EXPECT_EQ(*p1, *p2) << a << "," << b;
    }
  }
}

TEST(SequenceIndexTest, IncrementalBatchesMatchOneShot) {
  // Property: splitting a log into arbitrary timestamp-ordered batches
  // yields exactly the index a single batch build yields.
  Rng rng(2024);
  for (int round = 0; round < 8; ++round) {
    EventLog full;
    const size_t traces = 5, events_per = 30;
    for (size_t t = 0; t < traces; ++t) {
      for (size_t i = 0; i < events_per; ++i) {
        full.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(4))),
                    static_cast<Timestamp>(i + 1));
      }
    }
    full.SortAllTraces();

    auto db_one = InMemoryDb();
    auto one = SequenceIndex::Open(db_one.get(), SingleThreaded());
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE((*one)->Update(full).ok());

    auto db_inc = InMemoryDb();
    auto inc = SequenceIndex::Open(db_inc.get(), SingleThreaded());
    ASSERT_TRUE(inc.ok());
    // Split each trace at a random cut into two batches (prefix by time,
    // as periodic log arrival would).
    EventLog batch1, batch2;
    for (const Trace& trace : full.traces()) {
      size_t cut = rng.NextBounded(trace.size() + 1);
      for (size_t i = 0; i < trace.size(); ++i) {
        const std::string& name =
            full.dictionary().Name(trace.events[i].activity);
        (i < cut ? batch1 : batch2)
            .Append(trace.id, name, trace.events[i].ts);
      }
    }
    batch1.SortAllTraces();
    batch2.SortAllTraces();
    ASSERT_TRUE((*inc)->Update(batch1).ok());
    ASSERT_TRUE((*inc)->Update(batch2).ok());

    // Compare postings of every pair. Each index remaps activities into
    // its own dictionary, so resolve ids by name per index.
    for (char a = 'A'; a < 'E'; ++a) {
      for (char b = 'A'; b < 'E'; ++b) {
        EventTypePair p_one{
            (*one)->dictionary().Lookup(std::string(1, a)),
            (*one)->dictionary().Lookup(std::string(1, b))};
        EventTypePair p_inc{
            (*inc)->dictionary().Lookup(std::string(1, a)),
            (*inc)->dictionary().Lookup(std::string(1, b))};
        auto postings_one = (*one)->GetPairPostings(p_one);
        auto postings_inc = (*inc)->GetPairPostings(p_inc);
        ASSERT_TRUE(postings_one.ok());
        ASSERT_TRUE(postings_inc.ok());
        EXPECT_EQ(*postings_one, *postings_inc)
            << "round " << round << " pair " << a << "," << b;
      }
    }
  }
}

TEST(SequenceIndexTest, ParallelMatchesSingleThreaded) {
  EventLog log;
  Rng rng(5);
  for (size_t t = 0; t < 50; ++t) {
    for (size_t i = 0; i < 40; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(6))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();

  auto db1 = InMemoryDb();
  auto single = SequenceIndex::Open(db1.get(), SingleThreaded());
  ASSERT_TRUE((*single)->Update(log).ok());

  auto db2 = InMemoryDb();
  IndexOptions parallel_options;
  parallel_options.num_threads = 4;
  auto parallel = SequenceIndex::Open(db2.get(), parallel_options);
  ASSERT_TRUE((*parallel)->Update(log).ok());

  for (uint32_t a = 0; a < 6; ++a) {
    for (uint32_t b = 0; b < 6; ++b) {
      auto p1 = (*single)->GetPairPostings(EventTypePair{a, b});
      auto p2 = (*parallel)->GetPairPostings(EventTypePair{a, b});
      ASSERT_TRUE(p1.ok());
      ASSERT_TRUE(p2.ok());
      EXPECT_EQ(*p1, *p2);
    }
  }
}

TEST(SequenceIndexTest, PeriodsMergeOnRead) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog batch1;
  batch1.Append(1, "A", 1);
  batch1.Append(1, "B", 2);
  batch1.SortAllTraces();
  ASSERT_TRUE((*index)->Update(batch1).ok());
  ASSERT_TRUE((*index)->StartNewPeriod().ok());
  EXPECT_EQ((*index)->num_periods(), 2u);

  EventLog batch2;
  batch2.Append(1, "A", 3);
  batch2.Append(1, "B", 4);
  batch2.SortAllTraces();
  ASSERT_TRUE((*index)->Update(batch2).ok());

  auto ab = (*index)->GetPairPostings(EventTypePair{0, 1});
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(ab->size(), 2u);  // one posting per period, merged and sorted
  EXPECT_EQ((*ab)[0].ts_first, 1);
  EXPECT_EQ((*ab)[1].ts_first, 3);
}

TEST(ConsistencyCheckTest, CleanIndexPasses) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->violations.front();
  EXPECT_GT(report->pairs_checked, 0u);
  EXPECT_GT(report->postings_checked, 0u);
  EXPECT_EQ(report->traces_checked, 2u);
}

TEST(ConsistencyCheckTest, PrunedTraceStillPasses) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  ASSERT_TRUE((*index)->PruneTrace(7).ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();
}

TEST(ConsistencyCheckTest, CorruptedPostingDetected) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  // Forge an overlapping posting for pair (A,B) in trace 7 directly in
  // the storage layer, bypassing the builder's invariants.
  PairIndexTable forged(db->GetShardedTable("index_p0"));
  storage::WriteBatch batch;
  forged.StageAppend(EventTypePair{0, 1}, {{7, 2, 4}}, &batch);
  ASSERT_TRUE(forged.table()->Apply(batch).ok());

  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());  // overlap + Count mismatch + LastChecked
  EXPECT_GE(report->violations.size(), 2u);
}

TEST(ConsistencyCheckTest, SurvivesMultiplePeriods) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog batch1;
  batch1.Append(1, "A", 1);
  batch1.Append(1, "B", 2);
  batch1.SortAllTraces();
  ASSERT_TRUE((*index)->Update(batch1).ok());
  ASSERT_TRUE((*index)->StartNewPeriod().ok());
  EventLog batch2;
  batch2.Append(1, "A", 3);
  batch2.Append(1, "B", 4);
  batch2.SortAllTraces();
  ASSERT_TRUE((*index)->Update(batch2).ok());
  auto report = (*index)->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations.front();
}

TEST(SequenceIndexTest, CompactStatisticsPreservesCounts) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  // Several batches -> several deltas per pair.
  for (int batch = 0; batch < 4; ++batch) {
    EventLog log;
    log.Append(100 + batch, "A", 1);
    log.Append(100 + batch, "B", 3);
    log.Append(100 + batch, "A", 7);
    log.SortAllTraces();
    ASSERT_TRUE((*index)->Update(log).ok());
  }
  auto before = (*index)->GetFollowerStats(0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*index)->CompactStatistics().ok());
  auto after = (*index)->GetFollowerStats(0);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].other, (*after)[i].other);
    EXPECT_EQ((*before)[i].total_completions, (*after)[i].total_completions);
    EXPECT_EQ((*before)[i].sum_duration, (*after)[i].sum_duration);
  }
  auto reverse = (*index)->GetPredecessorStats(1);
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(reverse->empty());
}

TEST(SequenceIndexTest, PairLastCompletionSpansTraces) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();  // (A,B) completes at 3, 5 (trace 7), 20 (8)
  ASSERT_TRUE((*index)->Update(log).ok());
  auto last = (*index)->GetPairLastCompletion(EventTypePair{0, 1});
  ASSERT_TRUE(last.ok());
  ASSERT_TRUE(last->has_value());
  EXPECT_EQ(**last, 20);
  auto absent = (*index)->GetPairLastCompletion(EventTypePair{5, 9});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
}

TEST(SequenceIndexTest, PruneTraceRemovesSeqAndLastChecked) {
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());

  ASSERT_TRUE((*index)->PruneTrace(7).ok());
  auto seq = (*index)->GetTraceSequence(7);
  ASSERT_TRUE(seq.ok());
  EXPECT_TRUE(seq->empty());
  auto lc = (*index)->GetLastCompletion(EventTypePair{0, 1}, 7);
  ASSERT_TRUE(lc.ok());
  EXPECT_FALSE(lc->has_value());

  // Index postings survive pruning (queries still work, §3.1.3).
  auto ab = (*index)->GetPairPostings(EventTypePair{0, 1});
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(ab->size(), 3u);
}

TEST(SequenceIndexTest, PersistsAcrossReopen) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() /
             ("seqdet_index_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    auto db = storage::Database::Open(dir.string());
    ASSERT_TRUE(db.ok());
    auto index = SequenceIndex::Open(db->get(), SingleThreaded());
    ASSERT_TRUE(index.ok()) << index.status();
    EventLog log = SmallLog();
    ASSERT_TRUE((*index)->Update(log).ok());
    ASSERT_TRUE((*index)->StartNewPeriod().ok());
    ASSERT_TRUE((*index)->Flush().ok());
  }
  {
    auto db = storage::Database::Open(dir.string());
    ASSERT_TRUE(db.ok());
    auto index = SequenceIndex::Open(db->get(), SingleThreaded());
    ASSERT_TRUE(index.ok()) << index.status();
    EXPECT_EQ((*index)->num_periods(), 2u);
    auto ab = (*index)->GetPairPostings(EventTypePair{0, 1});
    ASSERT_TRUE(ab.ok());
    EXPECT_EQ(ab->size(), 3u);
    auto seq = (*index)->GetTraceSequence(7);
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(seq->size(), 6u);
  }
  fs::remove_all(dir);
}

TEST(SequenceIndexTest, DisabledTablesReportUnsupported) {
  auto db = InMemoryDb();
  IndexOptions options = SingleThreaded();
  options.maintain_counts = false;
  options.maintain_seq = false;
  options.maintain_last_checked = false;
  auto index = SequenceIndex::Open(db.get(), options);
  ASSERT_TRUE(index.ok());
  EventLog log = SmallLog();
  ASSERT_TRUE((*index)->Update(log).ok());
  EXPECT_TRUE((*index)->GetFollowerStats(0).status().IsUnsupported());
  EXPECT_TRUE((*index)->GetTraceSequence(7).status().IsUnsupported());
  EXPECT_TRUE((*index)
                  ->GetLastCompletion(EventTypePair{0, 1}, 7)
                  .status()
                  .IsUnsupported());
  EXPECT_TRUE((*index)->PruneTrace(7).IsUnsupported());
  // The inverted index itself still works.
  auto ab = (*index)->GetPairPostings(EventTypePair{0, 1});
  ASSERT_TRUE(ab.ok());
  EXPECT_FALSE(ab->empty());
}

TEST(SequenceIndexTest, CountsMatchPostings) {
  // Property: Count-table totals equal the posting-list lengths.
  Rng rng(12);
  EventLog log;
  for (size_t t = 0; t < 20; ++t) {
    for (size_t i = 0; i < 25; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(5))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();
  auto db = InMemoryDb();
  auto index = SequenceIndex::Open(db.get(), SingleThreaded());
  ASSERT_TRUE((*index)->Update(log).ok());
  for (uint32_t a = 0; a < 5; ++a) {
    auto followers = (*index)->GetFollowerStats(a);
    ASSERT_TRUE(followers.ok());
    uint64_t total_from_counts = 0;
    for (const auto& f : *followers) {
      auto postings = (*index)->GetPairPostings(EventTypePair{a, f.other});
      ASSERT_TRUE(postings.ok());
      EXPECT_EQ(postings->size(), f.total_completions);
      total_from_counts += f.total_completions;
      // Durations must also agree.
      int64_t sum = 0;
      for (const auto& p : *postings) sum += p.ts_second - p.ts_first;
      EXPECT_EQ(sum, f.sum_duration);
    }
    EXPECT_GT(total_from_counts, 0u);
  }
}

// ---------------------------------------------------------------------------
// Maintenance service (auto-fold + compaction scheduler)
// ---------------------------------------------------------------------------

EventLog SmallRandomLog(uint64_t seed, size_t traces = 30) {
  EventLog log;
  Rng rng(seed);
  for (size_t t = 0; t < traces; ++t) {
    Timestamp ts = 0;
    size_t len = static_cast<size_t>(rng.NextInRange(5, 25));
    for (size_t i = 0; i < len; ++i) {
      ts += rng.NextInRange(1, 5);
      log.Append(t, std::string("m").append(std::to_string(rng.NextBounded(5))),
                 ts);
    }
  }
  log.SortAllTraces();
  return log;
}

TEST(MaintenanceServiceTest, AutoFoldTriggersAndQuiesces) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_NE(index->maintenance(), nullptr);
  EXPECT_TRUE(index->maintenance_stats().enabled);
  EXPECT_TRUE(index->maintenance_stats().running);

  ASSERT_TRUE(index->Update(SmallRandomLog(1)).ok());
  ASSERT_TRUE(index->maintenance()->WaitIdle(/*timeout_ms=*/10000));

  MaintenanceStats stats = index->maintenance_stats();
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.folds_run, 0u);
  EXPECT_EQ(stats.errors, 0u) << stats.last_error;
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.pending_bytes, 0u);
  // Everything the service folded is really folded on disk.
  auto frag = index->PostingFragmentationStats();
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->fragmented_keys, 0u);

  index->maintenance()->Stop();
  EXPECT_FALSE(index->maintenance_stats().running);
  index->maintenance()->Stop();  // idempotent
}

TEST(MaintenanceServiceTest, ConcurrentStopJoinsExactlyOnce) {
  // Regression test for a latent defect surfaced by the static-discipline
  // audit: Stop() used to let every concurrent caller reach loop_.get() —
  // running_ only went false after the join, so a second Stop() racing
  // the first (e.g. the dtor racing an explicit Stop()) passed the
  // running_ check and called get() on an already-consumed future,
  // throwing std::future_error. The fixed Stop() claims the future under
  // mu_, so exactly one caller joins and the rest wait for it.
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 1;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  auto* service = index->maintenance();
  ASSERT_NE(service, nullptr);

  constexpr int kRounds = 8;
  constexpr int kStoppers = 8;
  for (int round = 0; round < kRounds; ++round) {
    service->Start();
    service->Kick();
    std::atomic<bool> go{false};
    std::vector<std::thread> stoppers;
    stoppers.reserve(kStoppers);
    for (int i = 0; i < kStoppers; ++i) {
      stoppers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        service->Stop();  // the old version could throw std::future_error
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : stoppers) t.join();
    // Every Stop() returned only after the loop really exited.
    EXPECT_FALSE(index->maintenance_stats().running);
  }
}

TEST(MaintenanceServiceTest, BelowThresholdsServiceStaysIdle) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  // Thresholds far above what the tiny log stages.
  options.maintenance.min_pending_bytes = 1u << 30;
  options.maintenance.min_pending_ops = 1u << 30;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_TRUE(index->Update(SmallRandomLog(2)).ok());
  index->maintenance()->Kick();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  MaintenanceStats stats = index->maintenance_stats();
  EXPECT_EQ(stats.folds_run, 0u);
  EXPECT_GT(stats.pending_bytes, 0u);  // load is tracked, just under limit
}

TEST(MaintenanceServiceTest, SeedsPendingLoadFromDiskFragmentation) {
  // An index built *without* the service, then reopened with auto_fold,
  // must fold its pre-existing fragments (the pending counters are
  // process-local, so Open seeds them from the header scan).
  fs::path dir = fs::temp_directory_path() /
                 ("seqdet_maint_seed_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    auto db = std::move(storage::Database::Open(dir.string())).value();
    IndexOptions options;
    options.num_threads = 1;
    auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
    ASSERT_TRUE(index->Update(SmallRandomLog(3)).ok());
    ASSERT_TRUE(index->Flush().ok());
    auto frag = index->PostingFragmentationStats();
    ASSERT_TRUE(frag.ok());
    ASSERT_GT(frag->fragmented_keys, 0u);
  }
  {
    auto db = std::move(storage::Database::Open(dir.string())).value();
    IndexOptions options;
    options.num_threads = 1;
    options.maintenance.auto_fold = true;
    options.maintenance.check_interval_ms = 5;
    options.maintenance.min_pending_bytes = 1;
    options.maintenance.min_pending_ops = 1;
    auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
    ASSERT_TRUE(index->maintenance()->WaitIdle(/*timeout_ms=*/10000));
    auto frag = index->PostingFragmentationStats();
    ASSERT_TRUE(frag.ok());
    EXPECT_EQ(frag->fragmented_keys, 0u);
  }
  fs::remove_all(dir);
}

TEST(MaintenanceServiceTest, RateLimitedFoldStillCompletes) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  // Generous enough to finish fast, small enough that the pace path runs.
  options.maintenance.rate_limit_bytes_per_sec = 4u << 20;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_TRUE(index->Update(SmallRandomLog(4)).ok());
  ASSERT_TRUE(index->maintenance()->WaitIdle(/*timeout_ms=*/30000));
  MaintenanceStats stats = index->maintenance_stats();
  EXPECT_GT(stats.folds_run, 0u);
  EXPECT_EQ(stats.errors, 0u) << stats.last_error;
}

TEST(MaintenanceServiceTest, StopMidFoldAbortsCleanly) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 1;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  // Throttle hard so Stop() lands while a fold pass is still pacing.
  options.maintenance.rate_limit_bytes_per_sec = 1024;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_TRUE(index->Update(SmallRandomLog(5)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  index->maintenance()->Stop();  // must not hang on the rate limiter
  MaintenanceStats stats = index->maintenance_stats();
  EXPECT_FALSE(stats.running);
  EXPECT_EQ(stats.errors, 0u) << stats.last_error;  // Aborted != error
  // The index remains consistent whatever the service got through.
  auto report = index->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
}

TEST(MaintenanceServiceTest, NoServiceStatsAreZeroButPendingTracked) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  EXPECT_EQ(index->maintenance(), nullptr);
  ASSERT_TRUE(index->Update(SmallRandomLog(6)).ok());
  MaintenanceStats stats = index->maintenance_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_FALSE(stats.running);
  EXPECT_EQ(stats.folds_run, 0u);
  EXPECT_GT(stats.pending_bytes, 0u);
  EXPECT_GT(stats.queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent observability: every stats surface must be safely readable
// while queries decode postings on other threads (the counters are
// atomics; this test is the TSan witness).
// ---------------------------------------------------------------------------

TEST(ReadStatsConcurrencyTest, StatsReadableWhileQueriesRun) {
  auto db = InMemoryDb();
  IndexOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;  // every read decodes, maximizing counter traffic
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_TRUE(index->Update(SmallRandomLog(7, /*traces=*/50)).ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (eventlog::ActivityId a = 0; a < 5; ++a) {
        for (eventlog::ActivityId b = 0; b < 5; ++b) {
          auto postings = index->GetPairPostings({a, b});
          ASSERT_TRUE(postings.ok());
        }
      }
    }
  });
  std::thread poller([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      IndexReadStats stats = index->read_stats();
      EXPECT_GE(stats.postings_decoded, last);  // monotone
      last = stats.postings_decoded;
      (void)index->cache_stats();
      (void)index->maintenance_stats();
      (void)index->pending_fold_load();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  poller.join();
  EXPECT_GT(index->read_stats().postings_decoded, 0u);
}

}  // namespace
}  // namespace seqdet::index
