// Concurrency stress: one writer appending trace batches, reader threads
// running DetectBatch, a stats poller, and the background maintenance
// service folding aggressively — all against one in-memory index. Run it
// under TSan (tools/check_tsan.sh includes this binary) to certify the
// fold-vs-read/write protocol; the final assertions certify end-state
// correctness against CheckConsistency() and the SASE oracle.
//
// Duration scales with SEQDET_STRESS_SECONDS (default 2).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sase/sase_engine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "index/maintenance.h"
#include "index/sequence_index.h"
#include "query/pattern.h"
#include "query/query_processor.h"
#include "storage/database.h"

namespace seqdet {
namespace {

using eventlog::ActivityId;
using eventlog::EventLog;
using eventlog::Timestamp;
using index::IndexOptions;
using index::Policy;
using index::SequenceIndex;
using query::Pattern;
using query::PatternMatch;
using query::QueryProcessor;

constexpr size_t kActivities = 8;

int StressSeconds() {
  if (const char* env = std::getenv("SEQDET_STRESS_SECONDS")) {
    return std::atoi(env);
  }
  return 2;
}

/// Appends `traces` fresh traces (ids starting at `first_trace`) to both
/// the batch and the accumulated oracle log.
EventLog MakeBatch(Rng* rng, uint64_t first_trace, size_t traces,
                   EventLog* accumulated) {
  EventLog batch;
  for (size_t t = 0; t < traces; ++t) {
    uint64_t trace = first_trace + t;
    size_t len = static_cast<size_t>(rng->NextInRange(5, 30));
    Timestamp ts = 0;
    for (size_t i = 0; i < len; ++i) {
      ts += rng->NextInRange(1, 9);
      std::string name = std::string("a").append(
          std::to_string(rng->NextBounded(kActivities)));
      batch.Append(trace, name, ts);
      accumulated->Append(trace, name, ts);
    }
  }
  batch.SortAllTraces();
  return batch;
}

TEST(MaintenanceStressTest, WritersReadersAndFoldingAgree) {
  storage::DbOptions db_options;
  db_options.table.in_memory = true;
  db_options.table.use_wal = false;
  auto db = std::move(storage::Database::Open("", db_options)).value();

  IndexOptions options;
  options.policy = Policy::kSkipTillNextMatch;
  options.num_threads = 2;
  options.cache_bytes = 1u << 20;
  options.posting_block_bytes = 128;
  // Aggressive thresholds: fold nearly every append so folds overlap the
  // reader and writer activity as much as possible.
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_NE(index->maintenance(), nullptr);

  // Seed batch so every activity is interned before readers start.
  EventLog accumulated;
  Rng writer_rng(7);
  uint64_t next_trace = 0;
  {
    EventLog batch = MakeBatch(&writer_rng, next_trace, 32, &accumulated);
    next_trace += 32;
    ASSERT_TRUE(index->Update(batch).ok());
  }
  ASSERT_EQ(index->dictionary().size(), kActivities);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_written{0};
  std::atomic<uint64_t> reads_done{0};
  std::atomic<uint64_t> stats_polls{0};

  // Single writer: Update() has single-writer semantics; concurrency with
  // folds and reads is what this test certifies.
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EventLog batch = MakeBatch(&writer_rng, next_trace, 8, &accumulated);
      next_trace += 8;
      auto stats = index->Update(batch);
      ASSERT_TRUE(stats.ok()) << stats.status();
      batches_written.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Readers: batches of random patterns. Results cannot be compared to a
  // fixed oracle mid-run (the log grows concurrently) — correctness here is
  // "no crash, no error, no torn reads", with TSan watching.
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    QueryProcessor qp(index.get());
    ThreadPool pool(2);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Pattern> patterns;
      for (int i = 0; i < 8; ++i) {
        size_t len = static_cast<size_t>(rng.NextInRange(2, 4));
        std::vector<ActivityId> p(len);
        for (auto& a : p) {
          a = static_cast<ActivityId>(rng.NextBounded(kActivities));
        }
        patterns.emplace_back(std::move(p));
      }
      auto results = qp.DetectBatch(patterns, &pool);
      ASSERT_TRUE(results.ok()) << results.status();
      reads_done.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread reader1(reader, 11), reader2(reader, 13);

  // Poller: hammers every observability surface while queries run.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      index::MaintenanceStats m = index->maintenance_stats();
      EXPECT_TRUE(m.enabled);
      (void)index->read_stats();
      (void)index->cache_stats();
      (void)index->pending_fold_load();
      stats_polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(StressSeconds()));
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  reader1.join();
  reader2.join();
  poller.join();

  // Quiesce: every pending append folded, no cycle in flight.
  EXPECT_TRUE(index->maintenance()->WaitIdle(/*timeout_ms=*/30000));
  index::MaintenanceStats m = index->maintenance_stats();
  EXPECT_GT(m.folds_run, 0u) << "service never folded — thresholds broken?";
  EXPECT_EQ(m.errors, 0u) << m.last_error;
  EXPECT_GT(batches_written.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(stats_polls.load(), 0u);

  // End-state correctness: internal invariants...
  auto report = index->CheckConsistency();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << (report->violations.empty()
                                    ? ""
                                    : report->violations.front());

  // ...and full agreement with the raw-log oracle on every pair pattern.
  accumulated.SortAllTraces();
  baseline::SaseEngine sase(&accumulated);
  QueryProcessor qp(index.get());
  for (ActivityId a = 0; a < kActivities; ++a) {
    for (ActivityId b = 0; b < kActivities; ++b) {
      auto got = qp.Detect(Pattern({a, b}));
      ASSERT_TRUE(got.ok()) << got.status();
      auto want = sase.Detect({a, b}, Policy::kSkipTillNextMatch);
      ASSERT_EQ(got->size(), want.size()) << "pair <" << a << "," << b << ">";
      std::sort(got->begin(), got->end(),
                [](const PatternMatch& x, const PatternMatch& y) {
                  return std::tie(x.trace, x.timestamps) <
                         std::tie(y.trace, y.timestamps);
                });
      std::sort(want.begin(), want.end(),
                [](const auto& x, const auto& y) {
                  return std::tie(x.trace, x.timestamps) <
                         std::tie(y.trace, y.timestamps);
                });
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].trace, want[i].trace);
        EXPECT_EQ((*got)[i].timestamps, want[i].timestamps);
      }
    }
  }

  // Stop before the accumulated log (which the service never touches, but
  // symmetry with production shutdown order) goes away.
  index->maintenance()->Stop();
  EXPECT_FALSE(index->maintenance_stats().running);
}

}  // namespace
}  // namespace seqdet
