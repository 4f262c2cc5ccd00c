// Tests of the benchmark's own machinery: percentiles, span self time,
// the answer check and request-sequence determinism.
//
//   python3 perfbench/run.py --selftest

#include "harness.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "index/sequence_index.h"
#include "storage/database.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankWithSamplesBeyond) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  PercentileResult p50 = Percentile(values, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  PercentileResult p99 = Percentile(values, 99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);  // too thin a tail to trust
  PercentileResult p100 = Percentile(values, 100);
  EXPECT_EQ(p100.value, 100);
  EXPECT_EQ(p100.beyond, 0u);

  std::vector<double> many;
  for (int i = 1; i <= 2000; ++i) many.push_back(i);
  EXPECT_EQ(Percentile(many, 99).value, 1980);
  EXPECT_EQ(Percentile(many, 99).beyond, 20u);
}

TEST(PercentileTest, TiesAndEmptyInput) {
  PercentileResult tied = Percentile({1, 2, 2, 2, 3}, 50);
  EXPECT_EQ(tied.value, 2);
  EXPECT_EQ(tied.beyond, 1u);  // strictly above the value only
  PercentileResult empty = Percentile({}, 99);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0);
  EXPECT_EQ(Median({5, 1, 3}), 3);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true);
  uint64_t root = tracer.Add("request", 0, 0, 100);
  uint64_t a = tracer.Add("index.fetch", root, 10, 40);
  tracer.Add("index.decode", a, 15, 20);
  tracer.Add("query.detect", root, 30, 60);  // overlaps its sibling
  tracer.Add("server.json", root, 90, 120);  // runs past its parent
  std::vector<int64_t> self = SelfTimesNs(tracer.spans());
  ASSERT_EQ(self.size(), 5u);
  // Children cover [10, 60) and [90, 100) of the root: 60 of 100.
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 25);  // 30 minus its grandchild's 5
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 30);

  auto totals = TotalsByName(tracer.spans());
  EXPECT_EQ(totals["request"].self_ns, 40);
  EXPECT_EQ(totals["request"].total_ns, 100);
  EXPECT_EQ(totals["index.fetch"].count, 1u);

  // Every span of the tree shares the root's trace id.
  for (const Span& s : tracer.spans()) EXPECT_EQ(s.trace, tracer.spans()[0].trace);
  std::string tree = RenderSpanTree(tracer.spans(), root);
  EXPECT_NE(tree.find("  index.fetch"), std::string::npos);
  EXPECT_NE(tree.find("    index.decode"), std::string::npos);
}

TEST(SpanTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    ScopedSpan root(&tracer, "request");
    ScopedSpan child(&tracer, "query.parse", root.id());
    EXPECT_EQ(root.id(), 0u);
  }
  EXPECT_TRUE(tracer.spans().empty());

  Tracer on(true);
  {
    ScopedSpan root(&on, "request");
    ScopedSpan child(&on, "query.parse", root.id());
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, on.spans()[0].id);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

/// A small process log indexed in memory with default options.
class IndexedLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seqdet::datagen::ProcessLogConfig config;
    config.num_traces = 200;
    config.num_activities = 12;
    config.seed = 7;
    log_ = seqdet::datagen::GenerateProcessLog(config);
    seqdet::storage::DbOptions db_options;
    db_options.table.in_memory = true;
    auto db = seqdet::storage::Database::Open("", db_options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(*db);
    auto index = seqdet::index::SequenceIndex::Open(db_.get(), {});
    ASSERT_TRUE(index.ok()) << index.status();
    index_ = std::move(*index);
    ASSERT_TRUE(index_->Update(log_).ok());
  }

  seqdet::eventlog::EventLog log_;
  std::unique_ptr<seqdet::storage::Database> db_;
  std::unique_ptr<seqdet::index::SequenceIndex> index_;
};

TEST_F(IndexedLogTest, AnswerCheckRejectsCorruptedResponses) {
  PoolSpec spec;
  spec.size = 40;
  std::vector<Request> pool = MakePool(log_, spec, 3);
  size_t checked = 0;
  for (const Request& request : pool) {
    auto expected = ReferenceBody(*index_, request);
    ASSERT_TRUE(expected.ok()) << request.target << ": " << expected.status();
    EXPECT_TRUE(CheckResponse(200, *expected, &*expected).ok());

    std::string corrupted = *expected;
    // Flip one digit (every body carries at least one number).
    size_t at = corrupted.find_first_of("0123456789");
    ASSERT_NE(at, std::string::npos) << corrupted;
    corrupted[at] = corrupted[at] == '9' ? '8' : corrupted[at] + 1;
    EXPECT_FALSE(CheckResponse(200, corrupted, &*expected).ok());
    EXPECT_FALSE(CheckResponse(200, *expected + " ", &*expected).ok());
    EXPECT_FALSE(CheckResponse(503, *expected, &*expected).ok());
    EXPECT_FALSE(CheckResponse(200, "{\"total\": ", nullptr).ok());
    EXPECT_TRUE(CheckResponse(200, corrupted, nullptr).ok());  // still JSON
    ++checked;
  }
  EXPECT_EQ(checked, pool.size());
}

TEST_F(IndexedLogTest, DetectAnswersAgreeWithTheSaseOracle) {
  PoolSpec spec;
  spec.size = 40;
  size_t compared = 0;
  for (const Request& request : MakePool(log_, spec, 5)) {
    if (request.kind != Kind::kDetect && request.kind != Kind::kDetectExt) {
      continue;
    }
    size_t matches = 0;
    seqdet::Status status =
        CheckAgainstOracle(log_, *index_, request, &matches);
    EXPECT_TRUE(status.ok()) << status;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST_F(IndexedLogTest, SameSeedSameRequestSequence) {
  PoolSpec spec;
  spec.size = 100;
  std::vector<Request> pool = MakePool(log_, spec, 42);
  std::vector<Request> again = MakePool(log_, spec, 42);
  ASSERT_EQ(pool.size(), again.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool[i].target, again[i].target);
  }
  auto a = RequestSequence(pool, 42, 0, 500);
  auto b = RequestSequence(again, 42, 0, 500);
  EXPECT_EQ(a, b);
  // Another client or another seed walks differently.
  EXPECT_NE(a, RequestSequence(pool, 42, 1, 500));
  EXPECT_NE(a, RequestSequence(MakePool(log_, spec, 43), 43, 0, 500));
  std::vector<Request> other = MakePool(log_, spec, 43);
  size_t differ = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    differ += pool[i].target != other[i].target;
  }
  EXPECT_GT(differ, pool.size() / 2);
}

TEST(CheckedEntriesTest, WalksShorterThanThePoolStillHitCheckedEntries) {
  // A phase far shorter than the pool, as a short sample after reopen.
  const size_t pool_size = 10000;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (size_t clients : {1, 4}) {
      std::vector<bool> checked = CheckedEntries(pool_size, seed, clients, 16);
      size_t marked = 0;
      for (bool c : checked) marked += c;
      EXPECT_GE(marked, 16u);
      EXPECT_LE(marked, 16 * clients);
      for (size_t c = 0; c < clients; ++c) {
        RequestStream stream(pool_size, seed, c);
        for (size_t n = 0; n < 16; ++n) {
          EXPECT_TRUE(checked[stream.Next()]) << "seed " << seed << " client "
                                              << c << " request " << n;
        }
      }
    }
  }
  // Nothing past the first requests is marked.
  std::vector<bool> checked = CheckedEntries(pool_size, 7, 1, 3);
  RequestStream stream(pool_size, 7, 0);
  for (size_t n = 0; n < 3; ++n) stream.Next();
  EXPECT_FALSE(checked[stream.Next()]);
}

TEST_F(IndexedLogTest, PoolFollowsTheMix) {
  PoolSpec spec;
  spec.size = 400;
  spec.mix = Mix{0.5, 0.5, 0, 0, "hybrid"};
  for (const Request& request : MakePool(log_, spec, 9)) {
    EXPECT_TRUE(request.kind == Kind::kDetect ||
                request.kind == Kind::kDetectExt);
    EXPECT_EQ(request.target.rfind("/detect?q=", 0), 0u) << request.target;
  }
}

TEST(ResultJsonTest, CarriesEveryMetricWithItsUnit) {
  std::string json = ResultJson(true, 10, 0,
                                {{"latency_ms", 1.25, "ms", 10},
                                 {"setup_s", 0.5, "s", 3}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
