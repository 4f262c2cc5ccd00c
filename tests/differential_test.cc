// Randomized differential-correctness harness: the index's Detect() versus
// an independent oracle computed from the raw log.
//
// The oracle never touches the index, the storage engine, or the posting
// codec: per consecutive pattern pair it asks the SASE NFA baseline (a raw
// log scan) for that pair's match set under the index's policy, then joins
// the pair sets exactly as Algorithm 2 does — a match whose last timestamp
// equals a posting's first timestamp extends by the posting's second. Any
// disagreement therefore implicates the index pipeline (extraction ->
// storage -> fold -> decode -> join), not the oracle.
//
// Every configuration runs >= 1000 seeded random patterns (override with
// SEQDET_DIFF_PATTERNS) over a seeded random log. On failure the assert
// message carries the seed and the pattern; replay a failing seed with
//   SEQDET_DIFF_SEED=<seed> ./differential_test
//
// The extended pattern language (disjunction, Kleene+, negation, time
// windows — DESIGN.md section 14) has its own axis at the bottom of this
// file, with SaseEngine::DetectExtended as the oracle; filter it with
//   --gtest_filter='*Extended*'

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/sase/sase_engine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/generators.h"
#include "gtest/gtest.h"
#include "index/index_tables.h"
#include "index/maintenance.h"
#include "index/sequence_index.h"
#include "query/pattern.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "storage/database.h"

namespace seqdet {
namespace {

using baseline::SaseMatch;
using eventlog::ActivityId;
using eventlog::EventLog;
using eventlog::Timestamp;
using eventlog::TraceId;
using index::FoldStats;
using index::IndexOptions;
using index::Policy;
using index::SequenceIndex;
using query::DetectionConstraints;
using query::Pattern;
using query::PatternMatch;
using query::QueryProcessor;

uint64_t DiffSeed() {
  if (const char* env = std::getenv("SEQDET_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20210323;
}

size_t PatternsPerConfig() {
  if (const char* env = std::getenv("SEQDET_DIFF_PATTERNS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1000;
}

EventLog DiffLog(uint64_t seed) {
  datagen::RandomLogConfig config;
  config.num_traces = 150;
  config.max_events_per_trace = 40;
  config.num_activities = 10;
  config.seed = seed;
  config.mean_gap = 5;
  config.activity_skew = 0.3;
  return datagen::GenerateRandomLog(config);
}

struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<SequenceIndex> index;

  Fixture(const EventLog& log, Policy policy, size_t cache_bytes = 8u << 20) {
    storage::DbOptions db_options;
    db_options.table.in_memory = true;
    db_options.table.use_wal = false;
    db = std::move(storage::Database::Open("", db_options)).value();
    IndexOptions options;
    options.policy = policy;
    options.num_threads = 1;
    options.cache_bytes = cache_bytes;
    // Small blocks so folded lists span many blocks and the trace-selective
    // skip path actually skips.
    options.posting_block_bytes = 96;
    index = std::move(SequenceIndex::Open(db.get(), options)).value();
    auto stats = index->Update(log);
    EXPECT_TRUE(stats.ok()) << stats.status();
  }
};

/// Oracle side: SASE pair match sets, memoized per (first, second) pair and
/// indexed by (trace, first timestamp) for the Algorithm-2-style join.
class Oracle {
 public:
  Oracle(const EventLog* log, Policy policy)
      : engine_(log), policy_(policy) {}

  std::vector<PatternMatch> Detect(
      const std::vector<ActivityId>& pattern,
      const DetectionConstraints& constraints = {}) const {
    std::vector<PatternMatch> matches;
    const PairSet& first = PairMatches(pattern[0], pattern[1]);
    for (const SaseMatch& m : first.matches) {
      matches.push_back(PatternMatch{m.trace, m.timestamps});
    }
    for (size_t i = 1; i + 1 < pattern.size(); ++i) {
      const PairSet& next = PairMatches(pattern[i], pattern[i + 1]);
      std::vector<PatternMatch> extended;
      for (const PatternMatch& m : matches) {
        auto it = next.by_start.find({m.trace, m.timestamps.back()});
        if (it == next.by_start.end()) continue;
        for (Timestamp ts : it->second) {
          PatternMatch e = m;
          e.timestamps.push_back(ts);
          extended.push_back(std::move(e));
        }
      }
      matches = std::move(extended);
    }
    // The index applies the constraints during the join, but they are
    // monotone (a violated gap or span never un-violates as timestamps are
    // appended), so post-filtering is equivalent.
    std::erase_if(matches, [&constraints](const PatternMatch& m) {
      if (constraints.max_gap.has_value()) {
        for (size_t i = 1; i < m.timestamps.size(); ++i) {
          if (m.timestamps[i] - m.timestamps[i - 1] > *constraints.max_gap) {
            return true;
          }
        }
      }
      return constraints.max_span.has_value() &&
             m.timestamps.back() - m.timestamps.front() >
                 *constraints.max_span;
    });
    return matches;
  }

 private:
  struct PairSet {
    std::vector<SaseMatch> matches;
    std::map<std::pair<TraceId, Timestamp>, std::vector<Timestamp>> by_start;
  };

  const PairSet& PairMatches(ActivityId a, ActivityId b) const {
    auto [it, inserted] = pairs_.try_emplace({a, b});
    if (inserted) {
      it->second.matches = engine_.Detect({a, b}, policy_);
      for (const SaseMatch& m : it->second.matches) {
        it->second.by_start[{m.trace, m.timestamps[0]}].push_back(
            m.timestamps[1]);
      }
    }
    return it->second;
  }

  baseline::SaseEngine engine_;
  Policy policy_;
  mutable std::map<std::pair<ActivityId, ActivityId>, PairSet> pairs_;
};

std::vector<std::vector<ActivityId>> RandomPatterns(size_t count,
                                                    size_t num_activities,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ActivityId>> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t len = static_cast<size_t>(rng.NextInRange(2, 4));
    std::vector<ActivityId> p(len);
    for (auto& a : p) {
      a = static_cast<ActivityId>(rng.NextBounded(num_activities));
    }
    patterns.push_back(std::move(p));
  }
  return patterns;
}

std::vector<PatternMatch> Normalized(std::vector<PatternMatch> matches) {
  std::sort(matches.begin(), matches.end(),
            [](const PatternMatch& a, const PatternMatch& b) {
              return std::tie(a.trace, a.timestamps) <
                     std::tie(b.trace, b.timestamps);
            });
  return matches;
}

std::string Describe(const std::vector<ActivityId>& pattern, uint64_t seed,
                     const char* stage) {
  std::string out = "seed=" + std::to_string(seed) + " stage=" + stage +
                    " pattern=<";
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(pattern[i]);
  }
  out += "> (replay: SEQDET_DIFF_SEED=" + std::to_string(seed) + ")";
  return out;
}

/// Runs every pattern through the index and the oracle, requiring identical
/// match multisets. `stage` labels the index state in failure messages.
void ExpectAgreement(const Fixture& f, const Oracle& oracle,
                     const std::vector<std::vector<ActivityId>>& patterns,
                     uint64_t seed, const char* stage,
                     const DetectionConstraints& constraints = {}) {
  QueryProcessor qp(f.index.get());
  for (const auto& p : patterns) {
    auto got = qp.Detect(Pattern(p), constraints);
    ASSERT_TRUE(got.ok()) << got.status() << " " << Describe(p, seed, stage);
    ASSERT_EQ(Normalized(*got), Normalized(oracle.Detect(p, constraints)))
        << Describe(p, seed, stage);
  }
}

// ---------------------------------------------------------------------------
// v2 (blocked) format: pre-fold, post-fold, warm cache
// ---------------------------------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<Policy> {};

TEST_P(DifferentialTest, BlockedFormatPreAndPostFold) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, GetParam());
  Oracle oracle(&log, GetParam());
  auto patterns =
      RandomPatterns(PatternsPerConfig(), f.index->dictionary().size(), seed);

  ExpectAgreement(f, oracle, patterns, seed, "pre-fold");
  ASSERT_TRUE(f.index->FoldPostings().ok());
  ExpectAgreement(f, oracle, patterns, seed, "post-fold");
  // Third pass hits the now-populated read cache.
  ExpectAgreement(f, oracle, patterns, seed, "warm-cache");
}

TEST_P(DifferentialTest, MidFoldStateAgrees) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, GetParam());
  Oracle oracle(&log, GetParam());
  auto patterns =
      RandomPatterns(PatternsPerConfig(), f.index->dictionary().size(), seed);

  // Abort the fold partway: some keys folded, the rest still fragmented —
  // the state a query sees while the maintenance service is mid-cycle (or
  // after its shutdown aborted a pass).
  FoldStats stats;
  Status aborted = f.index->FoldPostings(
      &stats, [](const FoldStats& fs) {
        return fs.keys_folded >= 40 ? Status::Aborted("mid-fold stop")
                                    : Status::OK();
      });
  ASSERT_TRUE(aborted.IsAborted()) << aborted;
  ASSERT_GE(stats.keys_folded, 40u);
  ExpectAgreement(f, oracle, patterns, seed, "mid-fold");

  ASSERT_TRUE(f.index->FoldPostings().ok());
  ExpectAgreement(f, oracle, patterns, seed, "resumed-fold");
}

INSTANTIATE_TEST_SUITE_P(Policies, DifferentialTest,
                         ::testing::Values(Policy::kSkipTillNextMatch,
                                           Policy::kStrictContiguity),
                         [](const auto& info) {
                           return info.param == Policy::kSkipTillNextMatch
                                      ? "Stnm"
                                      : "Sc";
                         });

// ---------------------------------------------------------------------------
// Cache-disabled vs cache-enabled
// ---------------------------------------------------------------------------

TEST(DifferentialCacheTest, ColdWarmAndUncachedAgree) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture cached(log, Policy::kSkipTillNextMatch);
  Fixture uncached(log, Policy::kSkipTillNextMatch, /*cache_bytes=*/0);
  Oracle oracle(&log, Policy::kSkipTillNextMatch);
  auto patterns = RandomPatterns(PatternsPerConfig(),
                                 cached.index->dictionary().size(), seed);

  ExpectAgreement(cached, oracle, patterns, seed, "cache-cold");
  ExpectAgreement(cached, oracle, patterns, seed, "cache-warm");
  EXPECT_GT(cached.index->cache_stats().hits, 0u);
  ExpectAgreement(uncached, oracle, patterns, seed, "cache-off");
  EXPECT_EQ(uncached.index->cache_stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Constraints and the batch API
// ---------------------------------------------------------------------------

TEST(DifferentialConstraintTest, GapAndSpanConstraintsAgree) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);
  Oracle oracle(&log, Policy::kSkipTillNextMatch);
  auto patterns = RandomPatterns(PatternsPerConfig(),
                                 f.index->dictionary().size(), seed);

  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  QueryProcessor qp(f.index.get());
  for (const auto& p : patterns) {
    DetectionConstraints constraints;
    if (rng.NextBool()) constraints.max_gap = rng.NextInRange(1, 20);
    if (rng.NextBool()) constraints.max_span = rng.NextInRange(1, 60);
    auto got = qp.Detect(Pattern(p), constraints);
    ASSERT_TRUE(got.ok())
        << got.status() << " " << Describe(p, seed, "constraints");
    ASSERT_EQ(Normalized(*got),
              Normalized(oracle.Detect(p, constraints)))
        << Describe(p, seed, "constraints");
  }
}

TEST(DifferentialBatchTest, DetectBatchAgreesWithOracle) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);
  Oracle oracle(&log, Policy::kSkipTillNextMatch);
  auto raw = RandomPatterns(PatternsPerConfig(),
                            f.index->dictionary().size(), seed);
  std::vector<Pattern> patterns;
  patterns.reserve(raw.size());
  for (const auto& p : raw) patterns.emplace_back(p);

  ThreadPool pool(4);
  auto results = QueryProcessor(f.index.get()).DetectBatch(patterns, &pool);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(Normalized((*results)[i]), Normalized(oracle.Detect(raw[i])))
        << Describe(raw[i], seed, "batch");
  }
}

// ---------------------------------------------------------------------------
// Deadlines: an expired budget aborts, a generous one changes nothing
// ---------------------------------------------------------------------------

TEST(DifferentialDeadlineTest, ExpiredAbortsAndGenerousMatchesUnbounded) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);
  QueryProcessor qp(f.index.get());
  auto patterns =
      RandomPatterns(100, f.index->dictionary().size(), seed ^ 0xD1D);
  DetectionConstraints expired;
  expired.deadline = Deadline::After(0);
  DetectionConstraints generous;
  generous.deadline = Deadline::After(60000);
  for (const auto& p : patterns) {
    const auto ext = query::ExtendedPattern::FromPlain(Pattern(p));
    ASSERT_TRUE(qp.Detect(Pattern(p), expired).status().IsAborted())
        << Describe(p, seed, "deadline");
    ASSERT_TRUE(qp.DetectExtended(ext, expired).status().IsAborted())
        << Describe(p, seed, "deadline-extended");

    auto unbounded = qp.Detect(Pattern(p));
    auto bounded = qp.Detect(Pattern(p), generous);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status();
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    ASSERT_EQ(*bounded, *unbounded) << Describe(p, seed, "deadline-generous");
    auto ext_unbounded = qp.DetectExtended(ext);
    auto ext_bounded = qp.DetectExtended(ext, generous);
    ASSERT_TRUE(ext_unbounded.ok()) << ext_unbounded.status();
    ASSERT_TRUE(ext_bounded.ok()) << ext_bounded.status();
    ASSERT_EQ(*ext_bounded, *ext_unbounded)
        << Describe(p, seed, "deadline-generous-extended");
  }
}

// ---------------------------------------------------------------------------
// HTTP mode: the serving layer versus in-process Detect
// ---------------------------------------------------------------------------

/// The textual query for a pattern, as a /detect target. The response is
/// compared byte-for-byte against DetectResponseJson over the in-process
/// Detect result — the serializer is shared, so any difference implicates
/// the HTTP layer (parsing, encoding, concurrency), not formatting drift.
std::string DetectTarget(const SequenceIndex& index,
                         const std::vector<ActivityId>& pattern) {
  std::string q;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) q += " -> ";
    q += index.dictionary().Name(pattern[i]);
  }
  return "/detect?q=" + server::HttpClient::UrlEncode(q) + "&limit=1000000";
}

TEST(DifferentialHttpTest, HttpDetectMatchesInProcessByteForByte) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);

  server::QueryService service(f.index.get());
  server::HttpServer http;
  service.RegisterRoutes(&http);
  ASSERT_TRUE(http.Start(0).ok());
  server::HttpClient client(http.port());
  QueryProcessor qp(f.index.get());

  auto patterns =
      RandomPatterns(PatternsPerConfig(), f.index->dictionary().size(), seed);
  for (const auto& p : patterns) {
    auto response = client.Get(DetectTarget(*f.index, p));
    ASSERT_TRUE(response.ok())
        << response.status() << " " << Describe(p, seed, "http");
    ASSERT_EQ(response->status, 200)
        << response->body << " " << Describe(p, seed, "http");
    auto matches = qp.Detect(Pattern(p));
    ASSERT_TRUE(matches.ok())
        << matches.status() << " " << Describe(p, seed, "http");
    ASSERT_EQ(response->body,
              server::DetectResponseJson(*matches, 1000000))
        << Describe(p, seed, "http");
  }
  http.Stop();
}

TEST(DifferentialHttpTest, HttpDetectAgreesUnderConcurrentAutoFold) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);

  // The log is frozen (no writer), so fold invariance is exactly what this
  // certifies: a fold pass stretched across the whole query phase by an
  // aggressive-threshold + rate-limited maintenance service must never
  // change what /detect returns. Small blocks maximize the per-key folds
  // the queries overlap with.
  storage::DbOptions db_options;
  db_options.table.in_memory = true;
  db_options.table.use_wal = false;
  auto db = std::move(storage::Database::Open("", db_options)).value();
  IndexOptions options;
  options.policy = Policy::kSkipTillNextMatch;
  options.num_threads = 1;
  options.cache_bytes = 1u << 20;
  options.posting_block_bytes = 96;
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  options.maintenance.rate_limit_bytes_per_sec = 256u << 10;
  auto index = std::move(SequenceIndex::Open(db.get(), options)).value();
  ASSERT_NE(index->maintenance(), nullptr);
  ASSERT_TRUE(index->Update(log).ok());

  server::QueryService service(index.get());
  server::HttpServer http;
  service.RegisterRoutes(&http);
  ASSERT_TRUE(http.Start(0).ok());
  server::HttpClient client(http.port());
  QueryProcessor qp(index.get());

  auto patterns =
      RandomPatterns(PatternsPerConfig(), index->dictionary().size(), seed);
  bool fold_observed = false;
  for (const auto& p : patterns) {
    fold_observed |= index->maintenance_stats().fold_in_progress;
    std::string target = DetectTarget(*index, p);
    // A fold committing between the HTTP call and the in-process call may
    // permute equal-result orderings; one retry re-reads both sides within
    // a (much shorter) window. A real disagreement fails both attempts.
    std::string got, want;
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto response = client.Get(target);
      ASSERT_TRUE(response.ok())
          << response.status() << " " << Describe(p, seed, "http-fold");
      ASSERT_EQ(response->status, 200)
          << response->body << " " << Describe(p, seed, "http-fold");
      auto matches = qp.Detect(Pattern(p));
      ASSERT_TRUE(matches.ok())
          << matches.status() << " " << Describe(p, seed, "http-fold");
      got = response->body;
      want = server::DetectResponseJson(*matches, 1000000);
      if (got == want) break;
    }
    ASSERT_EQ(got, want) << Describe(p, seed, "http-fold");
  }
  http.Stop();

  index::MaintenanceStats m = index->maintenance_stats();
  EXPECT_TRUE(fold_observed || m.folds_run > 0)
      << "maintenance never overlapped the query phase — thresholds or "
         "rate limit broken?";
  EXPECT_EQ(m.errors, 0u) << m.last_error;
}

// ---------------------------------------------------------------------------
// Extended patterns: disjunction, Kleene+, negation, time windows
//
// The oracle here is SaseEngine::DetectExtended — the normative raw-log
// implementation of the extended composition semantics. It shares nothing
// with the index path (no postings, no codecs, no caches), so a
// disagreement implicates the index-side compiler in
// QueryProcessor::DetectExtended.
// ---------------------------------------------------------------------------

using query::ExtendedPattern;
using query::PatternElement;

/// Seeded sampler over the full extended grammar. Every pattern is valid by
/// construction (>= 1 positive, no negated Kleene, canonical alternatives).
std::vector<ExtendedPattern> RandomExtendedPatterns(size_t count,
                                                    size_t num_activities,
                                                    uint64_t seed) {
  Rng rng(seed ^ 0xE47E4DEDull);
  std::vector<ExtendedPattern> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ExtendedPattern pattern;
    const size_t len = 1 + rng.NextBounded(4);
    for (size_t e = 0; e < len; ++e) {
      PatternElement element;
      const size_t alts = rng.NextBool(0.3) ? 1 + rng.NextBounded(3) : 1;
      for (size_t a = 0; a < alts; ++a) {
        element.alternatives.push_back(
            static_cast<ActivityId>(rng.NextBounded(num_activities)));
      }
      std::sort(element.alternatives.begin(), element.alternatives.end());
      element.alternatives.erase(
          std::unique(element.alternatives.begin(),
                      element.alternatives.end()),
          element.alternatives.end());
      element.negated = rng.NextBool(0.2);
      element.kleene = !element.negated && rng.NextBool(0.25);
      pattern.elements.push_back(std::move(element));
    }
    bool any_positive = false;
    for (const auto& e : pattern.elements) any_positive |= !e.negated;
    if (!any_positive) {
      pattern.elements[rng.NextBounded(pattern.elements.size())].negated =
          false;
    }
    if (rng.NextBool(0.3)) pattern.max_span = rng.NextInRange(1, 80);
    if (rng.NextBool(0.3)) pattern.max_gap = rng.NextInRange(1, 25);
    EXPECT_TRUE(pattern.Validate().ok());
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

std::string DescribeExt(const ExtendedPattern& pattern,
                        const eventlog::ActivityDictionary& dictionary,
                        uint64_t seed, const char* stage) {
  return "seed=" + std::to_string(seed) + " stage=" + stage + " query=\"" +
         pattern.ToString(dictionary) + "\" (replay: SEQDET_DIFF_SEED=" +
         std::to_string(seed) + ")";
}

/// Index-side extended detection versus the SASE extended oracle.
void ExpectExtendedAgreement(const Fixture& f, const EventLog& log,
                             Policy policy,
                             const std::vector<ExtendedPattern>& patterns,
                             uint64_t seed, const char* stage,
                             baseline::SasePairCache* cache) {
  baseline::SaseEngine engine(&log);
  QueryProcessor qp(f.index.get());
  const auto& dict = f.index->dictionary();
  for (const ExtendedPattern& p : patterns) {
    auto got = qp.DetectExtended(p);
    ASSERT_TRUE(got.ok()) << got.status() << " "
                          << DescribeExt(p, dict, seed, stage);
    auto expected = engine.DetectExtended(p, policy, cache);
    ASSERT_TRUE(expected.ok()) << expected.status() << " "
                               << DescribeExt(p, dict, seed, stage);
    std::vector<PatternMatch> oracle_matches;
    oracle_matches.reserve(expected->size());
    for (const SaseMatch& m : *expected) {
      oracle_matches.push_back(PatternMatch{m.trace, m.timestamps});
    }
    ASSERT_EQ(Normalized(*got), Normalized(std::move(oracle_matches)))
        << DescribeExt(p, dict, seed, stage);
  }
}

class ExtendedDifferentialTest : public ::testing::TestWithParam<Policy> {};

TEST_P(ExtendedDifferentialTest, ExtendedBlockedPreAndPostFold) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, GetParam());
  auto patterns = RandomExtendedPatterns(PatternsPerConfig(),
                                         f.index->dictionary().size(), seed);

  baseline::SasePairCache cache;
  ExpectExtendedAgreement(f, log, GetParam(), patterns, seed, "pre-fold",
                          &cache);
  ASSERT_TRUE(f.index->FoldPostings().ok());
  ExpectExtendedAgreement(f, log, GetParam(), patterns, seed, "post-fold",
                          &cache);
  // Third pass hits the now-populated read cache.
  ExpectExtendedAgreement(f, log, GetParam(), patterns, seed, "warm-cache",
                          &cache);
}

TEST_P(ExtendedDifferentialTest, ExtendedMidFoldStateAgrees) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, GetParam());
  auto patterns = RandomExtendedPatterns(PatternsPerConfig(),
                                         f.index->dictionary().size(), seed);

  baseline::SasePairCache cache;
  FoldStats stats;
  Status aborted = f.index->FoldPostings(
      &stats, [](const FoldStats& fs) {
        return fs.keys_folded >= 40 ? Status::Aborted("mid-fold stop")
                                    : Status::OK();
      });
  ASSERT_TRUE(aborted.IsAborted()) << aborted;
  ExpectExtendedAgreement(f, log, GetParam(), patterns, seed, "mid-fold",
                          &cache);
  ASSERT_TRUE(f.index->FoldPostings().ok());
  ExpectExtendedAgreement(f, log, GetParam(), patterns, seed, "resumed-fold",
                          &cache);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExtendedDifferentialTest,
                         ::testing::Values(Policy::kSkipTillNextMatch,
                                           Policy::kStrictContiguity),
                         [](const auto& info) {
                           return info.param == Policy::kSkipTillNextMatch
                                      ? "Stnm"
                                      : "Sc";
                         });

/// Compliance templates run through the same differential gate: every
/// template expansion over every activity pair, against the oracle.
TEST(ExtendedDifferentialTest, ExtendedComplianceTemplatesAgree) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);
  const ActivityId n =
      static_cast<ActivityId>(f.index->dictionary().size());

  std::vector<ExtendedPattern> patterns;
  for (ActivityId a = 0; a < n; ++a) {
    patterns.push_back(
        query::CompliancePattern(query::ComplianceRule::kAbsence, a));
    for (ActivityId b = 0; b < n; ++b) {
      patterns.push_back(
          query::CompliancePattern(query::ComplianceRule::kResponse, a, b));
      patterns.push_back(
          query::CompliancePattern(query::ComplianceRule::kPrecedence, a, b));
    }
  }
  baseline::SasePairCache cache;
  ExpectExtendedAgreement(f, log, Policy::kSkipTillNextMatch, patterns, seed,
                          "compliance", &cache);
}

/// HTTP axis for the extended grammar: the query string is the canonical
/// ToString of each generated pattern, and the response body must be
/// byte-identical to DetectResponseJson over the in-process
/// DetectExtended result.
TEST(ExtendedDifferentialTest, ExtendedHttpMatchesInProcessByteForByte) {
  const uint64_t seed = DiffSeed();
  EventLog log = DiffLog(seed);
  Fixture f(log, Policy::kSkipTillNextMatch);

  server::QueryService service(f.index.get());
  server::HttpServer http;
  service.RegisterRoutes(&http);
  ASSERT_TRUE(http.Start(0).ok());
  server::HttpClient client(http.port());
  QueryProcessor qp(f.index.get());
  const auto& dict = f.index->dictionary();

  auto patterns = RandomExtendedPatterns(PatternsPerConfig(),
                                         dict.size(), seed);
  for (const ExtendedPattern& p : patterns) {
    std::string target = "/detect?q=" +
                         server::HttpClient::UrlEncode(p.ToString(dict)) +
                         "&limit=1000000";
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << response.status() << " "
                               << DescribeExt(p, dict, seed, "http");
    ASSERT_EQ(response->status, 200)
        << response->body << " " << DescribeExt(p, dict, seed, "http");
    auto matches = qp.DetectExtended(p);
    ASSERT_TRUE(matches.ok()) << matches.status() << " "
                              << DescribeExt(p, dict, seed, "http");
    ASSERT_EQ(response->body, server::DetectResponseJson(*matches, 1000000))
        << DescribeExt(p, dict, seed, "http");
  }
  http.Stop();
}

}  // namespace
}  // namespace seqdet
