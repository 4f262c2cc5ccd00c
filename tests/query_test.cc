#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "baselines/sase/sase_engine.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "index/sequence_index.h"
#include "query/pattern.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "storage/database.h"

namespace seqdet::query {
namespace {

using eventlog::EventLog;
using eventlog::Timestamp;
using index::EventTypePair;
using index::IndexOptions;
using index::Policy;
using index::SequenceIndex;

struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<SequenceIndex> index;

  explicit Fixture(const EventLog& log,
                   Policy policy = Policy::kSkipTillNextMatch) {
    storage::DbOptions db_options;
    db_options.table.in_memory = true;
    db_options.table.use_wal = false;
    db = std::move(storage::Database::Open("", db_options)).value();
    IndexOptions options;
    options.num_threads = 1;
    options.policy = policy;
    index = std::move(SequenceIndex::Open(db.get(), options)).value();
    auto stats = index->Update(log);
    EXPECT_TRUE(stats.ok()) << stats.status();
  }
};

// The paper's example trace.
EventLog PaperLog() {
  EventLog log;
  log.Append(7, "A", 1);
  log.Append(7, "A", 2);
  log.Append(7, "B", 3);
  log.Append(7, "A", 4);
  log.Append(7, "B", 5);
  log.Append(7, "A", 6);
  log.SortAllTraces();
  return log;
}

Pattern NamedPattern(const Fixture& f, std::vector<std::string> names) {
  auto p = Pattern::FromNames(f.index->dictionary(), names);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

// ---------------------------------------------------------------------------
// Pattern
// ---------------------------------------------------------------------------

TEST(PatternTest, FromNamesResolvesIds) {
  eventlog::ActivityDictionary dict;
  dict.Intern("x");
  dict.Intern("y");
  auto p = Pattern::FromNames(dict, {"y", "x", "y"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->activities, (std::vector<eventlog::ActivityId>{1, 0, 1}));
  EXPECT_EQ(p->ToString(dict), "<y, x, y>");
}

TEST(PatternTest, UnknownNameRejected) {
  eventlog::ActivityDictionary dict;
  EXPECT_TRUE(Pattern::FromNames(dict, {"ghost"}).status().IsNotFound());
}

TEST(PatternTest, ExtendedAppends) {
  Pattern p({1, 2});
  Pattern q = p.Extended(3);
  EXPECT_EQ(q.activities, (std::vector<eventlog::ActivityId>{1, 2, 3}));
  EXPECT_EQ(p.size(), 2u);  // original untouched
}

// ---------------------------------------------------------------------------
// Detection (Algorithm 2)
// ---------------------------------------------------------------------------

TEST(DetectTest, PairPatternReturnsPostings) {
  EventLog log = PaperLog();
  Fixture f(log);
  auto matches = QueryProcessor(f.index.get())
                     .Detect(NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);  // (1,3) and (4,5)
  EXPECT_EQ((*matches)[0].timestamps, (std::vector<Timestamp>{1, 3}));
  EXPECT_EQ((*matches)[1].timestamps, (std::vector<Timestamp>{4, 5}));
}

TEST(DetectTest, TripleJoinsOnSharedEvent) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  // A->B->A: (A,B) completions (1,3),(4,5); (B,A) completions (3,4),(5,6).
  // Joins: [1,3]+(3,4) -> [1,3,4]; [4,5]+(5,6) -> [4,5,6].
  auto matches = qp.Detect(NamedPattern(f, {"A", "B", "A"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_EQ((*matches)[0].timestamps, (std::vector<Timestamp>{1, 3, 4}));
  EXPECT_EQ((*matches)[1].timestamps, (std::vector<Timestamp>{4, 5, 6}));
}

TEST(DetectTest, IntroductionExample) {
  // §2.1: <AAABAACB>, pattern AAB. Whole-pattern STNM semantics has two
  // occurrences ([1,2,4] and [5,6,8]); Algorithm 2 joins the *greedy pair*
  // completions — (A,A): (1,2),(3,5) and (A,B): (1,4),(5,8) — whose only
  // join is [3,5,8]. Reproducing the paper's algorithm faithfully means
  // one match here (a documented limitation, see DESIGN.md §4), and the
  // reported match must be a valid STNM occurrence.
  EventLog log;
  int ts = 1;
  for (char c : std::string("AAABAACB")) {
    log.Append(1, std::string(1, c), ts++);
  }
  log.SortAllTraces();
  Fixture f(log);
  auto matches =
      QueryProcessor(f.index.get()).Detect(NamedPattern(f, {"A", "A", "B"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].timestamps, (std::vector<Timestamp>{3, 5, 8}));
}

TEST(DetectTest, NoMatchesForAbsentPattern) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  auto matches = qp.Detect(NamedPattern(f, {"B", "B", "B"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(DetectTest, PatternTooShortRejected) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  EXPECT_TRUE(qp.Detect(Pattern({0})).status().IsInvalidArgument());
  EXPECT_TRUE(qp.Detect(Pattern()).status().IsInvalidArgument());
}

TEST(DetectTest, MatchesSpanMultipleTraces) {
  EventLog log;
  for (eventlog::TraceId t = 0; t < 5; ++t) {
    log.Append(t, "X", 1);
    log.Append(t, "Y", 2);
    log.Append(t, "Z", 3);
  }
  log.SortAllTraces();
  Fixture f(log);
  auto matches =
      QueryProcessor(f.index.get()).Detect(NamedPattern(f, {"X", "Y", "Z"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 5u);
  std::set<eventlog::TraceId> traces;
  for (auto& m : *matches) traces.insert(m.trace);
  EXPECT_EQ(traces.size(), 5u);
}

TEST(DetectTest, ScPolicyRequiresContiguity) {
  EventLog log;
  log.Append(1, "A", 1);
  log.Append(1, "X", 2);
  log.Append(1, "B", 3);
  log.Append(2, "A", 1);
  log.Append(2, "B", 2);
  log.SortAllTraces();
  Fixture f(log, Policy::kStrictContiguity);
  auto matches =
      QueryProcessor(f.index.get()).Detect(NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].trace, 2u);  // trace 1 has X in between
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(StatisticsTest, PairRowsAndBounds) {
  EventLog log = PaperLog();
  Fixture f(log);
  auto stats =
      QueryProcessor(f.index.get()).Statistics(NamedPattern(f, {"A", "B", "A"}));
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->pairs.size(), 2u);
  // (A,B): completions (1,3),(4,5) -> 2 completions, durations 2+1.
  EXPECT_EQ(stats->pairs[0].total_completions, 2u);
  EXPECT_NEAR(stats->pairs[0].average_duration, 1.5, 1e-9);
  // (B,A): completions (3,4),(5,6) -> 2 completions, avg 1.
  EXPECT_EQ(stats->pairs[1].total_completions, 2u);
  EXPECT_NEAR(stats->pairs[1].average_duration, 1.0, 1e-9);
  EXPECT_EQ(stats->completions_upper_bound, 2u);
  EXPECT_NEAR(stats->estimated_duration, 2.5, 1e-9);
}

TEST(StatisticsTest, AbsentPairGivesZeroBound) {
  EventLog log = PaperLog();
  Fixture f(log);
  auto stats = QueryProcessor(f.index.get())
                   .Statistics(NamedPattern(f, {"B", "B", "A"}));
  ASSERT_TRUE(stats.ok());
  // (B,B) completes once (3,5); bound = min(1, ...) but (B,A) has 2.
  EXPECT_EQ(stats->completions_upper_bound, 1u);
}

TEST(StatisticsTest, UpperBoundIsActuallyAnUpperBound) {
  // Property: true completion count <= pairwise upper bound.
  Rng rng(9);
  EventLog log;
  for (size_t t = 0; t < 20; ++t) {
    for (size_t i = 0; i < 30; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(4))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  for (int i = 0; i < 20; ++i) {
    std::vector<std::string> names;
    for (int j = 0; j < 3; ++j) {
      names.push_back(std::string(1, static_cast<char>('A' + rng.NextBounded(4))));
    }
    Pattern pattern = NamedPattern(f, names);
    auto stats = qp.Statistics(pattern);
    auto matches = qp.Detect(pattern);
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(matches.ok());
    EXPECT_LE(matches->size(), stats->completions_upper_bound);
  }
}

// ---------------------------------------------------------------------------
// Continuation (Algorithms 3-5)
// ---------------------------------------------------------------------------

EventLog ContinuationLog() {
  // After "A B", the continuation C happens twice quickly, D once slowly.
  EventLog log;
  for (eventlog::TraceId t = 0; t < 4; ++t) {
    log.Append(t, "A", 1);
    log.Append(t, "B", 2);
    if (t < 2) {
      log.Append(t, "C", 3);
    } else if (t == 2) {
      log.Append(t, "D", 50);
    }
  }
  log.SortAllTraces();
  return log;
}

TEST(ContinuationTest, AccurateRanksByScore) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  auto proposals = QueryProcessor(f.index.get())
                       .ContinueAccurate(NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 2u);  // C and D follow B
  const auto& dict = f.index->dictionary();
  EXPECT_EQ(dict.Name((*proposals)[0].activity), "C");
  EXPECT_EQ((*proposals)[0].total_completions, 2u);
  EXPECT_NEAR((*proposals)[0].average_duration, 1.0, 1e-9);
  EXPECT_EQ(dict.Name((*proposals)[1].activity), "D");
  EXPECT_EQ((*proposals)[1].total_completions, 1u);
  EXPECT_GT((*proposals)[0].score, (*proposals)[1].score);
}

TEST(ContinuationTest, AccurateHonorsTimeConstraint) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  ContinuationConstraints constraints;
  constraints.max_gap = 10;  // D's gap of 48 exceeds it
  auto proposals =
      QueryProcessor(f.index.get())
          .ContinueAccurate(NamedPattern(f, {"A", "B"}), constraints);
  ASSERT_TRUE(proposals.ok());
  const auto& dict = f.index->dictionary();
  for (const auto& p : *proposals) {
    if (dict.Name(p.activity) == "D") {
      EXPECT_EQ(p.total_completions, 0u);
    }
  }
}

/// Field-for-field equality of two ranked proposal lists — exact doubles,
/// since both sides derive them from the same integer sums.
void ExpectSameProposals(const std::vector<ContinuationProposal>& expected,
                         const std::vector<ContinuationProposal>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].activity, actual[i].activity) << context << " #" << i;
    EXPECT_EQ(expected[i].total_completions, actual[i].total_completions)
        << context << " #" << i;
    EXPECT_EQ(expected[i].sum_duration, actual[i].sum_duration)
        << context << " #" << i;
    EXPECT_EQ(expected[i].average_duration, actual[i].average_duration)
        << context << " #" << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << context << " #" << i;
  }
}

// The continuation differential: Algorithm 3 as printed (a full Detect of
// every extended pattern) is the reference for the incremental count-only
// verification behind ContinueAccurate and ContinueHybrid(k >= |A|), over
// every policy, with and without max_gap, base lengths 1-4.
TEST(ContinuationTest, NaiveAlgorithm3MatchesIncremental) {
  Rng rng(88);
  EventLog log;
  for (size_t t = 0; t < 24; ++t) {
    Timestamp ts = 0;
    for (size_t i = 0; i < 18; ++i) {
      ts += static_cast<Timestamp>(1 + rng.NextBounded(4));
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(4))),
                 ts);
    }
    // "Z" only ever ends a trace: a base ending in "Z -> X" has no match
    // although X has followers.
    if (t % 3 == 0) log.Append(t, "Z", ts + 1);
  }
  log.SortAllTraces();

  std::vector<std::vector<std::string>> bases = {{"Z", "A"}, {"B", "Z", "C"}};
  for (size_t len = 1; len <= 4; ++len) {
    for (int n = 0; n < 4; ++n) {
      std::vector<std::string> names;
      for (size_t j = 0; j < len; ++j) {
        names.push_back(
            std::string(1, static_cast<char>('A' + rng.NextBounded(4))));
      }
      bases.push_back(names);
    }
  }

  bool saw_shared_end = false;
  bool saw_empty_base = false;
  for (Policy policy : {Policy::kStrictContiguity, Policy::kSkipTillNextMatch,
                        Policy::kSkipTillAnyMatch}) {
    Fixture f(log, policy);
    QueryProcessor qp(f.index.get());
    for (const auto& names : bases) {
      Pattern pattern = NamedPattern(f, names);
      if (pattern.size() >= 2) {
        auto base = qp.Detect(pattern);
        ASSERT_TRUE(base.ok());
        std::set<std::pair<eventlog::TraceId, Timestamp>> ends;
        for (const PatternMatch& m : *base) {
          if (!ends.emplace(m.trace, m.timestamps.back()).second) {
            saw_shared_end = true;
          }
        }
        auto followers =
            f.index->GetFollowerStats(pattern.activities.back());
        ASSERT_TRUE(followers.ok());
        if (base->empty() && !followers->empty()) saw_empty_base = true;
      }
      for (std::optional<Timestamp> max_gap :
           {std::optional<Timestamp>(), std::optional<Timestamp>(3)}) {
        ContinuationConstraints constraints;
        constraints.max_gap = max_gap;
        auto naive = qp.ContinueAccurateNaive(pattern, constraints);
        ASSERT_TRUE(naive.ok()) << naive.status();
        const std::string context = std::string(index::PolicyName(policy)) +
                                    " " +
                                    pattern.ToString(f.index->dictionary()) +
                                    (max_gap ? " max_gap=3" : "");
        auto accurate = qp.ContinueAccurate(pattern, constraints);
        ASSERT_TRUE(accurate.ok()) << accurate.status();
        ExpectSameProposals(*naive, *accurate, context + " accurate");
        auto hybrid = qp.ContinueHybrid(pattern, 1000, constraints);
        ASSERT_TRUE(hybrid.ok()) << hybrid.status();
        ExpectSameProposals(*naive, *hybrid, context + " hybrid");
      }
    }
  }
  // The sweep must reach the two shapes the count-only kernel special-cases.
  EXPECT_TRUE(saw_shared_end) << "no STAM base with repeated end keys";
  EXPECT_TRUE(saw_empty_base) << "no empty base with candidates";
}

TEST(ContinuationTest, ExpiredDeadlineAborts) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  ContinuationConstraints constraints;
  constraints.deadline = Deadline::After(0);
  for (const auto& names : {std::vector<std::string>{"A", "B"},
                            std::vector<std::string>{"B"}}) {
    Pattern pattern = NamedPattern(f, names);
    EXPECT_TRUE(
        qp.ContinueAccurate(pattern, constraints).status().IsAborted());
    EXPECT_TRUE(
        qp.ContinueHybrid(pattern, 5, constraints).status().IsAborted());
  }
}

TEST(ContinuationTest, FastUsesUpperBound) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  auto proposals = QueryProcessor(f.index.get())
                       .ContinueFast(NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 2u);
  // (A,B) completes 4 times; (B,C) twice; candidate count min(4,2)=2.
  EXPECT_EQ((*proposals)[0].total_completions, 2u);
}

TEST(ContinuationTest, FastNeverUnderestimatesAccurate) {
  // Property: fast's count is an upper bound of accurate's count per
  // candidate (fast is min of pairwise bounds; accurate is the true join).
  Rng rng(21);
  EventLog log;
  for (size_t t = 0; t < 25; ++t) {
    for (size_t i = 0; i < 20; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(5))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  Pattern pattern = NamedPattern(f, {"A", "B"});
  auto fast = qp.ContinueFast(pattern);
  auto accurate = qp.ContinueAccurate(pattern);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(accurate.ok());
  for (const auto& a : *accurate) {
    auto it = std::find_if(
        fast->begin(), fast->end(),
        [&](const ContinuationProposal& p) { return p.activity == a.activity; });
    ASSERT_NE(it, fast->end());
    EXPECT_GE(it->total_completions, a.total_completions)
        << "candidate " << a.activity;
  }
}

TEST(ContinuationTest, HybridDegeneratesToFastAtZero) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  Pattern pattern = NamedPattern(f, {"A", "B"});
  auto fast = qp.ContinueFast(pattern);
  auto hybrid = qp.ContinueHybrid(pattern, 0);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(hybrid.ok());
  ASSERT_EQ(fast->size(), hybrid->size());
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_EQ((*fast)[i].activity, (*hybrid)[i].activity);
    EXPECT_EQ((*fast)[i].total_completions, (*hybrid)[i].total_completions);
  }
}

TEST(ContinuationTest, HybridEqualsAccurateAtFullK) {
  Rng rng(22);
  EventLog log;
  for (size_t t = 0; t < 15; ++t) {
    for (size_t i = 0; i < 18; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(5))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  Pattern pattern = NamedPattern(f, {"A", "B"});
  auto accurate = qp.ContinueAccurate(pattern);
  auto hybrid = qp.ContinueHybrid(pattern, 100);  // k >= |A|
  ASSERT_TRUE(accurate.ok());
  ASSERT_TRUE(hybrid.ok());
  ASSERT_EQ(accurate->size(), hybrid->size());
  for (size_t i = 0; i < accurate->size(); ++i) {
    EXPECT_EQ((*accurate)[i].activity, (*hybrid)[i].activity) << i;
    EXPECT_EQ((*accurate)[i].total_completions,
              (*hybrid)[i].total_completions)
        << i;
  }
}

TEST(ContinuationTest, SingleEventPattern) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  auto proposals = qp.ContinueAccurate(NamedPattern(f, {"B"}));
  ASSERT_TRUE(proposals.ok());
  ASSERT_EQ(proposals->size(), 2u);
  EXPECT_EQ((*proposals)[0].total_completions, 2u);  // B->C twice
  auto hybrid = qp.ContinueHybrid(NamedPattern(f, {"B"}), 1);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ((*hybrid)[0].total_completions, 2u);
}

TEST(ContinuationTest, EmptyPatternRejected) {
  EventLog log = ContinuationLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  EXPECT_TRUE(qp.ContinueAccurate(Pattern()).status().IsInvalidArgument());
  EXPECT_TRUE(qp.ContinueFast(Pattern()).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Pattern parser
// ---------------------------------------------------------------------------

eventlog::ActivityDictionary ParserDict() {
  eventlog::ActivityDictionary dict;
  dict.Intern("search");
  dict.Intern("add_to_cart");
  dict.Intern("Create Fine");
  return dict;
}

TEST(PatternParserTest, ParsesSteps) {
  auto dict = ParserDict();
  auto parsed = ParsePatternQuery("search -> add_to_cart", dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.activities,
            (std::vector<eventlog::ActivityId>{0, 1}));
  EXPECT_FALSE(parsed->constraints.max_gap.has_value());
  EXPECT_FALSE(parsed->constraints.max_span.has_value());
}

TEST(PatternParserTest, QuotedNamesAndConstraints) {
  auto dict = ParserDict();
  auto parsed = ParsePatternQuery(
      "\"Create Fine\" -> search within 3600 gap <= 60", dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.activities,
            (std::vector<eventlog::ActivityId>{2, 0}));
  ASSERT_TRUE(parsed->constraints.max_span.has_value());
  EXPECT_EQ(*parsed->constraints.max_span, 3600);
  ASSERT_TRUE(parsed->constraints.max_gap.has_value());
  EXPECT_EQ(*parsed->constraints.max_gap, 60);
}

TEST(PatternParserTest, SingleStep) {
  auto dict = ParserDict();
  auto parsed = ParsePatternQuery("search", dict);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->pattern.size(), 1u);
}

TEST(PatternParserTest, WhitespaceTolerant) {
  auto dict = ParserDict();
  auto parsed = ParsePatternQuery("  search->add_to_cart   within   5 ",
                                  dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.size(), 2u);
  EXPECT_EQ(*parsed->constraints.max_span, 5);
}

TEST(PatternParserTest, QuotedKeywordIsAnActivityName) {
  eventlog::ActivityDictionary dict;
  dict.Intern("within");
  dict.Intern("gap");
  auto parsed = ParsePatternQuery("\"within\" -> \"gap\"", dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->pattern.size(), 2u);
}

TEST(PatternParserTest, NegativeTimestampsInLogStillQueryable) {
  // Events before the epoch (negative timestamps) round-trip through the
  // zigzag encodings end to end.
  EventLog log;
  log.Append(1, "A", -100);
  log.Append(1, "B", -50);
  log.SortAllTraces();
  Fixture f(log);
  auto matches = QueryProcessor(f.index.get())
                     .Detect(NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].timestamps, (std::vector<Timestamp>{-100, -50}));
}

TEST(PatternParserTest, Errors) {
  auto dict = ParserDict();
  EXPECT_TRUE(ParsePatternQuery("", dict).status().IsInvalidArgument());
  EXPECT_TRUE(ParsePatternQuery("ghost", dict).status().IsNotFound());
  EXPECT_TRUE(ParsePatternQuery("search ->", dict).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParsePatternQuery("search within abc", dict)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParsePatternQuery("search gap 5", dict)
                  .status()
                  .IsInvalidArgument());
  // "->" separators are optional since the extended grammar, so trailing
  // junk now parses as further (unknown) activity names.
  EXPECT_TRUE(ParsePatternQuery("search frobnicate 5", dict)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ParsePatternQuery("\"unterminated", dict)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Batch + per-trace detection
// ---------------------------------------------------------------------------

TEST(DetectBatchTest, MatchesSequentialResults) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  std::vector<Pattern> patterns = {NamedPattern(f, {"A", "B"}),
                                   NamedPattern(f, {"B", "A"}),
                                   NamedPattern(f, {"A", "B", "A"})};
  ThreadPool pool(3);
  auto parallel = qp.DetectBatch(patterns, &pool);
  auto serial = qp.DetectBatch(patterns, nullptr);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(parallel->size(), 3u);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ((*parallel)[i], (*serial)[i]) << i;
    auto direct = qp.Detect(patterns[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*parallel)[i], *direct) << i;
  }
}

TEST(DetectBatchTest, ErrorSurfaces) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  std::vector<Pattern> patterns = {NamedPattern(f, {"A", "B"}), Pattern()};
  EXPECT_TRUE(qp.DetectBatch(patterns).status().IsInvalidArgument());
}

TEST(DetectInTraceTest, StnmGreedyWholePattern) {
  EventLog log = PaperLog();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  auto matches = qp.DetectInTrace(7, NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);  // greedy: (1,3) and (4,5)
  EXPECT_EQ((*matches)[0].timestamps, (std::vector<Timestamp>{1, 3}));
  auto missing = qp.DetectInTrace(999, NamedPattern(f, {"A", "B"}));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

TEST(DetectInTraceTest, AgreesWithDetectForLengthTwo) {
  // For pattern length 2 the index postings ARE the greedy whole-pattern
  // matches, so drill-down and global detection agree exactly per trace.
  Rng rng(91);
  EventLog log;
  for (size_t t = 0; t < 10; ++t) {
    for (size_t i = 0; i < 30; ++i) {
      log.Append(t, std::string(1, static_cast<char>('A' + rng.NextBounded(3))),
                 static_cast<Timestamp>(i + 1));
    }
  }
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  for (char a = 'A'; a <= 'C'; ++a) {
    for (char b = 'A'; b <= 'C'; ++b) {
      Pattern pattern = NamedPattern(
          f, {std::string(1, a), std::string(1, b)});
      auto global = qp.Detect(pattern);
      ASSERT_TRUE(global.ok());
      size_t per_trace_total = 0;
      for (size_t t = 0; t < 10; ++t) {
        auto local = qp.DetectInTrace(t, pattern);
        ASSERT_TRUE(local.ok());
        per_trace_total += local->size();
      }
      EXPECT_EQ(global->size(), per_trace_total) << a << b;
    }
  }
}

TEST(DetectInTraceTest, ScWindows) {
  EventLog log;
  log.Append(1, "A", 1);
  log.Append(1, "A", 2);
  log.Append(1, "A", 3);
  log.SortAllTraces();
  Fixture f(log, Policy::kStrictContiguity);
  QueryProcessor qp(f.index.get());
  auto matches = qp.DetectInTrace(1, NamedPattern(f, {"A", "A"}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 2u);  // overlapping windows
}

TEST(ContinuationTest, DeadEndActivityYieldsNoProposals) {
  EventLog log;
  log.Append(1, "A", 1);
  log.Append(1, "END", 2);
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  auto proposals = qp.ContinueFast(NamedPattern(f, {"A", "END"}));
  ASSERT_TRUE(proposals.ok());
  EXPECT_TRUE(proposals->empty());
}


// ---------------------------------------------------------------------------
// Extended patterns (disjunction, Kleene+, negation, windows)
//
// Every expected set below is computed by hand from the skip-till-next-match
// pair semantics (one greedy non-overlapping run per trace) so these tests
// are independent of both the index pipeline and the SASE oracle.
// ---------------------------------------------------------------------------

/// Trace 1: A@1 B@2 B@3 C@4   Trace 2: C@10 A@12 D@13   Trace 3: A@20
///
/// STNM pair sets (greedy, non-overlapping):
///   trace 1: (A,B)={(1,2)} (A,C)={(1,4)} (B,B)={(2,3)} (B,C)={(2,4)}
///   trace 2: (C,A)={(10,12)} (A,D)={(12,13)}
///   trace 3: none.
EventLog ExtendedLog() {
  EventLog log;
  log.Append(1, "A", 1);
  log.Append(1, "B", 2);
  log.Append(1, "B", 3);
  log.Append(1, "C", 4);
  log.Append(2, "C", 10);
  log.Append(2, "A", 12);
  log.Append(2, "D", 13);
  log.Append(3, "A", 20);
  log.SortAllTraces();
  return log;
}

ExtendedPattern Ext(const Fixture& f, std::string_view query) {
  auto p = ParseExtendedPatternQuery(query, f.index->dictionary());
  EXPECT_TRUE(p.ok()) << p.status();
  return p.ok() ? *p : ExtendedPattern();
}

PatternMatch M(eventlog::TraceId trace, std::vector<Timestamp> ts) {
  PatternMatch m;
  m.trace = trace;
  m.timestamps = ts;
  return m;
}

using Matches = std::vector<PatternMatch>;

TEST(ExtendedDetectTest, DisjunctionUnionsPairSets) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // (A|B) C = (A,C) u (B,C) per trace, sorted + deduped.
  auto m = qp.DetectExtended(Ext(f, "(A|B) C"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {1, 4}), M(1, {2, 4})}));
}

TEST(ExtendedDetectTest, DisjunctionBranchesSharingAnActivityDedupe) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // (A|A) collapses to A at parse time; results match the plain query.
  auto dup = qp.DetectExtended(Ext(f, "(A|A) C"));
  auto plain = qp.DetectExtended(Ext(f, "A C"));
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*dup, *plain);
  EXPECT_EQ(*dup, (Matches{M(1, {1, 4})}));
}

TEST(ExtendedDetectTest, DisjunctionBranchesEmittingOneOccurrenceDedupe) {
  // B and C tie at ts 2, so the concrete pairs (A,B) and (A,C) both emit
  // the occurrence (1, 2); the merged postings must hold it once.
  EventLog log;
  log.Append(1, "A", 1);
  log.Append(1, "B", 2);
  log.Append(1, "C", 2);
  log.SortAllTraces();
  Fixture f(log);
  QueryProcessor qp(f.index.get());
  ExtendedPattern pattern = Ext(f, "A (B|C)");
  auto m = qp.DetectExtended(pattern);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {1, 2})}));

  baseline::SaseEngine engine(&log);
  auto oracle = engine.DetectExtended(pattern, Policy::kSkipTillNextMatch);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  Matches expected;
  for (const baseline::SaseMatch& o : *oracle) {
    expected.push_back(M(o.trace, o.timestamps));
  }
  EXPECT_EQ(*m, expected);
}

TEST(ExtendedDetectTest, KleeneChainsViaSharedEventJoins) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // Seed (A,B)={(1,2)}; closure over strict (B,B)={(2,3)} adds [1,2,3].
  // Transition (B,C)={(2,4)} extends [1,2] only — no (3,.) pair exists, so
  // the two-step chain dies at the join.
  auto m = qp.DetectExtended(Ext(f, "A B+ C"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {1, 2, 4})}));
}

TEST(ExtendedDetectTest, BareKleeneEnumeratesChains) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // Seeds are every B occurrence; [2] right-closes to [2,3]. Canonical order
  // is lexicographic on timestamps: [2] < [2,3] < [3].
  auto m = qp.DetectExtended(Ext(f, "B+"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {2}), M(1, {2, 3}), M(1, {3})}));
}

TEST(ExtendedDetectTest, EmptyKleeneBodyYieldsNoMatches) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // Kleene+ requires at least one occurrence; D never appears between A and
  // C anywhere, so the whole pattern is empty (not "skip the element").
  auto m = qp.DetectExtended(Ext(f, "A D+ C"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->empty());
}

TEST(ExtendedDetectTest, NegatedFirstSymbolIsUnboundedToTheLeft) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // !B A C: no B strictly before the A of each (A,C) match. Trace 1's Bs are
  // after A@1, so the match survives.
  auto m = qp.DetectExtended(Ext(f, "!B A C"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {1, 4})}));
}

TEST(ExtendedDetectTest, InteriorNegationUsesOpenInterval) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // A !B C: B@2 sits strictly inside (1, 4), killing trace 1's only match.
  auto m = qp.DetectExtended(Ext(f, "A !B C"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->empty());
}

TEST(ExtendedDetectTest, NegatedLastSymbolIsUnboundedToTheRight) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // A C !B: no B strictly after C@4 in trace 1.
  auto m = qp.DetectExtended(Ext(f, "A C !B"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {1, 4})}));
}

TEST(ExtendedDetectTest, WithinIsInclusiveAndPrunes) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // Span of [1,4] is exactly 3: "within 3" keeps it, "within 2" drops it.
  auto at = qp.DetectExtended(Ext(f, "A C within 3"));
  ASSERT_TRUE(at.ok()) << at.status();
  EXPECT_EQ(*at, (Matches{M(1, {1, 4})}));
  auto under = qp.DetectExtended(Ext(f, "A C within 2"));
  ASSERT_TRUE(under.ok()) << under.status();
  EXPECT_TRUE(under->empty());
}

TEST(ExtendedDetectTest, WithinSmallerThanEveryGapIsEmptyNotAnError) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  auto m = qp.DetectExtended(Ext(f, "(A|B) C within 0"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->empty());
}

TEST(ExtendedDetectTest, GapBoundIsInclusive) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  auto at = qp.DetectExtended(Ext(f, "A C gap <= 3"));
  ASSERT_TRUE(at.ok()) << at.status();
  EXPECT_EQ(*at, (Matches{M(1, {1, 4})}));
  auto under = qp.DetectExtended(Ext(f, "A C gap <= 2"));
  ASSERT_TRUE(under.ok()) << under.status();
  EXPECT_TRUE(under->empty());
}

TEST(ExtendedDetectTest, GapAppliesInsideKleeneChains) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // B+ gap <= 0: single-element chains have no adjacent pair to test, but
  // the chain [2,3] has gap 1 and is pruned.
  auto m = qp.DetectExtended(Ext(f, "B+ gap <= 0"));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, (Matches{M(1, {2}), M(1, {3})}));
}

TEST(ExtendedDetectTest, SingleEventTraceMatchesSinglePositiveOnly) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  auto one = qp.DetectExtended(Ext(f, "A"));
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(*one, (Matches{M(1, {1}), M(2, {12}), M(3, {20})}));
  auto two = qp.DetectExtended(Ext(f, "D B"));
  ASSERT_TRUE(two.ok()) << two.status();
  EXPECT_TRUE(two->empty());
}

TEST(ExtendedDetectTest, PlainPatternsDelegateToDetectExactly) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // Plain sequences take the classic pair-join path: identical matches in
  // the identical (Detect) order, not the canonical extended order.
  auto direct = qp.Detect(NamedPattern(f, {"A", "C"}));
  auto extended = qp.DetectExtended(Ext(f, "A C"));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(*extended, *direct);
}

TEST(ExtendedDetectTest, PatternBoundsCombineWithConstraints) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // The tighter of the pattern-embedded and caller-supplied bounds wins.
  DetectionConstraints loose;
  loose.max_span = 100;
  auto kept = qp.DetectExtended(Ext(f, "(A|B) C within 3"), loose);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(*kept, (Matches{M(1, {1, 4}), M(1, {2, 4})}));
  DetectionConstraints tight;
  tight.max_span = 2;
  auto narrowed = qp.DetectExtended(Ext(f, "(A|B) C within 3"), tight);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status();
  EXPECT_EQ(*narrowed, (Matches{M(1, {2, 4})}));
}

TEST(ExtendedDetectTest, ComplianceTemplatesAreViolationWitnesses) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  // response(A, B): A occurrences never followed by a B. A@1 is followed by
  // B@2; A@12 and A@20 are not.
  auto response = qp.DetectExtended(Ext(f, "response(A, B)"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(*response, (Matches{M(2, {12}), M(3, {20})}));
  // precedence(C, A): A occurrences never preceded by a C. A@12 has C@10
  // before it; A@1 and A@20 do not.
  auto precedence = qp.DetectExtended(Ext(f, "precedence(C, A)"));
  ASSERT_TRUE(precedence.ok()) << precedence.status();
  EXPECT_EQ(*precedence, (Matches{M(1, {1}), M(3, {20})}));
  // absence(B): every B occurrence is a violation witness.
  auto absence = qp.DetectExtended(Ext(f, "absence(B)"));
  ASSERT_TRUE(absence.ok()) << absence.status();
  EXPECT_EQ(*absence, (Matches{M(1, {2}), M(1, {3})}));
}

TEST(ExtendedDetectTest, ExpiredDeadlineAborts) {
  Fixture f(ExtendedLog());
  QueryProcessor qp(f.index.get());
  DetectionConstraints constraints;
  constraints.deadline = Deadline::After(0);
  auto m = qp.DetectExtended(Ext(f, "(A|B) C"), constraints);
  EXPECT_TRUE(m.status().IsAborted());
}

TEST(ExtendedDetectTest, UnsupportedUnderSkipTillAnyMatch) {
  Fixture f(ExtendedLog(), Policy::kSkipTillAnyMatch);
  QueryProcessor qp(f.index.get());
  // STAM has no oracle-defined extended composition; only plain patterns
  // (which delegate to Detect) are allowed.
  EXPECT_TRUE(qp.DetectExtended(Ext(f, "(A|B) C")).status().IsUnsupported());
  EXPECT_TRUE(qp.DetectExtended(Ext(f, "A C")).ok());
}

}  // namespace
}  // namespace seqdet::query
