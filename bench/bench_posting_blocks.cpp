// Measures the block-structured posting format on the cold read path
// (cache_bytes = 0, every Detect decodes stored bytes): folded blocks whose
// headers let trace-selective queries skip whole blocks of the hot pair
// lists. The workload is the shape the skip metadata serves — patterns
// anchored on a rare activity joined against hot pairs that occur in every
// trace — plus a hot-only control where no pruning is possible. Match
// counts are checked against a reference index folded into one block per
// pair, where no block can be skipped.
//
// Emits BENCH_posting_blocks.json (override with --out=<path>) alongside
// the human-readable table.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "query/query_processor.h"

using namespace seqdet;

namespace {

// Each rare activity occupies one small contiguous band of trace ids (the
// incident-window shape: trace ids correlate with arrival time, a rare
// condition fires during one window). Its posting blocks then advertise a
// narrow [min_trace, max_trace], and every block of the hot pair lists
// outside that band is skipped from the header alone.
constexpr size_t kRareActivities = 8;
constexpr size_t kRareBandTraces = 8;
constexpr size_t kHotActivities = 6;

std::string ActName(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

// Synthetic skewed log: every trace walks the hot activities H0..H5 three
// times (hot pairs occur in *all* traces); rare activity R<k> opens only
// the kRareBandTraces traces of band k, the bands spread evenly across the
// trace-id space.
eventlog::EventLog SkewedLog(size_t traces, uint64_t seed) {
  eventlog::EventLog log;
  Rng rng(seed);
  const size_t stride = traces / kRareActivities;
  for (size_t t = 0; t < traces; ++t) {
    int64_t ts = static_cast<int64_t>(t) * 1000;
    if (t % stride < kRareBandTraces) {
      log.Append(t, ActName("R", t / stride), ts++);
    }
    for (int round = 0; round < 3; ++round) {
      for (size_t h = 0; h < kHotActivities; ++h) {
        ts += 1 + static_cast<int64_t>(rng.NextBounded(5));
        log.Append(t, ActName("H", h), ts);
      }
    }
  }
  log.SortAllTraces();
  return log;
}

struct WorkloadResult {
  std::string name;
  size_t queries = 0;
  size_t matches = 0;
  double v2_ms_per_query = 0;
  uint64_t v2_bytes_decoded = 0;
  uint64_t v2_blocks_decoded = 0;
  uint64_t v2_blocks_skipped = 0;
  uint64_t v2_bytes_skipped = 0;
};

// One timed pass of `queries`; also returns total matches (for the
// equivalence check) and the decode-counter deltas of the pass.
struct PassResult {
  double ms_per_query = 0;
  size_t matches = 0;
  index::IndexReadStats delta;
};

PassResult RunDetectSet(const index::SequenceIndex& index,
                        const query::QueryProcessor& qp,
                        const std::vector<query::Pattern>& queries,
                        size_t reps) {
  PassResult result;
  // One untimed pass first: the posting cache is off, so every timed query
  // still decodes from storage — this only warms CPU caches and the
  // allocator, which otherwise dominate the first repetition's time.
  for (const auto& p : queries) {
    if (!qp.Detect(p).ok()) std::abort();
  }
  index::IndexReadStats before = index.read_stats();
  double seconds = bench::TimeSeconds(reps, [&] {
    result.matches = 0;
    for (const auto& p : queries) {
      auto matches = qp.Detect(p);
      if (!matches.ok()) std::abort();
      result.matches += matches->size();
    }
  });
  index::IndexReadStats after = index.read_stats();
  result.ms_per_query = seconds * 1e3 / static_cast<double>(queries.size());
  size_t total = reps * queries.size();
  result.delta.postings_decoded =
      (after.postings_decoded - before.postings_decoded) / total;
  result.delta.bytes_decoded =
      (after.bytes_decoded - before.bytes_decoded) / total;
  result.delta.blocks_decoded =
      (after.blocks_decoded - before.blocks_decoded) / total;
  result.delta.blocks_skipped =
      (after.blocks_skipped - before.blocks_skipped) / total;
  result.delta.bytes_skipped =
      (after.bytes_skipped - before.bytes_skipped) / total;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::BenchOptions::Parse(argc, argv);
  std::string out_path = "BENCH_posting_blocks.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--out=")) out_path = arg.substr(6);
  }
  const size_t traces = std::max<size_t>(
      8192, static_cast<size_t>(163840 * options.scale));

  eventlog::EventLog log = SkewedLog(traces, options.seed);

  // Identical logs, identical (cache-less) read path, both folded as a
  // maintained index would be; only the folded block size differs.
  auto build = [&](size_t block_bytes, std::unique_ptr<storage::Database>* db) {
    *db = bench::FreshDb();
    index::IndexOptions idx_options;
    idx_options.num_threads = options.threads;
    idx_options.cache_bytes = 0;
    idx_options.posting_block_bytes = block_bytes;
    auto index = bench::BuildIndexOrDie(db->get(), log, idx_options);
    auto fold = index->FoldPostings();
    if (!fold.ok()) {
      std::fprintf(stderr, "fold failed: %s\n", fold.ToString().c_str());
      std::abort();
    }
    return index;
  };
  std::unique_ptr<storage::Database> reference_db, v2_db;
  auto reference = build(size_t{1} << 40, &reference_db);
  auto v2 = build(index::kDefaultPostingBlockBytes, &v2_db);
  query::QueryProcessor reference_qp(reference.get());
  query::QueryProcessor v2_qp(v2.get());

  auto id = [&](const std::string& name) {
    return v2->dictionary().Lookup(name);
  };
  std::vector<query::Pattern> rare_anchored;
  for (size_t k = 0; k < kRareActivities; ++k) {
    query::Pattern p;
    p.activities = {id(ActName("R", k)), id("H0"), id("H1")};
    rare_anchored.push_back(std::move(p));
    p.activities = {id(ActName("R", k)), id("H2"), id("H3")};
    rare_anchored.push_back(std::move(p));
  }
  std::vector<query::Pattern> hot_only;
  for (size_t h = 0; h + 2 < kHotActivities; ++h) {
    query::Pattern p;
    p.activities = {id(ActName("H", h)),
                    id(ActName("H", h + 1)),
                    id(ActName("H", h + 2))};
    hot_only.push_back(std::move(p));
  }

  std::printf(
      "=== posting format: blocked (folded), cache off, "
      "%zu traces, reps=%zu ===\n",
      traces, options.repetitions);

  std::vector<WorkloadResult> results;
  bool counts_match = true;
  auto run = [&](const std::string& name,
                 const std::vector<query::Pattern>& queries) {
    WorkloadResult r;
    r.name = name;
    r.queries = queries.size();
    size_t expected = 0;
    for (const auto& p : queries) {
      auto matches = reference_qp.Detect(p);
      if (!matches.ok()) std::abort();
      expected += matches->size();
    }
    PassResult p2 = RunDetectSet(*v2, v2_qp, queries, options.repetitions);
    if (p2.matches != expected) {
      std::fprintf(stderr,
                   "MISMATCH on %s: reference found %zu matches, "
                   "blocked found %zu\n",
                   name.c_str(), expected, p2.matches);
      counts_match = false;
    }
    r.matches = p2.matches;
    r.v2_ms_per_query = p2.ms_per_query;
    r.v2_bytes_decoded = p2.delta.bytes_decoded;
    r.v2_blocks_decoded = p2.delta.blocks_decoded;
    r.v2_blocks_skipped = p2.delta.blocks_skipped;
    r.v2_bytes_skipped = p2.delta.bytes_skipped;
    results.push_back(r);
  };
  run("detect_rare_anchored", rare_anchored);
  run("detect_hot_only", hot_only);

  bench::TablePrinter table({"workload", "ms/query", "KiB dec/query",
                             "blocks skipped/query"});
  for (const auto& r : results) {
    table.AddRow({r.name, StringPrintf("%.4f", r.v2_ms_per_query),
                  StringPrintf("%.1f", r.v2_bytes_decoded / 1024.0),
                  StringPrintf("%llu", static_cast<unsigned long long>(
                                           r.v2_blocks_skipped))});
  }
  table.Print();
  if (!counts_match) return 1;

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"posting_blocks\",\n");
  bench::WriteBenchStamp(json);
  std::fprintf(json,
               "  \"traces\": %zu,\n  \"scale\": %.3f,\n"
               "  \"repetitions\": %zu,\n  \"match_counts_equal\": %s,\n"
               "  \"workloads\": [\n",
               traces, options.scale, options.repetitions,
               counts_match ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"queries\": %zu, \"matches\": %zu,\n"
        "     \"v2_cold_ms_per_query\": %.4f,\n"
        "     \"v2_bytes_decoded_per_query\": %llu,\n"
        "     \"v2_blocks_decoded_per_query\": %llu,\n"
        "     \"v2_blocks_skipped_per_query\": %llu, "
        "\"v2_bytes_skipped_per_query\": %llu}%s\n",
        r.name.c_str(), r.queries, r.matches, r.v2_ms_per_query,
        static_cast<unsigned long long>(r.v2_bytes_decoded),
        static_cast<unsigned long long>(r.v2_blocks_decoded),
        static_cast<unsigned long long>(r.v2_blocks_skipped),
        static_cast<unsigned long long>(r.v2_bytes_skipped),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
