// Measures the SDSEG2 segment layer on disk and on the cold read path: a
// skewed log is indexed into an on-disk database (folded and compacted),
// whose posting values arrive already bit-packed by the index; the segment
// layer adds prefix-compressed keys, block framing and lazy block decode.
//
// Reported:
//   - on-disk bytes of the posting (index_p*) tables and of all segments
//   - cold trace-selective Detect (fresh process image: segments are
//     re-opened per repetition, nothing decoded yet, posting cache off)
//   - hot Detect (same process, decoded-block cache warm)
//
// Emits BENCH_storage.json (override with --out=<path>).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "query/query_processor.h"

using namespace seqdet;

namespace fs = std::filesystem;

namespace {

constexpr size_t kRareActivities = 8;
constexpr size_t kRareBandTraces = 8;
constexpr size_t kHotActivities = 6;

std::string ActName(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

// Same incident-window shape as bench_posting_blocks, but on an
// epoch-millisecond clock: hot pairs occur in every trace, each rare
// activity opens one narrow band of trace ids. Timestamps matter here —
// the bit-packed posting columns are exercised at the magnitudes a real
// deployment stores.
eventlog::EventLog SkewedLog(size_t traces, uint64_t seed) {
  eventlog::EventLog log;
  Rng rng(seed);
  const size_t stride = traces / kRareActivities;
  for (size_t t = 0; t < traces; ++t) {
    int64_t ts = 1700000000000 + static_cast<int64_t>(t) * 60000;
    if (t % stride < kRareBandTraces) {
      log.Append(t, ActName("R", t / stride), ts++);
    }
    for (int round = 0; round < 3; ++round) {
      for (size_t h = 0; h < kHotActivities; ++h) {
        ts += 10 + static_cast<int64_t>(rng.NextBounded(90));
        log.Append(t, ActName("H", h), ts);
      }
    }
  }
  log.SortAllTraces();
  return log;
}

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            ("seqdet_bench_storage_" + std::to_string(::getpid()) + "_" + tag);
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

index::IndexOptions IndexOptionsFor(const bench::BenchOptions& options) {
  index::IndexOptions idx;
  idx.num_threads = options.threads;
  idx.cache_bytes = 0;  // every Detect decodes stored segment bytes
  return idx;
}

// Builds, folds and compacts an on-disk index, then closes it so later
// opens measure the real open-from-disk path.
void BuildOnDisk(const std::string& dir, const eventlog::EventLog& log,
                 const bench::BenchOptions& options) {
  auto db = storage::Database::Open(dir);
  if (!db.ok()) {
    std::fprintf(stderr, "db open failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  auto index = bench::BuildIndexOrDie(db->get(), log, IndexOptionsFor(options));
  auto fold = index->FoldPostings();
  if (!fold.ok()) {
    std::fprintf(stderr, "fold failed: %s\n", fold.ToString().c_str());
    std::abort();
  }
  auto flush = index->Flush();
  if (!flush.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flush.ToString().c_str());
    std::abort();
  }
  auto compact = (*db)->CompactAll();
  if (!compact.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", compact.ToString().c_str());
    std::abort();
  }
}

struct SizeReport {
  uint64_t posting_bytes = 0;  // index_p* segment bytes on disk
  uint64_t total_bytes = 0;    // all segment bytes on disk
};

SizeReport MeasureSizes(const std::string& dir) {
  auto db = storage::Database::Open(dir);
  if (!db.ok()) std::abort();
  SizeReport report;
  report.total_bytes = (*db)->GetSegmentStats().disk_bytes;
  for (const std::string& name : (*db)->TableNames()) {
    if (!StartsWith(name, "index_p")) continue;
    report.posting_bytes += (*db)->GetTable(name)->GetSegmentStats().disk_bytes;
  }
  return report;
}

std::vector<query::Pattern> RareAnchoredQueries(
    const index::SequenceIndex& index) {
  auto id = [&](const std::string& name) {
    return index.dictionary().Lookup(name);
  };
  std::vector<query::Pattern> queries;
  for (size_t k = 0; k < kRareActivities; ++k) {
    query::Pattern p;
    p.activities = {id(ActName("R", k)), id("H0"), id("H1")};
    queries.push_back(std::move(p));
    p.activities = {id(ActName("R", k)), id("H2"), id("H3")};
    queries.push_back(std::move(p));
  }
  return queries;
}

size_t RunDetectSet(const query::QueryProcessor& qp,
                    const std::vector<query::Pattern>& queries) {
  size_t matches = 0;
  for (const auto& p : queries) {
    auto found = qp.Detect(p);
    if (!found.ok()) {
      std::fprintf(stderr, "detect failed: %s\n",
                   found.status().ToString().c_str());
      std::abort();
    }
    matches += found->size();
  }
  return matches;
}

struct QueryTimes {
  double cold_ms_per_query = 0;
  double hot_ms_per_query = 0;
  size_t matches = 0;
  bool hot_matches_equal = true;  // every hot pass found the cold matches
};

// Cold = open-from-disk plus the first query pass: segments parse their
// footers at open and decode only the touched blocks during the pass, so
// both are charged. Hot = second pass in the same process (decoded-block
// caches warm, posting cache off). Each repetition re-opens from disk.
QueryTimes TimeQueries(const std::string& dir,
                       const bench::BenchOptions& options) {
  QueryTimes times;
  double cold_total = 0, hot_total = 0;
  size_t queries = 0;
  // Repetition 0 is an untimed warm-up: it pays the process's one-time
  // costs (first touch of code and allocator pages), which belong to no
  // query.
  for (size_t rep = 0; rep <= options.repetitions; ++rep) {
    Stopwatch cold;
    auto db = storage::Database::Open(dir);
    if (!db.ok()) std::abort();
    auto index =
        index::SequenceIndex::Open(db->get(), IndexOptionsFor(options));
    if (!index.ok()) {
      std::fprintf(stderr, "index open failed: %s\n",
                   index.status().ToString().c_str());
      std::abort();
    }
    query::QueryProcessor qp(index->get());
    auto pattern_set = RareAnchoredQueries(**index);
    queries = pattern_set.size();
    times.matches = RunDetectSet(qp, pattern_set);
    if (rep > 0) cold_total += cold.ElapsedSeconds();
    Stopwatch hot;
    size_t hot_matches = RunDetectSet(qp, pattern_set);
    if (rep > 0) hot_total += hot.ElapsedSeconds();
    if (hot_matches != times.matches) times.hot_matches_equal = false;
  }
  double reps = static_cast<double>(options.repetitions);
  times.cold_ms_per_query =
      cold_total * 1e3 / (reps * static_cast<double>(queries));
  times.hot_ms_per_query =
      hot_total * 1e3 / (reps * static_cast<double>(queries));
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::BenchOptions::Parse(argc, argv);
  std::string out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--out=")) out_path = arg.substr(6);
  }
  const size_t traces =
      std::max<size_t>(2048, static_cast<size_t>(65536 * options.scale));

  eventlog::EventLog log = SkewedLog(traces, options.seed);

  TempDir dir("db");
  BuildOnDisk(dir.str(), log, options);
  SizeReport sizes = MeasureSizes(dir.str());
  QueryTimes times = TimeQueries(dir.str(), options);
  if (!times.hot_matches_equal) {
    std::fprintf(stderr, "MISMATCH: a hot pass found other matches than "
                         "the cold pass\n");
  }

  std::printf("=== segment format SDSEG2, %zu traces, reps=%zu ===\n",
              traces, options.repetitions);
  bench::TablePrinter table({"metric", "SDSEG2"});
  table.AddRow({"posting table KiB",
                StringPrintf("%.1f", sizes.posting_bytes / 1024.0)});
  table.AddRow({"all segments KiB",
                StringPrintf("%.1f", sizes.total_bytes / 1024.0)});
  table.AddRow({"cold detect ms/query",
                StringPrintf("%.4f", times.cold_ms_per_query)});
  table.AddRow({"hot detect ms/query",
                StringPrintf("%.4f", times.hot_ms_per_query)});
  table.Print();
  if (!times.hot_matches_equal) return 1;

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"storage\",\n");
  bench::WriteBenchStamp(json);
  std::fprintf(
      json,
      "  \"traces\": %zu,\n  \"scale\": %.3f,\n  \"repetitions\": %zu,\n"
      "  \"match_counts_equal\": %s,\n"
      "  \"posting_table_bytes_v2\": %llu,\n"
      "  \"total_segment_bytes_v2\": %llu,\n"
      "  \"workloads\": [\n"
      "    {\"name\": \"detect_rare_cold\", \"matches\": %zu,\n"
      "     \"v2_ms_per_query\": %.4f},\n"
      "    {\"name\": \"detect_rare_hot\", \"matches\": %zu,\n"
      "     \"v2_ms_per_query\": %.4f}\n"
      "  ]\n}\n",
      traces, options.scale, options.repetitions,
      times.hot_matches_equal ? "true" : "false",
      static_cast<unsigned long long>(sizes.posting_bytes),
      static_cast<unsigned long long>(sizes.total_bytes), times.matches,
      times.cold_ms_per_query, times.matches, times.hot_ms_per_query);
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
