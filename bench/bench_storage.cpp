// Measures what the SDSEG2 block-compressed segment format buys on disk
// and on the cold read path. The same skewed log is indexed twice into
// on-disk databases that differ only in segment format (flat SDSEG1 vs
// block-compressed SDSEG2); both use the blocked *posting* format, whose
// values arrive already bit-packed by the index, so the comparison
// isolates the segment layer: prefix-compressed keys, block framing and
// lazy block decode vs the same bytes in one flat run. Both formats store
// posting values verbatim, so posting_table_size_reduction is close to 1.
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

storage::DbOptions DbOptionsFor(uint32_t segment_format) {
  storage::DbOptions options;
  options.table.segment.format_version = segment_format;
  return options;
}

index::IndexOptions IndexOptionsFor(const bench::BenchOptions& options) {
  index::IndexOptions idx;
  idx.num_threads = options.threads;
  idx.cache_bytes = 0;  // every Detect decodes stored segment bytes
  return idx;
}

// Builds, folds and compacts an on-disk index, then closes it so later
// opens measure the real open-from-disk path.
void BuildOnDisk(const std::string& dir, uint32_t segment_format,
                 const eventlog::EventLog& log,
                 const bench::BenchOptions& options) {
  auto db = storage::Database::Open(dir, DbOptionsFor(segment_format));
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
  uint64_t posting_logical_bytes = 0;
  uint64_t total_bytes = 0;  // all segment bytes on disk
  size_t v1_segments = 0;
  size_t v2_segments = 0;
};

SizeReport MeasureSizes(const std::string& dir, uint32_t segment_format) {
  auto db = storage::Database::Open(dir, DbOptionsFor(segment_format));
  if (!db.ok()) std::abort();
  SizeReport report;
  storage::TableSegmentStats all = (*db)->GetSegmentStats();
  report.total_bytes = all.disk_bytes;
  report.v1_segments = all.v1_segments;
  report.v2_segments = all.v2_segments;
  for (const std::string& name : (*db)->TableNames()) {
    if (!StartsWith(name, "index_p")) continue;
    storage::TableSegmentStats t = (*db)->GetTable(name)->GetSegmentStats();
    report.posting_bytes += t.disk_bytes;
    report.posting_logical_bytes += t.logical_bytes;
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
};

// Cold = open-from-disk plus the first query pass: SDSEG1 pays its
// whole-file parse at open, SDSEG2 parses footers at open and decodes only
// the touched blocks during the pass, so the honest comparison charges
// both. Hot = second pass in the same process (decoded-block caches warm,
// posting cache off in both). Each repetition re-opens from disk.
QueryTimes TimeQueries(const std::string& dir, uint32_t segment_format,
                       const bench::BenchOptions& options) {
  QueryTimes times;
  double cold_total = 0, hot_total = 0;
  size_t queries = 0;
  for (size_t rep = 0; rep < options.repetitions; ++rep) {
    Stopwatch cold;
    auto db = storage::Database::Open(dir, DbOptionsFor(segment_format));
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
    cold_total += cold.ElapsedSeconds();
    Stopwatch hot;
    size_t hot_matches = RunDetectSet(qp, pattern_set);
    hot_total += hot.ElapsedSeconds();
    if (hot_matches != times.matches) std::abort();
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

  TempDir v1_dir("v1"), v2_dir("v2");
  BuildOnDisk(v1_dir.str(), 1, log, options);
  BuildOnDisk(v2_dir.str(), 2, log, options);

  SizeReport v1_sizes = MeasureSizes(v1_dir.str(), 1);
  SizeReport v2_sizes = MeasureSizes(v2_dir.str(), 2);

  QueryTimes v1_times = TimeQueries(v1_dir.str(), 1, options);
  QueryTimes v2_times = TimeQueries(v2_dir.str(), 2, options);
  bool counts_match = v1_times.matches == v2_times.matches;
  if (!counts_match) {
    std::fprintf(stderr, "MISMATCH: v1 found %zu matches, v2 found %zu\n",
                 v1_times.matches, v2_times.matches);
  }

  double posting_reduction =
      v2_sizes.posting_bytes > 0
          ? static_cast<double>(v1_sizes.posting_bytes) /
                static_cast<double>(v2_sizes.posting_bytes)
          : 0;
  double total_reduction =
      v2_sizes.total_bytes > 0
          ? static_cast<double>(v1_sizes.total_bytes) /
                static_cast<double>(v2_sizes.total_bytes)
          : 0;
  double cold_speedup = v2_times.cold_ms_per_query > 0
                            ? v1_times.cold_ms_per_query /
                                  v2_times.cold_ms_per_query
                            : 0;
  double hot_speedup =
      v2_times.hot_ms_per_query > 0
          ? v1_times.hot_ms_per_query / v2_times.hot_ms_per_query
          : 0;

  std::printf(
      "=== segment format: SDSEG1 vs SDSEG2, %zu traces, reps=%zu ===\n",
      traces, options.repetitions);
  bench::TablePrinter table({"metric", "SDSEG1", "SDSEG2", "ratio"});
  table.AddRow({"posting table KiB",
                StringPrintf("%.1f", v1_sizes.posting_bytes / 1024.0),
                StringPrintf("%.1f", v2_sizes.posting_bytes / 1024.0),
                StringPrintf("%.2fx smaller", posting_reduction)});
  table.AddRow({"all segments KiB",
                StringPrintf("%.1f", v1_sizes.total_bytes / 1024.0),
                StringPrintf("%.1f", v2_sizes.total_bytes / 1024.0),
                StringPrintf("%.2fx smaller", total_reduction)});
  table.AddRow({"cold detect ms/query",
                StringPrintf("%.4f", v1_times.cold_ms_per_query),
                StringPrintf("%.4f", v2_times.cold_ms_per_query),
                StringPrintf("%.2fx", cold_speedup)});
  table.AddRow({"hot detect ms/query",
                StringPrintf("%.4f", v1_times.hot_ms_per_query),
                StringPrintf("%.4f", v2_times.hot_ms_per_query),
                StringPrintf("%.2fx", hot_speedup)});
  table.Print();
  if (!counts_match) return 1;

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"storage\",\n"
      "  \"traces\": %zu,\n  \"scale\": %.3f,\n  \"repetitions\": %zu,\n"
      "  \"match_counts_equal\": %s,\n"
      "  \"posting_table_bytes_v1\": %llu,\n"
      "  \"posting_table_bytes_v2\": %llu,\n"
      "  \"posting_table_size_reduction\": %.3f,\n"
      "  \"total_segment_bytes_v1\": %llu,\n"
      "  \"total_segment_bytes_v2\": %llu,\n"
      "  \"total_segment_size_reduction\": %.3f,\n"
      "  \"workloads\": [\n"
      "    {\"name\": \"detect_rare_cold\", \"matches\": %zu,\n"
      "     \"v1_ms_per_query\": %.4f, \"v2_ms_per_query\": %.4f,\n"
      "     \"speedup\": %.3f},\n"
      "    {\"name\": \"detect_rare_hot\", \"matches\": %zu,\n"
      "     \"v1_ms_per_query\": %.4f, \"v2_ms_per_query\": %.4f,\n"
      "     \"speedup\": %.3f}\n"
      "  ]\n}\n",
      traces, options.scale, options.repetitions,
      counts_match ? "true" : "false",
      static_cast<unsigned long long>(v1_sizes.posting_bytes),
      static_cast<unsigned long long>(v2_sizes.posting_bytes),
      posting_reduction,
      static_cast<unsigned long long>(v1_sizes.total_bytes),
      static_cast<unsigned long long>(v2_sizes.total_bytes), total_reduction,
      v1_times.matches, v1_times.cold_ms_per_query,
      v2_times.cold_ms_per_query, cold_speedup, v1_times.matches,
      v1_times.hot_ms_per_query, v2_times.hot_ms_per_query, hot_speedup);
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
