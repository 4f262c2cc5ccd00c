#ifndef SEQDET_BENCH_BENCH_UTIL_H_
#define SEQDET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/timer.h"
#include "index/sequence_index.h"
#include "storage/database.h"

namespace seqdet::bench {

/// Command-line options shared by every reproduction harness.
///
/// Benches default to `scale = 0.05` (5% of the paper's trace counts) so the
/// whole suite finishes in minutes; `--full` or `--scale=1` reproduces the
/// paper-sized datasets. The *shape* of every result (who wins, how curves
/// grow) is stable across scales; absolute times are not comparable to the
/// paper's testbed anyway.
struct BenchOptions {
  double scale = 0.05;
  size_t threads = 0;  // 0 = hardware concurrency
  size_t repetitions = 3;
  uint64_t seed = 42;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--full") {
        options.scale = 1.0;
      } else if (StartsWith(arg, "--scale=")) {
        ParseDouble(arg.substr(8), &options.scale);
      } else if (StartsWith(arg, "--threads=")) {
        int64_t t;
        if (ParseInt64(arg.substr(10), &t) && t > 0) {
          options.threads = static_cast<size_t>(t);
        }
      } else if (StartsWith(arg, "--reps=")) {
        int64_t r;
        if (ParseInt64(arg.substr(7), &r) && r > 0) {
          options.repetitions = static_cast<size_t>(r);
        }
      } else if (StartsWith(arg, "--seed=")) {
        int64_t s;
        if (ParseInt64(arg.substr(7), &s)) {
          options.seed = static_cast<uint64_t>(s);
        }
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "options: --scale=<0..1> | --full   dataset scale "
            "(default 0.05)\n"
            "         --threads=<n>             worker threads\n"
            "         --reps=<n>                repetitions per cell\n"
            "         --seed=<n>                workload seed\n");
        std::exit(0);
      }
    }
    return options;
  }
};

/// Runs `fn` `reps` times and returns the mean seconds (the paper reports
/// the average of 5 runs).
inline double TimeSeconds(size_t reps, const std::function<void()>& fn) {
  double total = 0;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    total += watch.ElapsedSeconds();
  }
  return total / static_cast<double>(reps);
}

/// Fresh in-memory database for index builds (keeps benches focused on
/// algorithmic cost rather than disk speed, like the paper's dedicated
/// Cassandra node kept storage off the benchmark box).
inline std::unique_ptr<storage::Database> FreshDb() {
  storage::DbOptions options;
  options.table.in_memory = true;
  options.table.use_wal = false;
  auto db = storage::Database::Open("", options);
  if (!db.ok()) {
    std::fprintf(stderr, "db open failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  return std::move(db).value();
}

/// Builds a SequenceIndex over `log`; aborts on failure (bench context).
inline std::unique_ptr<index::SequenceIndex> BuildIndexOrDie(
    storage::Database* db, const eventlog::EventLog& log,
    const index::IndexOptions& options) {
  auto idx = index::SequenceIndex::Open(db, options);
  if (!idx.ok()) {
    std::fprintf(stderr, "index open failed: %s\n",
                 idx.status().ToString().c_str());
    std::abort();
  }
  auto stats = (*idx)->Update(log);
  if (!stats.ok()) {
    std::fprintf(stderr, "index update failed: %s\n",
                 stats.status().ToString().c_str());
    std::abort();
  }
  return std::move(idx).value();
}

/// Simple fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size() + 2);
  }

  void AddRow(std::vector<std::string> cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size() + 2);
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::string rule;
    for (size_t w : widths_) rule += std::string(w, '-') + "+";
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row);
    std::fflush(stdout);
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      std::string cell = cells[i];
      cell.resize(widths_[i], ' ');
      line += cell + "|";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

/// Writes the provenance stamp of a bench result as three JSON object
/// members, each followed by ",\n": `hardware_concurrency`, `cpu_model`
/// (the first "model name" of /proc/cpuinfo) and `commit` (the
/// SEQDET_BENCH_COMMIT environment variable). Unknown values read
/// "unknown". A timing means little without the box it ran on.
inline void WriteBenchStamp(FILE* json) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (!StartsWith(line, "model name")) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      cpu_model = std::string(Trim(std::string_view(line).substr(colon + 1)));
    }
    break;
  }
  const char* env = std::getenv("SEQDET_BENCH_COMMIT");
  std::string commit = env != nullptr && *env != '\0' ? env : "unknown";
  // Neither value should hold JSON metacharacters; blank any that do.
  for (std::string* text : {&cpu_model, &commit}) {
    for (char& c : *text) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        c = ' ';
      }
    }
  }
  std::fprintf(json,
               "  \"hardware_concurrency\": %u,\n"
               "  \"cpu_model\": \"%s\",\n"
               "  \"commit\": \"%s\",\n",
               std::thread::hardware_concurrency(), cpu_model.c_str(),
               commit.c_str());
}

inline std::string Secs(double seconds) {
  return StringPrintf("%.3f", seconds);
}

inline std::string Millis(double seconds) {
  return StringPrintf("%.3f", seconds * 1e3);
}

}  // namespace seqdet::bench

#endif  // SEQDET_BENCH_BENCH_UTIL_H_
