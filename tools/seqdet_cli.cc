// seqdet — command-line front end for the sequence-detection index.
//
//   seqdet generate --dataset=max_1000 --scale=0.1 --out=log.xes
//   seqdet index    --db=./idx --log=log.xes [--policy=STNM]
//                   [--method=indexing|parsing|state] [--threads=N]
//   seqdet info     --db=./idx
//   seqdet stats    --db=./idx --pattern=act_1,act_2,act_3
//   seqdet detect   --db=./idx --pattern=act_1,act_2 [--limit=20]
//                   [--max-gap=N] [--max-span=N]
//   seqdet continue --db=./idx --pattern=act_1,act_2
//                   [--mode=accurate|fast|hybrid] [--topk=5] [--limit=10]
//   seqdet prune    --db=./idx --trace=42
//
// The database directory persists across invocations; `index` is
// incremental (re-indexing the same file is a no-op thanks to LastChecked).

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "datagen/dataset_catalog.h"
#include "index/sequence_index.h"
#include "index/trace_shard.h"
#include "log/csv_io.h"
#include "log/log_statistics.h"
#include "log/xes_io.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "storage/database.h"

using namespace seqdet;

namespace {

/// A numeric flag that is present but malformed, or out of range for the
/// type its command reads it as. The Args getters throw it and main exits
/// with status 2 naming the flag; unwinding closes whatever the command had
/// opened, so no call site needs an error branch.
struct FlagError {
  std::string message;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "")
      const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// --key as an integer of type T, or `fallback` when the flag is absent.
  /// Throws FlagError when the value is not an integer or does not fit T
  /// (--port=80x, or --limit=-1 for an unsigned count).
  template <typename T = int64_t>
  T GetInt(const std::string& key, std::type_identity_t<T> fallback) const {
    // The values both T and the int64 parser can represent.
    constexpr int64_t kMin = std::numeric_limits<T>::min();
    constexpr int64_t kMax =
        std::in_range<int64_t>(std::numeric_limits<T>::max())
            ? static_cast<int64_t>(std::numeric_limits<T>::max())
            : std::numeric_limits<int64_t>::max();
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    int64_t v = 0;
    if (!ParseInt64(it->second, &v) || v < kMin || v > kMax) {
      throw FlagError{"--" + key + "=" + it->second +
                      ": expected an integer in [" + std::to_string(kMin) +
                      ", " + std::to_string(kMax) + "]"};
    }
    return static_cast<T>(v);
  }
  /// --key as a finite number, or `fallback` when the flag is absent.
  /// Throws FlagError otherwise.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    double v = 0;
    if (!ParseDouble(it->second, &v) || !std::isfinite(v)) {
      throw FlagError{"--" + key + "=" + it->second +
                      ": expected a finite number"};
    }
    return v;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg.substr(2)] = "true";
    } else {
      args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: seqdet <command> [flags]\n"
      "  generate --dataset=<name>|--profile=bpi_2013 --out=<file>\n"
      "           [--scale=0..1]   write a synthetic log (.xes or .csv)\n"
      "  index    --db=<dir> --log=<file> [--policy=SC|STNM|STAM]\n"
      "           [--method=indexing|parsing|state] [--threads=N]\n"
      "           [--cache-bytes=N]  read-cache budget (0 disables)\n"
      "           [--lifecycle=complete]  keep only matching XES events\n"
      "  info     --db=<dir> | --port=<n>  (--port asks a live server)\n"
      "  stats    --db=<dir> --pattern=a,b,c [--last-completion]\n"
      "  detect   --db=<dir> --pattern=a,b,c [--limit=N] [--max-gap=N]\n"
      "           [--max-span=N]\n"
      "  query    --db=<dir> --q=<pattern> [--limit=N]\n"
      "           or --port=<n> --q=<pattern> to GET /detect from a live\n"
      "           server or router and print the JSON response verbatim\n"
      "           pattern language: `a (b|c)+ !d e within 5m gap <= 30s`\n"
      "           (disjunction, Kleene+, negation, inclusive time windows;\n"
      "           \"->\" separators optional) and compliance templates\n"
      "           response(a,b) | precedence(a,b) | absence(a) whose\n"
      "           matches are the rule's violation witnesses\n"
      "  serve    --db=<dir> [--port=8391]   JSON-over-HTTP query service\n"
      "           [--http-threads=N]  worker pool size (default: cores)\n"
      "           [--max-inflight=64]  admission limit; excess queries\n"
      "           are shed with 503 + Retry-After (0 disables)\n"
      "           [--request-deadline-ms=N]  default per-query budget;\n"
      "           long joins are cancelled with 504 (0 disables)\n"
      "           [--backlog=N] [--keepalive-max=100]\n"
      "           [--idle-timeout-ms=5000]\n"
      "           [--auto-fold]  background maintenance: fold fragmented\n"
      "           posting lists + compact statistics automatically\n"
      "           [--fold-interval-ms=500] [--fold-min-bytes=4194304]\n"
      "           [--fold-min-ops=16384] [--fold-rate-limit=BYTES/S]\n"
      "  shard-split --log=<file> --shards=N --out=<dir>\n"
      "           [--policy=SC|STNM|STAM] [--method=...] [--threads=N]\n"
      "           partition a log by trace hash into N per-shard index\n"
      "           directories <dir>/shard-000..N-1, each pre-interned with\n"
      "           the full activity dictionary (ids identical across\n"
      "           shards); serve each with `seqdet serve`, front them with\n"
      "           `seqdet route`\n"
      "  route    --shards=host:port,port,... [--port=8390]\n"
      "           scatter-gather router over sharded workers; /detect,\n"
      "           /stats, /continue answers are byte-identical to one\n"
      "           unsharded server\n"
      "           [--request-deadline-ms=2000]  default per-query budget\n"
      "           [--max-deadline-ms=600000] [--merge-margin-ms=50]\n"
      "           [--hedge-after-ms=250]  straggler hedging (0 disables)\n"
      "           [--connect-timeout-ms=250]\n"
      "           [--breaker-failures=3] [--breaker-cooldown-ms=1000]\n"
      "           [--allow-partial]  merge what arrived instead of 503\n"
      "           [--scatter-threads=N] [--http-threads=N]\n"
      "  continue --db=<dir> --pattern=a,b [--mode=accurate|fast|hybrid]\n"
      "           [--topk=K] [--limit=N] [--insert-at=I]\n"
      "           or --port=<n> --pattern=a,b [--mode=...] [--topk=K] to\n"
      "           GET /continue from a live server or router and print the\n"
      "           JSON response verbatim\n"
      "  prune    --db=<dir> --trace=<id>\n"
      "  fold     --db=<dir>   maintenance: fold statistics deltas and\n"
      "           rewrite posting lists as globally sorted blocks\n"
      "  check    --db=<dir>   fsck: verify cross-table invariants\n"
      "datasets: ");
  for (const auto& name : datagen::DatasetNames()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<eventlog::EventLog> LoadLogFile(const Args& args,
                                       const std::string& path) {
  if (EndsWith(path, ".xes")) {
    eventlog::XesReadOptions options;
    options.lifecycle_filter = args.Get("lifecycle");
    return eventlog::ReadXesLogFile(path, options);
  }
  if (EndsWith(path, ".csv")) return eventlog::ReadCsvLogFile(path);
  return Status::InvalidArgument("log file must end in .xes or .csv: " +
                                 path);
}

Result<std::unique_ptr<index::SequenceIndex>> OpenIndex(
    const Args& args, storage::Database* db) {
  index::IndexOptions options;
  std::string policy = args.Get("policy", "STNM");
  if (!index::ParsePolicyName(policy, &options.policy)) {
    return Status::InvalidArgument("unknown policy: " + policy);
  }
  std::string method = args.Get("method", "indexing");
  if (method == "indexing") {
    options.method = index::ExtractionMethod::kIndexing;
  } else if (method == "parsing") {
    options.method = index::ExtractionMethod::kParsing;
  } else if (method == "state") {
    options.method = index::ExtractionMethod::kState;
  } else {
    return Status::InvalidArgument("unknown method: " + method);
  }
  options.num_threads = args.GetInt<size_t>("threads", 0);
  options.cache_bytes = args.GetInt<size_t>("cache-bytes", options.cache_bytes);
  return index::SequenceIndex::Open(db, options);
}

/// Opens the index trying each policy until the persisted one matches.
/// Query commands shouldn't need --policy; the index knows what it is.
/// `maintenance` (optional) configures the background auto-fold service.
Result<std::unique_ptr<index::SequenceIndex>> OpenIndexAnyPolicy(
    storage::Database* db,
    const index::MaintenanceOptions* maintenance = nullptr) {
  // Refuse to conjure an index out of an empty directory: read-only
  // commands on a mistyped --db path should fail loudly, not create a
  // fresh STNM index there.
  if (db->GetTable("meta") == nullptr) {
    return Status::NotFound("no index found in " + db->dir() +
                            " (run `seqdet index` first)");
  }
  for (auto policy :
       {index::Policy::kSkipTillNextMatch, index::Policy::kStrictContiguity,
        index::Policy::kSkipTillAnyMatch}) {
    index::IndexOptions options;
    options.policy = policy;
    if (maintenance != nullptr) options.maintenance = *maintenance;
    auto opened = index::SequenceIndex::Open(db, options);
    if (opened.ok()) return opened;
    if (!opened.status().IsInvalidArgument()) return opened.status();
  }
  return Status::InvalidArgument("cannot determine the index's policy");
}

Result<query::Pattern> PatternFromFlag(const Args& args,
                                       const index::SequenceIndex& index) {
  std::string spec = args.Get("pattern");
  if (spec.empty()) {
    return Status::InvalidArgument("--pattern=a,b,c is required");
  }
  std::vector<std::string> names = Split(spec, ',');
  return query::Pattern::FromNames(index.dictionary(), names);
}

int CmdGenerate(const Args& args) {
  std::string out = args.Get("out");
  std::string dataset = args.Get("dataset", args.Get("profile"));
  if (out.empty() || dataset.empty()) return Usage();
  auto log = datagen::LoadDataset(dataset, args.GetDouble("scale", 1.0));
  if (!log.ok()) return Fail(log.status());
  Status write = EndsWith(out, ".csv")
                     ? eventlog::WriteCsvLogFile(*log, out)
                     : eventlog::WriteXesLogFile(*log, out);
  if (!write.ok()) return Fail(write);
  auto stats = eventlog::LogStatistics::Compute(*log);
  std::printf("%s\n", stats.SummaryRow(dataset).c_str());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdIndex(const Args& args) {
  std::string db_path = args.Get("db"), log_path = args.Get("log");
  if (db_path.empty() || log_path.empty()) return Usage();
  auto log = LoadLogFile(args, log_path);
  if (!log.ok()) return Fail(log.status());
  auto db = storage::Database::Open(db_path);
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndex(args, db->get());
  if (!index.ok()) return Fail(index.status());

  Stopwatch watch;
  auto stats = (*index)->Update(*log);
  if (!stats.ok()) return Fail(stats.status());
  Status flush = (*index)->Flush();
  if (!flush.ok()) return Fail(flush);
  std::printf(
      "indexed %zu traces / %zu events in %.2fs: %zu pair completions "
      "(%zu extracted, %zu deduplicated)\n",
      stats->traces_processed, (*log).num_events(), watch.ElapsedSeconds(),
      stats->pairs_indexed, stats->pairs_extracted,
      stats->pairs_extracted - stats->pairs_indexed);
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.Has("port")) {
    // Live mode: ask a running `seqdet serve` for its /info — the only way
    // to see serving stats (per-route latency, sheds, in-flight) and the
    // cache/maintenance counters of the process actually serving traffic.
    server::HttpClient client(args.GetInt<uint16_t>("port", 0));
    auto response = client.Get("/info");
    if (!response.ok()) return Fail(response.status());
    if (response->status != 200) {
      return Fail(Status::IOError(StringPrintf(
          "/info returned HTTP %d: %s", response->status,
          response->body.c_str())));
    }
    std::printf("%s\n", response->body.c_str());
    return 0;
  }
  std::string db_path = args.Get("db");
  if (db_path.empty()) return Usage();
  auto db = storage::Database::Open(db_path);
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  std::printf("policy:     %s\n", index::PolicyName((*index)->options().policy));
  std::printf("periods:    %zu\n", (*index)->num_periods());
  std::printf("activities: %zu\n", (*index)->dictionary().size());
  std::printf("postings:   format v%u\n", index::kPostingFormatBlocked);
  std::printf("segments:   format v2\n");
  storage::TableSegmentStats seg = (*db)->GetSegmentStats();
  if (seg.num_segments > 0) {
    double ratio = seg.disk_bytes > 0
                       ? static_cast<double>(seg.logical_bytes) /
                             static_cast<double>(seg.disk_bytes)
                       : 0.0;
    std::printf("  %zu segment files, %zu blocks, "
                "%llu bytes on disk for %llu logical (%.2fx)\n",
                seg.num_segments, seg.num_blocks,
                static_cast<unsigned long long>(seg.disk_bytes),
                static_cast<unsigned long long>(seg.logical_bytes), ratio);
  }
  index::PostingCacheStats cache = (*index)->cache_stats();
  std::printf("read cache: %zu / %zu bytes in %zu entries "
              "(hits %llu, misses %llu, evictions %llu, invalidations %llu)\n",
              cache.bytes, cache.capacity_bytes, cache.entries,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.invalidations));
  auto frag = (*index)->PostingFragmentationStats();
  if (frag.ok()) {
    std::printf("fragmentation: %zu keys (%zu fragmented), %zu blocks, "
                "%llu value bytes (%llu in fragments, ratio %.3f)\n",
                frag->keys, frag->fragmented_keys, frag->blocks,
                static_cast<unsigned long long>(frag->value_bytes),
                static_cast<unsigned long long>(frag->fragment_bytes),
                frag->FragmentRatio());
  }
  index::PendingFoldLoad pending = (*index)->pending_fold_load();
  std::printf("pending fold load: %llu bytes / %llu append records "
              "(since open)\n",
              static_cast<unsigned long long>(pending.bytes),
              static_cast<unsigned long long>(pending.ops));
  std::printf("tables:\n");
  for (const auto& name : (*db)->TableNames()) {
    std::printf("  %-16s ~%zu entries\n", name.c_str(),
                (*db)->GetTable(name)->ApproximateEntryCount());
  }
  for (const auto& name : (*db)->ShardedTableNames()) {
    storage::ShardedTable* table = (*db)->GetShardedTable(name);
    std::printf("  %-16s ~%zu entries (%zu shards)\n", name.c_str(),
                table->ApproximateEntryCount(), table->num_shards());
  }
  return 0;
}

int CmdStats(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  auto pattern = PatternFromFlag(args, **index);
  if (!pattern.ok()) return Fail(pattern.status());

  query::QueryProcessor qp(index->get());
  query::StatisticsOptions options;
  options.include_last_completion = args.Has("last-completion");
  auto stats = qp.Statistics(*pattern, options);
  if (!stats.ok()) return Fail(stats.status());
  const auto& dict = (*index)->dictionary();
  for (const auto& row : stats->pairs) {
    std::printf("(%s, %s): %llu completions, avg duration %.2f",
                dict.Name(row.pair.first).c_str(),
                dict.Name(row.pair.second).c_str(),
                static_cast<unsigned long long>(row.total_completions),
                row.average_duration);
    if (row.last_completion.has_value()) {
      std::printf(", last completion at %lld",
                  static_cast<long long>(*row.last_completion));
    }
    std::printf("\n");
  }
  std::printf("whole-pattern completions upper bound: %llu\n",
              static_cast<unsigned long long>(
                  stats->completions_upper_bound));
  std::printf("whole-pattern estimated duration: %.2f\n",
              stats->estimated_duration);
  return 0;
}

int CmdDetect(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  auto pattern = PatternFromFlag(args, **index);
  if (!pattern.ok()) return Fail(pattern.status());

  query::DetectionConstraints constraints;
  if (args.Has("max-gap")) constraints.max_gap = args.GetInt("max-gap", 0);
  if (args.Has("max-span")) constraints.max_span = args.GetInt("max-span", 0);

  query::QueryProcessor qp(index->get());
  Stopwatch watch;
  auto matches = qp.Detect(*pattern, constraints);
  if (!matches.ok()) return Fail(matches.status());
  double ms = watch.ElapsedMillis();

  size_t limit = args.GetInt<size_t>("limit", 20);
  for (size_t i = 0; i < matches->size() && i < limit; ++i) {
    const auto& match = (*matches)[i];
    std::printf("trace %llu:",
                static_cast<unsigned long long>(match.trace));
    for (auto ts : match.timestamps) {
      std::printf(" %lld", static_cast<long long>(ts));
    }
    std::printf("\n");
  }
  if (matches->size() > limit) {
    std::printf("... and %zu more\n", matches->size() - limit);
  }
  std::printf("%zu matches in %.3f ms (policy %s)\n", matches->size(), ms,
              index::PolicyName((*index)->options().policy));
  return 0;
}

/// Live mode of `query` and `continue`: GETs `target` (plus the optional
/// --limit / --deadline-ms parameters) from the server on --port and prints
/// the JSON body verbatim — which makes byte-comparing a router against a
/// single server a shell one-liner (tools/check_all.sh does exactly that).
int LiveGet(const Args& args, std::string target) {
  if (args.Has("limit")) {
    target += "&limit=" + std::to_string(args.GetInt<size_t>("limit", 0));
  }
  if (args.Has("deadline-ms")) {
    target += "&deadline_ms=" + std::to_string(args.GetInt("deadline-ms", 0));
  }
  server::HttpClient client(args.GetInt<uint16_t>("port", 0));
  auto response = client.Get(target);
  if (!response.ok()) return Fail(response.status());
  std::printf("%s\n", response->body.c_str());
  if (response->status != 200) {
    std::fprintf(stderr, "HTTP %d\n", response->status);
    return 1;
  }
  return 0;
}

int CmdContinue(const Args& args) {
  if (args.Has("port")) {
    // Live mode: GET /continue. Each name is quoted so activity names that
    // collide with the pattern grammar's keywords or punctuation survive.
    std::string spec = args.Get("pattern");
    if (spec.empty()) {
      return Fail(Status::InvalidArgument("--pattern=a,b,c is required"));
    }
    std::vector<std::string> names = Split(spec, ',');
    for (std::string& name : names) name = "\"" + name + "\"";
    std::string target =
        "/continue?q=" + server::HttpClient::UrlEncode(Join(names, " -> ")) +
        "&mode=" + server::HttpClient::UrlEncode(args.Get("mode", "accurate"));
    if (args.Has("topk")) {
      target += "&topk=" + std::to_string(args.GetInt<size_t>("topk", 5));
    }
    return LiveGet(args, target);
  }
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  auto pattern = PatternFromFlag(args, **index);
  if (!pattern.ok()) return Fail(pattern.status());

  query::QueryProcessor qp(index->get());
  std::string mode = args.Get("mode", "accurate");
  Stopwatch watch;
  Result<std::vector<query::ContinuationProposal>> proposals =
      Status::Internal("unset");
  if (args.Has("insert-at")) {
    size_t at = args.GetInt<size_t>("insert-at", 0);
    proposals = mode == "fast" ? qp.ContinueInsertFast(*pattern, at)
                               : qp.ContinueInsertAccurate(*pattern, at);
  } else if (mode == "accurate") {
    proposals = qp.ContinueAccurate(*pattern);
  } else if (mode == "fast") {
    proposals = qp.ContinueFast(*pattern);
  } else if (mode == "hybrid") {
    proposals = qp.ContinueHybrid(*pattern, args.GetInt<size_t>("topk", 5));
  } else {
    return Fail(Status::InvalidArgument("unknown mode: " + mode));
  }
  if (!proposals.ok()) return Fail(proposals.status());
  double ms = watch.ElapsedMillis();

  const auto& dict = (*index)->dictionary();
  size_t limit = args.GetInt<size_t>("limit", 10);
  for (size_t i = 0; i < proposals->size() && i < limit; ++i) {
    const auto& p = (*proposals)[i];
    std::printf("%2zu. %-24s completions=%-8llu avg_gap=%-10.2f score=%.4f\n",
                i + 1, dict.Name(p.activity).c_str(),
                static_cast<unsigned long long>(p.total_completions),
                p.average_duration, p.score);
  }
  std::printf("%zu proposals in %.3f ms (%s)\n", proposals->size(), ms,
              mode.c_str());
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.Has("port")) {
    // Live mode: GET /detect from a running `seqdet serve` or `seqdet route`.
    std::string text = args.Get("q");
    if (text.empty()) {
      return Fail(Status::InvalidArgument("--q=<pattern> is required"));
    }
    return LiveGet(args, "/detect?q=" + server::HttpClient::UrlEncode(text));
  }
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  std::string text = args.Get("q");
  if (text.empty()) {
    return Fail(Status::InvalidArgument(
        "--q=\"a -> b within N gap <= M\" is required"));
  }
  auto parsed = query::ParseExtendedPatternQuery(text, (*index)->dictionary());
  if (!parsed.ok()) return Fail(parsed.status());

  query::QueryProcessor qp(index->get());
  Stopwatch watch;
  auto matches = qp.DetectExtended(*parsed);
  if (!matches.ok()) return Fail(matches.status());
  double ms = watch.ElapsedMillis();
  size_t limit = args.GetInt<size_t>("limit", 20);
  for (size_t i = 0; i < matches->size() && i < limit; ++i) {
    const auto& match = (*matches)[i];
    std::printf("trace %llu:",
                static_cast<unsigned long long>(match.trace));
    for (auto ts : match.timestamps) {
      std::printf(" %lld", static_cast<long long>(ts));
    }
    std::printf("\n");
  }
  if (matches->size() > limit) {
    std::printf("... and %zu more\n", matches->size() - limit);
  }
  std::printf("%zu matches in %.3f ms\n", matches->size(), ms);
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void ServeSignalHandler(int) { g_serve_stop = 1; }

int CmdServe(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  index::MaintenanceOptions maint;
  maint.auto_fold = args.Has("auto-fold");
  maint.check_interval_ms =
      args.GetInt<uint64_t>("fold-interval-ms", maint.check_interval_ms);
  maint.min_pending_bytes =
      args.GetInt<uint64_t>("fold-min-bytes", maint.min_pending_bytes);
  maint.min_pending_ops =
      args.GetInt<uint64_t>("fold-min-ops", maint.min_pending_ops);
  maint.rate_limit_bytes_per_sec = args.GetInt<uint64_t>(
      "fold-rate-limit", maint.rate_limit_bytes_per_sec);
  auto index = OpenIndexAnyPolicy(db->get(), &maint);
  if (!index.ok()) return Fail(index.status());
  server::ServingOptions serving;
  serving.max_inflight =
      args.GetInt<size_t>("max-inflight", serving.max_inflight);
  serving.default_deadline_ms =
      args.GetInt("request-deadline-ms", serving.default_deadline_ms);
  server::QueryService service(index->get(), serving);
  server::HttpServerOptions http_options;
  http_options.num_threads = args.GetInt<size_t>("http-threads", 0);
  http_options.backlog = args.GetInt<int>("backlog", 0);
  http_options.max_keepalive_requests = args.GetInt<size_t>(
      "keepalive-max", http_options.max_keepalive_requests);
  http_options.idle_timeout_ms =
      args.GetInt("idle-timeout-ms", http_options.idle_timeout_ms);
  server::HttpServer http(http_options);
  service.RegisterRoutes(&http);
  uint16_t port = args.GetInt<uint16_t>("port", 8391);
  Status started = http.Start(port);
  if (!started.ok()) return Fail(started);
  std::printf("query service listening on http://127.0.0.1:%u "
              "(%zu workers, max in-flight %zu, "
              "default deadline %lld ms)\n"
              "endpoints: /health /info /detect /stats /continue\n"
              "example: curl 'http://127.0.0.1:%u/detect?q=act_0+-%%3E+act_1'\n"
              "auto-fold: %s\n"
              "Ctrl-C to stop.\n",
              http.port(), http.options().num_threads, serving.max_inflight,
              static_cast<long long>(serving.default_deadline_ms),
              http.port(), maint.auto_fold ? "on" : "off");
  // Serve until SIGINT/SIGTERM, then shut down cleanly: stop accepting,
  // quiesce the maintenance service (finishes the in-flight fold commit,
  // aborts the rest), and flush through the index destructor.
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop) pause();
  std::printf("\nshutting down...\n");
  http.Stop();
  server::HttpServerStats http_stats = http.stats();
  server::ServingStatsSnapshot stats = service.serving_stats();
  std::printf("served %llu requests over %llu connections "
              "(%llu bad, %llu read timeouts, %llu shed)\n",
              static_cast<unsigned long long>(http_stats.requests_served),
              static_cast<unsigned long long>(http_stats.connections_accepted),
              static_cast<unsigned long long>(http_stats.bad_requests),
              static_cast<unsigned long long>(http_stats.timeouts),
              static_cast<unsigned long long>(stats.shed_total));
  for (const auto& route : stats.routes) {
    if (route.requests == 0) continue;
    std::printf("  %-10s %llu requests, %llu shed, %llu deadline-exceeded, "
                "p50 %.2f ms, p99 %.2f ms\n",
                route.route.c_str(),
                static_cast<unsigned long long>(route.requests),
                static_cast<unsigned long long>(route.shed),
                static_cast<unsigned long long>(route.deadline_exceeded),
                route.p50_ms, route.p99_ms);
  }
  if ((*index)->maintenance() != nullptr) {
    (*index)->maintenance()->Stop();
    index::MaintenanceStats stats = (*index)->maintenance_stats();
    std::printf("maintenance: %llu cycles, %llu folds, %llu keys folded, "
                "%llu bytes rewritten\n",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.folds_run),
                static_cast<unsigned long long>(stats.keys_folded),
                static_cast<unsigned long long>(stats.bytes_rewritten));
  }
  Status flush = (*index)->Flush();
  if (!flush.ok()) return Fail(flush);
  return 0;
}

int CmdShardSplit(const Args& args) {
  std::string log_path = args.Get("log"), out = args.Get("out");
  int64_t num_shards = args.GetInt("shards", 0);
  if (log_path.empty() || out.empty() || num_shards < 1) return Usage();
  auto log = LoadLogFile(args, log_path);
  if (!log.ok()) return Fail(log.status());

  // Partition by trace hash (index/trace_shard.h — the same function the
  // router's merge correctness rests on: every trace lives in exactly one
  // shard). Every partition pre-interns the FULL source dictionary, in
  // source order, so activity ids are identical across shards; the raw
  // merge protocol and RankProposals' id tie-break depend on that, and it
  // spares queries for activities that only occur in other shards from
  // spurious unknown-activity errors.
  std::vector<eventlog::EventLog> parts(static_cast<size_t>(num_shards));
  for (auto& part : parts) {
    for (const auto& name : log->dictionary().names()) {
      part.dictionary().Intern(name);
    }
  }
  for (const auto& trace : log->traces()) {
    parts[index::ShardOfTrace(trace.id, static_cast<uint64_t>(num_shards))]
        .AddTrace(trace);
  }

  Stopwatch watch;
  for (size_t i = 0; i < parts.size(); ++i) {
    std::string dir = out + StringPrintf("/shard-%03zu", i);
    auto db = storage::Database::Open(dir);
    if (!db.ok()) return Fail(db.status());
    auto index = OpenIndex(args, db->get());
    if (!index.ok()) return Fail(index.status());
    auto stats = (*index)->Update(parts[i]);
    if (!stats.ok()) return Fail(stats.status());
    Status flush = (*index)->Flush();
    if (!flush.ok()) return Fail(flush);
    std::printf("shard %3zu: %s — %zu traces, %zu events, "
                "%zu pair completions\n",
                i, dir.c_str(), parts[i].num_traces(), parts[i].num_events(),
                stats->pairs_indexed);
  }
  std::printf("split %zu traces into %lld shards in %.2fs\n",
              log->num_traces(), static_cast<long long>(num_shards),
              watch.ElapsedSeconds());
  return 0;
}

int CmdRoute(const Args& args) {
  auto shards = server::ParseShardList(args.Get("shards"));
  if (!shards.ok()) return Fail(shards.status());
  server::RouterOptions options;
  options.shards = *shards;
  options.default_deadline_ms =
      args.GetInt("request-deadline-ms", options.default_deadline_ms);
  options.max_deadline_ms =
      args.GetInt("max-deadline-ms", options.max_deadline_ms);
  options.merge_margin_ms =
      args.GetInt("merge-margin-ms", options.merge_margin_ms);
  options.hedge_after_ms =
      args.GetInt("hedge-after-ms", options.hedge_after_ms);
  options.connect_timeout_ms =
      args.GetInt("connect-timeout-ms", options.connect_timeout_ms);
  options.breaker_failure_threshold = args.GetInt<size_t>(
      "breaker-failures", options.breaker_failure_threshold);
  options.breaker_cooldown_ms =
      args.GetInt("breaker-cooldown-ms", options.breaker_cooldown_ms);
  options.allow_partial = args.Has("allow-partial");
  options.scatter_threads = args.GetInt<size_t>("scatter-threads", 0);
  server::ShardRouter router(options);

  server::HttpServerOptions http_options;
  http_options.num_threads = args.GetInt<size_t>("http-threads", 0);
  server::HttpServer http(http_options);
  router.RegisterRoutes(&http);
  Status started = http.Start(args.GetInt<uint16_t>("port", 8390));
  if (!started.ok()) return Fail(started);
  std::printf("shard router listening on http://127.0.0.1:%u over %zu "
              "workers (deadline %lld ms, hedge after %lld ms, "
              "partial results %s)\n",
              http.port(), options.shards.size(),
              static_cast<long long>(options.default_deadline_ms),
              static_cast<long long>(options.hedge_after_ms),
              options.allow_partial ? "allowed" : "refused");
  for (const auto& endpoint : options.shards) {
    std::printf("  shard %s\n", endpoint.ToString().c_str());
  }
  std::printf("endpoints: /health /info /detect /stats /continue\n"
              "Ctrl-C to stop.\n");
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop) pause();
  std::printf("\nshutting down...\n");
  http.Stop();
  server::RouterStatsSnapshot stats = router.stats();
  std::printf("routed %llu scatters: %llu merged, %llu degraded, "
              "%llu failed fan-ins, %llu passthrough\n",
              static_cast<unsigned long long>(stats.scatters),
              static_cast<unsigned long long>(stats.merged_ok),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.partial_503),
              static_cast<unsigned long long>(stats.passthrough));
  for (const auto& shard : stats.shards) {
    std::printf("  %-21s %llu requests, %llu failures, %llu hedges "
                "(%llu won), breaker %s (opened %llu, short-circuited "
                "%llu)\n",
                shard.endpoint.c_str(),
                static_cast<unsigned long long>(shard.requests),
                static_cast<unsigned long long>(shard.failures),
                static_cast<unsigned long long>(shard.hedges),
                static_cast<unsigned long long>(shard.hedge_wins),
                shard.breaker.c_str(),
                static_cast<unsigned long long>(shard.breaker_opens),
                static_cast<unsigned long long>(shard.short_circuits));
  }
  return 0;
}

int CmdCheck(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  Stopwatch watch;
  auto report = (*index)->CheckConsistency();
  if (!report.ok()) return Fail(report.status());
  std::printf(
      "checked %zu pairs / %zu postings / %zu traces in %.2fs\n",
      report->pairs_checked, report->postings_checked,
      report->traces_checked, watch.ElapsedSeconds());
  for (const auto& violation : report->violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (!report->ok()) {
    std::printf("%zu invariant violations found\n",
                report->violations.size());
    return 1;
  }
  std::printf("index is consistent\n");
  return 0;
}

int CmdFold(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  Stopwatch watch;
  Status stats = (*index)->CompactStatistics();
  if (!stats.ok()) return Fail(stats);
  Status postings = (*index)->FoldPostings();
  if (!postings.ok()) return Fail(postings);
  Status flush = (*index)->Flush();
  if (!flush.ok()) return Fail(flush);
  std::printf(
      "folded statistics deltas and posting lists (format v%u) in %.2fs\n",
      index::kPostingFormatBlocked, watch.ElapsedSeconds());
  return 0;
}

int CmdPrune(const Args& args) {
  auto db = storage::Database::Open(args.Get("db"));
  if (!db.ok()) return Fail(db.status());
  auto index = OpenIndexAnyPolicy(db->get());
  if (!index.ok()) return Fail(index.status());
  if (!args.Has("trace")) return Usage();
  auto trace = args.GetInt<eventlog::TraceId>("trace", 0);
  Status pruned = (*index)->PruneTrace(trace);
  if (!pruned.ok()) return Fail(pruned);
  Status flush = (*index)->Flush();
  if (!flush.ok()) return Fail(flush);
  std::printf("pruned trace %llu from Seq and LastChecked\n",
              static_cast<unsigned long long>(trace));
  return 0;
}

int Run(const Args& args) {
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "index") return CmdIndex(args);
  if (args.command == "info") return CmdInfo(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "detect") return CmdDetect(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "shard-split") return CmdShardSplit(args);
  if (args.command == "route") return CmdRoute(args);
  if (args.command == "continue") return CmdContinue(args);
  if (args.command == "prune") return CmdPrune(args);
  if (args.command == "fold") return CmdFold(args);
  if (args.command == "check") return CmdCheck(args);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: invalid flag %s\n", e.message.c_str());
    return 2;
  }
}
