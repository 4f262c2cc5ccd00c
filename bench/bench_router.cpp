// Scatter-gather router benchmark: what fronting N trace-hash shard
// workers with `seqdet route` costs per query relative to one process
// over the unsharded index. Everything runs in-process over loopback —
// same machine, same index configuration — so the delta is the router's
// own overhead: the extra HTTP hop, the fan-out/fan-in, and the integer
// re-merge. On a single box the router cannot *win* (there is no extra
// hardware to buy parallelism from); the number this guards is the
// overhead staying flat as the shard count grows.
//
// Per configuration (single process, router over 1/2/4/8 shards) the
// harness replays the same seeded mix of detect / stats / continue
// queries and reports mean ms per query, plus the shard-split partition
// and per-shard index build time for the ingest side.
//
// Emits BENCH_router.json (override with --out=<path>).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datagen/generators.h"
#include "index/sequence_index.h"
#include "index/trace_shard.h"
#include "log/event_log.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "storage/database.h"

using namespace seqdet;

namespace {

eventlog::EventLog RouterLog(const bench::BenchOptions& options) {
  datagen::RandomLogConfig config;
  config.num_traces =
      std::max<size_t>(100, static_cast<size_t>(4000 * options.scale));
  config.max_events_per_trace = 40;
  config.num_activities = 10;
  config.seed = options.seed;
  config.mean_gap = 5;
  config.activity_skew = 0.3;
  return datagen::GenerateRandomLog(config);
}

std::vector<eventlog::EventLog> PartitionLog(const eventlog::EventLog& log,
                                             size_t num_shards) {
  std::vector<eventlog::EventLog> parts(num_shards);
  for (auto& part : parts) {
    for (const auto& name : log.dictionary().names()) {
      part.dictionary().Intern(name);
    }
  }
  for (const auto& trace : log.traces()) {
    parts[index::ShardOfTrace(trace.id, num_shards)].AddTrace(trace);
  }
  return parts;
}

struct Node {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::SequenceIndex> index;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;
  double build_seconds = 0;

  explicit Node(const eventlog::EventLog& log) {
    db = bench::FreshDb();
    index::IndexOptions options;
    options.num_threads = 1;
    Stopwatch watch;
    index = bench::BuildIndexOrDie(db.get(), log, options);
    build_seconds = watch.ElapsedSeconds();
    service = std::make_unique<server::QueryService>(index.get());
    http = std::make_unique<server::HttpServer>();
    service->RegisterRoutes(http.get());
    if (!http->Start(0).ok()) std::abort();
  }
  ~Node() { http->Stop(); }
};

struct QueryMix {
  std::vector<std::string> detect;
  std::vector<std::string> stats;
  std::vector<std::string> cont;
};

QueryMix MakeMix(const eventlog::EventLog& log, size_t count,
                 uint64_t seed) {
  QueryMix mix;
  Rng rng(seed ^ 0xB0073ull);
  const auto& dict = log.dictionary();
  for (size_t i = 0; i < count; ++i) {
    size_t len = 2 + rng.NextBounded(2);
    std::string q;
    for (size_t k = 0; k < len; ++k) {
      if (k > 0) q += " -> ";
      q += dict.Name(
          static_cast<eventlog::ActivityId>(rng.NextBounded(dict.size())));
    }
    std::string encoded = server::HttpClient::UrlEncode(q);
    mix.detect.push_back("/detect?q=" + encoded + "&limit=1000");
    mix.stats.push_back("/stats?q=" + encoded);
    mix.cont.push_back("/continue?q=" + encoded + "&mode=hybrid");
  }
  return mix;
}

/// Mean ms per query for one target list against one port, best intent:
/// a warm-up pass first (connections, caches), then `reps` timed passes.
double MsPerQuery(uint16_t port, const std::vector<std::string>& targets,
                  size_t reps) {
  server::HttpClient client(port);
  for (const auto& t : targets) {
    auto r = client.Get(t);
    if (!r.ok() || r->status != 200) {
      std::fprintf(stderr, "bench query failed: %s\n", t.c_str());
      std::abort();
    }
  }
  double seconds = bench::TimeSeconds(reps, [&] {
    for (const auto& t : targets) {
      auto r = client.Get(t);
      if (!r.ok() || r->status != 200) std::abort();
    }
  });
  return seconds * 1000.0 / static_cast<double>(targets.size());
}

struct ConfigResult {
  std::string name;
  size_t shards = 0;  // 0 = single process, no router hop
  double split_build_seconds = 0;
  double detect_ms = 0;
  double stats_ms = 0;
  double continue_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  std::string out_path = "BENCH_router.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--out=")) out_path = arg.substr(6);
  }

  eventlog::EventLog log = RouterLog(options);
  const size_t query_count =
      std::max<size_t>(100, static_cast<size_t>(2000 * options.scale));
  QueryMix mix = MakeMix(log, query_count, options.seed);
  std::printf("router bench: %zu traces, %zu queries per route, %zu reps\n",
              log.traces().size(), query_count, options.repetitions);

  std::vector<ConfigResult> results;

  {
    Node single(log);
    ConfigResult r;
    r.name = "single";
    r.split_build_seconds = single.build_seconds;
    r.detect_ms = MsPerQuery(single.http->port(), mix.detect,
                             options.repetitions);
    r.stats_ms = MsPerQuery(single.http->port(), mix.stats,
                            options.repetitions);
    r.continue_ms = MsPerQuery(single.http->port(), mix.cont,
                               options.repetitions);
    results.push_back(r);
    std::printf("  %-9s detect %7.3f ms  stats %7.3f ms  continue %7.3f ms"
                "  (build %.2fs)\n",
                r.name.c_str(), r.detect_ms, r.stats_ms, r.continue_ms,
                r.split_build_seconds);
  }

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    auto parts = PartitionLog(log, shards);
    std::vector<std::unique_ptr<Node>> workers;
    server::RouterOptions router_options;
    double build_seconds = 0;
    for (const auto& part : parts) {
      workers.push_back(std::make_unique<Node>(part));
      build_seconds += workers.back()->build_seconds;
      router_options.shards.push_back(
          server::ShardEndpoint{"127.0.0.1", workers.back()->http->port()});
    }
    router_options.default_deadline_ms = 60000;
    router_options.hedge_after_ms = 0;  // latency measurement, no races
    server::ShardRouter router(router_options);
    server::HttpServer router_http;
    router.RegisterRoutes(&router_http);
    if (!router_http.Start(0).ok()) std::abort();

    ConfigResult r;
    r.name = "router_" + std::to_string(shards);
    r.shards = shards;
    r.split_build_seconds = build_seconds;
    r.detect_ms = MsPerQuery(router_http.port(), mix.detect,
                             options.repetitions);
    r.stats_ms = MsPerQuery(router_http.port(), mix.stats,
                            options.repetitions);
    r.continue_ms = MsPerQuery(router_http.port(), mix.cont,
                               options.repetitions);
    results.push_back(r);
    std::printf("  %-9s detect %7.3f ms  stats %7.3f ms  continue %7.3f ms"
                "  (build %.2fs)\n",
                r.name.c_str(), r.detect_ms, r.stats_ms, r.continue_ms,
                r.split_build_seconds);
    router_http.Stop();
  }

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"router\",\n");
  bench::WriteBenchStamp(json);
  std::fprintf(json,
               "  \"traces\": %zu,\n"
               "  \"scale\": %.3f,\n"
               "  \"queries\": %zu,\n"
               "  \"repetitions\": %zu,\n"
               "  \"configs\": [\n",
               log.traces().size(), options.scale, query_count,
               options.repetitions);
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"shards\": %zu,\n"
                 "     \"build_seconds\": %.4f,\n"
                 "     \"detect_ms_per_query\": %.4f,\n"
                 "     \"stats_ms_per_query\": %.4f,\n"
                 "     \"continue_ms_per_query\": %.4f}%s\n",
                 r.name.c_str(), r.shards, r.split_build_seconds,
                 r.detect_ms, r.stats_ms, r.continue_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
