#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/timer.h"
#include "datagen/dataset_catalog.h"
#include "datagen/generators.h"
#include "harness.h"
#include "index/trace_shard.h"
#include "log/xes_io.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "storage/database.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using seqdet::Result;
using seqdet::Status;
using seqdet::Stopwatch;
using seqdet::eventlog::EventLog;
using seqdet::index::SequenceIndex;

// ---------------------------------------------------------------------------
// Workload descriptions
// ---------------------------------------------------------------------------

enum class Dataset { kBpi, kRandom };

struct WorkloadSpec {
  std::string name;
  Dataset dataset = Dataset::kBpi;
  /// Update batches per index build: time-ordered slices of the log (so
  /// traces span batches), or groups of whole traces.
  size_t batches = 1;
  bool time_batches = true;
  /// Set-ups per run; setup_s is their median.
  size_t setup_reps = 3;
  /// Closed-loop clients; 0 = nproc.
  size_t clients = 0;
  /// The timed phase repeats whole ingest cycles instead of serving.
  bool ingest = false;
  PoolSpec pool;
  /// Pool entries per phase whose every response is compared byte for
  /// byte: the first requests of the phase's client walks.
  size_t checked = 200;
  /// /detect requests also checked against the SASE oracle.
  size_t oracle = 8;
  /// Requests in the traced in-process replay.
  size_t replay = 500;
  /// ingest: queries answered after each reopen.
  size_t cycle_requests = 0;
  double warmup_s = 1.0;
  /// Shape guards: minimum post-warm-up cache hit rate, and minimum ratio
  /// of the pool's decoded working set to the cache budget (0 = none).
  double min_hit_rate = 0;
  double min_working_set_ratio = 0;
};

// A twentieth of bpi_2017, so that one ingest cycle (about 2 s here)
// repeats several times within a run and ingest_events_per_s is a median.
constexpr double kBpiScale = 0.05;
constexpr size_t kShards = 2;

std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec ingest;
  ingest.name = "ingest";
  ingest.dataset = Dataset::kBpi;
  ingest.batches = 10;
  // Its set-up (generate, write XES) takes ~25 ms, so take many.
  ingest.setup_reps = 15;
  ingest.clients = 1;
  ingest.ingest = true;
  ingest.pool.size = 10000;
  ingest.cycle_requests = 200;
  ingest.checked = 64;
  // Before the first serving slice (TimedIngest).
  ingest.warmup_s = 0.5;
  ingest.min_hit_rate = 0.95;
  specs.push_back(ingest);

  WorkloadSpec cold;
  cold.name = "serve_cold";
  cold.dataset = Dataset::kRandom;
  cold.batches = 4;
  cold.time_batches = false;
  cold.setup_reps = 1;
  cold.clients = 1;
  cold.pool.size = 4000;
  cold.pool.min_length = 4;
  cold.pool.max_length = 8;
  cold.pool.rare_anchored = 0.5;
  cold.pool.max_continue_length = 2;
  // Mostly /detect; extended patterns get a quarter so their p50 rests
  // on ~300 answers a run (at 10% its spread reached 0.26 over seeds).
  cold.pool.mix = Mix{0.55, 0.25, 0.1, 0.1, "accurate"};
  cold.checked = 200;
  cold.oracle = 4;
  cold.replay = 40;
  cold.min_working_set_ratio = 3;
  specs.push_back(cold);
  return specs;
}

EventLog Generate(const WorkloadSpec& spec, uint64_t seed) {
  namespace dg = seqdet::datagen;
  switch (spec.dataset) {
    case Dataset::kBpi: {
      // bpi_2017 as the catalog generates it (one fixed process); the seed
      // picks which 90% of its cases arrive, so every seed ingests a
      // different log of the same shape and size.
      auto all = dg::LoadDataset("bpi_2017", kBpiScale / 0.9);
      if (!all.ok()) return EventLog();
      std::vector<size_t> order(all->num_traces());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      seqdet::Rng rng(seed);
      rng.Shuffle(&order);
      order.resize(dg::ScaledTraces(dg::Bpi2017Profile().num_traces,
                                    kBpiScale));
      std::sort(order.begin(), order.end());
      EventLog log;
      for (const auto& name : all->dictionary().names()) {
        log.dictionary().Intern(name);
      }
      for (size_t i : order) log.AddTrace(all->traces()[i]);
      return log;
    }
    case Dataset::kRandom: {
      dg::RandomLogConfig config;
      config.num_traces = 11000;
      config.max_events_per_trace = 150;
      config.num_activities = 30;
      config.activity_skew = 0.5;
      config.seed = seed;
      return dg::GenerateRandomLog(config);
    }
  }
  return EventLog();
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Report {
  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Ingest: log file -> on-disk index -> reopened index
// ---------------------------------------------------------------------------

struct IngestReport {
  double read_s = 0;
  double update_s = 0;
  double flush_s = 0;
  double fold_s = 0;
  double db_open_s = 0;
  double index_open_s = 0;
  size_t traces = 0;
  size_t events = 0;
  size_t pairs_extracted = 0;
  size_t pairs_indexed = 0;
  uint64_t fold_bytes_written = 0;
  seqdet::storage::TableSegmentStats segments;
  uint64_t written_bytes = 0;

  /// Read + update + flush + fold: the log-to-index work.
  double ingest_s() const { return read_s + update_s + flush_s + fold_s; }

  void Merge(const IngestReport& o) {
    read_s += o.read_s;
    update_s += o.update_s;
    flush_s += o.flush_s;
    fold_s += o.fold_s;
    db_open_s += o.db_open_s;
    index_open_s += o.index_open_s;
    traces += o.traces;
    events += o.events;
    pairs_extracted += o.pairs_extracted;
    pairs_indexed += o.pairs_indexed;
    fold_bytes_written += o.fold_bytes_written;
    segments.Merge(o.segments);
    written_bytes += o.written_bytes;
  }
};

/// An open on-disk index; the database outlives the index.
struct OpenIndex {
  std::unique_ptr<seqdet::storage::Database> db;
  std::unique_ptr<SequenceIndex> index;

  void Close() {
    index.reset();
    db.reset();
  }
};

/// Opens the index at `dir` exactly as `seqdet serve` does: default
/// database and index options.
Result<OpenIndex> Reopen(const std::string& dir, Tracer* tracer,
                         uint64_t parent, IngestReport* report) {
  OpenIndex open;
  Stopwatch watch;
  {
    ScopedSpan span(tracer, "storage.open", parent);
    auto db = seqdet::storage::Database::Open(dir);
    if (!db.ok()) return db.status();
    open.db = std::move(*db);
  }
  report->db_open_s += watch.ElapsedSeconds();
  watch.Restart();
  {
    ScopedSpan span(tracer, "index.open", parent);
    auto index = SequenceIndex::Open(open.db.get(), {});
    if (!index.ok()) return index.status();
    open.index = std::move(*index);
  }
  report->index_open_s += watch.ElapsedSeconds();
  return open;
}

Result<EventLog> ReadLog(const std::string& path, Tracer* tracer,
                         uint64_t parent, IngestReport* report) {
  Stopwatch watch;
  ScopedSpan span(tracer, "log.read", parent);
  auto log = seqdet::eventlog::ReadXesLogFile(path);
  report->read_s += watch.ElapsedSeconds();
  return log;
}

/// Splits `log` into `batches` logs by event time: batch b holds the
/// events whose timestamps fall in its quantile range, so every trace
/// spans several batches and later batches extend traces indexed earlier.
/// Every part carries the full dictionary, so activity ids follow the
/// source order (the shards of one log must agree on them, as `seqdet
/// shard-split` makes them).
std::vector<EventLog> SplitByTime(const EventLog& log, size_t batches) {
  std::vector<int64_t> ts;
  for (const auto& trace : log.traces()) {
    for (const auto& event : trace.events) ts.push_back(event.ts);
  }
  std::sort(ts.begin(), ts.end());
  std::vector<int64_t> cuts;  // exclusive upper bounds of batches 0..n-2
  for (size_t b = 1; b < batches; ++b) cuts.push_back(ts[ts.size() * b / batches]);
  std::vector<EventLog> parts(batches);
  const auto& dict = log.dictionary();
  for (auto& part : parts) {
    for (const auto& name : dict.names()) part.dictionary().Intern(name);
  }
  for (const auto& trace : log.traces()) {
    for (const auto& event : trace.events) {
      size_t b = static_cast<size_t>(
          std::upper_bound(cuts.begin(), cuts.end(), event.ts) - cuts.begin());
      parts[b].Append(trace.id, dict.Name(event.activity), event.ts);
    }
  }
  return parts;
}

/// Splits into `batches` groups of whole traces (in trace order); every
/// part carries the full dictionary.
std::vector<EventLog> SplitByTrace(const EventLog& log, size_t batches) {
  std::vector<EventLog> parts(batches);
  for (auto& part : parts) {
    for (const auto& name : log.dictionary().names()) {
      part.dictionary().Intern(name);
    }
  }
  const size_t per = (log.num_traces() + batches - 1) / batches;
  for (size_t t = 0; t < log.num_traces(); ++t) {
    parts[t / per].AddTrace(log.traces()[t]);
  }
  return parts;
}

/// Splits by ShardOfTrace the way `seqdet shard-split` does: every part
/// pre-interns the full dictionary so activity ids agree across shards.
std::vector<EventLog> SplitShards(const EventLog& log) {
  std::vector<EventLog> parts(kShards);
  for (auto& part : parts) {
    for (const auto& name : log.dictionary().names()) {
      part.dictionary().Intern(name);
    }
  }
  for (const auto& trace : log.traces()) {
    parts[seqdet::index::ShardOfTrace(trace.id, kShards)].AddTrace(trace);
  }
  return parts;
}

/// Appends `log` in `batches` Updates to a fresh on-disk index with
/// default options, flushes, folds the posting lists and closes it.
Status WriteIndex(const EventLog& log, const std::string& dir,
                  size_t batches, bool time_batches, Tracer* tracer,
                  uint64_t parent, IngestReport* report) {
  fs::remove_all(dir);
  uint64_t written_before = WrittenBytes();
  report->traces += log.num_traces();
  report->events += log.num_events();
  auto db = seqdet::storage::Database::Open(dir);
  if (!db.ok()) return db.status();
  auto index = SequenceIndex::Open(db->get(), {});
  if (!index.ok()) return index.status();
  std::vector<EventLog> parts;
  if (batches > 1) {
    parts = time_batches ? SplitByTime(log, batches)
                         : SplitByTrace(log, batches);
  }
  for (size_t b = 0; b < std::max<size_t>(1, parts.size()); ++b) {
    Stopwatch watch;
    ScopedSpan span(tracer, "index.update", parent);
    auto stats = (*index)->Update(parts.empty() ? log : parts[b]);
    if (!stats.ok()) return stats.status();
    report->update_s += watch.ElapsedSeconds();
    report->pairs_extracted += stats->pairs_extracted;
    report->pairs_indexed += stats->pairs_indexed;
  }
  Stopwatch watch;
  {
    ScopedSpan span(tracer, "storage.flush", parent);
    Status flushed = (*index)->Flush();
    if (!flushed.ok()) return flushed;
  }
  report->flush_s += watch.ElapsedSeconds();
  watch.Restart();
  seqdet::index::FoldStats fold;
  {
    ScopedSpan span(tracer, "index.fold", parent);
    Status folded = (*index)->FoldPostings(&fold);
    if (!folded.ok()) return folded;
  }
  report->fold_s += watch.ElapsedSeconds();
  report->fold_bytes_written += fold.bytes_written;
  report->segments.Merge((*db)->GetSegmentStats());
  index->reset();
  db->reset();
  report->written_bytes += WrittenBytes() - written_before;
  return Status::OK();
}

/// WriteIndex, then Reopen.
Result<OpenIndex> BuildIndex(const EventLog& log, const std::string& dir,
                             size_t batches, bool time_batches,
                             Tracer* tracer, uint64_t parent,
                             IngestReport* report) {
  Status written =
      WriteIndex(log, dir, batches, time_batches, tracer, parent, report);
  if (!written.ok()) return written;
  return Reopen(dir, tracer, parent, report);
}

/// BuildIndex with the write half in a child process, the way `seqdet
/// index` runs apart from `seqdet serve`: the serving process then holds
/// none of the build's memory. Call only while no other thread runs.
Result<OpenIndex> BuildIndexApart(const EventLog& log, const std::string& dir,
                                  size_t batches, bool time_batches,
                                  IngestReport* report) {
  static_assert(std::is_trivially_copyable_v<IngestReport>);
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Tracer off(false);
    IngestReport child;
    Status written = WriteIndex(log, dir, batches, time_batches, &off, 0,
                                &child);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: index build: %s\n",
                   written.ToString().c_str());
      _exit(1);
    }
    bool sent = write(fds[1], &child, sizeof(child)) ==
                static_cast<ssize_t>(sizeof(child));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  IngestReport child;
  ssize_t got = read(fds[0], &child, sizeof(child));
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (got != static_cast<ssize_t>(sizeof(child)) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("index build process failed");
  }
  report->Merge(child);
  Tracer off(false);
  return Reopen(dir, &off, 0, report);
}

// ---------------------------------------------------------------------------
// Serving topologies
// ---------------------------------------------------------------------------

/// A running QueryService over one index, or a ShardRouter in front of one
/// QueryService per shard, all in process on loopback with the options
/// `seqdet serve` / `seqdet route` use by default.
class Topology {
 public:
  static Result<std::unique_ptr<Topology>> Start(
      const std::vector<const SequenceIndex*>& indexes, bool routed) {
    auto t = std::unique_ptr<Topology>(new Topology());
    t->indexes_ = indexes;
    seqdet::server::RouterOptions router_options;
    for (const SequenceIndex* index : indexes) {
      Service s;
      s.service = std::make_unique<seqdet::server::QueryService>(index);
      s.http = std::make_unique<seqdet::server::HttpServer>(HttpOptions());
      s.service->RegisterRoutes(s.http.get());
      Status started = s.http->Start(0);
      if (!started.ok()) return started;
      seqdet::server::ShardEndpoint endpoint;
      endpoint.port = s.http->port();
      router_options.shards.push_back(endpoint);
      t->services_.push_back(std::move(s));
    }
    if (routed) {
      t->router_ = std::make_unique<seqdet::server::ShardRouter>(router_options);
      t->router_http_ =
          std::make_unique<seqdet::server::HttpServer>(HttpOptions());
      t->router_->RegisterRoutes(t->router_http_.get());
      Status started = t->router_http_->Start(0);
      if (!started.ok()) return started;
    }
    return t;
  }

  uint16_t port() const {
    return router_http_ ? router_http_->port() : services_[0].http->port();
  }
  const std::vector<const SequenceIndex*>& indexes() const { return indexes_; }

  std::vector<seqdet::server::ServingStatsSnapshot> serving() const {
    std::vector<seqdet::server::ServingStatsSnapshot> out;
    for (const auto& s : services_) out.push_back(s.service->serving_stats());
    return out;
  }
  seqdet::server::HttpServerStats front_http() const {
    return router_http_ ? router_http_->stats() : services_[0].http->stats();
  }
  seqdet::ThreadPoolStats front_pool() const {
    return router_http_ ? router_http_->pool_stats()
                        : services_[0].http->pool_stats();
  }
  std::optional<seqdet::server::RouterStatsSnapshot> router() const {
    if (!router_) return std::nullopt;
    return router_->stats();
  }

 private:
  Topology() = default;

  /// `seqdet serve` and `seqdet route` pass --http-threads=0: one worker
  /// per hardware thread.
  static seqdet::server::HttpServerOptions HttpOptions() {
    seqdet::server::HttpServerOptions options;
    options.num_threads = 0;
    return options;
  }

  struct Service {
    std::unique_ptr<seqdet::server::QueryService> service;
    std::unique_ptr<seqdet::server::HttpServer> http;  // stops first
  };
  std::vector<const SequenceIndex*> indexes_;
  std::vector<Service> services_;
  std::unique_ptr<seqdet::server::ShardRouter> router_;
  std::unique_ptr<seqdet::server::HttpServer> router_http_;  // stops first
};

// ---------------------------------------------------------------------------
// Closed-loop load
// ---------------------------------------------------------------------------

struct LoadStats {
  std::array<std::vector<double>, kNumKinds> latency_ms;
  /// When each latency sample completed, in seconds from the phase start.
  std::array<std::vector<double>, kNumKinds> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  /// Seconds from the phase start to the first completed response.
  double first_response_s = -1;
  /// First body seen per checked pool entry, and the responses compared
  /// with it (the first included).
  std::map<size_t, std::string> bodies;
  uint64_t compared = 0;
  std::vector<std::string> errors;

  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  void NoteError(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void Merge(LoadStats&& o) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      latency_ms[k].insert(latency_ms[k].end(), o.latency_ms[k].begin(),
                           o.latency_ms[k].end());
      done_s[k].insert(done_s[k].end(), o.done_s[k].begin(),
                       o.done_s[k].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    compared += o.compared;
    if (o.first_response_s >= 0 &&
        (first_response_s < 0 || o.first_response_s < first_response_s)) {
      first_response_s = o.first_response_s;
    }
    for (auto& [idx, body] : o.bodies) {
      auto [it, inserted] = bodies.emplace(idx, body);
      if (!inserted && it->second != body) {
        NoteError("clients saw different answers for " +
                  std::to_string(idx));
      }
    }
    for (auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
};

/// `clients` keep-alive clients, each sending its seeded request stream
/// and waiting for every answer (closed loop), until `seconds` pass or
/// each has sent `max_per_client` requests. Every response must be a 200
/// carrying JSON; responses to checked pool entries must repeat the first
/// answer byte for byte (which is compared with the reference later).
LoadStats RunLoad(uint16_t port, const std::vector<Request>& pool,
                  const std::vector<bool>& checked, uint64_t stream_seed,
                  size_t clients, double seconds, size_t max_per_client) {
  LoadStats total;
  std::mutex mu;
  std::atomic<bool> stop{false};
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadStats local;
      seqdet::server::HttpClient client(port);
      RequestStream stream(pool.size(), stream_seed, c);
      for (size_t n = 0; n < max_per_client && !stop.load(); ++n) {
        size_t idx = stream.Next();
        const Request& request = pool[idx];
        Stopwatch latency;
        auto response = client.Get(request.target);
        double ms = latency.ElapsedMillis();
        ++local.attempted;
        if (local.first_response_s < 0) {
          local.first_response_s = watch.ElapsedSeconds();
        }
        if (!response.ok()) {
          local.NoteError(request.target + ": " +
                          response.status().ToString());
          continue;
        }
        Status check = CheckResponse(response->status, response->body,
                                     nullptr);
        if (check.ok() && checked[idx]) {
          ++local.compared;
          auto [it, inserted] = local.bodies.emplace(idx, response->body);
          if (!inserted && it->second != response->body) {
            check = Status::Corruption("answer changed between requests");
          }
        }
        if (!check.ok()) {
          local.NoteError(request.target + ": " + check.ToString());
          continue;
        }
        local.latency_ms[static_cast<size_t>(request.kind)].push_back(ms);
        local.done_s[static_cast<size_t>(request.kind)].push_back(
            watch.ElapsedSeconds());
      }
      std::lock_guard<std::mutex> lock(mu);
      total.Merge(std::move(local));
    });
  }
  if (seconds < std::numeric_limits<double>::infinity()) {
    while (watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  total.elapsed_s = watch.ElapsedSeconds();
  return total;
}

/// The checked entries of a phase: those of its first `spec.checked`
/// requests, spread over the clients' walks. *planned is how many
/// responses that makes.
std::vector<bool> PhaseChecked(const WorkloadSpec& spec, size_t pool_size,
                               uint64_t stream_seed, size_t clients,
                               size_t* planned) {
  const size_t per_client = (spec.checked + clients - 1) / clients;
  *planned = per_client * clients;
  return CheckedEntries(pool_size, stream_seed, clients, per_client);
}

/// Compares the recorded answers with the in-process reference over
/// `reference` (the single-process index), and `oracle` /detect answers
/// with the SASE oracle over `log`. Fails the run when the phase compared
/// fewer responses than `planned` (or than it answered), or sent fewer
/// than `oracle` to the oracle.
void VerifyAnswers(const SequenceIndex& reference, const EventLog& log,
                   const std::vector<Request>& pool, const LoadStats& load,
                   size_t planned, size_t oracle, const std::string& label,
                   Report* report) {
  const uint64_t want =
      std::min<uint64_t>(planned, load.attempted - load.failed);
  if (load.compared < want) {
    report->Fail(label + ": only " + std::to_string(load.compared) + " of " +
                 std::to_string(want) + " planned answers compared");
  }
  for (const auto& [idx, body] : load.bodies) {
    auto expected = ReferenceBody(reference, pool[idx]);
    Status check = expected.ok()
                       ? CheckResponse(200, body, &*expected)
                       : expected.status();
    if (!check.ok()) {
      ++report->failed;
      report->Fail(pool[idx].target + ": " + check.ToString());
    }
  }
  size_t done = 0, matches = 0;
  for (const auto& [idx, body] : load.bodies) {
    if (done == oracle) break;
    const Request& request = pool[idx];
    if (request.kind != Kind::kDetect && request.kind != Kind::kDetectExt) {
      continue;
    }
    size_t n = 0;
    Status check = CheckAgainstOracle(log, reference, request, &n);
    matches += n;
    ++done;
    if (!check.ok()) {
      ++report->failed;
      report->Fail("oracle: " + check.ToString());
    }
  }
  if (done < oracle) {
    report->Fail(label + ": only " + std::to_string(done) + " of " +
                 std::to_string(oracle) + " oracle comparisons made");
  }
  std::printf("answer check[%s]: %llu responses to %zu pool entries "
              "compared byte for byte with the in-process reference, %zu "
              "/detect answers (%zu matches) with the SASE oracle\n",
              label.c_str(), static_cast<unsigned long long>(load.compared),
              load.bodies.size(), done, matches);
}

/// Index-side counters summed over the indexes of a topology.
struct IndexCounters {
  uint64_t hits = 0, misses = 0, evictions = 0;
  size_t cache_bytes = 0;
  seqdet::index::IndexReadStats read;
};

IndexCounters Counters(const std::vector<const SequenceIndex*>& indexes) {
  IndexCounters c;
  for (const SequenceIndex* index : indexes) {
    auto cache = index->cache_stats();
    c.hits += cache.hits;
    c.misses += cache.misses;
    c.evictions += cache.evictions;
    c.cache_bytes += cache.bytes;
    auto read = index->read_stats();
    c.read.postings_decoded += read.postings_decoded;
    c.read.bytes_decoded += read.bytes_decoded;
    c.read.blocks_decoded += read.blocks_decoded;
    c.read.blocks_skipped += read.blocks_skipped;
    c.read.bytes_skipped += read.bytes_skipped;
  }
  return c;
}

/// One timed serving phase with the counters diffed around it.
struct Phase {
  LoadStats load;
  size_t checked = 0;  // responses the phase plans to compare
  IndexCounters before, after;
  double cpu_s = 0;
  double steal_s = 0;  // hypervisor steal over the phase, summed over CPUs
  seqdet::server::HttpServerStats http_before, http_after;
  seqdet::ThreadPoolStats pool_after;
  std::vector<seqdet::server::ServingStatsSnapshot> serving;
  std::optional<seqdet::server::RouterStatsSnapshot> router;

  /// Appends `later`, a phase on the same topology that followed this
  /// one: its samples continue this phase's timeline, and its end
  /// counters replace this phase's.
  void Extend(Phase&& later) {
    const double elapsed = load.elapsed_s + later.load.elapsed_s;
    for (auto& done : later.load.done_s) {
      for (double& t : done) t += load.elapsed_s;
    }
    load.Merge(std::move(later.load));
    load.elapsed_s = elapsed;
    checked += later.checked;
    after = later.after;
    cpu_s += later.cpu_s;
    steal_s += later.steal_s;
    http_after = later.http_after;
    pool_after = later.pool_after;
    serving = std::move(later.serving);
    router = std::move(later.router);
  }

  uint64_t requests() const { return load.attempted; }
  /// hits / lookups as PostingCache counts them.
  double hit_rate() const {
    double hits = static_cast<double>(after.hits - before.hits);
    double all = hits + static_cast<double>(after.misses - before.misses);
    return all > 0 ? hits / all : 1.0;
  }
  /// Share of lookups that did not decode. A trace-filtered fetch first
  /// probes the pair's whole-list entry and then reads per-block entries,
  /// so PostingCache counts a miss for the probe even when every block it
  /// then needs is cached; only a miss that decoded a block is a real one.
  double served_rate() const {
    double hits = static_cast<double>(after.hits - before.hits);
    double misses = static_cast<double>(after.misses - before.misses);
    double decoded = static_cast<double>(after.read.blocks_decoded -
                                         before.read.blocks_decoded);
    double all = hits + misses;
    return all > 0 ? 1.0 - std::min(misses, decoded) / all : 1.0;
  }
  /// Client-observed p50 of /detect (plain and extended together, as the
  /// handler's route statistics count them).
  double detect_client_p50() const {
    std::vector<double> v = load.latency_ms[static_cast<size_t>(Kind::kDetect)];
    const auto& ext = load.latency_ms[static_cast<size_t>(Kind::kDetectExt)];
    v.insert(v.end(), ext.begin(), ext.end());
    return Median(v);
  }
};

Phase RunPhase(const Topology& topology, const std::vector<Request>& pool,
               const WorkloadSpec& spec, uint64_t stream_seed, size_t clients,
               double seconds, size_t max_per_client) {
  Phase phase;
  std::vector<bool> checked =
      PhaseChecked(spec, pool.size(), stream_seed, clients, &phase.checked);
  phase.before = Counters(topology.indexes());
  phase.http_before = topology.front_http();
  double cpu = CpuSeconds();
  double steal = StealSeconds();
  phase.load = RunLoad(topology.port(), pool, checked, stream_seed, clients,
                       seconds, max_per_client);
  phase.cpu_s = CpuSeconds() - cpu;
  phase.steal_s = StealSeconds() - steal;
  phase.after = Counters(topology.indexes());
  phase.http_after = topology.front_http();
  phase.pool_after = topology.front_pool();
  phase.serving = topology.serving();
  phase.router = topology.router();
  return phase;
}

double RouteP50(const seqdet::server::ServingStatsSnapshot& s,
                const std::string& route) {
  for (const auto& r : s.routes) {
    if (r.route == route) return r.p50_ms;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The traced in-process replay
// ---------------------------------------------------------------------------

struct ReplayRow {
  Kind kind = Kind::kDetect;
  double parse_us = 0, summary_us = 0, fetch_us = 0;
  double summary_warm_us = 0, fetch_warm_us = 0;
  double exec_us = 0, json_us = 0;
  uint64_t postings_decoded = 0;
  int64_t matches = 0;
};

struct Replay {
  double wall_s = 0;
  std::vector<ReplayRow> rows;
};

double Us(const Stopwatch& w) { return w.ElapsedMicros(); }

/// The pairs a /detect request's join reads: adjacent positive elements,
/// every alternative combination (a Kleene element also joins with
/// itself).
std::vector<seqdet::index::EventTypePair> SkeletonPairs(
    const seqdet::query::ExtendedPattern& p) {
  std::vector<const seqdet::query::PatternElement*> positives;
  for (const auto& e : p.elements) {
    if (!e.negated) positives.push_back(&e);
  }
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < positives.size(); ++i) {
    for (auto a : positives[i]->alternatives) {
      if (positives[i]->kleene) pairs.emplace(a, a);
      if (i + 1 == positives.size()) continue;
      for (auto b : positives[i + 1]->alternatives) pairs.emplace(a, b);
    }
  }
  std::vector<seqdet::index::EventTypePair> out;
  for (auto [a, b] : pairs) out.push_back(seqdet::index::EventTypePair{a, b});
  return out;
}

/// Runs `requests` one by one through the layers' public calls, the way
/// the /detect handler and Detect's fetch plan do: parse, pair summaries,
/// candidate-filtered posting fetch (cold, then again warm), the query
/// itself, and the response serializer. Spans go to `tracer` when it is
/// enabled; the same code runs untraced to measure the tracing overhead.
Result<Replay> RunReplay(const SequenceIndex& index,
                         const std::vector<Request>& requests,
                         Tracer* tracer) {
  namespace q = seqdet::query;
  Replay replay;
  Stopwatch wall;
  const auto& dict = index.dictionary();
  for (const Request& request : requests) {
    ReplayRow row;
    row.kind = request.kind;
    ScopedSpan root(tracer, "request");
    const bool detect =
        request.kind == Kind::kDetect || request.kind == Kind::kDetectExt;
    Stopwatch w;
    std::optional<q::ExtendedPattern> ext;
    std::optional<q::ParsedQuery> plain;
    {
      ScopedSpan span(tracer, "query.parse", root.id());
      if (detect) {
        auto parsed = q::ParseExtendedPatternQuery(request.query, dict);
        if (!parsed.ok()) return parsed.status();
        ext = std::move(*parsed);
      } else {
        auto parsed = q::ParsePatternQuery(request.query, dict);
        if (!parsed.ok()) return parsed.status();
        plain = std::move(*parsed);
      }
    }
    row.parse_us = Us(w);
    if (detect) {
      auto pairs = SkeletonPairs(*ext);
      std::vector<seqdet::index::PairPostingSummary> summaries;
      auto summarize = [&](const char* name, double* us) -> Status {
        Stopwatch f;
        ScopedSpan span(tracer, name, root.id());
        summaries.clear();
        for (const auto& pair : pairs) {
          auto summary = index.GetPairSummary(pair);
          if (!summary.ok()) return summary.status();
          summaries.push_back(std::move(*summary));
        }
        *us = Us(f);
        return Status::OK();
      };
      Status summarized = summarize("index.summary", &row.summary_us);
      if (!summarized.ok()) return summarized;
      // Detect's plan: intersect the trace sets from the smallest list
      // up; filter a pair's fetch only when that narrows its span.
      std::vector<size_t> order(pairs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return summaries[a].postings < summaries[b].postings;
      });
      seqdet::index::TraceIntervalSet candidates;
      if (!order.empty()) candidates = summaries[order[0]].traces;
      for (size_t k = 1; k < order.size(); ++k) {
        candidates = seqdet::index::TraceIntervalSet::Intersect(
            candidates, summaries[order[k]].traces);
      }
      auto fetch_all = [&](const char* name, double* us) -> Status {
        Stopwatch f;
        ScopedSpan span(tracer, name, root.id());
        for (size_t i = 0; i < pairs.size(); ++i) {
          auto got = pairs.size() >= 2 && !candidates.empty() &&
                             candidates.Span() < summaries[i].traces.Span()
                         ? index.GetPairPostingsFiltered(pairs[i], candidates)
                         : index.GetPairPostingsShared(pairs[i]);
          if (!got.ok()) return got.status();
        }
        *us = Us(f);
        return Status::OK();
      };
      uint64_t decoded = index.read_stats().postings_decoded;
      Status fetched = fetch_all("index.fetch", &row.fetch_us);
      if (!fetched.ok()) return fetched;
      row.postings_decoded = index.read_stats().postings_decoded - decoded;
      // The same calls again, as Detect itself will make them.
      summarized = summarize("index.summary_warm", &row.summary_warm_us);
      if (!summarized.ok()) return summarized;
      fetched = fetch_all("index.fetch_warm", &row.fetch_warm_us);
      if (!fetched.ok()) return fetched;
    }
    w.Restart();
    if (detect) {
      q::QueryProcessor qp(&index);
      uint64_t exec = tracer->Begin("query.detect", root.id());
      auto matches = qp.DetectExtended(*ext);
      tracer->End(exec);
      if (!matches.ok()) return matches.status();
      row.matches = static_cast<int64_t>(matches->size());
      row.exec_us = Us(w);
      w.Restart();
      ScopedSpan span(tracer, "server.json", root.id());
      std::string body =
          seqdet::server::DetectResponseJson(*matches, request.limit);
      row.json_us = Us(w);
    } else {
      // /stats and /continue: the query with its (small) serializer.
      ScopedSpan span(tracer,
                      request.kind == Kind::kStats ? "query.stats"
                                                   : "query.continue",
                      root.id());
      auto body = ReferenceBody(index, request);
      if (!body.ok()) return body.status();
      row.exec_us = Us(w);
    }
    replay.rows.push_back(row);
  }
  replay.wall_s = wall.ElapsedSeconds();
  return replay;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The timed phase's latency metrics, client-observed over all its
/// requests. Five equal slices of the phase are printed as diagnostics,
/// so a stall confined to one slice shows.
void AddLatencyMetrics(const LoadStats& load, Report* report) {
  constexpr size_t kSlices = 5;
  std::printf("per slice (p50 ms / p95 ms / answers/s / samples):");
  for (size_t w = 0; w < kSlices; ++w) {
    const double width = load.elapsed_s / kSlices;
    const double from = width * static_cast<double>(w);
    const double to = w + 1 == kSlices ? load.elapsed_s + 1 : from + width;
    std::vector<double> slice;
    for (size_t k = 0; k < kNumKinds; ++k) {
      for (size_t i = 0; i < load.latency_ms[k].size(); ++i) {
        if (load.done_s[k][i] >= from && load.done_s[k][i] < to) {
          slice.push_back(load.latency_ms[k][i]);
        }
      }
    }
    std::printf(" [%.4g / %.4g / %.0f / %zu]", Percentile(slice, 50).value,
                Percentile(slice, 95).value,
                static_cast<double>(slice.size()) / width, slice.size());
  }
  std::printf("\n");
  auto all = load.All();
  PercentileResult p50 = Percentile(all, 50);
  PercentileResult p95 = Percentile(all, 95);
  PercentileResult p99 = Percentile(all, 99);
  report->Add("query_p50_ms", p50.value, "ms", all.size());
  report->Add("query_p95_ms", p95.value, "ms", all.size());
  // p99 is printed, not gated: on a shared 4-vCPU machine it moved by up
  // to a quarter between runs of one build (see README.md).
  std::printf("query_p99_ms %.6g ms (not in the result line); %zu of %zu "
              "samples beyond its p99, %zu beyond the p95%s\n",
              p99.value, p99.beyond, p99.samples, p95.beyond,
              p99.beyond < 10 ? " (thin tail)" : "");
  std::printf("tail above p99 by kind:");
  for (size_t k = 0; k < kNumKinds; ++k) {
    size_t n = 0;
    for (double v : load.latency_ms[k]) n += v > p99.value;
    std::printf(" %s=%zu (p99 %.3f ms)", KindName(static_cast<Kind>(k)), n,
                Percentile(load.latency_ms[k], 99).value);
  }
  std::printf("\n");
  report->Add("throughput_qps",
              static_cast<double>(all.size()) / load.elapsed_s, "1/s",
              all.size());
  const char* names[kNumKinds] = {"detect_p50_ms", "detect_ext_p50_ms",
                                  "stats_p50_ms", "continue_p50_ms"};
  for (size_t k = 0; k < kNumKinds; ++k) {
    report->Add(names[k], Median(load.latency_ms[k]), "ms",
                load.latency_ms[k].size());
  }
}

void PrintSizes(const std::string& label, const IngestReport& ing,
                size_t cache_budget) {
  double decoded = static_cast<double>(ing.pairs_indexed) *
                   sizeof(seqdet::index::PairOccurrence);
  std::printf("sizes[%s]: traces=%zu events=%zu postings=%zu "
              "decoded_bytes=%.0f disk_bytes=%llu segments=%zu "
              "cache_budget=%zu (decoded/budget %.2fx)\n",
              label.c_str(), ing.traces, ing.events, ing.pairs_indexed,
              decoded, static_cast<unsigned long long>(ing.segments.disk_bytes),
              ing.segments.num_segments, cache_budget,
              cache_budget > 0 ? decoded / static_cast<double>(cache_budget)
                               : 0.0);
}

/// Decoded bytes of every posting list the pool can read, against the
/// cache budget: the serve_cold guard that keeps it cache-churning.
double WorkingSetBytes(const SequenceIndex& index,
                       const std::vector<Request>& pool) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  const auto& dict = index.dictionary();
  for (const Request& request : pool) {
    auto parsed = seqdet::query::ParseExtendedPatternQuery(request.query, dict);
    if (!parsed.ok()) continue;
    for (const auto& pair : SkeletonPairs(*parsed)) {
      pairs.emplace(pair.first, pair.second);
    }
    if (request.kind == Kind::kContinue) {
      // Accurate continuation joins the last event with every follower.
      auto last = parsed->elements.back().alternatives.front();
      for (uint32_t a = 0; a < dict.size(); ++a) pairs.emplace(last, a);
    }
  }
  double bytes = 0;
  for (auto [a, b] : pairs) {
    auto summary = index.GetPairSummary(seqdet::index::EventTypePair{a, b});
    if (summary.ok()) {
      bytes += static_cast<double>(summary->postings) *
               sizeof(seqdet::index::PairOccurrence);
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        clients_(spec.clients > 0 ? spec.clients : Nproc()),
        tracer_(options.trace) {}

  int Execute();

 private:
  std::string Dir(const std::string& name) const {
    return options_.work_dir + "/" + name;
  }
  std::string XesPath() const { return Dir("log.xes"); }

  Status Setup();
  Status TimedServe();
  Status TimedIngest();
  Status TracedExtras();
  Status Ingest(const std::string& tag, IngestReport* ing);
  Status BuildServing(const std::string& tag, IngestReport* ing,
                      uint64_t parent);
  Status BuildShards(const std::string& tag, uint64_t parent);
  Status StartServing();
  void StopServing();
  void RemoveBuild(const std::string& tag);
  void Guards();
  void Finish();
  void AddIngestMetrics(const std::vector<IngestReport>& reports);
  void AddLayerMetrics();

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  const size_t clients_;
  Tracer tracer_;
  Report report_;

  EventLog log_;  // as read back from the XES file
  std::vector<Request> pool_;
  std::vector<double> setup_s_;
  std::vector<double> ttq_s_;
  std::vector<IngestReport> ingests_;

  /// The index the workload serves.
  OpenIndex serving_;
  std::unique_ptr<Topology> topology_;
  /// Traced runs also build the log's shards and serve them routed.
  std::vector<OpenIndex> shards_;
  Phase own_;
  std::optional<Phase> routed_;
  Replay traced_;           // every traced replay pass
  double untraced_s_ = 0;   // summed wall time of the untraced passes
  uint64_t ingest_root_ = 0;
  double peak_rss_mb_ = 0;  // over the timed phase
};

std::vector<const SequenceIndex*> Pointers(const std::vector<OpenIndex>& v) {
  std::vector<const SequenceIndex*> out;
  for (const auto& o : v) out.push_back(o.index.get());
  return out;
}

/// Reads the log file and builds what the workload serves, under one
/// `ingest` root span.
Status Run::Ingest(const std::string& tag, IngestReport* ing) {
  ingest_root_ = tracer_.Begin("ingest");
  auto log = ReadLog(XesPath(), &tracer_, ingest_root_, ing);
  Status built = log.status();
  if (built.ok()) {
    log_ = std::move(*log);
    built = BuildServing(tag, ing, ingest_root_);
  }
  tracer_.End(ingest_root_);
  return built;
}

Status Run::BuildServing(const std::string& tag, IngestReport* ing,
                         uint64_t parent) {
  serving_.Close();
  // Untraced serve workloads build apart from the serving process; the
  // ingest workload and traced runs build in process (spans, and the
  // build is what ingest measures).
  const bool apart = !spec_.ingest && !options_.trace;
  auto built = apart ? BuildIndexApart(log_, Dir(tag), spec_.batches,
                                       spec_.time_batches, ing)
                     : BuildIndex(log_, Dir(tag), spec_.batches,
                                  spec_.time_batches, &tracer_, parent, ing);
  if (!built.ok()) return built.status();
  serving_ = std::move(*built);
  return Status::OK();
}

/// One index per ShardOfTrace shard of the log, for the routed phase.
Status Run::BuildShards(const std::string& tag, uint64_t parent) {
  shards_.clear();
  IngestReport ignored;
  std::vector<EventLog> parts = SplitShards(log_);
  for (size_t s = 0; s < parts.size(); ++s) {
    auto built = BuildIndex(parts[s], Dir(tag + "-shard" + std::to_string(s)),
                            spec_.batches, spec_.time_batches, &tracer_,
                            parent, &ignored);
    if (!built.ok()) return built.status();
    shards_.push_back(std::move(*built));
  }
  return Status::OK();
}

Status Run::StartServing() {
  auto topology = Topology::Start({serving_.index.get()}, /*routed=*/false);
  if (!topology.ok()) return topology.status();
  topology_ = std::move(*topology);
  return Status::OK();
}

void Run::StopServing() {
  topology_.reset();
  serving_.Close();
}

/// Deletes the on-disk index built under `tag`, shards included.
void Run::RemoveBuild(const std::string& tag) {
  for (const auto& entry : fs::directory_iterator(options_.work_dir)) {
    const std::string name = entry.path().filename().string();
    if (name == tag || name.rfind(tag + "-shard", 0) == 0) {
      fs::remove_all(entry.path());
    }
  }
}

Status Run::Setup() {
  // Traced runs set up once: their numbers are per layer, not setup_s.
  const size_t reps = options_.trace ? 1 : spec_.setup_reps;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    EventLog generated = Generate(spec_, options_.seed);
    Status written = seqdet::eventlog::WriteXesLogFile(generated, XesPath());
    if (!written.ok()) return written;
    if (r == 0) pool_ = MakePool(generated, spec_.pool, options_.seed);
    if (spec_.ingest) {
      setup_s_.push_back(watch.ElapsedSeconds());
      continue;
    }
    StopServing();
    if (r > 0) RemoveBuild("setup" + std::to_string(r - 1));
    Stopwatch to_query;
    IngestReport ing;
    Status built = Ingest("setup" + std::to_string(r), &ing);
    if (!built.ok()) return built;
    Status started = StartServing();
    if (!started.ok()) return started;
    LoadStats warm;
    const uint64_t warm_seed = options_.seed + 7919;
    size_t planned = 0;
    std::vector<bool> checked =
        PhaseChecked(spec_, pool_.size(), warm_seed, clients_, &planned);
    if (spec_.warmup_s > 0) {
      warm = RunLoad(topology_->port(), pool_, checked, warm_seed, clients_,
                     spec_.warmup_s, std::numeric_limits<size_t>::max());
      report_.attempted += warm.attempted;
      report_.failed += warm.failed;
      for (const auto& e : warm.errors) report_.Fail("warm-up: " + e);
      ttq_s_.push_back(to_query.ElapsedSeconds() - warm.elapsed_s +
                       warm.first_response_s);
    }
    setup_s_.push_back(watch.ElapsedSeconds());
    ingests_.push_back(ing);
    // Outside setup_s: the warm-up's answers against the reference.
    if (spec_.warmup_s > 0) {
      VerifyAnswers(*serving_.index, log_, pool_, warm, planned, 0,
                    "warm-up", &report_);
    }
  }
  return Status::OK();
}

/// Writes back what the builds left dirty in the page cache (and the
/// discards of deleted builds), so that I/O does not overlap the timed
/// phase.
void Settle() {
  Stopwatch watch;
  sync();
  std::printf("settle: sync took %.3f s\n", watch.ElapsedSeconds());
}

Status Run::TimedServe() {
  Settle();
  ResetPeakRss();
  own_ = RunPhase(*topology_, pool_, spec_, options_.seed, clients_,
                  options_.trace ? options_.seconds / 2 : options_.seconds,
                  std::numeric_limits<size_t>::max());
  report_.attempted += own_.load.attempted;
  report_.failed += own_.load.failed;
  for (const auto& e : own_.load.errors) report_.Fail(e);
  peak_rss_mb_ = PeakRssMb();
  Stopwatch check;
  VerifyAnswers(*serving_.index, log_, pool_, own_.load, own_.checked,
                spec_.oracle, "timed", &report_);
  std::printf("answer check took %.2f s\n", check.ElapsedSeconds());
  return Status::OK();
}

Status Run::TimedIngest() {
  ResetPeakRss();
  // Cycles alternate with serving slices as long as the cycle before
  // them, so both halves of the work spread over the whole window and
  // each sees the machine's faster and slower stretches alike. The first
  // cycle's index serves every slice; its decoded postings fit in the
  // posting cache. (One client's short post-reopen samples time the
  // machine's wake-up latency more than seqdet, so the query metrics
  // come from the slices' nproc clients.)
  OpenIndex hot;
  std::unique_ptr<Topology> hot_topology;
  Stopwatch window;
  for (size_t cycle = 0;
       cycle == 0 || (!options_.trace && window.ElapsedSeconds() <
                                             options_.seconds);
       ++cycle) {
    if (cycle > 1) RemoveBuild("cycle" + std::to_string(cycle - 1));
    Stopwatch cycle_watch;
    IngestReport ing;
    Stopwatch to_query;
    Status built = Ingest("cycle" + std::to_string(cycle), &ing);
    if (!built.ok()) return built;
    Status started = StartServing();
    if (!started.ok()) return started;
    double before_queries = to_query.ElapsedSeconds();
    // The seeded sample answered right after every reopen, checked
    // against the cycle's own index.
    Phase phase = RunPhase(*topology_, pool_, spec_, options_.seed, clients_,
                           std::numeric_limits<double>::infinity(),
                           spec_.cycle_requests);
    ttq_s_.push_back(before_queries + phase.load.first_response_s);
    ingests_.push_back(ing);
    report_.attempted += phase.load.attempted;
    report_.failed += phase.load.failed;
    for (const auto& e : phase.load.errors) report_.Fail(e);
    VerifyAnswers(*serving_.index, log_, pool_, phase.load, phase.checked,
                  cycle == 0 ? spec_.oracle : 0,
                  "cycle " + std::to_string(cycle), &report_);
    const double slice_s =
        options_.trace ? options_.seconds / 2 : cycle_watch.ElapsedSeconds();
    if (cycle == 0) {
      hot = std::move(serving_);
      hot_topology = std::move(topology_);
      Phase warm = RunPhase(*hot_topology, pool_, spec_, options_.seed + 7919,
                            Nproc(), spec_.warmup_s,
                            std::numeric_limits<size_t>::max());
      report_.attempted += warm.load.attempted;
      report_.failed += warm.load.failed;
      for (const auto& e : warm.load.errors) report_.Fail("warm-up: " + e);
      VerifyAnswers(*hot.index, log_, pool_, warm.load, warm.checked, 0,
                    "warm-up", &report_);
    } else {
      StopServing();
    }
    Settle();
    Phase slice = RunPhase(*hot_topology, pool_, spec_,
                           options_.seed + 1 + cycle, Nproc(), slice_s,
                           std::numeric_limits<size_t>::max());
    report_.attempted += slice.load.attempted;
    report_.failed += slice.load.failed;
    for (const auto& e : slice.load.errors) report_.Fail(e);
    if (cycle == 0) {
      own_ = std::move(slice);
    } else {
      own_.Extend(std::move(slice));
    }
  }
  peak_rss_mb_ = PeakRssMb();
  VerifyAnswers(*hot.index, log_, pool_, own_.load, own_.checked,
                spec_.oracle, "timed", &report_);
  // The hot index is the one the rest of the run (traced extras) uses.
  serving_ = std::move(hot);
  topology_ = std::move(hot_topology);
  return Status::OK();
}

/// Traced runs only: the routed phase over the log's shards, and the
/// in-process replay passes.
Status Run::TracedExtras() {
  uint64_t shards_root = tracer_.Begin("ingest.shards");
  Status built = BuildShards("shards", shards_root);
  tracer_.End(shards_root);
  if (!built.ok()) return built;
  {
    auto topology = Topology::Start(Pointers(shards_), /*routed=*/true);
    if (!topology.ok()) return topology.status();
    Phase phase = RunPhase(**topology, pool_, spec_, options_.seed, clients_,
                           options_.seconds / 2,
                           std::numeric_limits<size_t>::max());
    report_.attempted += phase.load.attempted;
    report_.failed += phase.load.failed;
    for (const auto& e : phase.load.errors) report_.Fail(e);
    // Routed answers must be the single-process ones.
    VerifyAnswers(*serving_.index, log_, pool_, phase.load, phase.checked,
                  0, "routed", &report_);
    routed_ = std::move(phase);
  }
  // Replay on the served index: requests in the client-0 order.
  const std::string dir = Dir(spec_.ingest ? "cycle0" : "setup0");
  StopServing();
  std::vector<Request> sample;
  RequestStream stream(pool_.size(), options_.seed, 0);
  for (size_t i = 0; i < spec_.replay; ++i) sample.push_back(pool_[stream.Next()]);
  // Every pass runs on a freshly reopened index (cold posting cache). A
  // first untraced pass warms the OS page cache; then untraced and traced
  // passes alternate, and the tracing overhead compares their sums.
  constexpr int kPassPairs = 3;
  for (int pass = 0; pass <= 2 * kPassPairs; ++pass) {
    serving_.Close();
    IngestReport ignored;
    Tracer off(false);
    auto reopened = Reopen(dir, &off, 0, &ignored);
    if (!reopened.ok()) return reopened.status();
    serving_ = std::move(*reopened);
    const bool traced = pass > 0 && pass % 2 == 0;
    auto replay = RunReplay(*serving_.index, sample, traced ? &tracer_ : &off);
    if (!replay.ok()) return replay.status();
    if (pass == 0) continue;
    if (traced) {
      traced_.wall_s += replay->wall_s;
      traced_.rows.insert(traced_.rows.end(), replay->rows.begin(),
                          replay->rows.end());
    } else {
      untraced_s_ += replay->wall_s;
    }
  }
  return Status::OK();
}

void Run::AddIngestMetrics(const std::vector<IngestReport>& reports) {
  std::vector<double> eps, bpe;
  for (const auto& r : reports) {
    eps.push_back(static_cast<double>(r.events) / r.ingest_s());
    bpe.push_back(static_cast<double>(r.segments.disk_bytes) /
                  static_cast<double>(r.events));
  }
  report_.Add("ingest_events_per_s", Median(eps), "1/s", eps.size());
  report_.Add("time_to_queryable_s", Median(ttq_s_), "s", ttq_s_.size());
  report_.Add("index_bytes_per_event", Median(bpe), "B/event", bpe.size());
}

void Run::Guards() {
  const auto budget = seqdet::index::IndexOptions().cache_bytes;
  if (spec_.min_hit_rate > 0) {
    double rate = own_.served_rate();
    std::printf("guard[%s]: post-warm-up fetches served from the cache "
                "%.4f (need >= %.2f; raw cache hit rate %.4f)\n",
                spec_.name.c_str(), rate, spec_.min_hit_rate,
                own_.hit_rate());
    if (rate < spec_.min_hit_rate) {
      report_.Fail("shape guard: cache-served rate " + std::to_string(rate) +
                   " below " + std::to_string(spec_.min_hit_rate));
    }
  }
  if (spec_.min_working_set_ratio > 0) {
    double ws = WorkingSetBytes(*serving_.index, pool_);
    double ratio = ws / static_cast<double>(budget);
    std::printf("guard[%s]: decoded working set %.0f bytes = %.2fx the "
                "%zu-byte cache budget (need >= %.1fx)\n",
                spec_.name.c_str(), ws, ratio, budget,
                spec_.min_working_set_ratio);
    if (ratio < spec_.min_working_set_ratio) {
      report_.Fail("shape guard: working set only " + std::to_string(ratio) +
                   "x the cache budget");
    }
  }
}

void Run::AddLayerMetrics() {
  const IngestReport& ing = ingests_.back();
  const double events = static_cast<double>(ing.events);
  auto add = [&](const std::string& name, double v, const char* unit,
                 size_t n) { report_.Add(name, v, unit, n); };
  add("log.read_s", ing.read_s, "s", 1);
  add("log.events_per_s", events / ing.read_s, "1/s", 1);
  add("index.update_s", ing.update_s, "s", spec_.batches);
  add("index.pairs_extracted_per_event",
      static_cast<double>(ing.pairs_extracted) / events, "count", 1);
  add("index.pairs_indexed_per_event",
      static_cast<double>(ing.pairs_indexed) / events, "count", 1);
  add("index.fold_s", ing.fold_s, "s", 1);
  add("index.fold_bytes_rewritten", static_cast<double>(ing.fold_bytes_written),
      "B", 1);
  add("index.open_s", ing.index_open_s, "s", 1);
  add("storage.flush_s", ing.flush_s, "s", 1);
  add("storage.open_s", ing.db_open_s, "s", 1);
  add("storage.disk_bytes", static_cast<double>(ing.segments.disk_bytes), "B",
      1);
  add("storage.segments", static_cast<double>(ing.segments.num_segments),
      "count", 1);
  add("storage.disk_per_logical_byte",
      static_cast<double>(ing.segments.disk_bytes) /
          static_cast<double>(std::max<uint64_t>(1, ing.segments.logical_bytes)),
      "ratio", 1);
  add("storage.bytes_written_per_event",
      static_cast<double>(ing.written_bytes) / events, "B/event", 1);

  // Read-side counters of the workload's own serving phase.
  const Phase& own = own_;
  const double queries = static_cast<double>(std::max<uint64_t>(1, own.requests()));
  const auto& b = own.before.read;
  const auto& a = own.after.read;
  add("index.cache_hit_rate", own.hit_rate(), "ratio", own.requests());
  add("index.cache_served_rate", own.served_rate(), "ratio", own.requests());
  add("index.cache_evictions_per_query",
      static_cast<double>(own.after.evictions - own.before.evictions) / queries,
      "count", own.requests());
  add("index.cache_bytes", static_cast<double>(own.after.cache_bytes), "B", 1);
  add("index.blocks_decoded_per_query",
      static_cast<double>(a.blocks_decoded - b.blocks_decoded) / queries,
      "count", own.requests());
  double decoded = static_cast<double>(a.blocks_decoded - b.blocks_decoded);
  double skipped = static_cast<double>(a.blocks_skipped - b.blocks_skipped);
  add("index.blocks_skipped_frac",
      decoded + skipped > 0 ? skipped / (decoded + skipped) : 0, "ratio",
      own.requests());
  add("index.bytes_decoded_per_query",
      static_cast<double>(a.bytes_decoded - b.bytes_decoded) / queries, "B",
      own.requests());

  // The replay: per-request layer times (medians over the requests that
  // reach the layer).
  const Replay& r = traced_;
  auto median_of = [&](auto field, std::initializer_list<Kind> kinds) {
    std::vector<double> v;
    for (const auto& row : r.rows) {
      for (Kind k : kinds) {
        if (row.kind == k) v.push_back(field(row));
      }
    }
    return std::make_pair(Median(v), v.size());
  };
  const std::initializer_list<Kind> det = {Kind::kDetect, Kind::kDetectExt};
  const std::initializer_list<Kind> all = {Kind::kDetect, Kind::kDetectExt,
                                           Kind::kStats, Kind::kContinue};
  uint64_t postings = 0;
  int64_t matches = 0;
  for (const auto& row : r.rows) {
    postings += row.postings_decoded;
    matches += row.matches;
  }
  add("index.postings_decoded_per_match",
      static_cast<double>(postings) / static_cast<double>(std::max<int64_t>(1, matches)),
      "ratio", r.rows.size());
  auto [summary, ns] = median_of([](const ReplayRow& x) { return x.summary_us; }, det);
  add("index.summary_us", summary, "us", ns);
  auto [fetch, nf] = median_of([](const ReplayRow& x) { return x.fetch_us; }, det);
  add("index.fetch_us", fetch, "us", nf);
  auto [fetch_warm, nw] = median_of([](const ReplayRow& x) { return x.fetch_warm_us; }, det);
  add("index.fetch_warm_us", fetch_warm, "us", nw);
  auto [summary_warm, nsw] = median_of([](const ReplayRow& x) { return x.summary_warm_us; }, det);
  add("index.summary_warm_us", summary_warm, "us", nsw);
  auto [parse, np] = median_of([](const ReplayRow& x) { return x.parse_us; }, all);
  add("query.parse_us", parse, "us", np);
  auto [detect_us, nd] = median_of([](const ReplayRow& x) { return x.exec_us; }, det);
  add("query.detect_us", detect_us, "us", nd);
  auto [join, nj] = median_of(
      [](const ReplayRow& x) {
        return std::max(0.0, x.exec_us - x.fetch_warm_us - x.summary_warm_us);
      },
      det);
  add("query.join_us", join, "us", nj);
  auto [stats_us, nst] = median_of([](const ReplayRow& x) { return x.exec_us; }, {Kind::kStats});
  add("query.stats_us", stats_us, "us", nst);
  auto [cont_us, nc] = median_of([](const ReplayRow& x) { return x.exec_us; }, {Kind::kContinue});
  add("query.continue_us", cont_us, "us", nc);
  auto [json_us, nj2] = median_of([](const ReplayRow& x) { return x.json_us; }, det);
  add("server.json_us", json_us, "us", nj2);

  // Server layer: the single-process phase.
  const Phase& d = own_;
  double handler = RouteP50(d.serving[0], "/detect");
  double client = d.detect_client_p50();
  add("server.handler_p50_ms", handler, "ms", d.requests());
  add("server.hop_us", (client - handler) * 1e3, "us", d.requests());
  double conns = static_cast<double>(d.http_after.connections_accepted -
                                     d.http_before.connections_accepted);
  add("server.requests_per_connection",
      static_cast<double>(d.http_after.requests_served -
                          d.http_before.requests_served) /
          std::max(1.0, conns),
      "count", d.requests());
  uint64_t shed = 0, deadline = 0;
  for (const auto& route : d.serving[0].routes) {
    shed += route.shed;
    deadline += route.deadline_exceeded;
  }
  add("server.shed", static_cast<double>(shed), "count", d.requests());
  add("server.deadline_exceeded", static_cast<double>(deadline), "count",
      d.requests());
  add("server.pool_peak_queue_depth",
      static_cast<double>(d.pool_after.peak_queue_depth), "count", 1);

  // Router layer: the routed phase.
  const Phase& rt = *routed_;
  double slowest_shard = 0;
  for (const auto& s : rt.serving) {
    slowest_shard = std::max(slowest_shard, RouteP50(s, "/detect"));
  }
  double routed_client = rt.detect_client_p50();
  add("router.hop_us", (routed_client - slowest_shard) * 1e3, "us",
      rt.requests());
  const auto& rs = *rt.router;
  add("router.pool_reuse_rate",
      static_cast<double>(rs.pool.reuses) /
          std::max<double>(1, static_cast<double>(rs.pool.dials + rs.pool.reuses)),
      "ratio", rt.requests());
  uint64_t hedges = 0, opens = 0;
  for (const auto& s : rs.shards) {
    hedges += s.hedges;
    opens += s.breaker_opens;
  }
  add("router.hedges", static_cast<double>(hedges), "count", rt.requests());
  add("router.breaker_opens", static_cast<double>(opens), "count",
      rt.requests());
  add("router.degraded", static_cast<double>(rs.degraded), "count",
      rt.requests());
  add("router.partial_503", static_cast<double>(rs.partial_503), "count",
      rt.requests());

  add("proc.cpu_util",
      own.cpu_s / (own.load.elapsed_s * static_cast<double>(Nproc())),
      "ratio", 1);

  // Where the wall time goes, and what tracing costs.
  auto totals = TotalsByName(tracer_.spans());
  auto share = [&](const char* root_name) {
    std::vector<int64_t> self = SelfTimesNs(tracer_.spans());
    int64_t root_total = 0, root_self = 0;
    for (size_t i = 0; i < tracer_.spans().size(); ++i) {
      const Span& s = tracer_.spans()[i];
      if (s.name == root_name) {
        root_total += s.duration_ns();
        root_self += self[i];
      }
    }
    return root_total > 0 ? 1.0 - static_cast<double>(root_self) /
                                      static_cast<double>(root_total)
                          : 0.0;
  };
  add("trace.request_accounted_frac", share("request"), "ratio",
      totals["request"].count);
  add("trace.ingest_accounted_frac", share("ingest"), "ratio",
      totals["ingest"].count);
  add("trace.overhead_frac",
      (traced_.wall_s - untraced_s_) / untraced_s_, "ratio",
      traced_.rows.size());

  std::printf("\nlayer self time over the traced replay and ingest:\n");
  for (const auto& [name, t] : totals) {
    std::printf("  %-22s spans %6zu  total %12.1f us  self %12.1f us\n",
                name.c_str(), t.count, static_cast<double>(t.total_ns) / 1e3,
                static_cast<double>(t.self_ns) / 1e3);
  }
  std::printf("requests: layers account for %.1f%% of the replay wall time, "
              "%.1f%% unexplained; ingest: %.1f%% accounted; tracing "
              "overhead %+.2f%% (replay %.4fs traced vs %.4fs untraced)\n",
              100 * share("request"), 100 * (1 - share("request")),
              100 * share("ingest"),
              100 * (traced_.wall_s - untraced_s_) / untraced_s_,
              traced_.wall_s, untraced_s_);
  // One tree of each kind: the ingest, and the costliest /detect request.
  uint64_t slowest = 0;
  int64_t slowest_ns = -1;
  for (const Span& s : tracer_.spans()) {
    if (s.name == "request" && s.duration_ns() > slowest_ns) {
      slowest_ns = s.duration_ns();
      slowest = s.id;
    }
  }
  std::printf("\nspan tree (ingest):\n%s",
              RenderSpanTree(tracer_.spans(), ingest_root_).c_str());
  std::printf("\nspan tree (slowest replayed request):\n%s",
              RenderSpanTree(tracer_.spans(), slowest).c_str());
  if (!options_.trace_file.empty()) {
    std::ofstream out(options_.trace_file);
    std::vector<int64_t> self = SelfTimesNs(tracer_.spans());
    for (size_t i = 0; i < tracer_.spans().size(); ++i) {
      const Span& s = tracer_.spans()[i];
      out << "{\"trace\": " << s.trace << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"self_ns\": " << self[i] << "}\n";
    }
    std::printf("spans written to %s\n", options_.trace_file.c_str());
  }
}

int Run::Execute() {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "clients=%zu\n",
              spec_.name.c_str(), static_cast<unsigned long long>(options_.seed),
              options_.seconds, options_.trace ? 1 : 0, clients_);
  for (const auto& [key, value] :
       EnvironmentStamp(options_.commit, options_.seed)) {
    std::printf("env %s=%s\n", key.c_str(), value.c_str());
  }
  std::fflush(stdout);
  fs::create_directories(options_.work_dir);
  Status status = Setup();
  if (status.ok()) {
    status = spec_.ingest ? TimedIngest() : TimedServe();
  }
  if (status.ok() && options_.trace) status = TracedExtras();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    StopServing();
    fs::remove_all(options_.work_dir);
    return 1;
  }
  Finish();
  topology_.reset();
  serving_.Close();
  shards_.clear();
  fs::remove_all(options_.work_dir);
  std::printf("%s\n", ResultJson(report_.correct && report_.failed == 0,
                                 std::max<uint64_t>(1, report_.attempted),
                                 report_.failed, report_.metrics)
                          .c_str());
  return report_.correct && report_.failed == 0 ? 0 : 1;
}

void Run::Finish() {
  const auto budget = seqdet::index::IndexOptions().cache_bytes;
  PrintSizes(spec_.name, ingests_.back(), budget);
  // Other guests' load moves every figure of a run together; this shows it.
  std::printf("machine: hypervisor steal took %.1f%% of the CPU time of the "
              "timed phase\n",
              100 * own_.steal_s /
                  (own_.load.elapsed_s * static_cast<double>(Nproc())));
  Guards();
  if (options_.trace) {
    AddLayerMetrics();
  } else {
    report_.Add("setup_s", Median(setup_s_), "s", setup_s_.size());
    AddIngestMetrics(ingests_);
    report_.Add("peak_rss_mb", peak_rss_mb_, "MB", 1);
    AddLatencyMetrics(own_.load, &report_);
  }
  std::printf("\n%-36s %16s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& m : report_.metrics) {
    std::printf("%-36s %16.6g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const double attempted = static_cast<double>(std::max<uint64_t>(1, report_.attempted));
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(report_.failed) / attempted,
              static_cast<unsigned long long>(report_.failed),
              static_cast<unsigned long long>(report_.attempted));
  for (const auto& e : report_.errors) std::printf("FAIL: %s\n", e.c_str());
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  for (const auto& spec : Specs()) {
    if (spec.name == options.workload) {
      Run run(spec, options);
      return run.Execute();
    }
  }
  std::fprintf(stderr, "unknown workload %s; known:",
               options.workload.c_str());
  for (const auto& spec : Specs()) std::fprintf(stderr, " %s", spec.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace perfbench
