// Serving-layer stress: concurrent keep-alive HTTP clients hammering every
// route with a mix of good, bad, shed-prone and deadline-capped requests,
// while a writer appends trace batches and the background maintenance
// service folds aggressively. Run it under TSan (tools/check_tsan.sh
// includes this binary) to certify the worker-pool / admission / drain
// protocol; the final assertions certify that overload never turns into a
// hang or an invalid response, and that the index survives with its
// invariants intact.
//
// Duration scales with SEQDET_STRESS_SECONDS (default 2).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "index/maintenance.h"
#include "index/sequence_index.h"
#include "log/event_log.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "storage/database.h"

namespace seqdet::server {
namespace {

using eventlog::EventLog;
using eventlog::Timestamp;

constexpr size_t kActivities = 8;
constexpr size_t kClients = 4;

int StressSeconds() {
  if (const char* env = std::getenv("SEQDET_STRESS_SECONDS")) {
    return std::atoi(env);
  }
  return 2;
}

EventLog MakeBatch(Rng* rng, uint64_t first_trace, size_t traces) {
  EventLog batch;
  for (size_t t = 0; t < traces; ++t) {
    uint64_t trace = first_trace + t;
    size_t len = static_cast<size_t>(rng->NextInRange(5, 30));
    Timestamp ts = 0;
    for (size_t i = 0; i < len; ++i) {
      ts += rng->NextInRange(1, 9);
      batch.Append(trace,
                   std::string("a").append(
                       std::to_string(rng->NextBounded(kActivities))),
                   ts);
    }
  }
  batch.SortAllTraces();
  return batch;
}

std::string Activity(Rng* rng) {
  return std::string("a").append(
      std::to_string(rng->NextBounded(kActivities)));
}

TEST(ServerStressTest, ConcurrentClientsWritesAndFolding) {
  storage::DbOptions db_options;
  db_options.table.in_memory = true;
  db_options.table.use_wal = false;
  auto db = std::move(storage::Database::Open("", db_options)).value();

  index::IndexOptions options;
  options.policy = index::Policy::kSkipTillNextMatch;
  options.num_threads = 2;
  options.cache_bytes = 1u << 20;
  options.posting_block_bytes = 128;
  // Fold nearly every append so folds overlap the serving traffic.
  options.maintenance.auto_fold = true;
  options.maintenance.check_interval_ms = 5;
  options.maintenance.min_pending_bytes = 1;
  options.maintenance.min_pending_ops = 1;
  auto index =
      std::move(index::SequenceIndex::Open(db.get(), options)).value();
  ASSERT_NE(index->maintenance(), nullptr);

  // Seed batch so every activity name resolves before clients start.
  Rng writer_rng(7);
  uint64_t next_trace = 0;
  {
    EventLog batch = MakeBatch(&writer_rng, next_trace, 32);
    next_trace += 32;
    ASSERT_TRUE(index->Update(batch).ok());
  }
  ASSERT_EQ(index->dictionary().size(), kActivities);

  // A small in-flight budget and keep-alive limit so admission control and
  // reconnects both trigger under load.
  ServingOptions serving;
  serving.max_inflight = 2;
  serving.debug_routes = true;
  QueryService service(index.get(), serving);
  HttpServerOptions http_options;
  http_options.num_threads = 4;
  http_options.max_keepalive_requests = 16;
  HttpServer http(http_options);
  service.RegisterRoutes(&http);
  ASSERT_TRUE(http.Start(0).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_written{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> shed_seen{0};
  std::atomic<uint64_t> deadline_seen{0};

  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EventLog batch = MakeBatch(&writer_rng, next_trace, 8);
      next_trace += 8;
      auto stats = index->Update(batch);
      ASSERT_TRUE(stats.ok()) << stats.status();
      batches_written.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Clients: every route, valid and invalid inputs, occasional tiny
  // deadlines, an occupy-the-slot sleeper to provoke 503s. The invariant
  // is the response-status contract — overload and cancellation must map
  // to 503/504, never to a hang, a tear, or a 5xx surprise.
  auto client_loop = [&](uint64_t seed) {
    Rng rng(seed);
    HttpClient client(http.port());
    while (!stop.load(std::memory_order_relaxed)) {
      std::string target;
      switch (rng.NextBounded(10)) {
        case 0:
          target = "/health";
          break;
        case 1:
          target = "/info";
          break;
        case 2:
          target = "/nope";  // 404
          break;
        case 3:
          target = "/detect?q=ghost_activity";  // 400
          break;
        case 4:
          target = "/stats?q=" +
                   HttpClient::UrlEncode(Activity(&rng) + " -> " +
                                         Activity(&rng));
          break;
        case 5:
          target = "/continue?q=" + HttpClient::UrlEncode(Activity(&rng)) +
                   "&mode=fast";
          break;
        case 6:
          target = "/debug/sleep?ms=5";  // occupies an in-flight slot
          break;
        case 7:
          // A deadline so small it may expire mid-join (or not — both are
          // valid; the contract is 200 xor 504).
          target = "/detect?q=" +
                   HttpClient::UrlEncode(Activity(&rng) + " -> " +
                                         Activity(&rng)) +
                   "&deadline_ms=1";
          break;
        default:
          target = "/detect?q=" +
                   HttpClient::UrlEncode(Activity(&rng) + " -> " +
                                         Activity(&rng) + " -> " +
                                         Activity(&rng));
          break;
      }
      auto response = client.Get(target);
      ASSERT_TRUE(response.ok())
          << target << ": " << response.status().ToString();
      int status = response->status;
      ASSERT_TRUE(status == 200 || status == 400 || status == 404 ||
                  status == 503 || status == 504)
          << target << " -> " << status << " " << response->body;
      if (status == 503) {
        shed_seen.fetch_add(1, std::memory_order_relaxed);
        ASSERT_EQ(response->headers.count("retry-after"), 1u);
      }
      if (status == 504) deadline_seen.fetch_add(1, std::memory_order_relaxed);
      responses.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(client_loop, 101 + i);
  }

  std::this_thread::sleep_for(std::chrono::seconds(StressSeconds()));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  writer.join();

  // Drain-stop while the index is still live, then quiesce maintenance.
  http.Stop();
  EXPECT_TRUE(index->maintenance()->WaitIdle(/*timeout_ms=*/30000));

  HttpServerStats http_stats = http.stats();
  ServingStatsSnapshot stats = service.serving_stats();
  EXPECT_GT(responses.load(), 0u);
  EXPECT_GT(batches_written.load(), 0u);
  EXPECT_GE(http_stats.requests_served, responses.load());
  EXPECT_EQ(http_stats.active_connections, 0u);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.shed_total, shed_seen.load());
  uint64_t deadline_total = 0;
  for (const auto& route : stats.routes) {
    EXPECT_GE(route.inflight, 0);
    deadline_total += route.deadline_exceeded;
  }
  EXPECT_EQ(deadline_total, deadline_seen.load());

  index::MaintenanceStats m = index->maintenance_stats();
  EXPECT_GT(m.folds_run, 0u) << "service never folded — thresholds broken?";
  EXPECT_EQ(m.errors, 0u) << m.last_error;

  // End-state correctness: serving under churn must not corrupt the index.
  auto report = index->CheckConsistency();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << (report->violations.empty()
                                    ? ""
                                    : report->violations.front());
}

}  // namespace
}  // namespace seqdet::server
