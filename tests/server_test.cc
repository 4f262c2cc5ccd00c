#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/unique_fd.h"
#include "gtest/gtest.h"
#include "index/sequence_index.h"
#include "log/event_log.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "storage/database.h"

namespace seqdet::server {
namespace {

/// Blocking single-request HTTP client for the tests.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request = "GET " + target +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  seqdet::UniqueFd{fd};  // close now
  return response;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// ---------------------------------------------------------------------------
// HttpServer primitives
// ---------------------------------------------------------------------------

TEST(UrlDecodeTest, DecodesEscapes) {
  EXPECT_EQ(HttpServer::UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(HttpServer::UrlDecode("A-%3E%22x%22"), "A->\"x\"");
  EXPECT_EQ(HttpServer::UrlDecode("plain"), "plain");
  EXPECT_EQ(HttpServer::UrlDecode("bad%zz"), "bad%zz");  // invalid stays
}

TEST(ParseQueryStringTest, SplitsPairs) {
  auto q = HttpServer::ParseQueryString("a=1&b=x%20y&flag&empty=");
  EXPECT_EQ(q["a"], "1");
  EXPECT_EQ(q["b"], "x y");
  EXPECT_EQ(q.count("flag"), 1u);
  EXPECT_EQ(q["empty"], "");
}

TEST(JsonWriterTest, BuildsNestedDocument) {
  JsonWriter json;
  json.BeginObject()
      .Key("name")
      .String("a\"b\n")
      .Key("n")
      .Int(-5)
      .Key("list")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .Key("ok")
      .Bool(true)
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\n\",\"n\":-5,\"list\":[1,2],\"ok\":true}");
}

// ---------------------------------------------------------------------------
// ParseRequest edge cases
// ---------------------------------------------------------------------------

constexpr size_t kMaxBytes = 1u << 20;

HttpServer::ParseOutcome Parse(const std::string& in, HttpRequest* out,
                               size_t* consumed,
                               size_t max_bytes = kMaxBytes) {
  std::string error;
  return HttpServer::ParseRequest(in, max_bytes, out, consumed, &error);
}

TEST(ParseRequestTest, ParsesFullRequest) {
  HttpRequest request;
  size_t consumed = 0;
  std::string raw =
      "GET /detect?q=a%20-%3E%20b&limit=5 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom:  spaced value \r\n\r\n";
  ASSERT_EQ(Parse(raw, &request, &consumed), HttpServer::ParseOutcome::kOk);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/detect");
  EXPECT_EQ(request.query["q"], "a -> b");  // percent-decoded
  EXPECT_EQ(request.query["limit"], "5");
  EXPECT_EQ(request.headers["host"], "localhost");    // key lowercased
  EXPECT_EQ(request.headers["x-custom"], "spaced value");  // value trimmed
  EXPECT_TRUE(request.keep_alive);  // HTTP/1.1 default
}

TEST(ParseRequestTest, IncompleteNeedsMoreBytes) {
  HttpRequest request;
  size_t consumed = 0;
  std::string raw = "GET /x HTTP/1.1\r\nHost: localhost\r\n\r\n";
  for (size_t len = 0; len < raw.size(); ++len) {
    EXPECT_EQ(Parse(raw.substr(0, len), &request, &consumed),
              HttpServer::ParseOutcome::kIncomplete)
        << "prefix of " << len << " bytes";
  }
  EXPECT_EQ(Parse(raw, &request, &consumed), HttpServer::ParseOutcome::kOk);
}

TEST(ParseRequestTest, MalformedRequestLines) {
  HttpRequest request;
  size_t consumed = 0;
  for (const std::string& raw :
       {std::string("NONSENSE\r\n\r\n"),           // no spaces at all
        std::string("GET /x\r\n\r\n"),             // missing version
        std::string("GET  HTTP/1.1\r\n\r\n"),      // empty target
        std::string(" /x HTTP/1.1\r\n\r\n"),       // empty method
        std::string("GET /x SPDY/3\r\n\r\n"),      // not HTTP/1.x
        std::string("GET /x HTTP/1.1 extra\r\n\r\n")}) {
    EXPECT_EQ(Parse(raw, &request, &consumed),
              HttpServer::ParseOutcome::kBad)
        << raw;
  }
}

TEST(ParseRequestTest, BadContentLengthIsRejected) {
  HttpRequest request;
  size_t consumed = 0;
  EXPECT_EQ(Parse("GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
                  &request, &consumed),
            HttpServer::ParseOutcome::kBad);
  EXPECT_EQ(Parse("GET /x HTTP/1.1\r\nContent-Length: -3\r\n\r\n", &request,
                  &consumed),
            HttpServer::ParseOutcome::kBad);
}

TEST(ParseRequestTest, OversizedHeadersAndBody) {
  HttpRequest request;
  size_t consumed = 0;
  // Headers that can never fit the budget are rejected before completion.
  std::string huge_header =
      "GET /x HTTP/1.1\r\nX-Pad: " + std::string(600, 'a');
  EXPECT_EQ(Parse(huge_header, &request, &consumed, /*max_bytes=*/512),
            HttpServer::ParseOutcome::kTooLarge);
  // A declared body that exceeds the budget is rejected from its header
  // alone (the server must not buffer it first).
  EXPECT_EQ(Parse("POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
                  &request, &consumed, /*max_bytes=*/512),
            HttpServer::ParseOutcome::kTooLarge);
}

TEST(ParseRequestTest, BodyAndPipeliningConsumeExactly) {
  HttpRequest request;
  size_t consumed = 0;
  std::string first =
      "POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string raw = first + second;
  ASSERT_EQ(Parse(raw, &request, &consumed), HttpServer::ParseOutcome::kOk);
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(request.path, "/a");
  EXPECT_EQ(request.body, "hello");
  // The leftover parses as the next pipelined request.
  ASSERT_EQ(Parse(raw.substr(consumed), &request, &consumed),
            HttpServer::ParseOutcome::kOk);
  EXPECT_EQ(request.path, "/b");
  // Body only partially received: incomplete, not ok with a short body.
  EXPECT_EQ(Parse(first.substr(0, first.size() - 2), &request, &consumed),
            HttpServer::ParseOutcome::kIncomplete);
}

TEST(ParseRequestTest, ConnectionHeaderControlsKeepAlive) {
  HttpRequest request;
  size_t consumed = 0;
  ASSERT_EQ(Parse("GET /x HTTP/1.0\r\n\r\n", &request, &consumed),
            HttpServer::ParseOutcome::kOk);
  EXPECT_FALSE(request.keep_alive);  // HTTP/1.0 default
  ASSERT_EQ(Parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                  &request, &consumed),
            HttpServer::ParseOutcome::kOk);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_EQ(Parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", &request,
                  &consumed),
            HttpServer::ParseOutcome::kOk);
  EXPECT_FALSE(request.keep_alive);
}

TEST(HttpServerTest, RoutesAndNotFound) {
  HttpServer server;
  server.Route("/hello", [](const HttpRequest& r) {
    auto it = r.query.find("name");
    return HttpResponse::Json("{\"hi\":\"" +
                              (it == r.query.end() ? "world" : it->second) +
                              "\"}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::string ok = HttpGet(server.port(), "/hello?name=bob");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(ok), "{\"hi\":\"bob\"}");

  std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server;
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/x").find("200"), std::string::npos);
  server.Stop();
}

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string RecvUntilClosed(int fd) {
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  return response;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(HttpServerTest, PipelinedKeepAliveRequests) {
  HttpServer server;
  server.Route("/echo", [](const HttpRequest& r) {
    auto it = r.query.find("n");
    return HttpResponse::Json("{\"n\":" +
                              (it == r.query.end() ? "0" : it->second) + "}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  int fd = ConnectTo(server.port());
  // Three requests in one write; the last closes the connection so the
  // test can read to EOF.
  std::string pipelined =
      "GET /echo?n=1 HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /echo?n=2 HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /echo?n=3 HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, pipelined.data(), pipelined.size(), 0),
            static_cast<ssize_t>(pipelined.size()));
  std::string response = RecvUntilClosed(fd);
  seqdet::UniqueFd{fd};  // close now
  EXPECT_EQ(CountOccurrences(response, "200 OK"), 3u);
  EXPECT_NE(response.find("{\"n\":1}"), std::string::npos);
  EXPECT_NE(response.find("{\"n\":2}"), std::string::npos);
  EXPECT_NE(response.find("{\"n\":3}"), std::string::npos);
  EXPECT_EQ(server.stats().requests_served, 3u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.Stop();
}

TEST(HttpServerTest, PartialWritesAcrossPackets) {
  HttpServer server;
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{\"ok\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  int fd = ConnectTo(server.port());
  std::string raw = "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
  // Dribble the request a few bytes at a time; the server must reassemble
  // it across reads instead of 400ing a partial prefix.
  for (size_t i = 0; i < raw.size(); i += 5) {
    size_t len = std::min<size_t>(5, raw.size() - i);
    ASSERT_EQ(::send(fd, raw.data() + i, len, 0), static_cast<ssize_t>(len));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string response = RecvUntilClosed(fd);
  seqdet::UniqueFd{fd};  // close now
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, OversizedRequestGets413) {
  HttpServerOptions options;
  options.max_request_bytes = 512;
  HttpServer server(options);
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  int fd = ConnectTo(server.port());
  std::string raw = "GET /x HTTP/1.1\r\nX-Pad: " + std::string(1024, 'a') +
                    "\r\n\r\n";
  ::send(fd, raw.data(), raw.size(), 0);
  std::string response = RecvUntilClosed(fd);
  seqdet::UniqueFd{fd};  // close now
  EXPECT_NE(response.find("413"), std::string::npos);
  EXPECT_EQ(server.stats().bad_requests, 1u);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveRequestLimitClosesConnection) {
  HttpServerOptions options;
  options.max_keepalive_requests = 2;
  HttpServer server(options);
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client(server.port());
  for (int i = 0; i < 5; ++i) {
    auto response = client.Get("/x");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  // 5 requests at 2 per connection = at least 3 connections.
  EXPECT_GE(server.stats().connections_accepted, 3u);
  EXPECT_EQ(server.stats().requests_served, 5u);
  server.Stop();
}

TEST(HttpServerTest, StopDrainsInflightRequests) {
  HttpServer server;
  std::atomic<int> handled{0};
  server.Route("/slow", [&](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    handled.fetch_add(1);
    return HttpResponse::Json("{\"done\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  std::string response;
  std::thread client([&] {
    response = HttpGet(server.port(), "/slow");
  });
  // Give the request time to reach the handler, then stop mid-flight:
  // Stop() must wait for the handler and let its response flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop();
  client.join();
  EXPECT_EQ(handled.load(), 1);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"done\":true}"), std::string::npos);
}

TEST(HttpClientTest, KeepAliveAndTransparentReconnect) {
  HttpServer server;
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();
  HttpClient client(port);
  ASSERT_TRUE(client.Get("/x").ok());
  ASSERT_TRUE(client.Get("/x").ok());
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  // Restart the server: the client's connection is stale; Get must
  // reconnect instead of failing.
  server.Stop();
  ASSERT_TRUE(server.Start(port).ok());
  auto response = client.Get("/x");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  server.Stop();
}

size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// Regression for the throwaway-client pattern the pool replaced: a
// request loop through the pool must ride one keep-alive connection, not
// dial (and strand) a socket per request.
TEST(HttpClientPoolTest, ReusesConnectionsWithoutLeakingFds) {
  HttpServer server;
  server.Route("/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  HttpClientPool pool;

  // Warm-up establishes the pooled connection and any lazy fds
  // (epoll, /proc handles) before the measured window.
  {
    auto handle = pool.Acquire("127.0.0.1", server.port());
    ASSERT_TRUE(handle->Get("/x").ok());
  }
  const size_t before = OpenFdCount();
  for (int i = 0; i < 200; ++i) {
    auto handle = pool.Acquire("127.0.0.1", server.port());
    auto response = handle->Get("/x");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
  }
  const size_t after = OpenFdCount();
  EXPECT_LE(after, before + 4) << "fd count grew across pooled requests";

  auto stats = pool.stats();
  // The server's keep-alive request limit closes the connection every so
  // often, which correctly costs a re-dial; a leak would cost ~200.
  EXPECT_LE(stats.dials, 6u) << "pooled loop dialed per-request";
  EXPECT_GE(stats.reuses, 190u);
  EXPECT_EQ(stats.idle, 1u);
  server.Stop();
}

// Error-path fd stability: a pooled client that fails closes its socket
// and drops out of the pool (discarded, not re-parked), so repeated
// failures neither leak fds nor poison later acquires.
TEST(HttpClientPoolTest, FailedConnectionsAreDiscardedNotLeaked) {
  // A loopback port with nothing behind it: bind, read the number, close.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  seqdet::UniqueFd{probe};  // close now

  HttpClientPool pool;
  const size_t before = OpenFdCount();
  for (int i = 0; i < 50; ++i) {
    auto handle = pool.Acquire("127.0.0.1", dead_port);
    EXPECT_FALSE(handle->Get("/x").ok());
  }
  const size_t after = OpenFdCount();
  EXPECT_LE(after, before + 4) << "failed requests leaked fds";

  auto stats = pool.stats();
  EXPECT_EQ(stats.idle, 0u) << "a dead connection was parked in the pool";
  EXPECT_GE(stats.discards, 50u);
  EXPECT_EQ(stats.returns, 0u);
}

// ---------------------------------------------------------------------------
// QueryService end-to-end
// ---------------------------------------------------------------------------

struct ServiceFixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::SequenceIndex> index;
  std::unique_ptr<QueryService> service;
  HttpServer server;

  ServiceFixture() {
    storage::DbOptions options;
    options.table.in_memory = true;
    options.table.use_wal = false;
    db = std::move(storage::Database::Open("", options)).value();
    index::IndexOptions idx_options;
    idx_options.num_threads = 1;
    index =
        std::move(index::SequenceIndex::Open(db.get(), idx_options)).value();
    eventlog::EventLog log;
    log.Append(1, "search", 1);
    log.Append(1, "cart", 5);
    log.Append(1, "checkout", 9);
    log.Append(2, "search", 2);
    log.Append(2, "cart", 90);
    log.SortAllTraces();
    EXPECT_TRUE(index->Update(log).ok());
    service = std::make_unique<QueryService>(index.get());
    service->RegisterRoutes(&server);
    EXPECT_TRUE(server.Start(0).ok());
  }
  ~ServiceFixture() { server.Stop(); }
};

TEST(QueryServiceTest, Health) {
  ServiceFixture f;
  std::string body = BodyOf(HttpGet(f.server.port(), "/health"));
  EXPECT_EQ(body, "{\"status\":\"ok\"}");
}

TEST(QueryServiceTest, Info) {
  ServiceFixture f;
  std::string body = BodyOf(HttpGet(f.server.port(), "/info"));
  EXPECT_NE(body.find("\"policy\":\"STNM\""), std::string::npos);
  EXPECT_NE(body.find("\"activities\":3"), std::string::npos);
}

TEST(QueryServiceTest, DetectWithConstraints) {
  ServiceFixture f;
  // search -> cart, unconstrained: both traces.
  std::string all =
      BodyOf(HttpGet(f.server.port(), "/detect?q=search+-%3E+cart"));
  EXPECT_NE(all.find("\"total\":2"), std::string::npos);
  // gap <= 10 excludes trace 2 (gap 88).
  std::string constrained = BodyOf(HttpGet(
      f.server.port(), "/detect?q=search+-%3E+cart+gap+%3C%3D+10"));
  EXPECT_NE(constrained.find("\"total\":1"), std::string::npos);
  EXPECT_NE(constrained.find("\"trace\":1"), std::string::npos);
}

TEST(QueryServiceTest, DetectErrors) {
  ServiceFixture f;
  EXPECT_NE(HttpGet(f.server.port(), "/detect").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(f.server.port(), "/detect?q=ghost").find("400"),
            std::string::npos);
}

TEST(QueryServiceTest, Stats) {
  ServiceFixture f;
  std::string body = BodyOf(
      HttpGet(f.server.port(), "/stats?q=search+-%3E+cart&last=1"));
  EXPECT_NE(body.find("\"completions\":2"), std::string::npos);
  EXPECT_NE(body.find("\"last_completion\":90"), std::string::npos);
}

TEST(QueryServiceTest, ContinueModes) {
  ServiceFixture f;
  for (std::string mode : {"accurate", "fast", "hybrid"}) {
    std::string body = BodyOf(HttpGet(
        f.server.port(), "/continue?q=search&mode=" + mode + "&topk=2"));
    EXPECT_NE(body.find("\"activity\":\"cart\""), std::string::npos)
        << mode << ": " << body;
  }
  EXPECT_NE(HttpGet(f.server.port(), "/continue?q=search&mode=bogus")
                .find("400"),
            std::string::npos);
}

TEST(QueryServiceTest, InfoIncludesServingStats) {
  ServiceFixture f;
  // Generate some traffic so the latency window is non-empty.
  for (int i = 0; i < 3; ++i) {
    HttpGet(f.server.port(), "/detect?q=search+-%3E+cart");
  }
  std::string body = BodyOf(HttpGet(f.server.port(), "/info"));
  EXPECT_NE(body.find("\"serving\":"), std::string::npos);
  EXPECT_NE(body.find("\"max_inflight\":64"), std::string::npos);
  EXPECT_NE(body.find("\"route\":\"/detect\""), std::string::npos);
  EXPECT_NE(body.find("\"p99_ms\":"), std::string::npos);
  EXPECT_NE(body.find("\"http\":"), std::string::npos);
  EXPECT_NE(body.find("\"connections_accepted\":"), std::string::npos);

  ServingStatsSnapshot stats = f.service->serving_stats();
  bool found_detect = false;
  for (const auto& route : stats.routes) {
    if (route.route != "/detect") continue;
    found_detect = true;
    EXPECT_EQ(route.requests, 3u);
    EXPECT_EQ(route.latency_samples, 3u);
    EXPECT_GE(route.p99_ms, route.p50_ms);
  }
  EXPECT_TRUE(found_detect);
}

TEST(QueryServiceTest, AdmissionControlSheds503) {
  ServiceFixture f;
  ServingOptions options;
  options.max_inflight = 1;
  options.retry_after_seconds = 7;
  options.debug_routes = true;
  QueryService service(f.index.get(), options);
  HttpServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  // Occupy the only in-flight slot with a sleeping request, then probe.
  std::thread holder([&] {
    HttpClient client(server.port());
    auto response = client.Get("/debug/sleep?ms=2000&deadline_ms=400");
    EXPECT_TRUE(response.ok());
  });
  // Joined on every path: a failed assertion below must not leave the
  // thread joinable (std::terminate would take the whole binary down).
  struct JoinOnExit {
    std::thread& thread;
    ~JoinOnExit() {
      if (thread.joinable()) thread.join();
    }
  } join_holder{holder};
  // Probe only once the holder owns the slot. Probing earlier lets the
  // probe's own request take the slot and shed the holder instead.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.serving_stats().inflight != 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.serving_stats().inflight, 1);
  HttpClient probe(server.port());
  auto shed = probe.Get("/detect?q=search+-%3E+cart");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_EQ(shed->status, 503);
  EXPECT_EQ(shed->headers.at("retry-after"), "7");
  holder.join();

  // Slot free again: the same query is admitted now.
  auto ok = probe.Get("/detect?q=search+-%3E+cart");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);

  ServingStatsSnapshot stats = service.serving_stats();
  EXPECT_GE(stats.shed_total, 1u);
  // /health is never gated: reachable even while the slot was taken.
  EXPECT_EQ(probe.Get("/health")->status, 200);
  server.Stop();
}

TEST(QueryServiceTest, DeadlineCancelsSleepWithin2xBudget) {
  ServiceFixture f;
  ServingOptions options;
  options.debug_routes = true;
  QueryService service(f.index.get(), options);
  HttpServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client(server.port());
  // A 5-second sleep under a 150 ms budget must come back 504 in well
  // under the sleep duration (the acceptance bar is 2x the budget; allow
  // generous slack for a loaded CI machine).
  Stopwatch watch;
  auto response = client.Get("/debug/sleep?ms=5000&deadline_ms=150");
  double elapsed_ms = watch.ElapsedMillis();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  EXPECT_LT(elapsed_ms, 2000.0);

  ServingStatsSnapshot stats = service.serving_stats();
  uint64_t timeouts = 0;
  for (const auto& route : stats.routes) timeouts += route.deadline_exceeded;
  EXPECT_EQ(timeouts, 1u);
  server.Stop();
}

/// Skip-till-any-match with one repeated activity makes the pair join
/// combinatorial: C(k,2) postings per trace and exponentially many partial
/// matches per added pattern step — the realistic "runaway query" a
/// deadline budget exists for.
struct ExplodingTickIndex {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::SequenceIndex> index;

  ExplodingTickIndex() {
    storage::DbOptions db_options;
    db_options.table.in_memory = true;
    db_options.table.use_wal = false;
    db = std::move(storage::Database::Open("", db_options)).value();
    index::IndexOptions idx_options;
    idx_options.policy = index::Policy::kSkipTillAnyMatch;
    idx_options.num_threads = 1;
    index =
        std::move(index::SequenceIndex::Open(db.get(), idx_options)).value();
    eventlog::EventLog log;
    for (eventlog::TraceId trace = 0; trace < 40; ++trace) {
      for (int64_t ts = 0; ts < 40; ++ts) log.Append(trace, "tick", ts);
    }
    log.SortAllTraces();
    EXPECT_TRUE(index->Update(log).ok());
  }
};

TEST(QueryServiceTest, DeadlineCancelsExplodingDetectQuery) {
  ExplodingTickIndex ticks;
  auto& index = ticks.index;
  QueryService service(index.get());
  HttpServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client(server.port());
  std::string q = HttpClient::UrlEncode("tick -> tick -> tick -> tick");
  Stopwatch watch;
  auto response = client.Get("/detect?q=" + q + "&deadline_ms=25");
  double elapsed_ms = watch.ElapsedMillis();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body;
  EXPECT_NE(response->body.find("deadline"), std::string::npos);
  // Cooperative cancellation fires within one polling stride of the
  // budget; 2 s of slack covers slow sanitizer builds.
  EXPECT_LT(elapsed_ms, 2000.0);

  // The same query without a deadline is in-process verifiable: Detect
  // with an expired budget aborts immediately.
  query::QueryProcessor qp(index.get());
  auto parsed = query::ParsePatternQuery("tick -> tick", index->dictionary());
  ASSERT_TRUE(parsed.ok());
  parsed->constraints.deadline = Deadline::After(0);
  auto aborted = qp.Detect(parsed->pattern, parsed->constraints);
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsAborted());
  server.Stop();
}

TEST(QueryServiceTest, DeadlineCancelsExplodingContinueQuery) {
  // /continue runs the base detection and every candidate verification
  // under the request's budget, exactly as /detect does.
  ExplodingTickIndex ticks;
  QueryService service(ticks.index.get());
  HttpServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client(server.port());
  std::string q = HttpClient::UrlEncode("tick -> tick -> tick -> tick");
  Stopwatch watch;
  auto response =
      client.Get("/continue?q=" + q + "&mode=accurate&deadline_ms=25");
  double elapsed_ms = watch.ElapsedMillis();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body;
  EXPECT_NE(response->body.find("deadline"), std::string::npos);
  EXPECT_LT(elapsed_ms, 2000.0);

  uint64_t continue_timeouts = 0;
  for (const auto& route : service.serving_stats().routes) {
    if (route.route == "/continue") continue_timeouts = route.deadline_exceeded;
  }
  EXPECT_EQ(continue_timeouts, 1u);
  server.Stop();
}

/// A log over a wide alphabet: 3,200 traces of 10 events, the activities
/// a0..a1599 dealt round-robin so every one occurs. A disjunction of the
/// whole alphabet names 1600^2 concrete pairs, most of them empty.
struct WideAlphabetIndex {
  static constexpr size_t kActivities = 1600;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<index::SequenceIndex> index;

  WideAlphabetIndex() {
    storage::DbOptions db_options;
    db_options.table.in_memory = true;
    db_options.table.use_wal = false;
    db = std::move(storage::Database::Open("", db_options)).value();
    index::IndexOptions idx_options;
    idx_options.num_threads = 1;
    index =
        std::move(index::SequenceIndex::Open(db.get(), idx_options)).value();
    eventlog::EventLog log;
    size_t next = 0;
    for (eventlog::TraceId trace = 0; trace < 3200; ++trace) {
      for (int64_t ts = 0; ts < 10; ++ts) {
        log.Append(trace,
                   std::string("a").append(
                       std::to_string(next++ % kActivities)),
                   ts);
      }
    }
    log.SortAllTraces();
    EXPECT_TRUE(index->Update(log).ok());
  }

  /// "(a0|a1|...)": the whole alphabet as one element.
  static std::string AnyActivity() {
    std::string any = "(";
    for (size_t a = 0; a < kActivities; ++a) {
      any += (a == 0 ? "a" : "|a") + std::to_string(a);
    }
    return any + ")";
  }
};

TEST(QueryServiceTest, DeadlineCancelsWideDisjunctionDetectQuery) {
  // Gathering the seed postings of (any) (any) fetches every concrete pair
  // of the alphabet before any join runs; the budget must cut that short.
  WideAlphabetIndex wide;
  QueryService service(wide.index.get());
  HttpServer server;
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client(server.port());
  const std::string any = WideAlphabetIndex::AnyActivity();
  std::string q = HttpClient::UrlEncode(any + " " + any + " a1");
  Stopwatch watch;
  auto response = client.Get("/detect?q=" + q + "&deadline_ms=25");
  double elapsed_ms = watch.ElapsedMillis();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body;
  EXPECT_NE(response->body.find("deadline"), std::string::npos);
  EXPECT_LT(elapsed_ms, 2000.0);

  uint64_t detect_timeouts = 0;
  for (const auto& route : service.serving_stats().routes) {
    if (route.route == "/detect") detect_timeouts = route.deadline_exceeded;
  }
  EXPECT_EQ(detect_timeouts, 1u);
  server.Stop();
}

TEST(QueryServiceTest, MalformedHttpGets400) {
  ServiceFixture f;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(f.server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string garbage = "NONSENSE\r\n\r\n";
  ::send(fd, garbage.data(), garbage.size(), 0);
  char buffer[512];
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  seqdet::UniqueFd{fd};  // close now
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(buffer, static_cast<size_t>(n)).find("400"),
            std::string::npos);
}

}  // namespace
}  // namespace seqdet::server
