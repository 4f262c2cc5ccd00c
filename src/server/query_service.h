#ifndef SEQDET_SERVER_QUERY_SERVICE_H_
#define SEQDET_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"
#include "index/sequence_index.h"
#include "query/query_processor.h"
#include "server/http_server.h"

namespace seqdet::server {

/// Admission-control and deadline knobs of the serving front end.
struct ServingOptions {
  /// Max query-route requests (detect/stats/continue) executing at once;
  /// excess requests are shed immediately with 503 + Retry-After instead
  /// of queueing behind a pile they would time out in anyway. 0 = off.
  size_t max_inflight = 64;
  /// Deadline budget applied to every query request that does not carry
  /// its own `deadline_ms` parameter. 0 = no implicit deadline.
  int64_t default_deadline_ms = 0;
  /// Upper clamp on client-supplied `deadline_ms`.
  int64_t max_deadline_ms = 600000;
  /// Value of the Retry-After header on shed (503) responses.
  int64_t retry_after_seconds = 1;
  /// Also register /debug/sleep?ms=N — a handler that holds a gated slot
  /// asleep. Only the tests and bench_serving set this; it makes overload
  /// and drain behavior deterministic to provoke.
  bool debug_routes = false;
};

/// Point-in-time serving counters for one route.
struct RouteStatsSnapshot {
  std::string route;
  uint64_t requests = 0;           // admitted or not, every arrival counts
  uint64_t shed = 0;               // rejected by admission control (503)
  uint64_t deadline_exceeded = 0;  // cancelled by the deadline budget (504)
  uint64_t errors = 0;             // 5xx from the handler itself
  int64_t inflight = 0;            // executing right now (gauge)
  uint64_t latency_samples = 0;    // size of the percentile window
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;               // max within the window
};

/// Point-in-time serving counters for the whole service.
struct ServingStatsSnapshot {
  size_t max_inflight = 0;
  int64_t default_deadline_ms = 0;
  int64_t inflight = 0;     // gated requests executing now (gauge)
  uint64_t shed_total = 0;  // all-route 503 count
  std::vector<RouteStatsSnapshot> routes;
};

/// The query-processor service of Figure 1 (the paper deploys it as a Java
/// Spring application): JSON-over-HTTP endpoints in front of a
/// SequenceIndex, with an admission-control front end — a bounded
/// in-flight budget that sheds overload with 503 + Retry-After, and
/// per-request deadline budgets that cooperatively cancel long joins in
/// QueryProcessor::Detect and long continuation verifications (the request
/// returns 504 within roughly one posting-scan chunk of the budget).
///
/// Endpoints (all GET, pattern expressions use the textual language of
/// query/pattern_parser.h, URL-encoded in `q`):
///   /health                               liveness probe (never gated)
///   /info                                 policy, periods, activity count,
///                                         posting format, read-cache /
///                                         decode / maintenance stats, and
///                                         the serving stats (per-route
///                                         requests, in-flight, shed,
///                                         timeouts, p50/p99 latency,
///                                         HTTP-layer counters)
///   /detect?q=A->B[&limit=N][&deadline_ms=N]   pattern detection
///   /stats?q=A->B[&last=1]                pairwise statistics
///   /continue?q=A->B&mode=accurate|fast|hybrid[&topk=K][&limit=N]
///            [&deadline_ms=N]
///
/// /stats and /continue additionally accept `raw=1` — the shard-internal
/// wire format of the scatter-gather router (shard_router.h): the same
/// aggregates as integer sums (completions, duration sums, activity ids)
/// instead of derived doubles, unlimited, so N such responses merge
/// associatively and the router can recompute every double exactly as the
/// single process would have. Not a public API; its shape may change with
/// the router.
///
/// The service borrows the index; both must outlive the HttpServer.
class QueryService {
 public:
  explicit QueryService(const index::SequenceIndex* index,
                        ServingOptions options = {});

  /// Registers every endpoint on `server` (also the source of the
  /// HTTP-layer counters /info reports).
  void RegisterRoutes(HttpServer* server);

  const ServingOptions& serving_options() const { return options_; }

  /// Snapshot of the admission/latency counters of every route.
  ServingStatsSnapshot serving_stats() const;

 private:
  /// Bounded-memory latency/err accounting for one route. The percentile
  /// window keeps the most recent kLatencyWindow samples (common/histogram
  /// computes the percentiles over that window at snapshot time), so a
  /// long-lived server's stats stay O(1) in memory.
  struct RouteStats {
    explicit RouteStats(std::string name) : route(std::move(name)) {}

    void RecordLatency(double ms) REQUIRES(!mu);
    RouteStatsSnapshot Snapshot() const REQUIRES(!mu);

    const std::string route;
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<int64_t> inflight{0};

    /// Leaf lock (common/sync.h map): held only for the window write /
    /// copy; never across the handler or any other acquisition.
    mutable Mutex mu;
    std::vector<double> latency_window GUARDED_BY(mu);  // newest overwrite
    size_t window_next GUARDED_BY(mu) = 0;
  };
  static constexpr size_t kLatencyWindow = 8192;

  using DeadlineHandler =
      std::function<HttpResponse(const HttpRequest&, const Deadline&)>;

  /// The admission/deadline/stats wrapper every route goes through.
  /// `gated` routes consume an in-flight slot and may be shed.
  HttpResponse Dispatch(RouteStats* stats, bool gated, const HttpRequest& r,
                        const DeadlineHandler& handler);

  /// The request's deadline budget: `deadline_ms` parameter (clamped to
  /// max_deadline_ms) or the service default; Never() when both are 0.
  Deadline RequestDeadline(const HttpRequest& request) const;

  HttpResponse HandleHealth(const HttpRequest& request) const;
  HttpResponse HandleInfo(const HttpRequest& request) const;
  HttpResponse HandleDetect(const HttpRequest& request,
                            const Deadline& deadline) const;
  HttpResponse HandleStats(const HttpRequest& request) const;
  HttpResponse HandleContinue(const HttpRequest& request,
                              const Deadline& deadline) const;
  HttpResponse HandleDebugSleep(const HttpRequest& request,
                                const Deadline& deadline) const;

  const index::SequenceIndex* index_;
  query::QueryProcessor qp_;
  ServingOptions options_;
  HttpServer* server_ = nullptr;  // set by RegisterRoutes, for /info

  std::atomic<int64_t> inflight_{0};  // across all gated routes
  RouteStats health_stats_{"/health"};
  RouteStats info_stats_{"/info"};
  RouteStats detect_stats_{"/detect"};
  RouteStats pair_stats_stats_{"/stats"};
  RouteStats continue_stats_{"/continue"};
  RouteStats sleep_stats_{"/debug/sleep"};
};

/// Serializes Detect results exactly as /detect responds. Shared with the
/// differential harness so its byte-identical HTTP-vs-in-process assertion
/// and the live handler can never drift apart.
std::string DetectResponseJson(const std::vector<query::PatternMatch>& matches,
                               size_t limit);

/// Same serialization with an explicit `total` — the shard router's merge
/// holds only the limit-truncated union of per-shard matches but knows the
/// exact global total (shard totals are pre-limit and sum). The two-arg
/// overload above is total = matches.size().
std::string DetectResponseJson(int64_t total,
                               const std::vector<query::PatternMatch>& matches,
                               size_t limit);

/// One /stats response row with its activity names resolved. The single
/// process resolves names through its dictionary; the router takes them
/// from the shard rows — either way the serialized bytes go through
/// StatsResponseJson below, which is what makes router output and
/// single-process output byte-identical by construction.
struct StatsRowView {
  std::string first;
  std::string second;
  uint64_t completions = 0;
  double avg_duration = 0;
  std::optional<eventlog::Timestamp> last_completion;
};

/// Serializes /stats exactly as the single-process handler responds.
std::string StatsResponseJson(const std::vector<StatsRowView>& rows,
                              uint64_t completions_upper_bound,
                              double estimated_duration);

/// One /continue proposal with its activity name resolved.
struct ProposalView {
  std::string activity;
  uint64_t completions = 0;
  double avg_duration = 0;
  double score = 0;
};

/// Serializes /continue exactly as the single-process handler responds.
std::string ContinueResponseJson(const std::vector<ProposalView>& proposals,
                                 size_t limit);

}  // namespace seqdet::server

#endif  // SEQDET_SERVER_QUERY_SERVICE_H_
