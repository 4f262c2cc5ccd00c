#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/histogram.h"
#include "common/strings.h"
#include "query/pattern_parser.h"

namespace seqdet::server {

namespace {

size_t LimitParam(const HttpRequest& request, size_t fallback) {
  auto it = request.query.find("limit");
  if (it == request.query.end()) return fallback;
  int64_t v;
  return ParseInt64(it->second, &v) && v >= 0 ? static_cast<size_t>(v)
                                              : fallback;
}

/// 504 for a query the deadline budget cancelled, 400 otherwise: a status
/// that is Aborted means QueryProcessor hit a cooperative deadline check,
/// every other failure is a bad request (unknown activity, bad syntax...).
HttpResponse QueryError(const Status& status) {
  if (status.IsAborted()) {
    return HttpResponse::Error(504, status.ToString());
  }
  return HttpResponse::Error(400, status.ToString());
}

}  // namespace

std::string DetectResponseJson(int64_t total,
                               const std::vector<query::PatternMatch>& matches,
                               size_t limit) {
  JsonWriter json;
  json.BeginObject()
      .Key("total")
      .Int(total)
      .Key("matches")
      .BeginArray();
  for (size_t i = 0; i < matches.size() && i < limit; ++i) {
    const auto& match = matches[i];
    json.BeginObject()
        .Key("trace")
        .Int(static_cast<int64_t>(match.trace))
        .Key("timestamps")
        .BeginArray();
    for (auto ts : match.timestamps) json.Int(ts);
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string DetectResponseJson(const std::vector<query::PatternMatch>& matches,
                               size_t limit) {
  return DetectResponseJson(static_cast<int64_t>(matches.size()), matches,
                            limit);
}

std::string StatsResponseJson(const std::vector<StatsRowView>& rows,
                              uint64_t completions_upper_bound,
                              double estimated_duration) {
  JsonWriter json;
  json.BeginObject().Key("pairs").BeginArray();
  for (const auto& row : rows) {
    json.BeginObject()
        .Key("first")
        .String(row.first)
        .Key("second")
        .String(row.second)
        .Key("completions")
        .Int(static_cast<int64_t>(row.completions))
        .Key("avg_duration")
        .Double(row.avg_duration);
    if (row.last_completion.has_value()) {
      json.Key("last_completion").Int(*row.last_completion);
    }
    json.EndObject();
  }
  json.EndArray()
      .Key("completions_upper_bound")
      .Int(static_cast<int64_t>(completions_upper_bound))
      .Key("estimated_duration")
      .Double(estimated_duration)
      .EndObject();
  return json.str();
}

std::string ContinueResponseJson(const std::vector<ProposalView>& proposals,
                                 size_t limit) {
  JsonWriter json;
  json.BeginObject().Key("proposals").BeginArray();
  for (size_t i = 0; i < proposals.size() && i < limit; ++i) {
    const auto& p = proposals[i];
    json.BeginObject()
        .Key("activity")
        .String(p.activity)
        .Key("completions")
        .Int(static_cast<int64_t>(p.completions))
        .Key("avg_duration")
        .Double(p.avg_duration)
        .Key("score")
        .Double(p.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

// ---------------------------------------------------------------------------
// RouteStats
// ---------------------------------------------------------------------------

void QueryService::RouteStats::RecordLatency(double ms) {
  MutexLock lock(mu);
  if (latency_window.size() < kLatencyWindow) {
    latency_window.push_back(ms);
  } else {
    latency_window[window_next] = ms;
    window_next = (window_next + 1) % kLatencyWindow;
  }
}

RouteStatsSnapshot QueryService::RouteStats::Snapshot() const {
  RouteStatsSnapshot out;
  out.route = route;
  out.requests = requests.load();
  out.shed = shed.load();
  out.deadline_exceeded = deadline_exceeded.load();
  out.errors = errors.load();
  out.inflight = inflight.load();
  Histogram latency;
  {
    MutexLock lock(mu);
    for (double ms : latency_window) latency.Add(ms);
  }
  out.latency_samples = latency.count();
  if (latency.count() > 0) {
    out.p50_ms = latency.Percentile(50);
    out.p99_ms = latency.Percentile(99);
    out.max_ms = latency.max();
  }
  return out;
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(const index::SequenceIndex* index,
                           ServingOptions options)
    : index_(index), qp_(index), options_(options) {}

void QueryService::RegisterRoutes(HttpServer* server) {
  server_ = server;
  server->Route("/health", [this](const HttpRequest& r) {
    return Dispatch(&health_stats_, /*gated=*/false, r,
                    [this](const HttpRequest& rq, const Deadline&) {
                      return HandleHealth(rq);
                    });
  });
  server->Route("/info", [this](const HttpRequest& r) {
    return Dispatch(&info_stats_, /*gated=*/false, r,
                    [this](const HttpRequest& rq, const Deadline&) {
                      return HandleInfo(rq);
                    });
  });
  server->Route("/detect", [this](const HttpRequest& r) {
    return Dispatch(&detect_stats_, /*gated=*/true, r,
                    [this](const HttpRequest& rq, const Deadline& deadline) {
                      return HandleDetect(rq, deadline);
                    });
  });
  server->Route("/stats", [this](const HttpRequest& r) {
    return Dispatch(&pair_stats_stats_, /*gated=*/true, r,
                    [this](const HttpRequest& rq, const Deadline&) {
                      return HandleStats(rq);
                    });
  });
  server->Route("/continue", [this](const HttpRequest& r) {
    return Dispatch(&continue_stats_, /*gated=*/true, r,
                    [this](const HttpRequest& rq, const Deadline& deadline) {
                      return HandleContinue(rq, deadline);
                    });
  });
  if (options_.debug_routes) {
    server->Route("/debug/sleep", [this](const HttpRequest& r) {
      return Dispatch(&sleep_stats_, /*gated=*/true, r,
                      [this](const HttpRequest& rq, const Deadline& deadline) {
                        return HandleDebugSleep(rq, deadline);
                      });
    });
  }
}

Deadline QueryService::RequestDeadline(const HttpRequest& request) const {
  int64_t budget_ms = options_.default_deadline_ms;
  if (auto it = request.query.find("deadline_ms");
      it != request.query.end()) {
    int64_t v;
    if (ParseInt64(it->second, &v) && v > 0) {
      budget_ms = std::min(v, options_.max_deadline_ms);
    }
  }
  return budget_ms > 0 ? Deadline::After(budget_ms) : Deadline::Never();
}

HttpResponse QueryService::Dispatch(RouteStats* stats, bool gated,
                                    const HttpRequest& r,
                                    const DeadlineHandler& handler) {
  stats->requests.fetch_add(1);
  if (gated && options_.max_inflight > 0) {
    int64_t admitted = inflight_.fetch_add(1) + 1;
    if (admitted > static_cast<int64_t>(options_.max_inflight)) {
      inflight_.fetch_sub(1);
      stats->shed.fetch_add(1);
      HttpResponse response = HttpResponse::Error(
          503, "server at capacity, retry later");
      response.headers.emplace_back(
          "Retry-After", std::to_string(options_.retry_after_seconds));
      return response;
    }
  } else if (gated) {
    inflight_.fetch_add(1);
  }

  stats->inflight.fetch_add(1);
  Stopwatch watch;
  HttpResponse response = handler(r, RequestDeadline(r));
  stats->RecordLatency(watch.ElapsedMillis());
  stats->inflight.fetch_sub(1);
  if (gated) inflight_.fetch_sub(1);

  if (response.status == 504) {
    stats->deadline_exceeded.fetch_add(1);
  } else if (response.status >= 500) {
    stats->errors.fetch_add(1);
  }
  return response;
}

ServingStatsSnapshot QueryService::serving_stats() const {
  ServingStatsSnapshot out;
  out.max_inflight = options_.max_inflight;
  out.default_deadline_ms = options_.default_deadline_ms;
  out.inflight = inflight_.load();
  const RouteStats* all[] = {&health_stats_,    &info_stats_,
                             &detect_stats_,    &pair_stats_stats_,
                             &continue_stats_,  &sleep_stats_};
  for (const RouteStats* stats : all) {
    if (stats == &sleep_stats_ && !options_.debug_routes) continue;
    out.routes.push_back(stats->Snapshot());
    out.shed_total += out.routes.back().shed;
  }
  return out;
}

HttpResponse QueryService::HandleHealth(const HttpRequest&) const {
  JsonWriter json;
  json.BeginObject().Key("status").String("ok").EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse QueryService::HandleInfo(const HttpRequest&) const {
  index::PostingCacheStats cache = index_->cache_stats();
  index::IndexReadStats reads = index_->read_stats();
  index::MaintenanceStats maint = index_->maintenance_stats();
  ServingStatsSnapshot serving = serving_stats();
  JsonWriter json;
  json.BeginObject()
      .Key("policy")
      .String(index::PolicyName(index_->options().policy))
      .Key("periods")
      .Int(static_cast<int64_t>(index_->num_periods()))
      .Key("activities")
      .Int(static_cast<int64_t>(index_->dictionary().size()))
      .Key("posting_format")
      .Int(static_cast<int64_t>(index::kPostingFormatBlocked))
      .Key("cache")
      .BeginObject()
      .Key("capacity_bytes")
      .Int(static_cast<int64_t>(cache.capacity_bytes))
      .Key("bytes")
      .Int(static_cast<int64_t>(cache.bytes))
      .Key("entries")
      .Int(static_cast<int64_t>(cache.entries))
      .Key("hits")
      .Int(static_cast<int64_t>(cache.hits))
      .Key("misses")
      .Int(static_cast<int64_t>(cache.misses))
      .Key("evictions")
      .Int(static_cast<int64_t>(cache.evictions))
      .Key("invalidations")
      .Int(static_cast<int64_t>(cache.invalidations))
      .EndObject()
      .Key("read_stats")
      .BeginObject()
      .Key("postings_decoded")
      .Int(static_cast<int64_t>(reads.postings_decoded))
      .Key("bytes_decoded")
      .Int(static_cast<int64_t>(reads.bytes_decoded))
      .Key("blocks_decoded")
      .Int(static_cast<int64_t>(reads.blocks_decoded))
      .Key("blocks_skipped")
      .Int(static_cast<int64_t>(reads.blocks_skipped))
      .Key("bytes_skipped")
      .Int(static_cast<int64_t>(reads.bytes_skipped))
      .EndObject()
      .Key("maintenance")
      .BeginObject()
      .Key("enabled")
      .Bool(maint.enabled)
      .Key("running")
      .Bool(maint.running)
      .Key("fold_in_progress")
      .Bool(maint.fold_in_progress)
      .Key("cycles")
      .Int(static_cast<int64_t>(maint.cycles))
      .Key("folds_run")
      .Int(static_cast<int64_t>(maint.folds_run))
      .Key("keys_folded")
      .Int(static_cast<int64_t>(maint.keys_folded))
      .Key("bytes_rewritten")
      .Int(static_cast<int64_t>(maint.bytes_rewritten))
      .Key("compactions_run")
      .Int(static_cast<int64_t>(maint.compactions_run))
      .Key("queue_depth")
      .Int(static_cast<int64_t>(maint.queue_depth))
      .Key("pending_bytes")
      .Int(static_cast<int64_t>(maint.pending_bytes))
      .Key("errors")
      .Int(static_cast<int64_t>(maint.errors))
      .Key("last_error")
      .String(maint.last_error)
      .Key("last_cycle_ms")
      .Int(maint.last_cycle_ms)
      .EndObject();

  json.Key("serving")
      .BeginObject()
      .Key("max_inflight")
      .Int(static_cast<int64_t>(serving.max_inflight))
      .Key("default_deadline_ms")
      .Int(serving.default_deadline_ms)
      .Key("inflight")
      .Int(serving.inflight)
      .Key("shed_total")
      .Int(static_cast<int64_t>(serving.shed_total));
  // Execution pools: the HTTP worker pool, when registered on a live
  // server.
  json.Key("pools").BeginObject();
  if (server_ != nullptr) {
    const ThreadPoolStats pool = server_->pool_stats();
    json.Key("http")
        .BeginObject()
        .Key("threads")
        .Int(static_cast<int64_t>(pool.threads))
        .Key("tasks_executed")
        .Int(static_cast<int64_t>(pool.tasks_executed))
        .Key("inline_runs")
        .Int(static_cast<int64_t>(pool.inline_runs))
        .Key("queue_depth")
        .Int(static_cast<int64_t>(pool.queue_depth))
        .Key("peak_queue_depth")
        .Int(static_cast<int64_t>(pool.peak_queue_depth))
        .EndObject();
  }
  json.EndObject();

  if (server_ != nullptr) {
    HttpServerStats http = server_->stats();
    json.Key("http")
        .BeginObject()
        .Key("workers")
        .Int(static_cast<int64_t>(server_->options().num_threads))
        .Key("connections_accepted")
        .Int(static_cast<int64_t>(http.connections_accepted))
        .Key("requests_served")
        .Int(static_cast<int64_t>(http.requests_served))
        .Key("bad_requests")
        .Int(static_cast<int64_t>(http.bad_requests))
        .Key("timeouts")
        .Int(static_cast<int64_t>(http.timeouts))
        .Key("active_connections")
        .Int(static_cast<int64_t>(http.active_connections))
        .Key("queued_connections")
        .Int(static_cast<int64_t>(http.queued_connections))
        .EndObject();
  }
  json.Key("routes").BeginArray();
  for (const RouteStatsSnapshot& route : serving.routes) {
    json.BeginObject()
        .Key("route")
        .String(route.route)
        .Key("requests")
        .Int(static_cast<int64_t>(route.requests))
        .Key("shed")
        .Int(static_cast<int64_t>(route.shed))
        .Key("deadline_exceeded")
        .Int(static_cast<int64_t>(route.deadline_exceeded))
        .Key("errors")
        .Int(static_cast<int64_t>(route.errors))
        .Key("inflight")
        .Int(route.inflight)
        .Key("latency_samples")
        .Int(static_cast<int64_t>(route.latency_samples))
        .Key("p50_ms")
        .Double(route.p50_ms)
        .Key("p99_ms")
        .Double(route.p99_ms)
        .Key("max_ms")
        .Double(route.max_ms)
        .EndObject();
  }
  json.EndArray().EndObject().EndObject();
  return HttpResponse::Json(json.str());
}

HttpResponse QueryService::HandleDetect(const HttpRequest& request,
                                        const Deadline& deadline) const {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  // The full extended language (DESIGN.md §14): disjunction, Kleene+,
  // negation, time windows, compliance templates. Plain sequences compile
  // to the identical Detect join plan inside DetectExtended.
  auto parsed =
      query::ParseExtendedPatternQuery(q->second, index_->dictionary());
  if (!parsed.ok()) {
    return HttpResponse::Error(400, parsed.status().ToString());
  }
  query::DetectionConstraints constraints;
  constraints.deadline = deadline;
  auto matches = qp_.DetectExtended(*parsed, constraints);
  if (!matches.ok()) {
    return QueryError(matches.status());
  }
  return HttpResponse::Json(
      DetectResponseJson(*matches, LimitParam(request, 100)));
}

HttpResponse QueryService::HandleStats(const HttpRequest& request) const {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  auto parsed = query::ParsePatternQuery(q->second, index_->dictionary());
  if (!parsed.ok()) {
    return HttpResponse::Error(400, parsed.status().ToString());
  }
  query::StatisticsOptions options;
  options.include_last_completion = request.query.count("last") > 0;
  auto stats = qp_.Statistics(parsed->pattern, options);
  if (!stats.ok()) {
    return QueryError(stats.status());
  }
  const auto& dict = index_->dictionary();
  if (request.query.count("raw") > 0) {
    // Shard-internal form for the router's merge: integer sums only,
    // per-pair in pattern order. The derived doubles (avg, estimated
    // duration) and the upper bound are recomputed router-side from the
    // merged sums — min-of-sums and sum-then-divide are not expressible
    // over already-derived values.
    JsonWriter json;
    json.BeginObject().Key("rows").BeginArray();
    for (const auto& row : stats->pairs) {
      json.BeginObject()
          .Key("first")
          .String(dict.Name(row.pair.first))
          .Key("second")
          .String(dict.Name(row.pair.second))
          .Key("completions")
          .Int(static_cast<int64_t>(row.total_completions))
          .Key("sum_duration")
          .Int(row.sum_duration);
      if (row.last_completion.has_value()) {
        json.Key("last").Int(*row.last_completion);
      }
      json.EndObject();
    }
    json.EndArray().EndObject();
    return HttpResponse::Json(json.str());
  }
  std::vector<StatsRowView> rows;
  rows.reserve(stats->pairs.size());
  for (const auto& row : stats->pairs) {
    StatsRowView view;
    view.first = dict.Name(row.pair.first);
    view.second = dict.Name(row.pair.second);
    view.completions = row.total_completions;
    view.avg_duration = row.average_duration;
    view.last_completion = row.last_completion;
    rows.push_back(std::move(view));
  }
  return HttpResponse::Json(StatsResponseJson(
      rows, stats->completions_upper_bound, stats->estimated_duration));
}

HttpResponse QueryService::HandleContinue(const HttpRequest& request,
                                          const Deadline& deadline) const {
  auto q = request.query.find("q");
  if (q == request.query.end()) {
    return HttpResponse::Error(400, "missing q parameter");
  }
  auto parsed = query::ParsePatternQuery(q->second, index_->dictionary());
  if (!parsed.ok()) {
    return HttpResponse::Error(400, parsed.status().ToString());
  }
  std::string mode = "accurate";
  if (auto it = request.query.find("mode"); it != request.query.end()) {
    mode = it->second;
  }
  query::ContinuationConstraints constraints;
  constraints.deadline = deadline;
  const auto& dict = index_->dictionary();
  if (request.query.count("raw") > 0) {
    // Shard-internal form for the router's merge (see HandleStats).
    if (mode == "accurate") {
      auto proposals = qp_.ContinueAccurate(parsed->pattern, constraints);
      if (!proposals.ok()) return QueryError(proposals.status());
      JsonWriter json;
      json.BeginObject().Key("proposals").BeginArray();
      for (const auto& p : *proposals) {
        json.BeginObject()
            .Key("activity")
            .String(dict.Name(p.activity))
            .Key("id")
            .Int(static_cast<int64_t>(p.activity))
            .Key("completions")
            .Int(static_cast<int64_t>(p.total_completions))
            .Key("sum_duration")
            .Int(p.sum_duration)
            .EndObject();
      }
      json.EndArray().EndObject();
      return HttpResponse::Json(json.str());
    }
    if (mode == "fast") {
      // The Fast heuristic's ingredients rather than its output: the
      // per-candidate counts here are *uncapped* — the whole-pattern cap
      // (Algorithm 4's min with the pairwise bound) is min-of-sums across
      // shards, so only the router can apply it.
      JsonWriter json;
      json.BeginObject().Key("pattern_pairs").BeginArray();
      for (size_t i = 0; i + 1 < parsed->pattern.size(); ++i) {
        auto stats = index_->GetPairStats(
            index::EventTypePair{parsed->pattern.activities[i],
                                 parsed->pattern.activities[i + 1]});
        if (!stats.ok()) return QueryError(stats.status());
        json.Int(static_cast<int64_t>(stats->total_completions));
      }
      json.EndArray().Key("candidates").BeginArray();
      auto candidates =
          index_->GetFollowerStats(parsed->pattern.activities.back());
      if (!candidates.ok()) return QueryError(candidates.status());
      for (const auto& candidate : *candidates) {
        json.BeginObject()
            .Key("activity")
            .String(dict.Name(candidate.other))
            .Key("id")
            .Int(static_cast<int64_t>(candidate.other))
            .Key("completions")
            .Int(static_cast<int64_t>(candidate.total_completions))
            .Key("sum_duration")
            .Int(candidate.sum_duration)
            .EndObject();
      }
      json.EndArray().EndObject();
      return HttpResponse::Json(json.str());
    }
    return HttpResponse::Error(
        400, "raw=1 supports mode=accurate|fast (the router assembles "
             "hybrid from both)");
  }
  Result<std::vector<query::ContinuationProposal>> proposals =
      Status::Internal("unset");
  if (mode == "accurate") {
    proposals = qp_.ContinueAccurate(parsed->pattern, constraints);
  } else if (mode == "fast") {
    proposals = qp_.ContinueFast(parsed->pattern);
  } else if (mode == "hybrid") {
    size_t topk = 5;
    if (auto it = request.query.find("topk"); it != request.query.end()) {
      int64_t v;
      if (ParseInt64(it->second, &v) && v >= 0) {
        topk = static_cast<size_t>(v);
      }
    }
    proposals = qp_.ContinueHybrid(parsed->pattern, topk, constraints);
  } else {
    return HttpResponse::Error(400, "unknown mode: " + mode);
  }
  if (!proposals.ok()) {
    return QueryError(proposals.status());
  }
  std::vector<ProposalView> views;
  views.reserve(proposals->size());
  for (const auto& p : *proposals) {
    ProposalView view;
    view.activity = dict.Name(p.activity);
    view.completions = p.total_completions;
    view.avg_duration = p.average_duration;
    view.score = p.score;
    views.push_back(std::move(view));
  }
  return HttpResponse::Json(
      ContinueResponseJson(views, LimitParam(request, 20)));
}

HttpResponse QueryService::HandleDebugSleep(const HttpRequest& request,
                                            const Deadline& deadline) const {
  int64_t ms = 100;
  if (auto it = request.query.find("ms"); it != request.query.end()) {
    int64_t v;
    if (ParseInt64(it->second, &v) && v >= 0) ms = std::min(v, int64_t{10000});
  }
  Stopwatch watch;
  while (watch.ElapsedMillis() < static_cast<double>(ms)) {
    if (deadline.Expired()) {
      return HttpResponse::Error(504, "query deadline exceeded");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JsonWriter json;
  json.BeginObject().Key("slept_ms").Int(ms).EndObject();
  return HttpResponse::Json(json.str());
}

}  // namespace seqdet::server
