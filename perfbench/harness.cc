#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "baselines/sase/sase_engine.h"
#include "datagen/pattern_sampler.h"
#include "query/pattern_parser.h"
#include "query/query_processor.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/query_service.h"

namespace perfbench {

using seqdet::Result;
using seqdet::Status;
using seqdet::eventlog::ActivityId;
using seqdet::eventlog::EventLog;

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

PercentileResult Percentile(std::vector<double> values, double p) {
  PercentileResult result;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  result.value = values[index];
  result.beyond = static_cast<size_t>(
      values.end() -
      std::upper_bound(values.begin(), values.end(), result.value));
  return result;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50).value;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t Tracer::Begin(std::string_view name, uint64_t parent) {
  if (!enabled_) return 0;
  return Add(name, parent, NowNs(), 0);
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

uint64_t Tracer::Add(std::string_view name, uint64_t parent,
                     int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace = parent != 0 ? spans_[parent - 1].trace : next_trace_++;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_start = 0, cur_end = 0;
      bool open = false;
      for (auto [start, end] : intervals) {
        start = std::max(start, span.start_ns);
        end = std::min(end, span.end_ns);
        if (end <= start) continue;
        if (open && start <= cur_end) {
          cur_end = std::max(cur_end, end);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    self.push_back(span.duration_ns() - covered);
  }
  return self;
}

std::string RenderSpanTree(const std::vector<Span>& spans, uint64_t root) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<uint64_t, std::vector<uint64_t>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span.id);
  }
  std::string out;
  std::function<void(uint64_t, int)> render = [&](uint64_t id, int depth) {
    const Span& span = spans[id - 1];
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%-*s total %10.1f us  self %10.1f us\n",
                  depth * 2, "", 28 - depth * 2, span.name.c_str(),
                  static_cast<double>(span.duration_ns()) / 1e3,
                  static_cast<double>(self[id - 1]) / 1e3);
    out += line;
    for (uint64_t child : children[id]) render(child, depth + 1);
  };
  if (root >= 1 && root <= spans.size()) render(root, 0);
  return out;
}

std::map<std::string, LayerTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].duration_ns();
    ++t.count;
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kDetect:
      return "detect";
    case Kind::kDetectExt:
      return "detect_ext";
    case Kind::kStats:
      return "stats";
    case Kind::kContinue:
      return "continue";
  }
  return "?";
}

namespace {

using seqdet::query::ExtendedPattern;
using seqdet::query::PatternElement;

/// The request's path and query string, percent-encoded.
std::string RequestTarget(const Request& request) {
  std::string q = seqdet::server::HttpClient::UrlEncode(request.query);
  switch (request.kind) {
    case Kind::kDetect:
    case Kind::kDetectExt:
      return "/detect?q=" + q + "&limit=" + std::to_string(request.limit);
    case Kind::kStats:
      return "/stats?q=" + q;
    case Kind::kContinue:
      return "/continue?q=" + q + "&mode=" + request.continue_mode +
             "&limit=" + std::to_string(request.limit);
  }
  return "/";
}

/// `length` activities at increasing positions of a random trace, the
/// first one a rare activity. Falls back to PatternSampler when no trace
/// holds a rare activity with enough events after it.
std::vector<ActivityId> SampleRareAnchored(
    const EventLog& log, const std::vector<bool>& rare, size_t length,
    seqdet::Rng* rng, seqdet::datagen::PatternSampler* sampler) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto& trace = log.traces()[rng->NextBounded(log.num_traces())];
    std::vector<size_t> anchors;
    for (size_t i = 0; i + length <= trace.size(); ++i) {
      if (rare[trace.events[i].activity]) anchors.push_back(i);
    }
    if (anchors.empty()) continue;
    size_t start = anchors[rng->NextBounded(anchors.size())];
    // Distinct positions after the anchor, sorted.
    std::vector<size_t> rest;
    for (size_t i = start + 1; i < trace.size(); ++i) rest.push_back(i);
    rng->Shuffle(&rest);
    rest.resize(length - 1);
    std::sort(rest.begin(), rest.end());
    std::vector<ActivityId> pattern{trace.events[start].activity};
    for (size_t p : rest) pattern.push_back(trace.events[p].activity);
    return pattern;
  }
  return sampler->SampleSubsequence(length);
}

/// Average gap between consecutive events of a trace.
double MeanGap(const EventLog& log) {
  double sum = 0;
  size_t gaps = 0;
  for (const auto& trace : log.traces()) {
    for (size_t i = 1; i < trace.size(); ++i) {
      sum += static_cast<double>(trace.events[i].ts - trace.events[i - 1].ts);
      ++gaps;
    }
  }
  return gaps > 0 ? sum / static_cast<double>(gaps) : 1.0;
}

/// Turns a plain subsequence into extended shape `variant` (of five).
ExtendedPattern Extend(const std::vector<ActivityId>& ids, double mean_gap,
                       size_t num_activities, size_t variant,
                       seqdet::Rng* rng) {
  ExtendedPattern p =
      ExtendedPattern::FromPlain(seqdet::query::Pattern(ids));
  auto random_activity = [&] {
    return static_cast<ActivityId>(rng->NextBounded(num_activities));
  };
  const double n = static_cast<double>(ids.size());
  switch (variant % 5) {
    case 0:  // within: a window around the typical span
      p.max_span = static_cast<int64_t>(mean_gap * n * (1 + rng->NextDouble()));
      break;
    case 1:  // gap bound
      p.max_gap = static_cast<int64_t>(mean_gap * (1 + 2 * rng->NextDouble()));
      break;
    case 2: {  // negation between the first two events
      PatternElement neg;
      neg.alternatives = {random_activity()};
      neg.negated = true;
      p.elements.insert(p.elements.begin() + 1, neg);
      break;
    }
    case 3:  // Kleene+ on one element
      p.elements[rng->NextBounded(p.elements.size())].kleene = true;
      break;
    default: {  // disjunction on one element
      auto& alts = p.elements[rng->NextBounded(p.elements.size())].alternatives;
      alts.push_back(random_activity());
      std::sort(alts.begin(), alts.end());
      alts.erase(std::unique(alts.begin(), alts.end()), alts.end());
      break;
    }
  }
  return p;
}

}  // namespace

std::vector<Request> MakePool(const EventLog& log, const PoolSpec& spec,
                              uint64_t seed) {
  seqdet::Rng rng(seed ^ 0x5eedf00dULL);
  seqdet::datagen::PatternSampler sampler(&log, seed);
  const auto& dict = log.dictionary();
  const double mean_gap = MeanGap(log);

  // The least frequent quarter of the activities.
  std::vector<size_t> freq(dict.size(), 0);
  for (const auto& trace : log.traces()) {
    for (const auto& event : trace.events) ++freq[event.activity];
  }
  std::vector<ActivityId> by_freq(dict.size());
  for (size_t i = 0; i < by_freq.size(); ++i) {
    by_freq[i] = static_cast<ActivityId>(i);
  }
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&](ActivityId a, ActivityId b) {
                     return freq[a] < freq[b];
                   });
  std::vector<bool> rare(dict.size(), false);
  for (size_t i = 0; i < std::max<size_t>(1, by_freq.size() / 4); ++i) {
    rare[by_freq[i]] = true;
  }

  // Kinds follow the mix exactly in every prefix of the pool (smooth
  // weighted round robin), so every stretch of a client's walk has the
  // same kind mix under every seed; only the patterns are seeded.
  const Mix& mix = spec.mix;
  const double shares[kNumKinds] = {mix.detect, mix.detect_ext, mix.stats,
                                    mix.continue_};
  double credit[kNumKinds] = {0, 0, 0, 0};
  size_t extended = 0;  // the shapes rotate the same way
  std::vector<Request> pool;
  pool.reserve(spec.size);
  for (size_t i = 0; i < spec.size; ++i) {
    size_t kind = 0;
    for (size_t k = 0; k < kNumKinds; ++k) {
      credit[k] += shares[k];
      if (credit[k] > credit[kind]) kind = k;
    }
    credit[kind] -= 1;
    Request request;
    request.kind = static_cast<Kind>(kind);
    size_t length = static_cast<size_t>(rng.NextInRange(
        static_cast<int64_t>(spec.min_length),
        static_cast<int64_t>(spec.max_length)));
    if (request.kind == Kind::kContinue) {
      length = std::min(length, spec.max_continue_length);
    }
    std::vector<ActivityId> ids =
        rng.NextDouble() < spec.rare_anchored
            ? SampleRareAnchored(log, rare, length, &rng, &sampler)
            : sampler.SampleSubsequence(length);
    ExtendedPattern pattern =
        request.kind == Kind::kDetectExt
            ? Extend(ids, mean_gap, dict.size(), extended++, &rng)
            : ExtendedPattern::FromPlain(seqdet::query::Pattern(ids));
    request.query = pattern.ToString(dict);
    if (request.kind == Kind::kContinue) {
      request.continue_mode = mix.continue_mode;
    }
    request.target = RequestTarget(request);
    pool.push_back(std::move(request));
  }
  return pool;
}

RequestStream::RequestStream(size_t pool_size, uint64_t seed, size_t client)
    : pool_size_(pool_size) {
  seqdet::Rng rng(seed * 0x9e3779b97f4a7c15ULL + client * 0xbf58476d1ce4e5b9ULL +
                  1);
  next_ = static_cast<size_t>(rng.NextBounded(pool_size));
}

size_t RequestStream::Next() {
  // The pool's entries are independent draws, so an in-order walk is a
  // uniform sample, and every stretch of it carries the mix's exact kind
  // and shape shares.
  size_t i = next_;
  next_ = (next_ + 1) % pool_size_;
  return i;
}

std::vector<std::string> RequestSequence(const std::vector<Request>& pool,
                                         uint64_t seed, size_t client,
                                         size_t n) {
  RequestStream stream(pool.size(), seed, client);
  std::vector<std::string> targets;
  targets.reserve(n);
  for (size_t i = 0; i < n; ++i) targets.push_back(pool[stream.Next()].target);
  return targets;
}

std::vector<bool> CheckedEntries(size_t pool_size, uint64_t seed,
                                 size_t clients, size_t per_client) {
  std::vector<bool> checked(pool_size, false);
  for (size_t c = 0; c < clients; ++c) {
    RequestStream stream(pool_size, seed, c);
    for (size_t n = 0; n < per_client; ++n) checked[stream.Next()] = true;
  }
  return checked;
}

// ---------------------------------------------------------------------------
// Answer check
// ---------------------------------------------------------------------------

Result<std::string> ReferenceBody(const seqdet::index::SequenceIndex& index,
                                  const Request& request) {
  namespace q = seqdet::query;
  namespace srv = seqdet::server;
  q::QueryProcessor qp(&index);
  const auto& dict = index.dictionary();
  switch (request.kind) {
    case Kind::kDetect:
    case Kind::kDetectExt: {
      auto parsed = q::ParseExtendedPatternQuery(request.query, dict);
      if (!parsed.ok()) return parsed.status();
      auto matches = qp.DetectExtended(*parsed);
      if (!matches.ok()) return matches.status();
      return srv::DetectResponseJson(*matches, request.limit);
    }
    case Kind::kStats: {
      auto parsed = q::ParsePatternQuery(request.query, dict);
      if (!parsed.ok()) return parsed.status();
      auto stats = qp.Statistics(parsed->pattern);
      if (!stats.ok()) return stats.status();
      std::vector<srv::StatsRowView> rows;
      for (const auto& row : stats->pairs) {
        srv::StatsRowView view;
        view.first = dict.Name(row.pair.first);
        view.second = dict.Name(row.pair.second);
        view.completions = row.total_completions;
        view.avg_duration = row.average_duration;
        view.last_completion = row.last_completion;
        rows.push_back(std::move(view));
      }
      return srv::StatsResponseJson(rows, stats->completions_upper_bound,
                                    stats->estimated_duration);
    }
    case Kind::kContinue: {
      auto parsed = q::ParsePatternQuery(request.query, dict);
      if (!parsed.ok()) return parsed.status();
      Result<std::vector<q::ContinuationProposal>> proposals =
          Status::Internal("unset");
      if (request.continue_mode == "accurate") {
        proposals = qp.ContinueAccurate(parsed->pattern);
      } else if (request.continue_mode == "fast") {
        proposals = qp.ContinueFast(parsed->pattern);
      } else if (request.continue_mode == "hybrid") {
        proposals = qp.ContinueHybrid(parsed->pattern, /*top_k=*/5);
      } else {
        return Status::InvalidArgument("unknown continue mode " +
                                       request.continue_mode);
      }
      if (!proposals.ok()) return proposals.status();
      std::vector<srv::ProposalView> views;
      for (const auto& p : *proposals) {
        views.push_back(srv::ProposalView{dict.Name(p.activity),
                                          p.total_completions,
                                          p.average_duration, p.score});
      }
      return srv::ContinueResponseJson(views, request.limit);
    }
  }
  return Status::Internal("unknown request kind");
}

Status CheckResponse(int status, const std::string& body,
                     const std::string* expected) {
  if (status != 200) {
    return Status::Internal("HTTP " + std::to_string(status) + ": " +
                            body.substr(0, 200));
  }
  auto parsed = seqdet::server::JsonValue::Parse(body);
  if (!parsed.ok()) {
    return Status::Corruption("response is not JSON: " +
                              parsed.status().ToString());
  }
  if (expected != nullptr && body != *expected) {
    size_t at = 0;
    while (at < body.size() && at < expected->size() &&
           body[at] == (*expected)[at]) {
      ++at;
    }
    return Status::Corruption(
        "response differs from the in-process reference at byte " +
        std::to_string(at) + " (got " + std::to_string(body.size()) +
        " bytes, want " + std::to_string(expected->size()) + ")");
  }
  return Status::OK();
}

Status CheckAgainstOracle(const EventLog& log,
                          const seqdet::index::SequenceIndex& index,
                          const Request& request, size_t* matches) {
  namespace q = seqdet::query;
  using Normal = std::vector<std::pair<uint64_t, std::vector<int64_t>>>;
  auto oracle_pattern = q::ParseExtendedPatternQuery(request.query,
                                                     log.dictionary());
  if (!oracle_pattern.ok()) return oracle_pattern.status();
  seqdet::baseline::SaseEngine engine(&log);
  auto expected = engine.DetectExtended(*oracle_pattern,
                                        index.options().policy);
  if (!expected.ok()) return expected.status();
  Normal want;
  for (const auto& m : *expected) want.emplace_back(m.trace, m.timestamps);

  auto index_pattern =
      q::ParseExtendedPatternQuery(request.query, index.dictionary());
  if (!index_pattern.ok()) return index_pattern.status();
  q::QueryProcessor qp(&index);
  auto got_matches = qp.DetectExtended(*index_pattern);
  if (!got_matches.ok()) return got_matches.status();
  Normal got;
  for (const auto& m : *got_matches) {
    got.emplace_back(m.trace, std::vector<int64_t>(m.timestamps.begin(),
                                                   m.timestamps.end()));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  *matches = want.size();
  if (want != got) {
    return Status::Corruption("index answer (" + std::to_string(got.size()) +
                              " matches) differs from the SASE oracle (" +
                              std::to_string(want.size()) + ") for `" +
                              request.query + "`");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Process counters and environment
// ---------------------------------------------------------------------------

namespace {

/// The first number after `key` in a "key: value" style proc file.
double ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ProcField("/proc/self/status", "VmHWM:") / 1024; }

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t WrittenBytes() {
  return static_cast<uint64_t>(ProcField("/proc/self/io", "wchar:"));
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double StealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ...", in clock
  // ticks summed over every CPU.
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? static_cast<double>(steal) / hz : 0;
}

size_t Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::vector<std::pair<std::string, std::string>> EnvironmentStamp(
    const std::string& commit, uint64_t seed) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  return {
      {"nproc", std::to_string(Nproc())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu},
      {"compiler", __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit},
      {"seed", std::to_string(seed)},
  };
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
