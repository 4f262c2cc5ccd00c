// Building blocks of the seqdet end-to-end benchmark (perfbench): sample
// statistics, an in-memory span recorder, seeded request generation, the
// answer check against in-process references and the SASE oracle, process
// counters and the environment stamp. The workloads themselves live in
// workloads.cc; this header holds what they share and what
// harness_test.cc pins down.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "index/sequence_index.h"
#include "log/event_log.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// One reported percentile: the value, how many samples it was taken
/// over, and how many samples lie strictly above it (a tail percentile is
/// only trustworthy with at least ten samples beyond it).
struct PercentileResult {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile (`p` in [0, 100]) of `values`. Empty input
/// gives value 0 over 0 samples.
PercentileResult Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).value.
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded interval. Spans of one request share `trace`; `parent` is
/// the id of the span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records spans in memory; written out when the run ends. A disabled
/// tracer records nothing and every call is a cheap no-op, so the traced
/// and untraced replays run the same code. Single-threaded: the traced
/// replay drives one request at a time.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled). A child joins its
  /// parent's trace; a root (parent 0) starts a new one.
  uint64_t Begin(std::string_view name, uint64_t parent = 0);
  void End(uint64_t id);

  /// Adds a finished span with explicit times (used by tests).
  uint64_t Add(std::string_view name, uint64_t parent, int64_t start_ns,
               int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t next_trace_ = 1;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Indented text rendering of the tree rooted at span `root`, with total
/// and self time per span in microseconds.
std::string RenderSpanTree(const std::vector<Span>& spans, uint64_t root);

/// Per span name: summed self time (ns) and count, over `spans`.
struct LayerTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  size_t count = 0;
};
std::map<std::string, LayerTotals> TotalsByName(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class Kind { kDetect = 0, kDetectExt = 1, kStats = 2, kContinue = 3 };
constexpr size_t kNumKinds = 4;
const char* KindName(Kind kind);

/// One HTTP query of a workload: the pattern text, the route parameters
/// and the ready-to-send request target.
struct Request {
  Kind kind = Kind::kDetect;
  std::string query;             // pattern text (the `q` parameter)
  std::string continue_mode;     // /continue only
  size_t limit = 10;             // /detect and /continue
  std::string target;            // path + query string, percent-encoded
};

/// Share of each request kind in a workload's pool (sums to 1).
struct Mix {
  double detect = 0.4;
  double detect_ext = 0.25;
  double stats = 0.2;
  double continue_ = 0.15;
  std::string continue_mode = "hybrid";
};

/// How the patterns of a pool are drawn from the log.
struct PoolSpec {
  size_t size = 500;
  size_t min_length = 2;
  size_t max_length = 6;
  /// Fraction of patterns that start at a rare activity (one of the
  /// least frequent quarter); the rest are PatternSampler subsequences of
  /// random traces.
  double rare_anchored = 0;
  /// Continue patterns are capped at this many events (Accurate
  /// continuation joins every follower of the last event, so long bases
  /// multiply its cost).
  size_t max_continue_length = 3;
  Mix mix;
};

/// A seeded pool of requests over `log`: every pattern is a subsequence of
/// some trace (so it occurs under STNM), extended patterns add a window,
/// gap bound, negation, Kleene or disjunction to one. Activity names come
/// from the log's dictionary. Same (log, spec, seed) -> same pool.
std::vector<Request> MakePool(const seqdet::eventlog::EventLog& log,
                              const PoolSpec& spec, uint64_t seed);

/// A client's seeded walk over pool indices: an in-order walk from a
/// seeded offset, so popularity is uniform over the pool. Client `client`
/// of seed `seed` always sends the same sequence.
class RequestStream {
 public:
  RequestStream(size_t pool_size, uint64_t seed, size_t client);
  size_t Next();

 private:
  size_t pool_size_;
  size_t next_ = 0;  // the next pool index
};

/// The first `n` targets client `client` sends: what the determinism test
/// compares across seeds.
std::vector<std::string> RequestSequence(const std::vector<Request>& pool,
                                         uint64_t seed, size_t client,
                                         size_t n);

/// The pool entries a phase compares byte for byte: those among the first
/// `per_client` requests of each of the `clients` streams of `seed`. Every
/// entry is one that phase sends (given it sends that many).
std::vector<bool> CheckedEntries(size_t pool_size, uint64_t seed,
                                 size_t clients, size_t per_client);

// ---------------------------------------------------------------------------
// Answer check
// ---------------------------------------------------------------------------

/// The response body the single-process service must send for `request`
/// over `index`, computed in process through QueryProcessor and the
/// service's own serializers (DetectResponseJson and friends).
seqdet::Result<std::string> ReferenceBody(
    const seqdet::index::SequenceIndex& index, const Request& request);

/// Every response must be a 200 whose body parses as JSON; when
/// `expected` is non-null the body must equal it byte for byte. Returns an
/// error describing the first violated rule.
seqdet::Status CheckResponse(int status, const std::string& body,
                             const std::string* expected);

/// Compares the index's DetectExtended answer for a /detect request with
/// the SASE baseline scanning `log` (the normative semantics), as sorted
/// (trace, timestamps) lists. Counts the matches compared in *matches.
seqdet::Status CheckAgainstOracle(const seqdet::eventlog::EventLog& log,
                                  const seqdet::index::SequenceIndex& index,
                                  const Request& request, size_t* matches);

// ---------------------------------------------------------------------------
// Process counters and environment
// ---------------------------------------------------------------------------

/// VmHWM of this process in MiB: the peak resident size since the last
/// ResetPeakRss().
double PeakRssMb();
/// Returns freed heap to the system and restarts the peak-RSS count, so
/// the next PeakRssMb() covers only what runs in between (a serving
/// process that opened a finished index never held its build's garbage).
void ResetPeakRss();
/// Bytes this process passed to write(2) and friends (/proc/self/io wchar).
uint64_t WrittenBytes();
/// User + system CPU seconds of this process.
double CpuSeconds();
/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs were runnable (/proc/stat steal), summed over CPUs, in seconds.
double StealSeconds();
/// Online processors (what the load generator sizes itself by).
size_t Nproc();

/// The environment stamp printed with every result.
std::vector<std::pair<std::string, std::string>> EnvironmentStamp(
    const std::string& commit, uint64_t seed);

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
