#ifndef SEQDET_INDEX_MAINTENANCE_H_
#define SEQDET_INDEX_MAINTENANCE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "index/index_tables.h"

namespace seqdet::index {

class SequenceIndex;

/// Snapshot of the index's not-yet-folded append load: posting bytes and
/// append records Update() has staged since the last completed fold pass
/// (see SequenceIndex::pending_fold_load()).
struct PendingFoldLoad {
  uint64_t bytes = 0;
  uint64_t ops = 0;
};

/// Knobs of the background maintenance service (nested in IndexOptions).
/// The service watches the index's pending-append counters — bytes and
/// records Update() has staged into the posting/statistics tables since the
/// last fold — and runs an incremental fold + statistics compaction once
/// either threshold is exceeded.
struct MaintenanceOptions {
  /// Start the service inside SequenceIndex::Open(); the CLI flag
  /// `seqdet serve --auto-fold` sets this.
  bool auto_fold = false;
  /// How often the service wakes to test the thresholds.
  uint64_t check_interval_ms = 500;
  /// Fold when at least this many posting bytes were appended since the
  /// last fold...
  uint64_t min_pending_bytes = 4u << 20;
  /// ...or at least this many posting-list append records.
  uint64_t min_pending_ops = 16384;
  /// Cap on fold throughput (pre-fold bytes read per second); the pace
  /// callback sleeps between per-key commits to stay under it. 0 = off.
  uint64_t rate_limit_bytes_per_sec = 0;
  /// Also fold the Count/ReverseCount delta lists each cycle (no-op when
  /// the index does not maintain counts).
  bool compact_statistics = true;
};

/// Snapshot of the service's observability counters (served by /info and
/// `seqdet info`). All-zero with `enabled == false` when the index runs
/// without a service.
struct MaintenanceStats {
  bool enabled = false;
  bool running = false;           // Start()ed and not yet Stop()ped
  bool fold_in_progress = false;  // a cycle is rewriting keys right now
  uint64_t cycles = 0;            // threshold-triggered cycles attempted
  uint64_t folds_run = 0;         // cycles whose fold pass completed
  uint64_t keys_folded = 0;
  uint64_t bytes_rewritten = 0;   // folded value bytes written
  uint64_t compactions_run = 0;   // statistics folds completed
  uint64_t queue_depth = 0;       // pending append records not yet folded
  uint64_t pending_bytes = 0;     // pending append bytes not yet folded
  uint64_t errors = 0;
  std::string last_error;         // empty when no cycle ever failed
  int64_t last_cycle_ms = 0;
};

/// Background auto-fold + compaction scheduler (the tentpole of the
/// always-on service the cloud-native follow-up paper moves maintenance
/// into). One dedicated worker (its own common/thread_pool.h pool, so index
/// build workers are never blocked by maintenance) loops: sleep for
/// check_interval_ms (or a Kick()), test the index's pending-append
/// counters against the thresholds, and when exceeded run one cycle —
/// FoldPostings() plus CompactStatistics(). Every per-key fold commit is
/// atomic (Kv::RewriteValue), so cycles run concurrently with
/// Update()/Detect()/DetectBatch(); Stop() quiesces by finishing the
/// in-flight key and aborting the rest of the pass via the pace callback.
class MaintenanceService {
 public:
  /// The index must outlive the service. The constructor does not start
  /// anything; call Start().
  MaintenanceService(SequenceIndex* index, const MaintenanceOptions& options);

  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// Stop()s if still running.
  ~MaintenanceService() REQUIRES(!mu_);

  /// Launches the scheduler loop. Idempotent while running.
  void Start() REQUIRES(!mu_);

  /// Clean shutdown: requests the in-flight fold pass (if any) to abort at
  /// the next per-key commit boundary, then joins the loop. The index is
  /// left consistent — folded keys stay folded, the rest keep their
  /// fragments. Idempotent and safe to race with itself (the dtor and an
  /// explicit Stop() may overlap): one caller joins, the rest wait.
  SEQDET_BLOCKING void Stop() REQUIRES(!mu_);

  /// Wakes the loop now instead of waiting out the check interval.
  void Kick() REQUIRES(!mu_);

  /// Blocks until no cycle is in flight and the pending counters are below
  /// the thresholds (kicking the loop first), or until `timeout_ms`
  /// elapses. Returns false on timeout or when the service is not running.
  SEQDET_BLOCKING bool WaitIdle(int64_t timeout_ms) REQUIRES(!mu_);

  MaintenanceStats stats() const REQUIRES(!mu_);

  const MaintenanceOptions& options() const { return options_; }

 private:
  void RunLoop() REQUIRES(!mu_);
  SEQDET_BLOCKING Status RunCycle();
  bool ShouldFold() const;
  /// The WaitIdle() wake-up condition (no cycle in flight, thresholds not
  /// exceeded, loop alive). Evaluated inside wait loops holding mu_.
  bool IdleLocked() const REQUIRES(mu_);

  SequenceIndex* index_;
  MaintenanceOptions options_;
  /// Dedicated single worker: the loop occupies it for the service's whole
  /// lifetime, which would starve a shared pool.
  ThreadPool pool_{1};

  /// Leaf lock (common/sync.h map): RunLoop explicitly Unlock()s around
  /// RunCycle so the fold's storage I/O never runs under it.
  mutable Mutex mu_;
  CondVar cv_;       // wakes the loop (kick / stop)
  CondVar idle_cv_;  // wakes WaitIdle waiters
  bool running_ GUARDED_BY(mu_) = false;
  bool loop_exited_ GUARDED_BY(mu_) = false;
  bool kicked_ GUARDED_BY(mu_) = false;
  bool cycle_active_ GUARDED_BY(mu_) = false;
  std::string last_error_ GUARDED_BY(mu_);
  /// Start() arms it; the one Stop() that claims it (move under mu_)
  /// joins — see Stop() for the concurrent-shutdown contract.
  std::future<void> loop_ GUARDED_BY(mu_);

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> fold_in_progress_{false};
  std::atomic<uint64_t> cycles_{0};
  std::atomic<uint64_t> folds_run_{0};
  std::atomic<uint64_t> keys_folded_{0};
  std::atomic<uint64_t> bytes_rewritten_{0};
  std::atomic<uint64_t> compactions_run_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<int64_t> last_cycle_ms_{0};
};

}  // namespace seqdet::index

#endif  // SEQDET_INDEX_MAINTENANCE_H_
