#include "index/maintenance.h"

#include <chrono>
#include <thread>

#include "index/sequence_index.h"

namespace seqdet::index {

using std::chrono::duration_cast;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

MaintenanceService::MaintenanceService(SequenceIndex* index,
                                       const MaintenanceOptions& options)
    : index_(index), options_(options) {}

MaintenanceService::~MaintenanceService() { Stop(); }

void MaintenanceService::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  loop_exited_ = false;
  kicked_ = false;
  stop_requested_.store(false, std::memory_order_release);
  loop_ = pool_.Submit([this] { RunLoop(); });
}

void MaintenanceService::Stop() {
  // Claim the join under mu_: with concurrent Stop() calls (the dtor
  // racing an explicit Stop(), say) exactly one caller takes the future
  // and joins the loop; the rest wait for it. The previous version let
  // every caller reach loop_.get() — running_ only went false after the
  // join, so a second concurrent Stop() passed the running_ check and
  // called get() on the already-consumed future, throwing
  // std::future_error. Surfaced by the negative-capability audit of this
  // file; regression-tested by
  // MaintenanceServiceTest.ConcurrentStopJoinsExactlyOnce.
  std::future<void> loop;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_.store(true, std::memory_order_release);
    loop = std::move(loop_);
  }
  cv_.NotifyAll();
  if (loop.valid()) {
    loop.get();  // outside mu_ — the loop body re-acquires it
    MutexLock lock(mu_);
    running_ = false;
    idle_cv_.NotifyAll();
  } else {
    // Another Stop() holds the future; wait until its join completes.
    MutexLock lock(mu_);
    while (running_) idle_cv_.Wait(mu_);
  }
}

void MaintenanceService::Kick() {
  {
    MutexLock lock(mu_);
    kicked_ = true;
  }
  cv_.NotifyAll();
}

bool MaintenanceService::ShouldFold() const {
  const PendingFoldLoad pending = index_->pending_fold_load();
  return pending.bytes >= options_.min_pending_bytes ||
         pending.ops >= options_.min_pending_ops;
}

bool MaintenanceService::IdleLocked() const {
  if (!running_ || loop_exited_) return true;
  return !cycle_active_ && !ShouldFold();
}

bool MaintenanceService::WaitIdle(int64_t timeout_ms) {
  Kick();
  const auto deadline = steady_clock::now() + milliseconds(timeout_ms);
  MutexLock lock(mu_);
  while (!IdleLocked()) {
    if (!idle_cv_.WaitUntil(mu_, deadline)) break;  // timed out
  }
  return IdleLocked() && running_ && !loop_exited_;
}

void MaintenanceService::RunLoop() {
  MutexLock lock(mu_);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const auto deadline =
        steady_clock::now() + milliseconds(options_.check_interval_ms);
    while (!kicked_ && !stop_requested_.load(std::memory_order_acquire)) {
      if (!cv_.WaitUntil(mu_, deadline)) break;  // interval elapsed
    }
    kicked_ = false;
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (!ShouldFold()) {
      idle_cv_.NotifyAll();
      continue;
    }
    cycle_active_ = true;
    lock.Unlock();
    Status s = RunCycle();
    lock.Lock();
    cycle_active_ = false;
    if (!s.ok() && !s.IsAborted()) {
      // Aborted is the pace callback's clean-shutdown signal, not a fault.
      errors_.fetch_add(1, std::memory_order_relaxed);
      last_error_ = s.ToString();
    }
    idle_cv_.NotifyAll();
  }
  loop_exited_ = true;
  idle_cv_.NotifyAll();
}

Status MaintenanceService::RunCycle() {
  const auto cycle_start = steady_clock::now();
  cycles_.fetch_add(1, std::memory_order_relaxed);
  fold_in_progress_.store(true, std::memory_order_release);

  FoldStats fold_stats;
  const uint64_t rate = options_.rate_limit_bytes_per_sec;
  auto pace = [&](const FoldStats& fs) -> Status {
    if (stop_requested_.load(std::memory_order_acquire)) {
      return Status::Aborted("maintenance service stopping");
    }
    if (rate > 0 && fs.bytes_read > 0) {
      // Sleep until wall time catches up with bytes_read / rate, in small
      // interruptible slices so Stop() stays prompt.
      const auto budget = milliseconds(fs.bytes_read * 1000 / rate);
      while (steady_clock::now() - cycle_start < budget) {
        if (stop_requested_.load(std::memory_order_acquire)) {
          return Status::Aborted("maintenance service stopping");
        }
        std::this_thread::sleep_for(milliseconds(5));
      }
    }
    return Status::OK();
  };

  Status s = index_->FoldPostings(&fold_stats, pace);
  keys_folded_.fetch_add(fold_stats.keys_folded, std::memory_order_relaxed);
  bytes_rewritten_.fetch_add(fold_stats.bytes_written,
                             std::memory_order_relaxed);
  if (s.ok()) {
    folds_run_.fetch_add(1, std::memory_order_relaxed);
    if (options_.compact_statistics &&
        index_->options().maintain_counts) {
      FoldStats count_stats;
      Status cs = index_->CompactStatistics(&count_stats, pace);
      keys_folded_.fetch_add(count_stats.keys_folded,
                             std::memory_order_relaxed);
      bytes_rewritten_.fetch_add(count_stats.bytes_written,
                                 std::memory_order_relaxed);
      if (cs.ok()) {
        compactions_run_.fetch_add(1, std::memory_order_relaxed);
      } else {
        s = cs;
      }
    }
  }

  fold_in_progress_.store(false, std::memory_order_release);
  last_cycle_ms_.store(
      duration_cast<milliseconds>(steady_clock::now() - cycle_start).count(),
      std::memory_order_relaxed);
  return s;
}

MaintenanceStats MaintenanceService::stats() const {
  MaintenanceStats out;
  out.enabled = true;
  out.fold_in_progress = fold_in_progress_.load(std::memory_order_acquire);
  out.cycles = cycles_.load(std::memory_order_relaxed);
  out.folds_run = folds_run_.load(std::memory_order_relaxed);
  out.keys_folded = keys_folded_.load(std::memory_order_relaxed);
  out.bytes_rewritten = bytes_rewritten_.load(std::memory_order_relaxed);
  out.compactions_run = compactions_run_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.last_cycle_ms = last_cycle_ms_.load(std::memory_order_relaxed);
  const PendingFoldLoad pending = index_->pending_fold_load();
  out.queue_depth = pending.ops;
  out.pending_bytes = pending.bytes;
  {
    MutexLock lock(mu_);
    out.running = running_ && !loop_exited_;
    out.last_error = last_error_;
  }
  return out;
}

}  // namespace seqdet::index
