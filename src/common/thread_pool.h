#ifndef SEQDET_COMMON_THREAD_POOL_H_
#define SEQDET_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace seqdet {

/// Point-in-time counters of one ThreadPool (monotonic except the gauge).
struct ThreadPoolStats {
  size_t threads = 0;           // pool size
  uint64_t tasks_executed = 0;  // tasks run by pool workers
  uint64_t inline_runs = 0;     // ParallelFor chunks run inline by callers
  size_t queue_depth = 0;       // gauge: submitted, not yet picked up
  size_t peak_queue_depth = 0;  // high-water mark of queue_depth
};

/// Fixed-size thread pool.
///
/// Substitutes the paper's Spark executors: the index builder treats each
/// trace independently ("parallelization-by-design", §5.3), so a plain task
/// pool reproduces both the 1-executor and the all-cores configurations of
/// Table 6. The same pool type runs HTTP connections, router scatter legs
/// and DetectBatch fan-outs; one instance is safely shared by nested
/// ParallelFor calls — see ParallelFor for the reentrancy rule that makes
/// that deadlock-free.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining the queue. Blocking: waits for every
  /// queued task to finish, however long that takes.
  SEQDET_BLOCKING ~ThreadPool();

  /// Schedules `fn` and returns a future for its completion.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> REQUIRES(!mu_) {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      tasks_.emplace([task] { (*task)(); });
      if (tasks_.size() > peak_queue_depth_) {
        peak_queue_depth_ = tasks_.size();
      }
    }
    cv_.NotifyOne();
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n), partitioned into contiguous chunks across
  /// the pool, and blocks until every call returns.
  ///
  /// Reentrancy: when the calling thread is itself a worker of this pool,
  /// the chunks are executed inline on the caller instead of being
  /// submitted. Blocking a worker on futures served by its own (possibly
  /// 1-thread, possibly saturated) pool would deadlock — every nested level
  /// could be waiting for a worker that is itself waiting. Inline execution
  /// keeps nested parallel sections (a ParallelFor issued from inside a
  /// ParallelFor task) correct at the cost of no extra parallelism for the
  /// inner level, which the outer fan-out already provides. Inline-run
  /// chunks are counted in ThreadPoolStats::inline_runs.
  ///
  /// Blocking (future joins): never call under any lock — a worker stuck
  /// behind it would hold that lock for the whole fan-out.
  SEQDET_BLOCKING void ParallelFor(size_t n,
                                   const std::function<void(size_t)>& fn)
      REQUIRES(!mu_);

  /// True when the calling thread is one of this pool's workers — i.e. a
  /// ParallelFor from here would run inline.
  bool OnWorkerThread() const;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks submitted but not yet picked up by a worker — the pool's wait
  /// queue. The HTTP server exports it as its connection-queue depth.
  ///
  /// Lock order: ThreadPool::mu_ is a leaf *acquired under* both
  /// HttpServer::stats_mu_ (this gauge) and ShardRouter's scatter-state
  /// mutex (Submit during leg launch) — see the map in common/sync.h.
  size_t queue_depth() const REQUIRES(!mu_) {
    MutexLock lock(mu_);
    return tasks_.size();
  }

  /// Snapshot of the pool's observability counters.
  ThreadPoolStats stats() const REQUIRES(!mu_);

  /// Number of hardware threads, never 0.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop() REQUIRES(!mu_);

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  size_t peak_queue_depth_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> inline_runs_{0};
};

}  // namespace seqdet

#endif  // SEQDET_COMMON_THREAD_POOL_H_
