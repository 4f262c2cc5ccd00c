// Tests for the annotated synchronization primitives (common/sync.h).
//
// The wrappers must behave exactly like the std primitives they replace —
// the thread-safety annotations are compile-time only. Contention tests
// here run under TSan too (tier1 suite is part of the sanitizer sweeps);
// the compile-time side of the gate is covered by
// tools/check_static.sh --negative.

#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace seqdet {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(MutexTest, MutualExclusionUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Mutex mu;
  int64_t counter = 0;  // unsynchronized int: torn updates would show

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
}

TEST(MutexTest, TryLockReflectsHeldState) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  // TryLock must fail from another thread while held (same-thread try_lock
  // on a held std::mutex is UB, so probe from a second thread).
  std::thread probe([&] {
    acquired.store(mu.TryLock());
    if (acquired.load()) mu.Unlock();
  });
  probe.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();

  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockRelockRoundTrip) {
  // The Unlock()/Lock() mid-scope pattern the maintenance loop uses.
  Mutex mu;
  int guarded = 0;
  MutexLock lock(mu);
  guarded = 1;
  lock.Unlock();
  {
    MutexLock other(mu);  // must not deadlock: lock released above
  }
  lock.Lock();
  EXPECT_EQ(guarded, 1);
}

TEST(SharedMutexTest, ReadersShareWritersExclude) {
  SharedMutex mu;
  // Two fields updated together under WriterLock; ReaderLock must never
  // observe them out of sync.
  int64_t a = 0;
  int64_t b = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> tears{0};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(4);
  // Each reader reads at least once (do-while), and the writer starts only
  // after some read has happened, so reads overlap the writes whatever the
  // schedule: `reads > 0` below checks the lock, not the scheduler.
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        ReaderLock lock(mu);
        if (a != b) tears.fetch_add(1);
        reads.fetch_add(1);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  std::thread writer([&] {
    while (reads.load() == 0) std::this_thread::yield();
    for (int i = 1; i <= 5000; ++i) {
      WriterLock lock(mu);
      a = i;
      b = i;
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(tears.load(), 0);
  EXPECT_GT(reads.load(), 0);
  ReaderLock lock(mu);
  EXPECT_EQ(a, 5000);
  EXPECT_EQ(b, 5000);
}

TEST(SharedMutexTest, TryLockVariants) {
  SharedMutex mu;
  mu.LockShared();
  std::atomic<bool> shared_ok{false};
  std::atomic<bool> exclusive_ok{true};
  std::thread probe([&] {
    // A second shared acquisition must succeed, an exclusive one must not.
    shared_ok.store(mu.TryLockShared());
    if (shared_ok.load()) mu.UnlockShared();
    exclusive_ok.store(mu.TryLock());
    if (exclusive_ok.load()) mu.Unlock();
  });
  probe.join();
  EXPECT_TRUE(shared_ok.load());
  EXPECT_FALSE(exclusive_ok.load());
  mu.UnlockShared();
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;

  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    observed = 1;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto start = steady_clock::now();
  bool notified = cv.WaitFor(mu, milliseconds(50));
  EXPECT_FALSE(notified);
  EXPECT_GE(steady_clock::now() - start, milliseconds(45));
}

TEST(CondVarTest, WaitUntilHonorsDeadlineAndNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> woke_in_time{false};

  std::thread waiter([&] {
    const auto deadline = steady_clock::now() + milliseconds(5000);
    MutexLock lock(mu);
    while (!ready) {
      if (!cv.WaitUntil(mu, deadline)) break;  // timed out
    }
    woke_in_time.store(ready);
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(woke_in_time.load());
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 6;
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;

  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(awake, kWaiters);
}

TEST(CondVarTest, ProducerConsumerUnderContention) {
  // A bounded queue driven purely by the wrappers: the canonical predicate
  // loops (no lost wakeups, no deadlock) under real contention.
  constexpr int kItems = 10000;
  constexpr size_t kCapacity = 16;
  Mutex mu;
  CondVar not_full;
  CondVar not_empty;
  std::vector<int> queue;
  bool done = false;
  int64_t sum = 0;

  std::thread consumer([&] {
    for (;;) {
      int item;
      {
        MutexLock lock(mu);
        while (queue.empty() && !done) not_empty.Wait(mu);
        if (queue.empty() && done) return;
        item = queue.back();
        queue.pop_back();
      }
      not_full.NotifyOne();
      sum += item;
    }
  });

  for (int i = 1; i <= kItems; ++i) {
    {
      MutexLock lock(mu);
      while (queue.size() >= kCapacity) not_full.Wait(mu);
      queue.push_back(i);
    }
    not_empty.NotifyOne();
  }
  {
    MutexLock lock(mu);
    done = true;
  }
  not_empty.NotifyAll();
  consumer.join();

  EXPECT_EQ(sum, static_cast<int64_t>(kItems) * (kItems + 1) / 2);
}

}  // namespace
}  // namespace seqdet
