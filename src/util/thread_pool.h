// Fixed-size worker pool for deterministic fork/join parallelism.
//
// The parallel simulation drivers (core/parallel_builder.h, core/parallel_workload.h)
// split work into independent items whose results land in per-item slots, so the
// *outcome* never depends on which thread ran which item -- only the wall-clock time
// does. ParallelFor is the single primitive: run fn(0) .. fn(n-1), possibly
// concurrently, and return when all of them finished. The calling thread always
// participates, so a pool constructed with `threads == 1` owns no worker threads at
// all and executes everything inline (zero synchronization on the 1-thread path).
//
// Item hand-off is lock-free: lanes claim items with one relaxed fetch_add on a
// shared cursor and never touch the pool mutex between items. The mutex exists
// only at the job boundaries -- publishing a job to sleeping workers and parking
// lanes afterwards -- which is what lets wave widths in the hundreds run with a
// per-item cost of one uncontended atomic increment instead of a mutex
// acquire/release pair (the old design serialized every claim on the pool lock,
// which at small item costs put the lock on the critical path of every lane).
//
// Memory ordering: a worker only reads the job descriptor after observing the
// new job epoch under the mutex, and the caller only returns after every worker
// has parked again under the same mutex, so writes made while running fn(i)
// happen-before the caller's reads after ParallelFor returns.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace pgrid {

/// Fork/join pool over `threads` execution lanes (caller + threads-1 workers).
class ThreadPool {
 public:
  /// Creates a pool that runs ParallelFor on `threads` lanes. `threads == 0` is
  /// treated as 1. The caller participates, so only threads-1 OS threads are spawned.
  explicit ThreadPool(size_t threads) : threads_(threads == 0 ? 1 : threads) {
    workers_.reserve(threads_ - 1);
    for (size_t i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Number of execution lanes (including the caller).
  size_t threads() const { return threads_; }

  /// Runs fn(0) .. fn(n-1) and returns once all calls completed. Items may run on
  /// any lane in any order; fn must therefore only touch state disjoint from other
  /// items' (or internally synchronized). Not reentrant: fn must not call
  /// ParallelFor on the same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelFor(n, [&fn](size_t i, size_t /*lane*/) { fn(i); });
  }

  /// Lane-aware variant: fn(item, lane) where `lane` identifies the executing
  /// lane (0 = the calling thread, 1..threads()-1 = workers). Lanes are stable
  /// within one ParallelFor, so per-lane accumulators (busy-time sums, sharded
  /// stats) need no synchronization; the join gives the caller a
  /// happens-before edge on everything the lanes wrote.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (size_t i = 0; i < n; ++i) fn(i, 0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      PGRID_CHECK(!job_open_);  // reentrant / concurrent use
      job_fn_ = &fn;
      job_n_ = n;
      job_next_.store(0, std::memory_order_relaxed);
      job_done_.store(0, std::memory_order_relaxed);
      job_open_ = true;
      ++job_epoch_;
    }
    wake_cv_.notify_all();
    Drain(/*lane=*/0);
    std::unique_lock<std::mutex> lock(mu_);
    // Wait until every item ran *and* every woken worker parked again: a worker
    // still inside Drain may yet read the job descriptor, so the descriptor is
    // only retired once the last of them re-acquired the mutex (which is also
    // the happens-before edge covering everything the lanes wrote).
    done_cv_.wait(lock, [this] {
      return active_workers_ == 0 &&
             job_done_.load(std::memory_order_relaxed) == job_n_;
    });
    job_open_ = false;
    job_fn_ = nullptr;
  }

 private:
  /// Claims and runs items of the current job until the cursor passes n. Called
  /// with no lock held; reads of job_fn_/job_n_ are ordered by the mutex (the
  /// caller wrote them before publishing the epoch, and retires them only after
  /// this lane parked again).
  void Drain(size_t lane) {
    const std::function<void(size_t, size_t)>* fn = job_fn_;
    const size_t n = job_n_;
    for (;;) {
      const size_t i = job_next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      (*fn)(i, lane);
      job_done_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void WorkerLoop(size_t lane) {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t seen_epoch = 0;
    for (;;) {
      wake_cv_.wait(lock, [this, seen_epoch] {
        return stop_ || (job_open_ && job_epoch_ != seen_epoch);
      });
      if (stop_) return;
      seen_epoch = job_epoch_;
      ++active_workers_;
      lock.unlock();
      Drain(lane);
      lock.lock();
      if (--active_workers_ == 0 &&
          job_done_.load(std::memory_order_relaxed) == job_n_) {
        done_cv_.notify_all();
      }
    }
  }

  const size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // Job descriptor. Written by the caller under mu_ before the epoch bump and
  // retired under mu_ after all lanes parked; lanes read it locklessly in
  // between (ordered by those two mutex sections).
  bool job_open_ = false;
  uint64_t job_epoch_ = 0;  // guards against re-running a drained job
  const std::function<void(size_t, size_t)>* job_fn_ = nullptr;
  size_t job_n_ = 0;
  size_t active_workers_ = 0;  // workers currently between wake and park

  // Lock-free item hand-off.
  std::atomic<size_t> job_next_{0};  // next unclaimed item
  std::atomic<size_t> job_done_{0};  // items fully executed
};

}  // namespace pgrid
