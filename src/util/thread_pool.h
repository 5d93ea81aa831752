// A minimal fixed-size thread pool with a ParallelFor convenience, plus the
// process-wide pool that kernels, evaluation and data generation share.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace stisan {

/// Fixed worker pool. Tasks are void() closures; Wait() blocks until all
/// submitted tasks finish. Not copyable.
///
/// Exception safety: a task that throws never reaches std::terminate — the
/// worker captures the first exception raised since the last Wait() and
/// Wait() rethrows it on the calling thread once every in-flight task has
/// drained (so the in-flight count stays consistent and no later Wait()
/// deadlocks). Exceptions after the first are swallowed.
///
/// Nesting: Wait() from inside a task of the same pool would count its own
/// task as in flight and never return. Callers that may run inside a task
/// check InPoolTask() and run inline instead; ParallelFor and
/// kernels::ParallelRanges do.
class ThreadPool {
 public:
  /// `threads` = 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(int64_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed, then rethrows the
  /// first exception any of them raised (if one did).
  void Wait();

  int64_t num_threads() const {
    return static_cast<int64_t>(workers_.size());
  }

  /// Lifetime totals of tasks enqueued / finished, for observability
  /// snapshots. Relaxed reads; exact once the pool is quiescent.
  uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_exception_;  // guarded by mutex_
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_completed_{0};
};

/// True while the calling thread is running a task of any ThreadPool.
bool InPoolTask();

/// Runs fn(i) for i in [0, n) across the pool; blocks until done.
/// fn must be safe to call concurrently for distinct i. If any fn(i) throws,
/// the remaining indices of other chunks still run, and the first exception
/// is rethrown here on the calling thread. Runs inline, in index order, on a
/// one-thread pool or when called from inside a pool task.
void ParallelFor(ThreadPool& pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

// ---- The process-wide pool -------------------------------------------------

/// The process-wide pool. Constructed on first use with STISAN_NUM_THREADS
/// threads (default: hardware concurrency). Lock-free after the first call.
ThreadPool& GlobalPool();

/// Number of worker threads in the process-wide pool.
int64_t NumThreads();

/// Re-sizes the process-wide pool (0 = hardware concurrency). Intended for
/// benchmarks and tests that compare serial vs threaded execution; not safe
/// to call while other threads use the pool.
void SetNumThreads(int64_t threads);

/// Lifetime task totals and size of the process-wide pool, read under the
/// lock SetNumThreads takes; all zero before the pool exists. Backs the
/// threadpool/* observability gauges.
struct GlobalPoolStats {
  uint64_t tasks_submitted = 0;
  uint64_t tasks_completed = 0;
  int64_t num_threads = 0;
};
GlobalPoolStats ReadGlobalPoolStats();

}  // namespace stisan
