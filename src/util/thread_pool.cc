#include "util/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/string_util.h"

namespace stisan {

namespace {

// Set for the whole life of every pool worker thread: anything a worker
// runs is a pool task.
thread_local bool tl_in_pool_task = false;

}  // namespace

bool InPoolTask() { return tl_in_pool_task; }

ThreadPool::ThreadPool(int64_t threads) {
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int64_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    std::exception_ptr ex = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(ex);
  }
}

void ThreadPool::WorkerLoop() {
  tl_in_pool_task = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // An escaping exception would std::terminate the worker; capture the
    // first one for Wait() to rethrow and keep the in-flight count exact
    // either way so Wait() never deadlocks after a throwing task.
    std::exception_ptr exception;
    try {
      task();
    } catch (...) {
      exception = std::current_exception();
    }
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (exception && !first_exception_) {
        first_exception_ = std::move(exception);
      }
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool& pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;  // nothing to do; never touch the pool
  // Chunk to limit queue churn.
  const int64_t chunks =
      std::min<int64_t>(n, pool.num_threads() * 4);
  if (chunks <= 1 || pool.num_threads() <= 1 || InPoolTask()) {
    // Run inline: submitting one chunk would only add queue/wakeup
    // latency, and Wait() from inside a pool task never returns because it
    // counts the calling task as in flight.
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * per_chunk;
    const int64_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    pool.Submit([begin, end, &fn] {
      for (int64_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool.Wait();
}

namespace {

// g_pool_owner is written only under g_pool_mutex; dispatch reads the
// published pointer without it. SetNumThreads destroys the previous pool,
// which is why resizing while the pool is in use is not supported.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool_owner;
std::atomic<ThreadPool*> g_pool{nullptr};

ThreadPool& CreateGlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool_owner) {
    g_pool_owner = std::make_unique<ThreadPool>(EnvInt64("STISAN_NUM_THREADS", 0));
    g_pool.store(g_pool_owner.get(), std::memory_order_release);
  }
  return *g_pool_owner;
}

}  // namespace

ThreadPool& GlobalPool() {
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : CreateGlobalPool();
}

int64_t NumThreads() { return GlobalPool().num_threads(); }

void SetNumThreads(int64_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool_owner = std::make_unique<ThreadPool>(threads);
  g_pool.store(g_pool_owner.get(), std::memory_order_release);
}

GlobalPoolStats ReadGlobalPoolStats() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool_owner) return {};
  return {g_pool_owner->tasks_submitted(), g_pool_owner->tasks_completed(),
          g_pool_owner->num_threads()};
}

}  // namespace stisan
