#include "base/worker_pool.h"

#include "base/obs_hooks.h"

namespace frontiers {

WorkerPool::WorkerPool(uint32_t threads) : threads_(threads < 1 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (uint32_t w = 0; w + 1 < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::DrainBatch() {
  // Claim tasks until the counter runs dry or a sibling failed.  A failed
  // batch stops dispatching new tasks but still drains the claimed ones,
  // so Run() can safely report completion before rethrowing.
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return;
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) break;
      seen_generation = generation_;
    }
    DrainBatch();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++active_;  // repurposed as "workers done with this generation"
    }
    batch_done_.notify_all();
  }
  // Drain this thread's buffered trace spans before the destructor joins
  // us: a session stopped after the pool died must still see complete
  // per-thread streams.
  obs::internal::NotifyWorkerThreadExit();
}

void WorkerPool::Run(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    // Inline execution: same semantics, no synchronization.
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    // Publish the batch under the mutex: workers read fn_/count_ only
    // after observing the new generation under the same mutex, so these
    // plain writes are ordered before every worker access.
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    next_task_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_ = 0;
    ++generation_;
  }
  work_ready_.notify_all();
  DrainBatch();  // the calling thread participates
  // Wait until EVERY background worker has finished this generation (not
  // merely until the task counter drained): a worker that woke late could
  // otherwise still be inside DrainBatch while the next batch replaces
  // fn_/count_ under it.
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock,
                   [&] { return active_ == workers_.size(); });
  fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace frontiers
