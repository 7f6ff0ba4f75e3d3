#ifndef FRONTIERS_BASE_WORKER_POOL_H_
#define FRONTIERS_BASE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace frontiers {

/// A persistent pool of worker threads executing indexed task batches.
///
/// The chase used to spawn fresh `std::thread`s for every round's match
/// phase; at production round counts (E17a runs 80 rounds) the spawn/join
/// cost dominated small rounds and regressed 2-thread runs below the serial
/// engine.  The pool keeps `threads - 1` workers parked on a condition
/// variable across rounds and phases, so dispatching a batch costs one
/// notify instead of N thread creations.
///
/// `Run(count, fn)` executes `fn(task_index)` for every index in
/// `[0, count)`.  Tasks are claimed off a shared atomic counter (dynamic
/// load balancing — the same discipline the inline match loop used), the
/// calling thread participates as the last worker, and the call returns
/// only after every claimed task finished.  The first exception thrown by
/// any task stops further dispatch and is rethrown on the calling thread
/// after the batch quiesces.
///
/// Determinism contract: the pool never influences *what* is computed, only
/// *who* computes it.  Callers must make each task write to its own
/// disjoint output slot (indexed by task id) and merge in task order, which
/// is exactly how the chase's match buffers and the fact store's per-shard
/// commit use it.
class WorkerPool {
 public:
  /// `threads` is the total worker count including the calling thread;
  /// values <= 1 create no background threads (Run executes inline).
  explicit WorkerPool(uint32_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers a batch can use (background threads + the caller).
  uint32_t threads() const { return threads_; }

  /// Runs `fn(i)` for every `i` in `[0, count)`; blocks until all tasks
  /// finished; rethrows the first task exception.  Not reentrant: one
  /// batch at a time (the chase's phases are strictly sequential).
  void Run(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  void DrainBatch();

  const uint32_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  // Batch state, published under mutex_ and consumed lock-free through the
  // atomic task counter.
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t count_ = 0;
  uint64_t generation_ = 0;
  // Background workers that finished the current generation; Run returns
  // only once every worker acknowledged, so no straggler can outlive a
  // batch into the next one.
  uint32_t active_ = 0;
  bool shutdown_ = false;
  std::atomic<size_t> next_task_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_;
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_WORKER_POOL_H_
