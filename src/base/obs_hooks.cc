#include "base/obs_hooks.h"

#include <chrono>

namespace frontiers::obs {

namespace internal {
std::atomic<uint32_t> g_span_mask{0};

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
// Fixed slots instead of a vector: exit hooks run on worker threads while
// other threads may be registering, and a lock-free array of monotonic
// write-once slots needs no ordering beyond acquire/release.
constexpr size_t kMaxExitHooks = 4;
std::atomic<ThreadExitFn> g_exit_hooks[kMaxExitHooks] = {};
}  // namespace

void RegisterThreadExitHook(ThreadExitFn fn) {
  if (fn == nullptr) return;
  for (size_t i = 0; i < kMaxExitHooks; ++i) {
    ThreadExitFn expected = nullptr;
    if (g_exit_hooks[i].load(std::memory_order_acquire) == fn) return;
    if (g_exit_hooks[i].compare_exchange_strong(expected, fn,
                                                std::memory_order_acq_rel)) {
      return;
    }
  }
  // More consumers than slots would silently drop a hook; no current or
  // planned consumer count comes close, and an exit hook is an optimization
  // (session Stop() still owns every buffer), so dropping is benign.
}

void NotifyWorkerThreadExit() {
  for (size_t i = 0; i < kMaxExitHooks; ++i) {
    if (ThreadExitFn fn = g_exit_hooks[i].load(std::memory_order_acquire)) {
      fn();
    }
  }
}
}  // namespace internal

}  // namespace frontiers::obs
