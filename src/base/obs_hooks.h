#ifndef FRONTIERS_BASE_OBS_HOOKS_H_
#define FRONTIERS_BASE_OBS_HOOKS_H_

#include <atomic>
#include <cstdint>

/// Base-layer observability hooks.
///
/// The trace consumer lives in src/obs, which links *against*
/// frontiers_base — so base code (WorkerPool, FactSet) cannot call it
/// directly.  This header holds the pieces both sides share:
///
///   * the process-wide span mask (one word; a disabled probe is exactly
///     one relaxed load of it, the overhead budget DESIGN.md §7 commits
///     to), defined here so base code can test the same word instead of
///     paying a second load;
///   * the steady clock the spans read;
///   * the worker-thread exit hooks, through which the trace layer drains
///     a pool thread's span buffer before the pool joins it.
///
/// The namespace stays `frontiers::obs` although the file lives in
/// src/base: every existing use site spells `obs::internal::g_span_mask`
/// and `obs::Span`, and the mask is one logical object regardless of which
/// library defines it.
namespace frontiers::obs {

namespace internal {
/// Which span consumers are currently live, as a bitmask.  A disabled Span
/// costs exactly one relaxed load of this plus a branch — the overhead
/// budget the chase's parity guarantees are measured against (DESIGN.md
/// §7).  The trace session is the only consumer today; a future one takes
/// another bit of the same word, so the disabled path never pays a second
/// load.
inline constexpr uint32_t kSpanTrace = 1u << 0;  ///< TraceSession active.
extern std::atomic<uint32_t> g_span_mask;

/// Monotonic nanoseconds (steady clock).  Only meaningful as differences.
uint64_t NowNanos();

using ThreadExitFn = void (*)();

/// Registers `fn` to run on every pool worker thread right before it
/// exits, so per-thread telemetry buffers are drained before the pool
/// joins the thread.  Idempotent per function pointer; at most a handful
/// of consumers register.
void RegisterThreadExitHook(ThreadExitFn fn);

/// Called by WorkerPool threads on their way out (before the join in the
/// pool destructor); runs every registered exit hook.
void NotifyWorkerThreadExit();
}  // namespace internal

}  // namespace frontiers::obs

#endif  // FRONTIERS_BASE_OBS_HOOKS_H_
