#ifndef FRONTIERS_BASE_OBS_HOOKS_H_
#define FRONTIERS_BASE_OBS_HOOKS_H_

#include <atomic>
#include <cstdint>

/// Base-layer observability hooks.
///
/// The trace/profile/mem consumers live in src/obs, which links *against*
/// frontiers_base — so base code (WorkerPool, FactSet) cannot call them
/// directly.  This header holds the pieces both sides share:
///
///   * the process-wide span mask (one word; a disabled probe is exactly
///     one relaxed load of it, the overhead budget DESIGN.md §7 commits
///     to), defined here so base code can test the same word instead of
///     paying a second load;
///   * the worker-thread exit hooks, through which the trace layer drains
///     a pool thread's span buffer before the pool joins it;
///   * `memhooks`: POD records plus atomic function-pointer slots the
///     mem-stream session (obs/mem_stream.h) installs at Start().  The
///     pointers are set with release semantics *before* the mask bit is
///     published and are never cleared, so an emitter that saw the bit is
///     guaranteed a valid target with an acquire load.
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
/// §7).  Sharing one word between the trace layer, the profiler, and the
/// mem stream keeps that guarantee as consumers are added: the disabled
/// path never pays a second load.
inline constexpr uint32_t kSpanTrace = 1u << 0;    ///< TraceSession active.
inline constexpr uint32_t kSpanProfile = 1u << 1;  ///< ProfileSession active.
inline constexpr uint32_t kSpanMem = 1u << 2;      ///< MemStreamSession.
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

namespace memhooks {

/// One (component, predicate) byte-attribution row at a round boundary.
/// The chase emits rows in component-major, predicate-id order with only
/// deterministic values, so a `frontiers-mem-v1` stream is byte-identical
/// across thread counts (DESIGN.md §9).  The name pointers reference the
/// static component table and the vocabulary's interned predicate names;
/// both outlive the synchronous hook call.
struct MemRowRecord {
  uint64_t run;    ///< Session-local run ordinal (BeginMemRun()).
  uint64_t round;  ///< Completed chase rounds at this boundary.
  const char* component;
  const char* predicate;  ///< "" for components not owned by a predicate.
  uint64_t bytes;
};

/// One round-boundary summary.  `total_bytes`/`peak_bytes` are the
/// deterministic ledger figures; `scratch_bytes` is the thread-dependent
/// transient state, reported out-of-band so the deterministic rows stay
/// comparable across thread counts.  The session adds its own sampled
/// `rss_bytes` when it writes the diagnostic row.
struct MemRoundRecord {
  uint64_t run;
  uint64_t round;
  uint64_t atoms;
  uint64_t total_bytes;
  uint64_t peak_bytes;
  uint64_t scratch_bytes;
};

using MemRunFn = uint64_t (*)();
using MemRowFn = void (*)(const MemRowRecord&);
using MemRoundFn = void (*)(const MemRoundRecord&);

extern std::atomic<MemRunFn> g_mem_run_fn;
extern std::atomic<MemRowFn> g_mem_row_fn;
extern std::atomic<MemRoundFn> g_mem_round_fn;

/// Installs the mem hooks; written with release order before the
/// kSpanMem bit is raised.
void SetMemHooks(MemRunFn run_fn, MemRowFn row_fn, MemRoundFn round_fn);

/// True while a MemStreamSession is active.  One relaxed load — the whole
/// disabled cost of the memory telemetry.
inline bool MemEnabled() {
  return (internal::g_span_mask.load(std::memory_order_relaxed) &
          internal::kSpanMem) != 0;
}

/// Claims a run ordinal from the active session.  Session-local (resets
/// at Start()) and advanced once per chase run, never per pool batch:
/// batch counts vary with the thread count, which would leak into the
/// stream and break its byte-identical-across-threads contract.  Returns
/// 0 when no session is active.
inline uint64_t BeginMemRun() {
  if (MemRunFn fn = g_mem_run_fn.load(std::memory_order_acquire)) return fn();
  return 0;
}

inline void EmitMemRow(const MemRowRecord& record) {
  if (MemRowFn fn = g_mem_row_fn.load(std::memory_order_acquire)) fn(record);
}

inline void EmitMemRound(const MemRoundRecord& record) {
  if (MemRoundFn fn = g_mem_round_fn.load(std::memory_order_acquire)) {
    fn(record);
  }
}

}  // namespace memhooks

}  // namespace frontiers::obs

#endif  // FRONTIERS_BASE_OBS_HOOKS_H_
