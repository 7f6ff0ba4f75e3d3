#ifndef FRONTIERS_OBS_TRACE_H_
#define FRONTIERS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "base/obs_hooks.h"
#include "base/status.h"

namespace frontiers::obs {

// The span-mask word (g_span_mask, kSpan* bits) and NowNanos live in
// base/obs_hooks.h so base-layer code shares the same one-relaxed-load
// disabled cost without linking this library.

namespace internal {
/// Appends a complete ('X') event to the calling thread's buffer.  `name`
/// and `category` must be string literals (or otherwise outlive the
/// session): events store the pointers, not copies.
void EmitComplete(const char* name, const char* category, uint64_t start_ns,
                  uint64_t end_ns);

/// Appends an instant ('i') event to the calling thread's buffer.
void EmitInstant(const char* name, const char* category);

/// Pushes/pops a frame on the calling thread's profiler call stack
/// (defined in obs/profiler.cc).  Enter records wall + thread-CPU start
/// times; Exit accumulates the closing frame into the thread's call tree.
void ProfileEnter(const char* name);
void ProfileExit();
}  // namespace internal

/// True while a TraceSession is active.  Relaxed: a span racing a session
/// start/stop is simply missed or dropped, never torn.
inline bool TracingEnabled() {
  return (internal::g_span_mask.load(std::memory_order_relaxed) &
          internal::kSpanTrace) != 0;
}

/// True while a ProfileSession is active (obs/profiler.h).
inline bool ProfilingEnabled() {
  return (internal::g_span_mask.load(std::memory_order_relaxed) &
          internal::kSpanProfile) != 0;
}

/// Knobs for a trace session.
struct TraceOptions {
  /// Completed spans shorter than this are dropped at emit time.  Keeps
  /// hot-path spans (per match-unit, per matcher enumeration) from flooding
  /// the buffers on big workloads; 0 records everything.
  uint64_t min_duration_us = 0;
  /// Hard cap per thread buffer; events beyond it are counted as dropped
  /// (the count is reported on Stop) instead of growing without bound.
  size_t max_events_per_thread = 1u << 20;
};

/// A process-global trace session writing Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` array form), loadable in `chrome://tracing` and
/// https://ui.perfetto.dev.  At most one session is active at a time.
///
/// Worker threads register thread-local buffers on first emit; buffers are
/// appended to by their owner thread only (one brief uncontended mutex
/// acquisition per event, so the *enabled* path stays cheap too) and are
/// flushed into the output file by Stop().  Stop() should be called when
/// spans are quiescent — the chase joins its workers every round, so any
/// round boundary qualifies; a span racing Stop() is dropped, never a data
/// race.  Tracing is pure observation: it never changes chase results,
/// which tests/obs_test.cc asserts byte-for-byte at several thread counts.
class TraceSession {
 public:
  /// Starts the global session; events buffer until Stop() writes `path`.
  /// Fails if a session is already active.
  static Status Start(std::string path, TraceOptions options = {});

  /// Stops the active session and writes the JSON file.  Returns an error
  /// if no session is active or the file cannot be written.
  static Status Stop();

  /// True while a session is active (same answer as TracingEnabled()).
  static bool Active();
};

/// RAII span: construction records the start time, destruction emits a
/// complete event covering the scope.  The same span feeds both consumers:
/// an active TraceSession receives a Chrome trace event, an active
/// ProfileSession (obs/profiler.h) a call-tree frame.  When both are
/// disabled the constructor is a single relaxed atomic load and the
/// destructor a branch on an int.  `name`/`category` must be string
/// literals.
class Span {
 public:
  Span(const char* name, const char* category) {
    const uint32_t mask =
        internal::g_span_mask.load(std::memory_order_relaxed);
    if (mask == 0) return;
    mask_ = mask;
    name_ = name;
    category_ = category;
    if (mask & internal::kSpanProfile) internal::ProfileEnter(name);
    if (mask & internal::kSpanTrace) start_ns_ = internal::NowNanos();
  }

  ~Span() {
    if (mask_ & internal::kSpanTrace) {
      internal::EmitComplete(name_, category_, start_ns_,
                             internal::NowNanos());
    }
    if (mask_ & internal::kSpanProfile) internal::ProfileExit();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t mask_ = 0;
};

/// Emits a zero-duration instant event (a vertical marker in the viewer),
/// e.g. a budget trip or a fixpoint.  No-op when tracing is disabled.
inline void TraceInstant(const char* name, const char* category) {
  if (TracingEnabled()) internal::EmitInstant(name, category);
}

}  // namespace frontiers::obs

#endif  // FRONTIERS_OBS_TRACE_H_
