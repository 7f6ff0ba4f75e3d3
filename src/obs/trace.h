#ifndef FRONTIERS_OBS_TRACE_H_
#define FRONTIERS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

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
}  // namespace internal

/// True while a TraceSession is active.  Relaxed: a span racing a session
/// start/stop is simply missed or dropped, never torn.
inline bool TracingEnabled() {
  return (internal::g_span_mask.load(std::memory_order_relaxed) &
          internal::kSpanTrace) != 0;
}

/// Knobs for a trace session.
struct TraceOptions {
  /// Hard cap per thread buffer; events beyond it are counted as dropped
  /// instead of growing without bound.  Stop() writes the count into the
  /// file as the top-level `droppedEvents` key.
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
/// complete event covering the scope into the active TraceSession.  When
/// tracing is disabled the constructor is a single relaxed atomic load and
/// the destructor a branch on a pointer.  `name`/`category` must be string
/// literals.
class Span {
 public:
  Span(const char* name, const char* category) {
    if (!TracingEnabled()) return;
    name_ = name;
    category_ = category;
    start_ns_ = internal::NowNanos();
  }

  ~Span() {
    if (name_ != nullptr) {
      internal::EmitComplete(name_, category_, start_ns_,
                             internal::NowNanos());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_ns_ = 0;
};

/// Emits a zero-duration instant event (a vertical marker in the viewer),
/// e.g. a budget trip or a fixpoint.  No-op when tracing is disabled.
inline void TraceInstant(const char* name, const char* category) {
  if (TracingEnabled()) internal::EmitInstant(name, category);
}

/// One stack path of a span profile: the spans that closed under exactly
/// this chain of enclosing spans on their thread, merged across threads.
struct SpanPathStats {
  uint64_t count = 0;
  uint64_t wall_ns = 0;  ///< Inclusive: covers the child spans too.
  uint64_t self_ns = 0;  ///< Wall time not covered by any child span.
};

/// A profile rebuilt offline from a trace file: the top-down span tree,
/// keyed by stack path ("chase.run;chase.round;chase.match").
struct TraceProfile {
  std::map<std::string, SpanPathStats> paths;
  /// Threads that recorded at least one span.
  size_t threads = 0;
  /// The trace's `droppedEvents`: spans lost to the per-thread cap, so a
  /// non-zero count means the profile is incomplete.
  uint64_t dropped_events = 0;

  /// Top-down report: one line per path, indented by stack depth, siblings
  /// sorted by inclusive wall time, with wall / count / self columns.
  std::string ToString() const;

  /// Brendan-Gregg folded stacks (`a;b;c <self-wall-microseconds>` per
  /// path), the input format of flamegraph.pl and speedscope.
  std::string ToFolded() const;
};

/// Reads the text of a trace file written by TraceSession and rebuilds its
/// span tree; nesting comes from interval containment per thread.  This is
/// also the trace's checker (validate_telemetry --trace): it fails unless
/// the text is one object with a `traceEvents` array and a non-negative
/// `droppedEvents`, every event has name/ph/pid/tid, every non-metadata
/// event a numeric tid and ts, the phases are the writer's ('X', 'i', 'M'),
/// every 'X' has a non-negative dur, and each thread's 'X' starts never go
/// backwards (the writer sorts them).
Result<TraceProfile> ReadTraceProfile(std::string_view text);

}  // namespace frontiers::obs

#endif  // FRONTIERS_OBS_TRACE_H_
