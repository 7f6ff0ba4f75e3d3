#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace frontiers::obs {

// g_span_mask, NowNanos and the thread-exit hooks are defined in
// base/obs_hooks.cc (shared with the base-layer WorkerPool).

namespace {

struct Event {
  const char* name;
  const char* category;
  uint64_t start_ns;
  uint64_t end_ns;  // == start_ns for instant events
  char phase;       // 'X' complete, 'i' instant
};

// One buffer per (thread, session).  Appended to by the owner thread only;
// the mutex exists solely to order those appends against the flush in
// Stop(), so it is uncontended in steady state.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  size_t dropped = 0;
  uint32_t tid = 0;
};

struct SessionState {
  std::mutex mu;
  bool active = false;
  std::string path;
  TraceOptions options;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
  // Generation counter: bumping it on Start invalidates thread-local
  // buffer pointers left over from a previous session.
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint64_t> min_duration_ns{0};
};

SessionState& State() {
  static SessionState* state = new SessionState();  // leaked: program-lifetime
  return *state;
}

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local uint64_t t_buffer_epoch = 0;

// The calling thread's buffer for the current session, registering a fresh
// one when the thread has none (or only one from a dead session).
ThreadBuffer* LocalBuffer() {
  SessionState& state = State();
  const uint64_t epoch = state.epoch.load(std::memory_order_acquire);
  if (!t_buffer || t_buffer_epoch != epoch) {
    auto fresh = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (!state.active) return nullptr;  // raced a Stop(); drop the event
      fresh->tid = state.next_tid++;
      state.buffers.push_back(fresh);
    }
    t_buffer = std::move(fresh);
    t_buffer_epoch = epoch;
  }
  return t_buffer.get();
}

// Runs on every WorkerPool thread right before it exits (registered below).
// The session's buffer list co-owns every registered buffer, so no event is
// ever lost with its thread — but dropping the thread-local reference here
// guarantees the buffer is quiescent before the pool joins the thread,
// which is the ordering validate_telemetry relies on for complete
// per-thread streams.
void FlushThreadBufferOnExit() {
  t_buffer.reset();
  t_buffer_epoch = 0;
}

void Append(Event event) {
  SessionState& state = State();
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer == nullptr) return;
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= state.options.max_events_per_thread) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back(event);
}

}  // namespace

namespace internal {

void EmitComplete(const char* name, const char* category, uint64_t start_ns,
                  uint64_t end_ns) {
  if (end_ns - start_ns <
      State().min_duration_ns.load(std::memory_order_relaxed)) {
    return;
  }
  Append(Event{name, category, start_ns, end_ns, 'X'});
}

void EmitInstant(const char* name, const char* category) {
  const uint64_t now = NowNanos();
  Append(Event{name, category, now, now, 'i'});
}

}  // namespace internal

Status TraceSession::Start(std::string path, TraceOptions options) {
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.active) {
    return Status::Error("trace session already active (writing to '" +
                         state.path + "')");
  }
  state.active = true;
  state.path = std::move(path);
  state.options = options;
  state.buffers.clear();
  state.next_tid = 1;
  state.min_duration_ns.store(options.min_duration_us * 1000,
                              std::memory_order_relaxed);
  state.epoch.fetch_add(1, std::memory_order_release);
  internal::RegisterThreadExitHook(&FlushThreadBufferOnExit);
  internal::g_span_mask.fetch_or(internal::kSpanTrace,
                                 std::memory_order_relaxed);
  return Status::Ok();
}

Status TraceSession::Stop() {
  SessionState& state = State();
  internal::g_span_mask.fetch_and(~internal::kSpanTrace,
                                  std::memory_order_relaxed);
  std::string path;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.active) return Status::Error("no trace session active");
    state.active = false;
    path = std::move(state.path);
    buffers = std::move(state.buffers);
    state.buffers.clear();
  }

  struct FlatEvent {
    Event event;
    uint32_t tid;
  };
  std::vector<FlatEvent> all;
  size_t dropped = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    dropped += buffer->dropped;
    for (const Event& event : buffer->events) {
      all.push_back({event, buffer->tid});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const FlatEvent& a, const FlatEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.event.start_ns < b.event.start_ns;
            });

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Error("cannot open trace file '" + path + "' for writing");
  }
  // Rebase timestamps so the trace starts near 0 — viewers show absolute
  // microseconds, and steady_clock's epoch is arbitrary.
  uint64_t base_ns = all.empty() ? 0 : all.front().event.start_ns;
  for (const FlatEvent& flat : all) {
    base_ns = std::min(base_ns, flat.event.start_ns);
  }
  // `baseTimeNanos` records the un-rebased origin on the process steady
  // clock (Chrome/Perfetto ignore unknown top-level keys), so absolute
  // timestamps can be recovered from the file.
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"baseTimeNanos\":%llu,"
               "\"traceEvents\":[\n",
               static_cast<unsigned long long>(base_ns));
  std::fprintf(file,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"frontiers\"}}");
  for (const FlatEvent& flat : all) {
    const Event& e = flat.event;
    const double ts_us = static_cast<double>(e.start_ns - base_ns) / 1000.0;
    if (e.phase == 'X') {
      const double dur_us = static_cast<double>(e.end_ns - e.start_ns) / 1000.0;
      std::fprintf(file,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                   e.name, e.category, ts_us, dur_us, flat.tid);
    } else {
      std::fprintf(file,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                   "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                   e.name, e.category, ts_us, flat.tid);
    }
  }
  std::fprintf(file, "\n]}\n");
  const bool write_ok = std::ferror(file) == 0;
  if (std::fclose(file) != 0 || !write_ok) {
    return Status::Error("error writing trace file '" + path + "'");
  }
  if (dropped > 0) {
    std::fprintf(stderr,
                 "[obs] trace '%s': %zu event(s) dropped by the per-thread "
                 "buffer cap\n",
                 path.c_str(), dropped);
  }
  return Status::Ok();
}

bool TraceSession::Active() {
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.active;
}

}  // namespace frontiers::obs
