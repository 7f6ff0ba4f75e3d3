#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

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
  // timestamps can be recovered from the file; `droppedEvents` tells an
  // offline reader whether the buffer cap cut the trace short.
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"baseTimeNanos\":%llu,"
               "\"droppedEvents\":%zu,\"traceEvents\":[\n",
               static_cast<unsigned long long>(base_ns), dropped);
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
  // Viewers ignore `droppedEvents`, so a capped trace also says so here.
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

// ---- Offline reader ---------------------------------------------------------

namespace {

// One complete event read back from a trace, in integer nanoseconds so the
// containment tests are exact: the writer prints ts/dur as microseconds
// with three decimals, i.e. whole nanoseconds.
struct ReadSpan {
  double tid;
  int64_t start_ns;
  int64_t end_ns;
  const std::string* name;
};

int64_t MicrosToNanos(double us) { return std::llround(us * 1000.0); }

// Appends the children of `prefix` (the root spans when empty), heaviest
// first, each followed by its own subtree.
void RenderTopDown(const std::map<std::string, SpanPathStats>& paths,
                   const std::string& prefix, size_t depth, std::string& out) {
  const std::string lead = prefix.empty() ? prefix : prefix + ";";
  std::vector<std::pair<const std::string*, const SpanPathStats*>> children;
  for (auto it = paths.lower_bound(lead);
       it != paths.end() && it->first.compare(0, lead.size(), lead) == 0;
       ++it) {
    if (it->first.find(';', lead.size()) == std::string::npos) {
      children.push_back({&it->first, &it->second});
    }
  }
  std::sort(children.begin(), children.end(), [](const auto& a, const auto& b) {
    if (a.second->wall_ns != b.second->wall_ns) {
      return a.second->wall_ns > b.second->wall_ns;
    }
    return *a.first < *b.first;
  });
  for (const auto& [path, stats] : children) {
    char line[96];
    std::snprintf(line, sizeof(line), "%10.3f %10llu %10.3f  ",
                  static_cast<double>(stats->wall_ns) / 1e6,
                  static_cast<unsigned long long>(stats->count),
                  static_cast<double>(stats->self_ns) / 1e6);
    out += line;
    out.append(2 * depth, ' ');
    out.append(*path, lead.size());
    out += '\n';
    RenderTopDown(paths, *path, depth + 1, out);
  }
}

}  // namespace

std::string TraceProfile::ToString() const {
  uint64_t root_wall_ns = 0;
  for (const auto& [path, stats] : paths) {
    if (path.find(';') == std::string::npos) root_wall_ns += stats.wall_ns;
  }
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "# frontiers profile: %zu thread(s), %.3f ms wall across "
                "roots\n",
                threads, static_cast<double>(root_wall_ns) / 1e6);
  std::string out = buffer;
  if (dropped_events > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "# profile incomplete: %llu events dropped\n",
                  static_cast<unsigned long long>(dropped_events));
    out += buffer;
  }
  out += "#    wall_ms      count    self_ms  span\n";
  RenderTopDown(paths, "", 0, out);
  return out;
}

std::string TraceProfile::ToFolded() const {
  std::string out;
  for (const auto& [path, stats] : paths) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " %llu\n",
                  static_cast<unsigned long long>(stats.self_ns / 1000));
    out += path;
    out += buffer;
  }
  return out;
}

Result<TraceProfile> ReadTraceProfile(std::string_view text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return Status::Error(parsed.message());
  const JsonValue& root = parsed.value();
  const JsonValue* events =
      root.IsObject() ? root.Find("traceEvents") : nullptr;
  if (events == nullptr || !events->IsArray()) {
    return Status::Error("not a Chrome trace: no traceEvents array");
  }
  const JsonValue* dropped = root.Find("droppedEvents");
  if (dropped == nullptr || !dropped->IsNumber() || dropped->number < 0) {
    return Status::Error("droppedEvents must be a non-negative number");
  }
  TraceProfile profile;
  profile.dropped_events = static_cast<uint64_t>(dropped->number);
  std::vector<ReadSpan> spans;
  std::map<double, int64_t> last_start_ns;  // tid -> previous 'X' start
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    auto malformed = [i](const char* what) {
      return Status::Error("event " + std::to_string(i) + ": " + what);
    };
    if (!event.IsObject()) return malformed("not an object");
    const JsonValue* name = event.Find("name");
    const JsonValue* ph = event.Find("ph");
    const JsonValue* tid = event.Find("tid");
    if (name == nullptr || !name->IsString() || ph == nullptr ||
        !ph->IsString() || !event.Has("pid") || tid == nullptr) {
      return malformed("needs name, ph, pid and tid");
    }
    if (ph->string == "M") continue;
    const JsonValue* ts = event.Find("ts");
    if (!tid->IsNumber() || ts == nullptr || !ts->IsNumber()) {
      return malformed("needs a numeric tid and ts");
    }
    if (ph->string == "i") continue;
    if (ph->string != "X") return malformed("unexpected ph (want X, i or M)");
    const JsonValue* dur = event.Find("dur");
    if (dur == nullptr || !dur->IsNumber() || dur->number < 0) {
      return malformed("'X' needs a non-negative dur");
    }
    const int64_t start_ns = MicrosToNanos(ts->number);
    auto [last, first] = last_start_ns.emplace(tid->number, start_ns);
    if (!first && start_ns < last->second) {
      return malformed("'X' ts goes backwards within its thread");
    }
    last->second = start_ns;
    spans.push_back({tid->number, start_ns,
                     start_ns + MicrosToNanos(dur->number), &name->string});
  }
  // Per thread by start; an enclosing span that starts in the same
  // nanosecond as its child sorts first because it ends later.
  std::sort(spans.begin(), spans.end(),
            [](const ReadSpan& a, const ReadSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  struct OpenSpan {
    std::string path;
    int64_t end_ns;
  };
  std::vector<OpenSpan> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    const ReadSpan& span = spans[i];
    if (i == 0 || span.tid != spans[i - 1].tid) {
      open.clear();
      ++profile.threads;
    }
    while (!open.empty() && span.start_ns >= open.back().end_ns) {
      open.pop_back();
    }
    std::string path =
        open.empty() ? *span.name : open.back().path + ";" + *span.name;
    const uint64_t wall_ns = static_cast<uint64_t>(span.end_ns - span.start_ns);
    SpanPathStats& stats = profile.paths[path];
    ++stats.count;
    stats.wall_ns += wall_ns;
    stats.self_ns += wall_ns;
    if (!open.empty()) {
      // The parent's own wall was added first, so this never underflows
      // for properly nested spans; the clamp guards malformed input.
      SpanPathStats& parent = profile.paths[open.back().path];
      parent.self_ns -= std::min(parent.self_ns, wall_ns);
    }
    open.push_back({std::move(path), span.end_ns});
  }
  return profile;
}

}  // namespace frontiers::obs
