#include "obs/round_stream.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace frontiers::obs {

namespace {

struct SessionState {
  std::mutex mu;
  // Mirrors `file != nullptr` for the lock-free BeginRun() check.
  std::atomic<bool> active{false};
  std::string path;
  std::FILE* file = nullptr;
  uint64_t next_run = 1;
};

SessionState& State() {
  static SessionState* state = new SessionState();  // leaked: program-lifetime
  return *state;
}

uint64_t PageBytes() {
#if defined(__linux__)
  const long page = sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<uint64_t>(page) : 0;
#else
  return 0;
#endif
}

// Resident set size sampled from /proc/self/statm (field 2, in pages).
// Inherently non-deterministic — the allocator, the loader and every other
// subsystem contribute — which is exactly why it only ever appears in diag
// rows.  Returns 0 where the proc file is unavailable.
uint64_t SampleRssBytes() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total_pages = 0, resident_pages = 0;
  const int parsed =
      std::fscanf(statm, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(statm);
  if (parsed != 2) return 0;
  return resident_pages * PageBytes();
#else
  return 0;
#endif
}

// `"key":<value>` for a value that is null when negative.
void PrintOptionalSeconds(std::FILE* file, const char* key, double value) {
  if (value >= 0) {
    std::fprintf(file, ",\"%s\":%.6f", key, value);
  } else {
    std::fprintf(file, ",\"%s\":null", key);
  }
}

}  // namespace

Status RoundStreamSession::Start(std::string path) {
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) {
    return Status::Error("round-stream session already active (writing to '" +
                         state.path + "')");
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Error("cannot open round-stream file '" + path +
                         "' for writing");
  }
  std::fprintf(file,
               "{\"schema\":\"frontiers-rounds-v1\",\"kind\":\"meta\","
               "\"page_bytes\":%llu}\n",
               static_cast<unsigned long long>(PageBytes()));
  state.path = std::move(path);
  state.file = file;
  state.next_run = 1;
  state.active.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

Status RoundStreamSession::Stop() {
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) {
    return Status::Error("no round-stream session active");
  }
  state.active.store(false, std::memory_order_relaxed);
  const bool write_ok = std::ferror(state.file) == 0;
  const bool close_ok = std::fclose(state.file) == 0;
  state.file = nullptr;
  if (!close_ok || !write_ok) {
    return Status::Error("error writing round-stream file '" + state.path +
                         "'");
  }
  return Status::Ok();
}

uint64_t RoundStreamSession::BeginRun() {
  SessionState& state = State();
  if (!state.active.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return 0;  // raced a Stop(); the run stays silent
  return state.next_run++;
}

void RoundStreamSession::WriteBoundary(
    uint64_t run, const RoundStreamBoundary& b,
    const std::vector<RoundStreamComponent>& components) {
  if (run == 0) return;
  const uint64_t rss_bytes = SampleRssBytes();
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::FILE* file = state.file;
  if (file == nullptr) return;
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  for (const RoundStreamComponent& c : components) {
    std::fprintf(file,
                 "{\"kind\":\"component\",\"run\":%llu,\"round\":%llu,"
                 "\"component\":\"%s\",\"predicate\":\"%s\",\"bytes\":%llu}\n",
                 u(run), u(b.round), c.component, c.predicate, u(c.bytes));
  }
  std::fprintf(file,
               "{\"kind\":\"round\",\"run\":%llu,\"round\":%llu,"
               "\"atoms\":%llu,\"total_bytes\":%llu,\"peak_bytes\":%llu,"
               "\"live_bytes\":%llu,\"matches\":%llu,\"staged\":%llu,"
               "\"committed\":%llu,\"preempted\":%llu,\"deduped\":%llu,"
               "\"atoms_inserted\":%llu}\n",
               u(run), u(b.round), u(b.atoms), u(b.total_bytes),
               u(b.peak_bytes), u(b.live_bytes), u(b.matches), u(b.staged),
               u(b.committed), u(b.preempted), u(b.deduped),
               u(b.atoms_inserted));
  std::fprintf(file,
               "{\"kind\":\"diag\",\"run\":%llu,\"round\":%llu,"
               "\"rss_bytes\":%llu,\"scratch_bytes\":%llu,"
               "\"elapsed_seconds\":%.6f,\"atoms_per_sec\":%.6g",
               u(run), u(b.round), u(rss_bytes), u(b.scratch_bytes),
               b.elapsed_seconds, b.atoms_per_sec);
  PrintOptionalSeconds(file, "budget_remaining_seconds",
                       b.budget_remaining_seconds);
  PrintOptionalSeconds(file, "eta_seconds", b.eta_seconds);
  std::fprintf(file, "}\n");
  std::fflush(file);
}

void RoundStreamSession::WriteStop(uint64_t run, uint64_t round,
                                   const char* stop) {
  if (run == 0) return;
  SessionState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return;
  // Stop names are fixed lowercase literals (ChaseStopName); no escaping.
  std::fprintf(state.file,
               "{\"kind\":\"stop\",\"run\":%llu,\"round\":%llu,"
               "\"stop\":\"%s\"}\n",
               static_cast<unsigned long long>(run),
               static_cast<unsigned long long>(round), stop);
  std::fflush(state.file);
}

}  // namespace frontiers::obs
