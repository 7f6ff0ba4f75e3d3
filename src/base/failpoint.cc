#include "base/failpoint.h"

#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>

namespace frontiers::failpoint {

namespace internal {

std::atomic<uint32_t> g_armed_points{0};

namespace {

// One failpoint's schedule and history.  Entries are never removed:
// disarming zeroes `remaining` but keeps the counters, so FiredCount()
// stays meaningful across arm/disarm cycles.
struct PointState {
  uint64_t skip = 0;       // hits to ignore before firing starts
  uint64_t remaining = 0;  // fires left; 0 = disarmed
  uint64_t fired = 0;      // total fires since process start
  uint64_t hits = 0;       // total evaluations while armed
};

std::mutex& RegistryMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::unordered_map<std::string, PointState>& Registry() {
  static auto* r = new std::unordered_map<std::string, PointState>();
  return *r;
}

// Environment activation runs once, before main(): the initializer only
// touches this translation unit's own function-local statics, so static
// initialization order is not a concern.
struct EnvActivation {
  EnvActivation() {
    const char* spec = std::getenv("FRONTIERS_FAILPOINTS");
    if (spec != nullptr && *spec != '\0') ArmFromSpec(spec);
  }
} g_env_activation;

}  // namespace

bool Fire(std::string_view name) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto it = Registry().find(std::string(name));
  if (it == Registry().end() || it->second.remaining == 0) return false;
  PointState& state = it->second;
  ++state.hits;
  if (state.skip > 0) {
    --state.skip;
    return false;
  }
  ++state.fired;
  if (--state.remaining == 0) {
    g_armed_points.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace internal

void Arm(std::string_view name, uint64_t fire_count, uint64_t skip) {
  if (fire_count == 0) {
    Disarm(name);
    return;
  }
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  internal::PointState& state = internal::Registry()[std::string(name)];
  if (state.remaining == 0) {
    internal::g_armed_points.fetch_add(1, std::memory_order_relaxed);
  }
  state.skip = skip;
  state.remaining = fire_count;
}

void Disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  auto it = internal::Registry().find(std::string(name));
  if (it == internal::Registry().end() || it->second.remaining == 0) return;
  it->second.remaining = 0;
  it->second.skip = 0;
  internal::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  for (auto& [name, state] : internal::Registry()) {
    if (state.remaining != 0) {
      state.remaining = 0;
      state.skip = 0;
      internal::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

uint64_t FiredCount(std::string_view name) {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  auto it = internal::Registry().find(std::string(name));
  return it == internal::Registry().end() ? 0 : it->second.fired;
}

uint64_t HitCount(std::string_view name) {
  std::lock_guard<std::mutex> lock(internal::RegistryMutex());
  auto it = internal::Registry().find(std::string(name));
  return it == internal::Registry().end() ? 0 : it->second.hits;
}

size_t ArmFromSpec(std::string_view spec) {
  size_t armed = 0;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find_first_of(";,", start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(start, end - start);
    start = end + 1;
    // Trim surrounding whitespace.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (entry.empty()) {
      if (end == spec.size()) break;
      continue;
    }
    std::string_view name = entry;
    uint64_t fire_count = 1;
    uint64_t skip = 0;
    const size_t eq = entry.find('=');
    if (eq != std::string_view::npos) {
      name = entry.substr(0, eq);
      std::string_view counts = entry.substr(eq + 1);
      std::string_view count_part = counts;
      const size_t at = counts.find('@');
      if (at != std::string_view::npos) {
        count_part = counts.substr(0, at);
        std::string skip_str(counts.substr(at + 1));
        char* parse_end = nullptr;
        skip = std::strtoull(skip_str.c_str(), &parse_end, 10);
        if (skip_str.empty() || *parse_end != '\0') continue;
      }
      std::string count_str(count_part);
      char* parse_end = nullptr;
      fire_count = std::strtoull(count_str.c_str(), &parse_end, 10);
      if (count_str.empty() || *parse_end != '\0') continue;
    }
    if (name.empty() || fire_count == 0) continue;
    Arm(name, fire_count, skip);
    ++armed;
    if (end == spec.size()) break;
  }
  return armed;
}

}  // namespace frontiers::failpoint
