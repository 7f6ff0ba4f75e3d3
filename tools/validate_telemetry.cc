// Telemetry validator used by CI (and handy locally): checks that the two
// machine-readable artifacts the observability layer emits are well-formed
// without needing a browser or an external JSON tool.
//
//   validate_telemetry --trace <file.json>      Chrome trace-event file
//   validate_telemetry --mem <file.jsonl>       round-boundary memory ledger
//   validate_telemetry --bench <file.json>      bench JSONL rows
//   validate_telemetry --heartbeat <file.json>  chase heartbeat JSONL
//   validate_telemetry --metrics <file.json>    metrics-registry snapshot
//   validate_telemetry --profile <file.txt>     profiler report (--profile=)
//   validate_telemetry --folded <file.folded>   folded-stack flamegraph input
//
// Exit code 0 means every check passed; any malformed file, event, or row
// exits 1 with a message naming the offending line/event.  The parser is
// the repo's own (src/obs/json.h) — validating our output with our reader
// also keeps the round-trip honest.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace frontiers {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// --trace: the file must be one JSON object with a "traceEvents" array;
// every event needs name/ph/pid/tid, every non-metadata event needs ts,
// and complete ('X') events need dur.  Per thread, 'X' timestamps must be
// non-decreasing (the writer sorts by (tid, start)), and duration ('B'/'E')
// events — not currently emitted, but legal trace-event phases — must nest:
// every 'E' matches the innermost open 'B' by name, and nothing stays open.
int ValidateTrace(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "trace: cannot read %s\n", path.c_str());
    return 1;
  }
  Result<obs::JsonValue> parsed = obs::ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace: %s: %s\n", path.c_str(),
                 parsed.message().c_str());
    return 1;
  }
  const obs::JsonValue& root = parsed.value();
  if (!root.IsObject()) {
    std::fprintf(stderr, "trace: %s: top level is not an object\n",
                 path.c_str());
    return 1;
  }
  const obs::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    std::fprintf(stderr, "trace: %s: missing traceEvents array\n",
                 path.c_str());
    return 1;
  }
  size_t spans = 0, instants = 0, metadata = 0, durations = 0;
  std::map<double, double> last_x_ts;               // tid -> last 'X' ts
  std::map<double, std::vector<std::string>> open;  // tid -> open 'B' names
  for (size_t i = 0; i < events->array.size(); ++i) {
    const obs::JsonValue& event = events->array[i];
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "trace: %s: event %zu: %s\n", path.c_str(), i,
                   what.c_str());
      return 1;
    };
    if (!event.IsObject()) return fail("not an object");
    const obs::JsonValue* name = event.Find("name");
    if (name == nullptr || !name->IsString()) return fail("missing name");
    const obs::JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->IsString()) return fail("missing ph");
    const obs::JsonValue* tid = event.Find("tid");
    if (!event.Has("pid") || tid == nullptr) {
      return fail("missing pid/tid");
    }
    if (ph->string == "M") {
      ++metadata;
      continue;
    }
    if (!tid->IsNumber()) return fail("non-numeric tid");
    const obs::JsonValue* ts = event.Find("ts");
    if (ts == nullptr || !ts->IsNumber()) return fail("missing ts");
    if (ph->string == "X") {
      const obs::JsonValue* dur = event.Find("dur");
      if (dur == nullptr || !dur->IsNumber()) return fail("X without dur");
      if (dur->number < 0) return fail("negative dur");
      auto [it, first] = last_x_ts.emplace(tid->number, ts->number);
      if (!first && ts->number < it->second) {
        return fail("'X' ts goes backwards within its thread");
      }
      it->second = ts->number;
      ++spans;
    } else if (ph->string == "i") {
      ++instants;
    } else if (ph->string == "B") {
      open[tid->number].push_back(name->string);
      ++durations;
    } else if (ph->string == "E") {
      std::vector<std::string>& stack = open[tid->number];
      if (stack.empty()) return fail("'E' with no open 'B' on its thread");
      if (stack.back() != name->string) {
        return fail("'E' name '" + name->string +
                    "' does not match the open 'B' '" + stack.back() + "'");
      }
      stack.pop_back();
    } else {
      return fail("unexpected ph (want X, i, B, E, or M)");
    }
  }
  for (const auto& [tid, stack] : open) {
    if (!stack.empty()) {
      std::fprintf(stderr, "trace: %s: tid %g: 'B' event '%s' never closed\n",
                   path.c_str(), tid, stack.back().c_str());
      return 1;
    }
  }
  std::printf("trace: %s ok (%zu spans, %zu instants, %zu metadata%s)\n",
              path.c_str(), spans, instants, metadata,
              durations > 0 ? ", B/E balanced" : "");
  return 0;
}

// --bench: one JSON object per line, each carrying the frontiers-bench-v1
// envelope (schema/experiment/build/section/params/counters/seconds/budget).
int ValidateBench(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, rows = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "bench: %s:%zu: %s\n", path.c_str(), line_no,
                   what.c_str());
      return 1;
    };
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    if (!parsed.ok()) return fail(parsed.message());
    const obs::JsonValue& row = parsed.value();
    if (!row.IsObject()) return fail("row is not an object");
    const obs::JsonValue* schema = row.Find("schema");
    if (schema == nullptr || !schema->IsString()) {
      return fail("missing schema");
    }
    if (schema->string != "frontiers-bench-v1") {
      return fail("unknown schema '" + schema->string + "'");
    }
    for (const char* key : {"experiment", "build", "section"}) {
      const obs::JsonValue* value = row.Find(key);
      if (value == nullptr || !value->IsString()) {
        return fail(std::string("missing string field '") + key + "'");
      }
    }
    for (const char* key : {"params", "counters", "seconds"}) {
      const obs::JsonValue* value = row.Find(key);
      if (value == nullptr || !value->IsObject()) {
        return fail(std::string("missing object field '") + key + "'");
      }
    }
    const obs::JsonValue* budget = row.Find("budget");
    if (budget == nullptr || (!budget->IsNull() && !budget->IsString())) {
      return fail("budget must be null or a string");
    }
    ++rows;
  }
  if (rows == 0) {
    std::fprintf(stderr, "bench: %s: no rows\n", path.c_str());
    return 1;
  }
  std::printf("bench: %s ok (%zu rows)\n", path.c_str(), rows);
  return 0;
}

// --heartbeat: one frontiers-heartbeat-v1 object per line, as emitted by
// ChaseOptions::heartbeat_seconds.
int ValidateHeartbeat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "heartbeat: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, beats = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "heartbeat: %s:%zu: %s\n", path.c_str(), line_no,
                   what.c_str());
      return 1;
    };
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    if (!parsed.ok()) return fail(parsed.message());
    const obs::JsonValue& beat = parsed.value();
    if (!beat.IsObject()) return fail("heartbeat is not an object");
    const obs::JsonValue* schema = beat.Find("schema");
    if (schema == nullptr || !schema->IsString() ||
        schema->string != "frontiers-heartbeat-v1") {
      return fail("missing or unknown schema (want frontiers-heartbeat-v1)");
    }
    for (const char* key : {"round", "facts", "facts_per_sec", "bytes",
                            "peak_bytes", "elapsed_seconds"}) {
      const obs::JsonValue* value = beat.Find(key);
      if (value == nullptr || !value->IsNumber()) {
        return fail(std::string("missing numeric field '") + key + "'");
      }
      if (value->number < 0) {
        return fail(std::string("negative '") + key + "'");
      }
    }
    for (const char* key : {"budget_remaining_seconds", "eta_seconds"}) {
      const obs::JsonValue* value = beat.Find(key);
      if (value == nullptr || (!value->IsNull() && !value->IsNumber())) {
        return fail(std::string("'") + key + "' must be null or a number");
      }
    }
    // The ETA is the minimum over every active budget; a run with a
    // deadline therefore always has an ETA, and it never (modulo the skew
    // between the two clock reads) exceeds the remaining deadline time.
    const obs::JsonValue* budget_left = beat.Find("budget_remaining_seconds");
    const obs::JsonValue* eta = beat.Find("eta_seconds");
    if (budget_left->IsNumber()) {
      if (!eta->IsNumber()) {
        return fail(
            "'eta_seconds' is null while a deadline budget is active "
            "('budget_remaining_seconds' is a number)");
      }
      if (eta->number > budget_left->number + 0.5) {
        return fail("'eta_seconds' exceeds 'budget_remaining_seconds'");
      }
    }
    const obs::JsonValue* stop = beat.Find("stop");
    if (stop == nullptr || (!stop->IsNull() && !stop->IsString())) {
      return fail("'stop' must be null or a string");
    }
    ++beats;
  }
  if (beats == 0) {
    std::fprintf(stderr, "heartbeat: %s: no heartbeats\n", path.c_str());
    return 1;
  }
  std::printf("heartbeat: %s ok (%zu heartbeats)\n", path.c_str(), beats);
  return 0;
}

// --metrics: one frontiers-metrics-v1 object (a registry snapshot, as
// written by --metrics=<file> or the REPL's `.metrics`).  Histogram shape
// is checked: counts has one more entry than bounds and sums to count.
int ValidateMetrics(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "metrics: cannot read %s\n", path.c_str());
    return 1;
  }
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "metrics: %s: %s\n", path.c_str(), what.c_str());
    return 1;
  };
  Result<obs::JsonValue> parsed = obs::ParseJson(text);
  if (!parsed.ok()) return fail(parsed.message());
  const obs::JsonValue& root = parsed.value();
  if (!root.IsObject()) return fail("top level is not an object");
  const obs::JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "frontiers-metrics-v1") {
    return fail("missing or unknown schema (want frontiers-metrics-v1)");
  }
  size_t metrics = 0;
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const obs::JsonValue* group = root.Find(key);
    if (group == nullptr || !group->IsObject()) {
      return fail(std::string("missing object field '") + key + "'");
    }
    metrics += group->object.size();
  }
  for (const auto& [name, counter] : root.Find("counters")->object) {
    if (!counter.IsNumber() || counter.number < 0) {
      return fail("counter '" + name + "' is not a non-negative number");
    }
  }
  for (const auto& [name, gauge] : root.Find("gauges")->object) {
    if (!gauge.IsNumber()) {
      return fail("gauge '" + name + "' is not a number");
    }
  }
  for (const auto& [name, histogram] : root.Find("histograms")->object) {
    auto hfail = [&](const char* what) {
      return fail("histogram '" + name + "': " + what);
    };
    if (!histogram.IsObject()) return hfail("not an object");
    const obs::JsonValue* count = histogram.Find("count");
    const obs::JsonValue* sum = histogram.Find("sum");
    const obs::JsonValue* bounds = histogram.Find("bounds");
    const obs::JsonValue* counts = histogram.Find("counts");
    if (count == nullptr || !count->IsNumber()) return hfail("missing count");
    if (sum == nullptr || !sum->IsNumber()) return hfail("missing sum");
    if (bounds == nullptr || !bounds->IsArray()) return hfail("missing bounds");
    if (counts == nullptr || !counts->IsArray()) return hfail("missing counts");
    if (counts->array.size() != bounds->array.size() + 1) {
      return hfail("counts must have one more entry than bounds");
    }
    double total = 0;
    double previous_bound = 0;
    for (size_t i = 0; i < bounds->array.size(); ++i) {
      if (!bounds->array[i].IsNumber()) return hfail("non-numeric bound");
      if (i > 0 && bounds->array[i].number <= previous_bound) {
        return hfail("bounds must be strictly ascending");
      }
      previous_bound = bounds->array[i].number;
    }
    for (const obs::JsonValue& bucket : counts->array) {
      if (!bucket.IsNumber() || bucket.number < 0) {
        return hfail("non-numeric bucket count");
      }
      total += bucket.number;
    }
    if (total != count->number) {
      return hfail("bucket counts do not sum to count");
    }
  }
  std::printf("metrics: %s ok (%zu metrics)\n", path.c_str(), metrics);
  return 0;
}

// --profile: the human-readable report --profile=<file> writes.  Two '#'
// header lines, then one line per node: four numeric columns (wall_ms,
// cpu_ms, count, self_ms) and an indented span name.
int ValidateProfile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "profile: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, nodes = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto fail = [&](const char* what) {
      std::fprintf(stderr, "profile: %s:%zu: %s\n", path.c_str(), line_no,
                   what);
      return 1;
    };
    if (line_no == 1) {
      if (line.rfind("# frontiers profile:", 0) != 0) {
        return fail("missing '# frontiers profile:' header");
      }
      continue;
    }
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // column-header line
    double wall_ms = 0, cpu_ms = 0, self_ms = 0;
    unsigned long long count = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), " %lf %lf %llu %lf %n", &wall_ms, &cpu_ms,
                    &count, &self_ms, &consumed) != 4 ||
        consumed >= static_cast<int>(line.size())) {
      return fail("want 'wall_ms cpu_ms count self_ms name'");
    }
    if (wall_ms < 0 || cpu_ms < 0 || self_ms < 0) {
      return fail("negative time column");
    }
    if (self_ms > wall_ms + 1e-9) {
      return fail("self time exceeds inclusive wall time");
    }
    if (count == 0) return fail("zero invocation count");
    ++nodes;
  }
  if (line_no == 0) {
    std::fprintf(stderr, "profile: %s: empty file\n", path.c_str());
    return 1;
  }
  std::printf("profile: %s ok (%zu nodes)\n", path.c_str(), nodes);
  return 0;
}

// --folded: Brendan-Gregg folded stacks (`a;b;c <count>` per line), the
// `.folded` sibling of --profile=<file>.
int ValidateFolded(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "folded: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, stacks = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const char* what) {
      std::fprintf(stderr, "folded: %s:%zu: %s\n", path.c_str(), line_no,
                   what);
      return 1;
    };
    const size_t space = line.find_last_of(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 == line.size()) {
      return fail("want '<stack> <count>'");
    }
    for (size_t i = space + 1; i < line.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
        return fail("count is not a non-negative integer");
      }
    }
    const std::string stack = line.substr(0, space);
    if (stack.front() == ';' || stack.back() == ';' ||
        stack.find(";;") != std::string::npos) {
      return fail("empty frame in stack");
    }
    ++stacks;
  }
  // An empty folded file is legal: every span may have been pure
  // pass-through below clock resolution.
  std::printf("folded: %s ok (%zu stacks)\n", path.c_str(), stacks);
  return 0;
}

// --mem: the frontiers-mem-v1 JSONL stream a MemStreamSession writes
// (obs/mem_stream.h).  Line 1 is the meta row; then, per chase round
// boundary, component rows followed by their round summary row and a diag
// row.  Strict checks: every byte figure is a non-negative number, run ids
// are non-decreasing, rounds are strictly increasing within a run, every
// round row's total_bytes equals the sum of its component rows exactly,
// peak_bytes never drops below total_bytes, and no component row is left
// dangling without a round summary.
int ValidateMem(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "mem: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line;
  size_t line_no = 0, rounds = 0, components = 0, diags = 0;
  bool saw_meta = false;
  // Component bytes accumulated since the last round row, keyed by
  // (run, round); the matching round row consumes the entry.
  std::map<std::pair<double, double>, double> pending_components;
  std::map<double, double> last_round;  // run -> last round-row round
  double last_run = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "mem: %s:%zu: %s\n", path.c_str(), line_no,
                   what.c_str());
      return 1;
    };
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    if (!parsed.ok()) return fail(parsed.message());
    const obs::JsonValue& row = parsed.value();
    if (!row.IsObject()) return fail("row is not an object");
    const obs::JsonValue* kind = row.Find("kind");
    if (kind == nullptr || !kind->IsString()) return fail("missing kind");
    auto numbers = [&](std::initializer_list<const char*> keys,
                       auto&& get) -> bool {
      for (const char* key : keys) {
        const obs::JsonValue* value = row.Find(key);
        if (value == nullptr || !value->IsNumber() || value->number < 0) {
          return false;
        }
        get(key, value->number);
      }
      return true;
    };
    if (!saw_meta) {
      const obs::JsonValue* schema = row.Find("schema");
      if (schema == nullptr || !schema->IsString() ||
          schema->string != "frontiers-mem-v1") {
        return fail("first row must carry schema frontiers-mem-v1");
      }
      if (kind->string != "meta") return fail("first row must be the meta row");
      if (!numbers({"page_bytes"}, [](const char*, double) {})) {
        return fail("meta row needs a non-negative numeric page_bytes");
      }
      saw_meta = true;
      continue;
    }
    if (kind->string == "component") {
      std::map<std::string, double> f;
      if (!numbers({"run", "round", "bytes"},
                   [&](const char* key, double v) { f[key] = v; })) {
        return fail("component row needs non-negative numeric fields");
      }
      const obs::JsonValue* component = row.Find("component");
      if (component == nullptr || !component->IsString() ||
          component->string.empty()) {
        return fail("component row needs a non-empty component name");
      }
      const obs::JsonValue* predicate = row.Find("predicate");
      if (predicate == nullptr || !predicate->IsString()) {
        return fail("component row needs a string predicate (may be empty)");
      }
      pending_components[{f["run"], f["round"]}] += f["bytes"];
      ++components;
    } else if (kind->string == "round") {
      std::map<std::string, double> f;
      if (!numbers({"run", "round", "atoms", "total_bytes", "peak_bytes"},
                   [&](const char* key, double v) { f[key] = v; })) {
        return fail("round row needs non-negative numeric fields");
      }
      if (f["run"] < last_run) return fail("run ids go backwards");
      last_run = f["run"];
      auto [it, first] = last_round.emplace(f["run"], f["round"]);
      if (!first) {
        if (f["round"] <= it->second) {
          return fail("rounds not strictly increasing within run");
        }
        it->second = f["round"];
      }
      if (f["peak_bytes"] < f["total_bytes"]) {
        return fail("peak_bytes below total_bytes");
      }
      auto pending = pending_components.find({f["run"], f["round"]});
      const double sum =
          pending == pending_components.end() ? 0 : pending->second;
      if (sum != f["total_bytes"]) {
        return fail("component rows sum to " + std::to_string(sum) +
                    " but total_bytes is " + std::to_string(f["total_bytes"]));
      }
      if (pending != pending_components.end()) {
        pending_components.erase(pending);
      }
      ++rounds;
    } else if (kind->string == "diag") {
      if (!numbers({"run", "round", "rss_bytes", "scratch_bytes"},
                   [](const char*, double) {})) {
        return fail("diag row needs non-negative numeric fields");
      }
      ++diags;
    } else {
      return fail("unexpected kind (want meta, component, round, or diag)");
    }
  }
  if (!saw_meta) {
    std::fprintf(stderr, "mem: %s: missing meta row\n", path.c_str());
    return 1;
  }
  if (!pending_components.empty()) {
    std::fprintf(stderr,
                 "mem: %s: %zu (run, round) group(s) of component rows have "
                 "no round summary row\n",
                 path.c_str(), pending_components.size());
    return 1;
  }
  std::printf("mem: %s ok (%zu rounds, %zu component rows, %zu diag rows)\n",
              path.c_str(), rounds, components, diags);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: validate_telemetry --trace <file.json> ...\n"
               "       validate_telemetry --mem <file.jsonl> ...\n"
               "       validate_telemetry --bench <file.json> ...\n"
               "       validate_telemetry --heartbeat <file.json> ...\n"
               "       validate_telemetry --metrics <file.json> ...\n"
               "       validate_telemetry --profile <file.txt> ...\n"
               "       validate_telemetry --folded <file.folded> ...\n"
               "Modes may be mixed; every named file must validate.\n");
  return 2;
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) {
  if (argc < 3) return frontiers::Usage();
  int failures = 0;
  const char* mode = nullptr;
  int files = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 ||
        std::strcmp(argv[i], "--mem") == 0 ||
        std::strcmp(argv[i], "--bench") == 0 ||
        std::strcmp(argv[i], "--heartbeat") == 0 ||
        std::strcmp(argv[i], "--metrics") == 0 ||
        std::strcmp(argv[i], "--profile") == 0 ||
        std::strcmp(argv[i], "--folded") == 0) {
      mode = argv[i];
      continue;
    }
    if (mode == nullptr) return frontiers::Usage();
    ++files;
    if (std::strcmp(mode, "--trace") == 0) {
      failures += frontiers::ValidateTrace(argv[i]);
    } else if (std::strcmp(mode, "--mem") == 0) {
      failures += frontiers::ValidateMem(argv[i]);
    } else if (std::strcmp(mode, "--bench") == 0) {
      failures += frontiers::ValidateBench(argv[i]);
    } else if (std::strcmp(mode, "--heartbeat") == 0) {
      failures += frontiers::ValidateHeartbeat(argv[i]);
    } else if (std::strcmp(mode, "--metrics") == 0) {
      failures += frontiers::ValidateMetrics(argv[i]);
    } else if (std::strcmp(mode, "--profile") == 0) {
      failures += frontiers::ValidateProfile(argv[i]);
    } else {
      failures += frontiers::ValidateFolded(argv[i]);
    }
  }
  if (files == 0) return frontiers::Usage();
  return failures == 0 ? 0 : 1;
}
