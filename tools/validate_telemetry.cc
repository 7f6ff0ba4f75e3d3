// Telemetry validator used by CI (and handy locally): checks that the
// machine-readable artifacts the observability layer emits are well-formed
// without needing a browser or an external JSON tool.
//
//   validate_telemetry --trace <file.json>      Chrome trace-event file
//   validate_telemetry --bench <file.json>      bench JSONL rows
//   validate_telemetry --metrics <file.json>    metrics-registry snapshot
//
// The fourth format, the frontiers-rounds-v1 round stream, has its own
// checker: `chase_report <file> --check`.
//
// Exit code 0 means every check passed; any malformed file, event, or row
// exits 1 with a message naming the offending line/event.  The parser is
// the repo's own (src/obs/json.h) — validating our output with our reader
// also keeps the round-trip honest.

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/trace.h"

namespace frontiers {
namespace {

// --trace: the Chrome trace-event file TraceSession writes, checked by its
// reader (obs::ReadTraceProfile, whose header lists the rules).
int ValidateTrace(const std::string& path, const std::string& text) {
  Result<obs::TraceProfile> profile = obs::ReadTraceProfile(text);
  if (!profile.ok()) {
    std::fprintf(stderr, "trace: %s: %s\n", path.c_str(),
                 profile.message().c_str());
    return 1;
  }
  std::printf("trace: %s ok (%zu thread(s), %zu span path(s), %llu dropped)\n",
              path.c_str(), profile.value().threads,
              profile.value().paths.size(),
              static_cast<unsigned long long>(profile.value().dropped_events));
  return 0;
}

// --bench: one JSON object per line, each carrying the frontiers-bench-v1
// envelope (schema/experiment/build/section/params/counters/seconds/budget).
int ValidateBench(const std::string& path, const std::string& text) {
  std::istringstream in(text);
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

// --metrics: one frontiers-metrics-v1 object (a registry snapshot, as
// written by --metrics=<file> or the REPL's `.metrics`).  Histogram shape
// is checked: counts has one more entry than bounds and sums to count.
int ValidateMetrics(const std::string& path, const std::string& text) {
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

int Usage() {
  std::fprintf(stderr,
               "usage: validate_telemetry --trace <file.json> ...\n"
               "       validate_telemetry --bench <file.json> ...\n"
               "       validate_telemetry --metrics <file.json> ...\n"
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
        std::strcmp(argv[i], "--bench") == 0 ||
        std::strcmp(argv[i], "--metrics") == 0) {
      mode = argv[i];
      continue;
    }
    if (mode == nullptr) return frontiers::Usage();
    ++files;
    std::string text;
    if (!frontiers::obs::ReadFile(argv[i], &text)) {
      std::fprintf(stderr, "%s: cannot read %s\n", mode + 2, argv[i]);
      ++failures;
    } else if (std::strcmp(mode, "--trace") == 0) {
      failures += frontiers::ValidateTrace(argv[i], text);
    } else if (std::strcmp(mode, "--bench") == 0) {
      failures += frontiers::ValidateBench(argv[i], text);
    } else {
      failures += frontiers::ValidateMetrics(argv[i], text);
    }
  }
  if (files == 0) return frontiers::Usage();
  return failures == 0 ? 0 : 1;
}
