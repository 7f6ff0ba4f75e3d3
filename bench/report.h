#ifndef FRONTIERS_BENCH_REPORT_H_
#define FRONTIERS_BENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/round_stream.h"
#include "obs/trace.h"

/// Build identifier stamped into every machine-readable bench row.  The
/// top-level CMakeLists.txt defines it from `git describe --always --dirty`;
/// this fallback keeps non-CMake consumers (IDE indexers, ad-hoc compiles)
/// working.
#ifndef FRONTIERS_BUILD_ID
#define FRONTIERS_BUILD_ID "unknown"
#endif

namespace frontiers::bench {

/// Schema tag on every emitted row; bump when the row shape changes.
inline constexpr const char kBenchSchema[] = "frontiers-bench-v1";

/// Process-wide sink for machine-readable bench rows.  Disabled unless the
/// environment variable FRONTIERS_BENCH_JSON names a directory, in which
/// case each row is appended as one JSON object per line (JSONL) to
/// `<dir>/BENCH_<experiment>.json`.  Append mode is deliberate: CI runs a
/// binary several times (trace on/off, different budgets) and wants all
/// rows in one file.  Single-threaded by design — experiment mains emit
/// rows from their own thread only.
class JsonSink {
 public:
  static JsonSink& Instance() {
    static JsonSink sink;
    return sink;
  }

  /// True when FRONTIERS_BENCH_JSON is set; rows will be written.
  bool enabled() const { return !dir_.empty(); }

  /// Experiment name used in rows and the output filename.  bench::Main
  /// sets it from argv[0]; "unknown" until then.
  void SetExperiment(std::string name) {
    if (!name.empty()) experiment_ = std::move(name);
  }
  const std::string& experiment() const { return experiment_; }

  /// Current table section, stamped into rows emitted after Section().
  void SetSection(std::string name) { section_ = std::move(name); }
  const std::string& section() const { return section_; }

  /// Appends one already-serialized JSON object as a line.  Opens the
  /// output file lazily so SetExperiment() can run first.
  void Append(const std::string& line) {
    if (!enabled()) return;
    if (out_ == nullptr) {
      std::string path = dir_ + "/BENCH_" + experiment_ + ".json";
      out_ = std::fopen(path.c_str(), "a");
      if (out_ == nullptr) {
        std::fprintf(stderr, "[bench-json] cannot open %s; disabling sink\n",
                     path.c_str());
        dir_.clear();
        return;
      }
    }
    std::fprintf(out_, "%s\n", line.c_str());
  }

  /// Flushes and closes the output file (idempotent).
  void Close() {
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

 private:
  JsonSink() {
    const char* dir = std::getenv("FRONTIERS_BENCH_JSON");
    if (dir != nullptr && *dir != '\0') dir_ = dir;
  }
  ~JsonSink() { Close(); }

  std::string dir_;
  std::string experiment_ = "unknown";
  std::string section_;
  std::FILE* out_ = nullptr;
};

/// Builder for one structured bench row.  Every row carries the schema tag,
/// experiment name, build id, and current section; callers add typed fields
/// into three sub-objects — `params` (the experiment configuration for the
/// row), `counters` (integral work measures), `seconds` (wall times) — plus
/// an optional budget-trip marker.  Emit() writes the row through JsonSink
/// and is a no-op when the sink is disabled, so instrumented experiments
/// cost nothing in normal terminal runs.
class JsonRow {
 public:
  JsonRow() = default;

  JsonRow& Param(std::string_view key, std::string_view value) {
    AppendField(params_, key, Quote(value));
    return *this;
  }
  JsonRow& Param(std::string_view key, double value) {
    AppendField(params_, key, Number(value));
    return *this;
  }
  JsonRow& Param(std::string_view key, uint64_t value) {
    AppendField(params_, key, Unsigned(value));
    return *this;
  }
  JsonRow& Counter(std::string_view key, uint64_t value) {
    AppendField(counters_, key, Unsigned(value));
    return *this;
  }
  JsonRow& Seconds(std::string_view key, double value) {
    AppendField(seconds_, key, Number(value));
    return *this;
  }
  /// Marks the row as budget-tripped; `reason` is a ChaseStopName() string
  /// such as "deadline".  Rows without a trip carry `"budget": null`.
  JsonRow& Budget(std::string_view reason) {
    budget_ = Quote(reason);
    return *this;
  }

  /// Serializes and appends the row (one line) to the sink.
  void Emit() {
    JsonSink& sink = JsonSink::Instance();
    if (!sink.enabled()) return;
    std::string line = "{\"schema\":\"";
    line += kBenchSchema;
    line += "\",\"experiment\":\"";
    line += obs::JsonEscape(sink.experiment());
    line += "\",\"build\":\"";
    line += obs::JsonEscape(FRONTIERS_BUILD_ID);
    line += "\",\"section\":\"";
    line += obs::JsonEscape(sink.section());
    line += "\",\"params\":{";
    line += params_;
    line += "},\"counters\":{";
    line += counters_;
    line += "},\"seconds\":{";
    line += seconds_;
    line += "},\"budget\":";
    line += budget_.empty() ? "null" : budget_;
    line += "}";
    sink.Append(line);
  }

 private:
  static std::string Quote(std::string_view value) {
    return "\"" + obs::JsonEscape(value) + "\"";
  }
  static std::string Number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
  }
  static std::string Unsigned(uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
  }
  static void AppendField(std::string& object, std::string_view key,
                          const std::string& rendered) {
    if (!object.empty()) object += ",";
    object += "\"" + obs::JsonEscape(key) + "\":" + rendered;
  }

  std::string params_;
  std::string counters_;
  std::string seconds_;
  std::string budget_;
};

/// Minimal fixed-width table printer shared by the experiment binaries.
/// Each experiment prints one or more tables in the style the paper's
/// claims would appear as evaluation tables.  When FRONTIERS_BENCH_JSON is
/// set, every AddRow() also emits a structured row (headers become param
/// keys), so all experiments produce machine-readable output with no
/// per-binary code.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    if (JsonSink::Instance().enabled()) {
      JsonRow row;
      for (size_t i = 0; i < cells.size() && i < headers_.size(); ++i) {
        row.Param(headers_[i], cells[i]);
      }
      row.Emit();
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : "";
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t w : widths) {
      std::printf("%s|", std::string(w + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Section(const std::string& title) {
  JsonSink::Instance().SetSection(title);
  std::printf("== %s ==\n\n", title.c_str());
}

inline std::string YesNo(bool b) { return b ? "yes" : "no"; }

/// True if `stop` means a resource budget ended the run, rather than the
/// experiment's own fixpoint/round logic.
inline bool BudgetTripped(ChaseStop stop) {
  return stop == ChaseStop::kDeadline || stop == ChaseStop::kByteBudget ||
         stop == ChaseStop::kCancelled || stop == ChaseStop::kAtomBudget ||
         stop == ChaseStop::kInjectedFault;
}

namespace internal {

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end == value ? fallback : parsed;
}

}  // namespace internal

/// Budget harness for the experiment binaries: applies a wall-clock and
/// byte budget (overridable via FRONTIERS_BENCH_DEADLINE_S and
/// FRONTIERS_BENCH_MAX_MB; 0 disables either) to every chase an experiment
/// runs, so a blown-up configuration degrades into a partial-but-valid
/// table instead of hanging CI or getting OOM-killed.  Budget-tripped rows
/// carry a `[budget: <reason>]` marker, a footer summarizes, and `Finish()`
/// always returns exit code 0: a partial table is a report, not a failure.
class BudgetGuard {
 public:
  BudgetGuard()
      : deadline_seconds_(
            internal::EnvDouble("FRONTIERS_BENCH_DEADLINE_S", 120.0)),
        max_bytes_(static_cast<size_t>(
            internal::EnvDouble("FRONTIERS_BENCH_MAX_MB", 2048.0) * 1024.0 *
            1024.0)) {}

  /// Installs the guard's budgets on top of the experiment's own options.
  ChaseOptions Apply(ChaseOptions options) const {
    if (deadline_seconds_ > 0) options.deadline_seconds = deadline_seconds_;
    if (max_bytes_ > 0) options.max_bytes = max_bytes_;
    return options;
  }

  /// Records whether `result` tripped a budget; returns a row marker like
  /// " [budget: deadline]" (empty when the run completed normally).
  std::string Note(const ChaseResult& result) {
    if (!BudgetTripped(result.stop)) return "";
    tripped_ = true;
    return std::string(" [budget: ") + ChaseStopName(result.stop) + "]";
  }

  bool tripped() const { return tripped_; }

  /// Prints the footer if anything tripped.  Always returns 0.
  int Finish() const {
    if (tripped_) {
      std::printf(
          "[budget] at least one run hit a resource budget "
          "(FRONTIERS_BENCH_DEADLINE_S=%gs, FRONTIERS_BENCH_MAX_MB=%zu); "
          "marked rows report a valid partial chase.\n",
          deadline_seconds_, max_bytes_ / (1024 * 1024));
    }
    return 0;
  }

 private:
  double deadline_seconds_;
  size_t max_bytes_;
  bool tripped_ = false;
};

/// Writes `text` to `path`, replacing any existing file.
inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  return std::fclose(out) == 0 && written;
}

/// argv[0] → experiment name: basename, minus a trailing ".exe" if any.
inline std::string ExperimentName(const char* argv0) {
  std::string_view name = argv0 == nullptr ? "" : argv0;
  size_t slash = name.find_last_of("/\\");
  if (slash != std::string_view::npos) name.remove_prefix(slash + 1);
  if (name.size() > 4 && name.substr(name.size() - 4) == ".exe") {
    name.remove_suffix(4);
  }
  return std::string(name);
}

/// Shared entry point for the experiment binaries:
///
///   int main(int argc, char** argv) {
///     return frontiers::bench::Main(argc, argv, frontiers::Run);
///   }
///
/// Names the JSON sink after the binary, honors `--trace=<file.json>` by
/// wrapping the whole run in an obs::TraceSession (tools/chase_report
/// renders its span profile), `--rounds=<file.jsonl>` by wrapping it in an
/// obs::RoundStreamSession (one row set per chase round boundary, also
/// rendered by tools/chase_report), and `--metrics=<file>` by dumping the
/// default metrics registry as JSON after the run.  Accepts both `void Run()` and `int Run()` experiment
/// bodies.  Telemetry write errors go to stderr but do not change the exit
/// code: a bench whose table printed fine should not fail CI because /tmp
/// filled up.
template <typename RunFn>
int Main(int argc, char** argv, RunFn run) {
  JsonSink::Instance().SetExperiment(ExperimentName(argc > 0 ? argv[0] : ""));
  const char* trace_path = nullptr;
  const char* rounds_path = nullptr;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) trace_path = argv[i] + 8;
    if (arg.rfind("--rounds=", 0) == 0) rounds_path = argv[i] + 9;
    if (arg.rfind("--metrics=", 0) == 0) metrics_path = argv[i] + 10;
  }
  if (trace_path != nullptr && *trace_path != '\0') {
    Status started = obs::TraceSession::Start(trace_path);
    if (!started.ok()) {
      std::fprintf(stderr, "[trace] %s\n", started.message().c_str());
      trace_path = nullptr;
    }
  } else {
    trace_path = nullptr;
  }
  if (rounds_path != nullptr && *rounds_path != '\0') {
    Status started = obs::RoundStreamSession::Start(rounds_path);
    if (!started.ok()) {
      std::fprintf(stderr, "[rounds] %s\n", started.message().c_str());
      rounds_path = nullptr;
    }
  } else {
    rounds_path = nullptr;
  }
  int code = 0;
  if constexpr (std::is_void_v<decltype(run())>) {
    run();
  } else {
    code = run();
  }
  if (metrics_path != nullptr && *metrics_path != '\0') {
    const std::string json = obs::DefaultRegistry().Snapshot().ToJson();
    if (WriteTextFile(metrics_path, json)) {
      std::printf("[metrics] wrote %s\n", metrics_path);
    } else {
      std::fprintf(stderr, "[metrics] cannot write %s\n", metrics_path);
    }
  }
  if (rounds_path != nullptr) {
    Status stopped = obs::RoundStreamSession::Stop();
    if (stopped.ok()) {
      std::printf("[rounds] wrote %s\n", rounds_path);
    } else {
      std::fprintf(stderr, "[rounds] %s\n", stopped.message().c_str());
    }
  }
  if (trace_path != nullptr) {
    Status stopped = obs::TraceSession::Stop();
    if (stopped.ok()) {
      std::printf("[trace] wrote %s\n", trace_path);
    } else {
      std::fprintf(stderr, "[trace] %s\n", stopped.message().c_str());
    }
  }
  JsonSink::Instance().Close();
  return code;
}

}  // namespace frontiers::bench

#endif  // FRONTIERS_BENCH_REPORT_H_
