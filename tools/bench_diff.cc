// Bench-regression gate used by CI (and handy locally): compares two runs'
// machine-readable bench output (frontiers-bench-v1 JSONL, as written under
// FRONTIERS_BENCH_JSON) and fails when head is slower than base beyond a
// noise threshold.
//
//   bench_diff [--threshold=0.10] [--min-seconds=1e-3] <base> <head>
//
// <base> and <head> are directories (every BENCH_*.json inside is loaded)
// or individual JSONL files.  Rows are joined by experiment/section/params;
// only `seconds` metrics are compared, duplicates aggregate by min (see
// src/obs/bench_compare.h).  Exit codes: 0 = no regressions, 1 = at least
// one regression (each is named on stdout), 2 = usage or unreadable/
// malformed input.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/bench_compare.h"
#include "obs/json.h"

namespace frontiers {
namespace {

namespace fs = std::filesystem;

// All bench JSONL files under `path`: the file itself, or every
// BENCH_*.json directly inside a directory (sorted, for stable errors).
bool CollectInputs(const std::string& path, std::vector<std::string>* files) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json") {
        files->push_back(entry.path().string());
      }
    }
    std::sort(files->begin(), files->end());
    return !ec;
  }
  if (fs::is_regular_file(path, ec)) {
    files->push_back(path);
    return true;
  }
  return false;
}

int LoadRows(const std::string& path, std::vector<obs::BenchRow>* rows) {
  std::vector<std::string> files;
  if (!CollectInputs(path, &files)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json files under %s\n",
                 path.c_str());
    return 2;
  }
  for (const std::string& file : files) {
    std::string text;
    if (!obs::ReadFile(file, &text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", file.c_str());
      return 2;
    }
    Result<std::vector<obs::BenchRow>> parsed =
        obs::ParseBenchRows(text, file);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_diff: %s\n", parsed.message().c_str());
      return 2;
    }
    rows->insert(rows->end(), parsed.value().begin(), parsed.value().end());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold=0.10] [--min-seconds=1e-3] "
               "<base-dir-or-file> <head-dir-or-file>\n");
  return 2;
}

int Run(int argc, char** argv) {
  obs::BenchCompareOptions options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threshold=", 12) == 0) {
      char* end = nullptr;
      options.threshold = std::strtod(arg + 12, &end);
      if (end == arg + 12 || options.threshold < 0) return Usage();
    } else if (std::strncmp(arg, "--min-seconds=", 14) == 0) {
      char* end = nullptr;
      options.min_seconds = std::strtod(arg + 14, &end);
      if (end == arg + 14 || options.min_seconds < 0) return Usage();
    } else if (arg[0] == '-') {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage();

  std::vector<obs::BenchRow> base, head;
  if (int code = LoadRows(positional[0], &base); code != 0) return code;
  if (int code = LoadRows(positional[1], &head); code != 0) return code;

  const obs::BenchCompareReport report =
      obs::CompareBench(base, head, options);
  std::fputs(report.ToString().c_str(), stdout);
  if (report.HasRegressions()) {
    std::printf(
        "bench_diff: FAIL — head is >%g%% slower than base on the row(s) "
        "above\n",
        options.threshold * 100.0);
    return 1;
  }
  std::printf("bench_diff: ok\n");
  return 0;
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) { return frontiers::Run(argc, argv); }
