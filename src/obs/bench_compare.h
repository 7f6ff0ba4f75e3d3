#ifndef FRONTIERS_OBS_BENCH_COMPARE_H_
#define FRONTIERS_OBS_BENCH_COMPARE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace frontiers::obs {

/// One `frontiers-bench-v1` row, parsed back from the JSONL a bench binary
/// emitted (bench/report.h is the writing half).  Only the fields the
/// regression pipeline joins and compares on are kept.
struct BenchRow {
  std::string experiment;
  std::string section;
  std::map<std::string, std::string> params;  // values re-rendered as text
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> seconds;

  /// Stable join key: experiment, section, and every param (sorted), so the
  /// "same" measurement in two runs lands on the same key regardless of row
  /// order in the files.  Timing fields deliberately excluded.
  std::string Key() const;
};

/// Parses JSONL text (one `frontiers-bench-v1` object per line) into rows.
/// `source` names the input in error messages.  Blank lines are skipped;
/// a malformed line or a wrong/missing schema tag is an error, not a skip —
/// a truncated bench file should fail the pipeline loudly.
Result<std::vector<BenchRow>> ParseBenchRows(std::string_view text,
                                             std::string_view source);

/// Knobs for CompareBench.
struct BenchCompareOptions {
  /// A head metric more than `threshold` fraction slower than base is a
  /// regression (0.10 = 10% slower).  Symmetrically for improvements.
  double threshold = 0.10;
  /// Metrics under this many seconds in *both* runs are never classified
  /// as regressions/improvements: they are timer noise at any ratio.  The
  /// default is 1µs, not 1ms: micro-bench rows carry *per-iteration* times
  /// (averaged over thousands of iterations by google-benchmark), so
  /// sub-millisecond values are meaningful there.
  double min_seconds = 1e-6;
  /// Metrics whose name contains one of these substrings are always
  /// classified as stable — present in the report, never a gate.  `rss`
  /// covers the sampled `rss_bytes` figures benches may report alongside
  /// the deterministic ledger totals: resident size depends on the
  /// allocator's page reuse and the machine, so it is informative but
  /// never a gate (the deterministic `mem_*` counters are what a memory
  /// regression shows up in).
  std::vector<std::string> diagnostic_metrics = {"rss"};
};

/// One joined (row, seconds-metric) pair with both measurements.
struct BenchDelta {
  std::string key;     ///< BenchRow::Key() of the joined row
  std::string metric;  ///< name inside the row's `seconds` object
  double base_seconds = 0.0;
  double head_seconds = 0.0;
  /// head/base; > 1 means head is slower.  +inf when base is 0.
  double ratio = 0.0;
};

/// Outcome of comparing two bench runs.
struct BenchCompareReport {
  std::vector<BenchDelta> regressions;   ///< slower beyond the threshold
  std::vector<BenchDelta> improvements;  ///< faster beyond the threshold
  std::vector<BenchDelta> stable;        ///< within threshold (or sub-noise)
  std::vector<std::string> only_base;    ///< keys with no head counterpart
  std::vector<std::string> only_head;    ///< keys with no base counterpart

  bool HasRegressions() const { return !regressions.empty(); }

  /// Human-readable summary; names every regressed row and metric.
  std::string ToString() const;
};

/// Joins `base` and `head` rows by BenchRow::Key() and compares their
/// `seconds` metrics.  Duplicate (key, metric) measurements — e.g. CI
/// running a binary several times into one file — are aggregated by *min*,
/// the standard noise-robust choice for timing.  Rows without any seconds
/// metric (such as Table auto-rows, whose cells are all params) join
/// nothing and are ignored.  Counters are not compared: work counts are
/// asserted by tests, not thresholds.
BenchCompareReport CompareBench(const std::vector<BenchRow>& base,
                                const std::vector<BenchRow>& head,
                                const BenchCompareOptions& options = {});

}  // namespace frontiers::obs

#endif  // FRONTIERS_OBS_BENCH_COMPARE_H_
