// Renders a chase's telemetry for a human: either a `frontiers-rounds-v1`
// round stream (a run under --rounds=<file>) or a Chrome trace (a run
// under --trace=<file>), told apart by the file's content.
//
//   chase_report <file> [--check] [--budget=<bytes>] [--top=<n>]
//                [--min-coverage=<frac>] [--folded]
//
// Round stream.  For every run it prints the boundaries (atoms, ledger
// total and component breakdown), the stop, the top
// predicates by final-boundary bytes ("where the bytes live"), the growth
// rate over the closing rounds with — under --budget — the projected
// budget-exhaustion round, and the ledger-vs-RSS coverage: how much of the
// process's resident-size growth the ledger accounts for.  Coverage uses
// deltas between the first and last boundary, so the allocator/loader
// baseline cancels out; it is noisy on small runs and is only gated when
// --min-coverage is given explicitly.
//
// This is the stream's one checker.  --check turns every violation into
// exit code 1: a meta row without a non-negative page_bytes; a row that is
// not JSON, has an unknown kind, or misses a field; a negative number; run
// ids that decrease; rounds that do not strictly increase within a run;
// component rows that do not sum to their round row's total_bytes or are
// left without one; a peak_bytes below total_bytes; a diag row that does
// not follow its round row, repeats, or has an ETA that is missing or
// exceeds the remaining deadline while a deadline is active; any row of a
// run after its stop row.  Without --check the same findings print as
// warnings and the exit code stays 0.
//
// Trace.  It prints the span profile obs::ReadTraceProfile rebuilds: count,
// inclusive wall and self time per stack path, threads merged, heaviest
// first — or, with --folded, the folded-stack form flamegraph.pl and
// speedscope read.  A file that reads as neither format exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace frontiers {
namespace {

constexpr const char kRoundsSchema[] = "frontiers-rounds-v1";

// Every row kind and the numeric fields it must carry.  Any number in any
// row must be non-negative.
const std::map<std::string, std::vector<const char*>> kFields = {
    {"meta", {"page_bytes"}},
    {"component", {"run", "round", "bytes"}},
    {"round",
     {"run", "round", "atoms", "total_bytes", "peak_bytes", "live_bytes",
      "matches", "staged", "committed", "preempted", "deduped",
      "atoms_inserted"}},
    {"diag",
     {"run", "round", "rss_bytes", "scratch_bytes", "elapsed_seconds",
      "atoms_per_sec"}},
    {"stop", {"run", "round"}},
};

struct Options {
  bool check = false;
  bool folded = false;
  double budget = 0;
  size_t top_n = 10;
  double min_coverage = 0;
};

// One round boundary of a run, as its rows describe it.
struct Boundary {
  double round = 0;
  double atoms = 0;
  double total = 0;
  double peak = 0;
  double rss = 0;
  double scratch = 0;
  bool diag = false;  // its diag row has been read
  // component -> bytes (predicate rows folded in), and the per-predicate
  // attributions for the top-predicates table.
  std::map<std::string, double> components;
  std::map<std::pair<std::string, std::string>, double> predicates;
};

struct Run {
  double id = 0;
  std::vector<Boundary> boundaries;  // stream order
  std::string stop;                  // empty until the stop row
  double stop_round = 0;
};

std::string Human(double bytes) {
  char buffer[32];
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  std::snprintf(buffer, sizeof(buffer), unit == 0 ? "%.0f %s" : "%.1f %s",
                bytes, units[unit]);
  return buffer;
}

std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  return buffer;
}

// True if the first line of `text` is a frontiers-rounds-v1 meta row.
bool IsRoundStream(const std::string& text) {
  Result<obs::JsonValue> first = obs::ParseJson(text.substr(0, text.find('\n')));
  if (!first.ok() || !first.value().IsObject()) return false;
  const obs::JsonValue* schema = first.value().Find("schema");
  return schema != nullptr && schema->IsString() &&
         schema->string == kRoundsSchema;
}

// Prints one run's report.  Returns the --min-coverage finding, if any.
std::string PrintRun(const Run& run, const Options& options) {
  std::printf("== run %s: %zu round boundar%s ==\n", Num(run.id).c_str(),
              run.boundaries.size(),
              run.boundaries.size() == 1 ? "y" : "ies");
  const Boundary& first = run.boundaries.front();
  const Boundary& last = run.boundaries.back();

  // Boundaries, with the component breakdown of the final one's columns.
  std::printf("%8s %10s %10s", "round", "atoms", "total");
  for (const auto& [component, bytes] : last.components) {
    std::printf(" %12s", component.c_str());
  }
  std::printf(" %10s\n", "scratch");
  for (const Boundary& b : run.boundaries) {
    std::printf("%8.0f %10.0f %10s", b.round, b.atoms,
                Human(b.total).c_str());
    for (const auto& [component, unused] : last.components) {
      auto it = b.components.find(component);
      std::printf(" %12s",
                  Human(it == b.components.end() ? 0 : it->second).c_str());
    }
    std::printf(" %10s\n", Human(b.scratch).c_str());
  }
  std::printf("peak %s\n", Human(last.peak).c_str());
  if (!run.stop.empty()) {
    std::printf("stop %s after %.0f complete round(s)\n", run.stop.c_str(),
                run.stop_round);
  }

  // Where the bytes live: top predicates at the final boundary.
  std::vector<std::pair<double, std::pair<std::string, std::string>>> preds;
  for (const auto& [key, bytes] : last.predicates) preds.push_back({bytes, key});
  std::sort(preds.rbegin(), preds.rend());
  if (!preds.empty()) {
    std::printf("top predicates (final boundary):\n");
    for (size_t i = 0; i < preds.size() && i < options.top_n; ++i) {
      std::printf("  %-20s %-12s %10s (%.1f%%)\n",
                  preds[i].second.second.c_str(),
                  preds[i].second.first.c_str(), Human(preds[i].first).c_str(),
                  last.total > 0 ? 100.0 * preds[i].first / last.total : 0);
    }
  }

  // Growth rate over the closing rounds (up to the last 5 boundaries), and
  // the projected budget-exhaustion round under --budget.
  if (run.boundaries.size() >= 2) {
    const Boundary& from =
        run.boundaries[run.boundaries.size() - std::min<size_t>(
                                                   5, run.boundaries.size())];
    const double span = last.round - from.round;
    const double growth = span > 0 ? (last.total - from.total) / span : 0;
    std::printf("growth %s/round over the last %.0f round(s)\n",
                Human(growth).c_str(), span);
    if (options.budget > 0) {
      if (last.total >= options.budget) {
        std::printf("budget %s already exceeded at round %.0f\n",
                    Human(options.budget).c_str(), last.round);
      } else if (growth > 0) {
        std::printf("budget %s projected exhausted at round %.0f\n",
                    Human(options.budget).c_str(),
                    last.round + (options.budget - last.total) / growth);
      } else {
        std::printf("budget %s never exhausted at current growth\n",
                    Human(options.budget).c_str());
      }
    }
  }

  // Coverage: how much of the RSS growth between the first and last
  // boundary the ledger (tracked total + scratch) explains.
  std::string finding;
  const double ledger_delta =
      (last.total + last.scratch) - (first.total + first.scratch);
  const double rss_delta = last.rss - first.rss;
  if (rss_delta > 0) {
    const double coverage = ledger_delta / rss_delta;
    std::printf("coverage: ledger explains %.1f%% of the %s RSS growth\n",
                100.0 * coverage, Human(rss_delta).c_str());
    if (options.min_coverage > 0 && coverage < options.min_coverage) {
      finding = "run " + Num(run.id) + ": coverage " +
                std::to_string(coverage) + " below the --min-coverage gate " +
                std::to_string(options.min_coverage);
    }
  } else {
    std::printf("coverage: no RSS growth between boundaries%s\n",
                last.rss == 0 ? " (rss unavailable)" : "");
  }
  std::printf("\n");
  return finding;
}

int ReportRounds(const std::string& path, const std::string& text,
                 const Options& options) {
  std::vector<Run> runs;
  // Component rows not yet claimed by a round row, keyed by (run, round).
  std::map<std::pair<double, double>, Boundary> pending;
  size_t line_no = 0;
  int violations = 0;
  auto violation = [&](const std::string& what) {
    if (line_no > 0) {
      std::fprintf(stderr, "chase_report: %s:%zu: %s\n", path.c_str(),
                   line_no, what.c_str());
    } else {
      std::fprintf(stderr, "chase_report: %s: %s\n", path.c_str(),
                   what.c_str());
    }
    ++violations;
  };
  std::istringstream in(text);
  std::string line;
  size_t round_rows = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    if (!parsed.ok()) {
      violation(parsed.message());
      continue;
    }
    const obs::JsonValue& row = parsed.value();
    const obs::JsonValue* kind = row.IsObject() ? row.Find("kind") : nullptr;
    if (kind == nullptr || !kind->IsString()) {
      violation("row without a kind");
      continue;
    }
    const auto fields = kFields.find(kind->string);
    if (fields == kFields.end()) {
      violation("unexpected kind '" + kind->string + "'");
      continue;
    }
    if ((line_no == 1) != (kind->string == "meta")) {
      violation("the meta row must come first and only there");
      continue;
    }
    std::string bad;
    for (const char* key : fields->second) {
      const obs::JsonValue* value = row.Find(key);
      if (value == nullptr || !value->IsNumber()) bad = key;
    }
    for (const auto& [key, value] : row.object) {
      if (value.IsNumber() && value.number < 0) bad = key;
    }
    if (!bad.empty()) {
      violation(kind->string + " row needs a non-negative number '" + bad +
                "'");
      continue;
    }
    auto num = [&row](const char* key) { return row.Find(key)->number; };
    if (kind->string == "meta") continue;
    const double run = num("run"), round = num("round");
    Run* current = runs.empty() ? nullptr : &runs.back();
    const bool same_run = current != nullptr && current->id == run;
    if (same_run && !current->stop.empty()) {
      violation(kind->string + " row after the stop row of run " + Num(run));
      continue;
    }
    if (kind->string == "component") {
      const obs::JsonValue* component = row.Find("component");
      const obs::JsonValue* predicate = row.Find("predicate");
      if (component == nullptr || !component->IsString() ||
          component->string.empty() || predicate == nullptr ||
          !predicate->IsString()) {
        violation("component row needs a non-empty component name and a "
                  "string predicate (may be empty)");
        continue;
      }
      Boundary& b = pending[{run, round}];
      b.components[component->string] += num("bytes");
      if (!predicate->string.empty()) {
        b.predicates[{component->string, predicate->string}] +=
            num("bytes");
      }
    } else if (kind->string == "round") {
      ++round_rows;
      if (!same_run) {
        if (current != nullptr && run < current->id) {
          violation("run ids go backwards");
        }
        runs.push_back({run, {}, {}, 0});
        current = &runs.back();
      } else if (round <= current->boundaries.back().round) {
        violation("rounds not strictly increasing within run");
      }
      Boundary b;
      auto it = pending.find({run, round});
      if (it != pending.end()) {
        b = std::move(it->second);
        pending.erase(it);
      }
      b.round = round;
      b.atoms = num("atoms");
      b.total = num("total_bytes");
      b.peak = num("peak_bytes");
      if (b.peak < b.total) violation("peak_bytes below total_bytes");
      double sum = 0;
      for (const auto& [component, bytes] : b.components) sum += bytes;
      if (sum != b.total) {
        violation("component rows sum to " + Num(sum) +
                  " but total_bytes is " + Num(b.total));
      }
      current->boundaries.push_back(std::move(b));
    } else if (kind->string == "diag") {
      if (!same_run || current->boundaries.back().round != round) {
        violation("diag row does not follow its round row");
        continue;
      }
      if (current->boundaries.back().diag) {
        violation("second diag row for round " + Num(round));
        continue;
      }
      current->boundaries.back().diag = true;
      current->boundaries.back().rss = num("rss_bytes");
      current->boundaries.back().scratch = num("scratch_bytes");
      const obs::JsonValue* left = row.Find("budget_remaining_seconds");
      const obs::JsonValue* eta = row.Find("eta_seconds");
      if (left == nullptr || eta == nullptr ||
          !(left->IsNull() || left->IsNumber()) ||
          !(eta->IsNull() || eta->IsNumber())) {
        violation("budget_remaining_seconds and eta_seconds must be null or "
                  "numbers");
      } else if (left->IsNumber()) {
        // The ETA is the minimum over every active budget, the remaining
        // deadline among them, and both print from the same clock reading
        // at the same precision: a deadline always yields an ETA no later
        // than itself.
        if (!eta->IsNumber()) {
          violation("eta_seconds is null while a deadline is active");
        } else if (eta->number > left->number) {
          violation("eta_seconds exceeds budget_remaining_seconds");
        }
      }
    } else if (kind->string == "stop") {
      const obs::JsonValue* stop = row.Find("stop");
      if (stop == nullptr || !stop->IsString() || stop->string.empty()) {
        violation("stop row needs a non-empty stop name");
      } else if (!same_run) {
        violation("stop row without a round row of its run");
      } else {
        current->stop = stop->string;
        current->stop_round = round;
      }
    }
  }
  line_no = 0;  // the findings below are stream-level, not line-level
  if (!pending.empty()) {
    violation(std::to_string(pending.size()) +
              " (run, round) group(s) of component rows have no round row");
  }
  if (round_rows == 0) violation("no round rows in stream");
  for (const Run& run : runs) {
    if (std::string finding = PrintRun(run, options); !finding.empty()) {
      violation(finding);
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "chase_report: %d finding(s)%s\n", violations,
                 options.check ? "" : " (advisory; pass --check to gate)");
    return options.check ? 1 : 0;
  }
  return 0;
}

int ReportTrace(const std::string& path, const std::string& text,
                const Options& options) {
  Result<obs::TraceProfile> profile = obs::ReadTraceProfile(text);
  if (!profile.ok()) {
    std::fprintf(stderr,
                 "chase_report: %s: neither a %s stream nor a Chrome trace "
                 "(%s)\n",
                 path.c_str(), kRoundsSchema, profile.message().c_str());
    return 1;
  }
  const std::string out =
      options.folded ? profile.value().ToFolded() : profile.value().ToString();
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: chase_report <rounds.jsonl | trace.json> [--check] "
               "[--budget=<bytes>] [--top=<n>] [--min-coverage=<frac>] "
               "[--folded]\n");
  return 2;
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) {
  const char* path = nullptr;
  frontiers::Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      options.check = true;
    } else if (std::strcmp(argv[i], "--folded") == 0) {
      options.folded = true;
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      options.budget = std::atof(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--top=", 6) == 0) {
      options.top_n = static_cast<size_t>(std::atoi(argv[i] + 6));
    } else if (std::strncmp(argv[i], "--min-coverage=", 15) == 0) {
      options.min_coverage = std::atof(argv[i] + 15);
    } else if (argv[i][0] == '-' || path != nullptr) {
      return frontiers::Usage();
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) return frontiers::Usage();
  std::string text;
  if (!frontiers::obs::ReadFile(path, &text)) {
    std::fprintf(stderr, "chase_report: cannot read %s\n", path);
    return 1;
  }
  if (!frontiers::IsRoundStream(text)) {
    return frontiers::ReportTrace(path, text, options);
  }
  if (options.folded) {
    std::fprintf(stderr, "chase_report: --folded needs a trace, not a %s "
                         "stream\n", frontiers::kRoundsSchema);
    return 2;
  }
  return frontiers::ReportRounds(path, text, options);
}
