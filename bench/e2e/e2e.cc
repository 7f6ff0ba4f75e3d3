// frontiers_e2e: the end-to-end query-answering benchmark (README.md).
//
//   frontiers_e2e --workload=<name> [--seed=N] [--seconds=S] [--passes=P]
//                 [--tasks=N] [--trace=0|1] [--spans=FILE]
//
// A task parses a theory, an instance and a batch of CQs from DSL text into
// a fresh Vocabulary (the rewriter interns fresh variables, so a reused one
// grows without bound) and computes their certain answers along the
// workload's route.  The timed phase makes passes over all tasks, each in a
// seeded shuffled order, until the next pass would overrun --seconds (at
// least --passes passes); a task's time is its best pass.  In the first
// pass every task is cross-checked against the other route (the oracle,
// untimed).  The last line of stdout is one JSON object: end-to-end metrics
// with --trace=0, per-layer metrics with --trace=1.  Exit code 0 iff a
// result was printed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "hom/query_ops.h"
#include "rewriting/rewriter.h"
#include "rewriting/ucq.h"
#include "testing/rng.h"
#include "tgd/parser.h"
#include "workloads.h"

namespace frontiers::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Per-task guards: a bad seed becomes a counted failure, not a hang or an
// out-of-memory kill.
constexpr size_t kMaxAtoms = 2'000'000;
constexpr double kDeadlineSeconds = 60.0;
constexpr size_t kMaxBytes = size_t{1} << 30;
constexpr size_t kMaxRewritingQueries = 150;
constexpr size_t kMaxAtomsPerRewriting = 12;
// Caps the pass count of very long runs; the timed phase normally ends on
// --seconds well before this.
constexpr uint32_t kMaxPasses = 1000;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  uint32_t passes = 3;
  uint32_t tasks = kDefaultTasks;
  bool trace = false;
  std::string spans_path;
};

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around its calls into each layer, kept
// in memory, written as JSONL at exit.

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the span list, -1 for a root
  uint32_t task;
  uint32_t pass;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void Open(const char* name, uint32_t task, uint32_t pass) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int32_t>(spans_.size()));
    spans_.push_back({name, NowNs(), 0, parent, task, pass});
  }
  void Close() {
    spans_[stack_.back()].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

// Where the current task's spans go: nowhere on untraced passes.
struct SpanSink {
  Tracer* tracer = nullptr;
  uint32_t task = 0;
  uint32_t pass = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(const SpanSink& sink, const char* name) : tracer_(sink.tracer) {
    if (tracer_ != nullptr) tracer_->Open(name, sink.task, sink.pass);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Layer counters, taken from the public return values of each call.

struct LayerCounts {
  uint64_t facts_parsed = 0;
  uint64_t chase_runs = 0;
  uint64_t chase_fixpoints = 0;
  uint64_t matches = 0;
  uint64_t staged = 0;
  uint64_t deduped = 0;
  uint64_t atoms_inserted = 0;
  double match_s = 0.0;
  double commit_s = 0.0;
  double commit_expand_s = 0.0;
  double commit_dedup_s = 0.0;
  double commit_index_s = 0.0;
  uint64_t content_bytes_max = 0;
  uint64_t peak_bytes_max = 0;
  uint64_t hom_answers = 0;
  uint64_t rewrites = 0;
  uint64_t rewrites_converged = 0;
  uint64_t candidates = 0;
  uint64_t disjuncts = 0;
  uint64_t iterations = 0;
  uint64_t max_disjunct_atoms = 0;

  void AddChase(const ChaseResult& result) {
    const ChaseStats& stats = result.stats;
    ++chase_runs;
    if (result.Terminated()) ++chase_fixpoints;
    matches += stats.TotalMatches();
    staged += stats.TotalStaged();
    deduped += stats.TotalDeduped();
    atoms_inserted += stats.TotalInserted();
    match_s += stats.MatchSeconds();
    commit_s += stats.CommitSeconds();
    commit_expand_s += stats.CommitExpandSeconds();
    commit_dedup_s += stats.CommitDedupSeconds();
    commit_index_s += stats.CommitIndexSeconds();
    content_bytes_max = std::max<uint64_t>(content_bytes_max,
                                           result.approx_bytes);
    peak_bytes_max = std::max<uint64_t>(peak_bytes_max, result.peak_bytes);
  }
  void AddRewriting(const RewritingResult& result) {
    ++rewrites;
    if (result.status == RewritingStatus::kConverged) ++rewrites_converged;
    candidates += result.candidates_generated;
    disjuncts += result.queries.size();
    iterations += result.iterations;
    max_disjunct_atoms =
        std::max<uint64_t>(max_disjunct_atoms, result.MaxDisjunctSize());
  }
};

// ---------------------------------------------------------------------------
// Routes.

using Tuple = std::vector<TermId>;

struct RouteAnswers {
  // Per CQ: sorted all-constant answer tuples.
  std::vector<std::vector<Tuple>> answers;
  // Per CQ: true when the answers are exactly the certain answers (the
  // chase reached a fixpoint / the rewriting converged); otherwise they
  // are a sound subset.
  std::vector<bool> complete;
  // Non-empty when a guard stopped the route.
  std::string failure;
};

struct ParsedTask {
  Theory theory;
  FactSet facts;
  std::vector<ConjunctiveQuery> queries;
};

ChaseOptions GuardedChaseOptions(uint32_t max_rounds) {
  ChaseOptions options;
  options.threads = 1;
  options.max_rounds = max_rounds;
  options.max_atoms = kMaxAtoms;
  options.deadline_seconds = kDeadlineSeconds;
  options.max_bytes = kMaxBytes;
  return options;
}

RewritingOptions GuardedRewritingOptions() {
  RewritingOptions options;
  options.max_queries = kMaxRewritingQueries;
  options.max_atoms_per_query = kMaxAtomsPerRewriting;
  return options;
}

// `result` receives the chase so that freeing it happens after the task's
// clock stops: a task ends when its answers exist.
RouteAnswers ChaseRoute(const Vocabulary& vocab, const ChaseEngine& engine,
                        const ParsedTask& task, uint32_t max_rounds,
                        const SpanSink& sink, LayerCounts* counts,
                        ChaseResult* result_out) {
  RouteAnswers out;
  ChaseResult& result = *result_out;
  {
    ScopedSpan span(sink, "chase.run");
    result = engine.Run(task.facts, GuardedChaseOptions(max_rounds));
  }
  counts->AddChase(result);
  switch (result.stop) {
    case ChaseStop::kFixpoint:
    case ChaseStop::kRoundBudget:
    case ChaseStop::kAtomBudget:
      break;
    default:
      out.failure = std::string("chase stopped: ") +
                    ChaseStopName(result.stop);
      return out;
  }
  for (const ConjunctiveQuery& query : task.queries) {
    std::vector<Tuple> tuples;
    {
      ScopedSpan span(sink, "hom.eval");
      tuples = EvaluateQuery(vocab, query, result.facts);
    }
    counts->hom_answers += tuples.size();
    std::erase_if(tuples, [&vocab](const Tuple& tuple) {
      return std::any_of(tuple.begin(), tuple.end(), [&vocab](TermId t) {
        return !vocab.IsConstant(t);
      });
    });
    out.answers.push_back(std::move(tuples));
    out.complete.push_back(result.Terminated());
  }
  return out;
}

RouteAnswers RewriteRoute(const Vocabulary& vocab, const Rewriter& rewriter,
                          const ParsedTask& task,
                          const RewritingOptions& options,
                          const SpanSink& sink, LayerCounts* counts) {
  RouteAnswers out;
  for (const ConjunctiveQuery& query : task.queries) {
    RewritingResult rewriting;
    {
      ScopedSpan span(sink, "rewriting.rewrite");
      rewriting = rewriter.Rewrite(query, options);
    }
    counts->AddRewriting(rewriting);
    const bool converged = rewriting.status == RewritingStatus::kConverged;
    Ucq ucq;
    ucq.disjuncts = std::move(rewriting.queries);
    {
      ScopedSpan span(sink, "rewriting.ucq_eval");
      out.answers.push_back(EvaluateUcq(vocab, ucq, task.facts));
    }
    out.complete.push_back(converged);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: Theorem 1 says both routes compute the certain answers; when only
// one side is complete, the other must be a subset of it (both are sound).

bool IsSubset(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

struct OracleVerdict {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

// Cross-checks one task's answers per CQ; returns a description of the first
// disagreement, or "" when the routes agree.
std::string CrossCheck(const RouteAnswers& chase, const RouteAnswers& rewrite,
                       OracleVerdict* verdict) {
  std::string first;
  for (size_t q = 0; q < chase.answers.size(); ++q) {
    const bool chase_complete = chase.complete[q];
    const bool rewrite_complete = rewrite.complete[q];
    const std::vector<Tuple>& c = chase.answers[q];
    const std::vector<Tuple>& r = rewrite.answers[q];
    bool ok = true;
    if (chase_complete && rewrite_complete) {
      ok = c == r;
    } else if (rewrite_complete) {
      ok = IsSubset(c, r);
    } else if (chase_complete) {
      ok = IsSubset(r, c);
    } else {
      continue;
    }
    ++verdict->checked;
    if (ok) continue;
    ++verdict->mismatches;
    if (first.empty()) {
      first = "CQ " + std::to_string(q) + ": chase " +
              std::to_string(c.size()) + " answers (" +
              (chase_complete ? "fixpoint" : "partial") + "), rewriting " +
              std::to_string(r.size()) + " (" +
              (rewrite_complete ? "converged" : "partial") + ")";
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Answer digest: FNV-1a over the answers rendered as constant names, sorted,
// so it depends on the answers only, not on TermId assignment.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void Fnv(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001b3ull;
  }
}

void FnvU64(uint64_t* h, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof bytes);
  Fnv(h, std::string_view(bytes, sizeof bytes));
}

struct Digest {
  uint64_t answers = 0;
  uint64_t hash = kFnvOffset;
  bool operator==(const Digest&) const = default;
};

Digest AnswerDigest(const Vocabulary& vocab, const RouteAnswers& route) {
  Digest d;
  for (size_t q = 0; q < route.answers.size(); ++q) {
    std::vector<std::string> rendered;
    for (const Tuple& tuple : route.answers[q]) {
      std::string row;
      for (TermId t : tuple) {
        row += vocab.TermName(t);
        row += '\0';
      }
      rendered.push_back(std::move(row));
    }
    std::sort(rendered.begin(), rendered.end());
    FnvU64(&d.hash, q);
    FnvU64(&d.hash, rendered.size());
    for (const std::string& row : rendered) Fnv(&d.hash, row);
    d.answers += rendered.size();
  }
  return d;
}

// ---------------------------------------------------------------------------
// One task execution.

struct TaskRun {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double oracle_s = 0.0;
  Digest digest;
  std::string failure;
};

TaskRun RunTask(const Workload& workload, const TaskText& text,
                const SpanSink& sink, bool oracle, LayerCounts* counts,
                LayerCounts* oracle_counts, OracleVerdict* verdict) {
  TaskRun run;
  Vocabulary vocab;
  ParsedTask task;
  std::optional<ChaseEngine> engine;
  std::optional<Rewriter> rewriter;
  ChaseResult chase;
  RouteAnswers answers;

  const Clock::time_point start = Clock::now();
  {
    ScopedSpan task_span(sink, "task");
    {
      ScopedSpan span(sink, "setup.parse_theory");
      Result<Theory> theory = ParseTheory(vocab, text.theory);
      if (!theory.ok()) run.failure = "theory: " + theory.message();
      else task.theory = std::move(theory).value();
    }
    if (run.failure.empty()) {
      ScopedSpan span(sink, "setup.parse_facts");
      Result<FactSet> facts = ParseFacts(vocab, text.facts);
      if (!facts.ok()) run.failure = "facts: " + facts.message();
      else task.facts = std::move(facts).value();
    }
    if (run.failure.empty()) {
      ScopedSpan span(sink, "setup.parse_query");
      for (const std::string& q : text.queries) {
        Result<ConjunctiveQuery> query = ParseQuery(vocab, q);
        if (!query.ok()) {
          run.failure = "query: " + query.message();
          break;
        }
        task.queries.push_back(std::move(query).value());
      }
    }
    if (run.failure.empty()) {
      ScopedSpan span(sink, "setup.engine");
      if (workload.route == Route::kChase) {
        engine.emplace(vocab, task.theory);
      } else {
        rewriter.emplace(vocab, task.theory);
      }
    }
    run.setup_s = Seconds(start, Clock::now());
    if (run.failure.empty()) {
      counts->facts_parsed += task.facts.size();
      answers = workload.route == Route::kChase
                    ? ChaseRoute(vocab, *engine, task, workload.max_rounds,
                                 sink, counts, &chase)
                    : RewriteRoute(vocab, *rewriter, task,
                                   GuardedRewritingOptions(), sink, counts);
      run.failure = answers.failure;
    }
  }
  run.wall_s = Seconds(start, Clock::now());
  if (!run.failure.empty()) return run;

  run.digest = AnswerDigest(vocab, answers);
  if (oracle) {
    const Clock::time_point oracle_start = Clock::now();
    ScopedSpan span(sink, "oracle");
    std::string mismatch;
    if (workload.route == Route::kChase) {
      // Small budgets keep the oracle cheap on theories whose rewritings
      // do not converge (a probe spent 100 s on datalog-chase's): a
      // rewriting that converges under them is the same one the full
      // budgets give, and a partial one is still checked for soundness.
      Rewriter other(vocab, task.theory);
      mismatch = CrossCheck(
          answers,
          RewriteRoute(vocab, other, task, SmallRewritingBudget(), sink,
                       oracle_counts),
          verdict);
    } else {
      ChaseEngine other(vocab, task.theory);
      const RouteAnswers chased = ChaseRoute(vocab, other, task,
                                             workload.max_rounds, sink,
                                             oracle_counts, &chase);
      if (chased.failure.empty()) {
        mismatch = CrossCheck(chased, answers, verdict);
      } else {
        run.failure = "oracle " + chased.failure;
      }
    }
    if (!mismatch.empty()) run.failure = "oracle mismatch: " + mismatch;
    run.oracle_s = Seconds(oracle_start, Clock::now());
  }
  return run;
}

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Command line.

bool ParseUint(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage: frontiers_e2e --workload=<name> [--seed=N] "
               "[--seconds=S] [--passes=P] [--tasks=N] [--trace=0|1] "
               "[--spans=FILE]\nworkloads: %s\n",
               WorkloadNames().c_str());
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") return std::nullopt;
    arg.remove_prefix(2);
    std::string_view key = arg;
    std::string_view value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    uint64_t n = 0;
    if (key == "workload") {
      options.workload = FindWorkload(value);
      if (options.workload == nullptr) return std::nullopt;
    } else if (key == "seed" && ParseUint(value, &n)) {
      options.seed = n;
    } else if (key == "seconds" && ParseUint(value, &n) && n <= 3600) {
      options.seconds = static_cast<double>(n);
    } else if (key == "passes" && ParseUint(value, &n) && n >= 1 &&
               n <= kMaxPasses) {
      options.passes = static_cast<uint32_t>(n);
    } else if (key == "tasks" && ParseUint(value, &n) && n >= 1 &&
               n <= 100000) {
      options.tasks = static_cast<uint32_t>(n);
    } else if (key == "trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (key == "spans" && !value.empty()) {
      options.spans_path = std::string(value);
    } else {
      return std::nullopt;
    }
  }
  if (options.workload == nullptr) return std::nullopt;
  // A traced run needs an untraced pass to measure the tracing overhead.
  if (options.trace) options.passes = std::max<uint32_t>(options.passes, 2);
  return options;
}

// ---------------------------------------------------------------------------
// The timed phase.

struct Pass {
  bool traced = false;
  std::vector<TaskRun> runs;  // by task index
  LayerCounts counts;
};

struct TimedPhase {
  std::vector<Pass> passes;
  LayerCounts oracle_counts;
  OracleVerdict verdict;
  Tracer tracer;
};

std::vector<uint32_t> ShuffledOrder(uint32_t n, uint64_t seed,
                                    uint32_t pass) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  testing::SplitMix64 rng(testing::SplitMix64(seed).Fork(1000 + pass));
  for (uint32_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  return order;
}

// Passes over all tasks, each in a seeded shuffled order, until the next
// pass would overrun --seconds of measured time (at least --passes).  Pass
// 0 also runs the oracle after every task.  Traced runs alternate traced
// and untraced passes, starting traced so the oracle's layers are traced
// too; the untraced passes measure the tracing overhead.
void RunPasses(const Options& options, const std::vector<TaskText>& tasks,
               TimedPhase* t) {
  const uint32_t n = static_cast<uint32_t>(tasks.size());
  double measured_s = 0.0;
  while (t->passes.size() < kMaxPasses) {
    const uint32_t p = static_cast<uint32_t>(t->passes.size());
    Pass& pass = t->passes.emplace_back();
    pass.traced = options.trace && p % 2 == 0;
    pass.runs.resize(n);
    const Clock::time_point pass_start = Clock::now();
    double oracle_s = 0.0;
    for (uint32_t i : ShuffledOrder(n, options.seed, p)) {
      const SpanSink sink{pass.traced ? &t->tracer : nullptr, i, p};
      pass.runs[i] = RunTask(*options.workload, tasks[i], sink, p == 0,
                             &pass.counts, &t->oracle_counts, &t->verdict);
      oracle_s += pass.runs[i].oracle_s;
    }
    const double pass_s = Seconds(pass_start, Clock::now()) - oracle_s;
    measured_s += pass_s;
    if (t->passes.size() >= options.passes &&
        measured_s + pass_s > options.seconds) {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Correctness: guard stops, oracle mismatches, answers that change between
// passes, and the pinned digest.

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  Digest digest;  // of pass 0, over tasks in index order
  bool digest_pinned = false;
  bool digest_ok = true;
};

Outcome CheckAnswers(const Options& options, std::vector<Pass>& passes) {
  Outcome out;
  const std::vector<TaskRun>& first = passes[0].runs;
  for (size_t p = 0; p < passes.size(); ++p) {
    for (size_t i = 0; i < first.size(); ++i) {
      TaskRun& run = passes[p].runs[i];
      if (run.failure.empty() && first[i].failure.empty() &&
          !(run.digest == first[i].digest)) {
        run.failure = "answers differ from pass 0";
      }
      ++out.attempted;
      if (run.failure.empty()) continue;
      ++out.failed;
      if (out.first_failure.empty()) {
        out.first_failure = "task " + std::to_string(i) + " pass " +
                            std::to_string(p) + ": " + run.failure;
      }
    }
  }
  for (size_t i = 0; i < first.size(); ++i) {
    out.digest.answers += first[i].digest.answers;
    FnvU64(&out.digest.hash, i);
    FnvU64(&out.digest.hash, first[i].digest.hash);
  }
  const Workload& w = *options.workload;
  out.digest_pinned = options.seed == kDefaultSeed &&
                      first.size() == kDefaultTasks && w.digest_hash != 0;
  out.digest_ok = !out.digest_pinned ||
                  out.digest == Digest{w.digest_answers, w.digest_hash};
  if (!out.digest_ok) {
    ++out.failed;
    if (out.first_failure.empty()) out.first_failure = "answer digest mismatch";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

// Per task, the smallest `field` over the traced or the untraced passes.
std::vector<double> BestPerTask(const std::vector<Pass>& passes, bool traced,
                                double TaskRun::*field) {
  std::vector<double> best;
  for (const Pass& pass : passes) {
    if (pass.traced != traced) continue;
    if (best.empty()) best.assign(pass.runs.size(), HUGE_VAL);
    for (size_t i = 0; i < pass.runs.size(); ++i) {
      best[i] = std::min(best[i], pass.runs[i].*field);
    }
  }
  return best;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Tasks per second over the best per-task times of the traced or untraced
// passes.
double TasksPerSecond(const std::vector<Pass>& passes, bool traced) {
  const std::vector<double> best =
      BestPerTask(passes, traced, &TaskRun::wall_s);
  return Ratio(static_cast<double>(best.size()), Sum(best));
}

// A task's time is the best of its untraced passes: the host's other
// tenants slow whole stretches of a run by up to 1.7x (README.md, "Noise"),
// and the best pass filters that out where a mean or median does not.
std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& passes) {
  std::vector<double> task_ms =
      BestPerTask(passes, /*traced=*/false, &TaskRun::wall_s);
  for (double& t : task_ms) t *= 1e3;
  std::sort(task_ms.begin(), task_ms.end());
  const size_t n = task_ms.size();
  return {
      {"setup_s", Sum(BestPerTask(passes, false, &TaskRun::setup_s)), "s"},
      {"tasks_per_s", TasksPerSecond(passes, false), "1/s"},
      {"task_p50_ms", Median(task_ms), "ms"},
      // The 90th percentile: n / 10 tasks lie beyond it.
      {"task_p90_ms", task_ms[n - 1 - n / 10], "ms"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
}

// Per-pass span time by name, split by root: spans under a "task" root are
// the timed route, spans under an "oracle" root the untimed cross-check.
struct SpanTotals {
  std::vector<std::map<std::string, double>> timed;  // by pass
  std::map<std::string, double> timed_self;          // all traced passes
  std::map<std::string, double> oracle;
  double task_s = 0.0;                               // all traced passes
};

SpanTotals SumSpans(const std::vector<SpanRecord>& spans, size_t passes) {
  SpanTotals totals;
  totals.timed.resize(passes);
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_s[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    size_t root = i;
    while (spans[root].parent >= 0) root = spans[root].parent;
    if (std::strcmp(spans[root].name, "oracle") == 0) {
      totals.oracle[s.name] += d;
      continue;
    }
    totals.timed[s.pass][s.name] += d;
    totals.timed_self[s.name] += d - child_s[i];
    if (s.parent < 0) totals.task_s += d;
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"task\":%u,"
                 "\"pass\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.parent, s.name, s.task, s.pass,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// Per-layer self time over the traced passes, as shares of task time.  The
// chase's match and commit phases are its own ChaseStats timings, shown as
// children of chase.run.
void PrintSelfTimeTable(const SpanTotals& spans, double match_s,
                        double commit_s) {
  std::vector<std::pair<std::string, double>> rows(spans.timed_self.begin(),
                                                   spans.timed_self.end());
  const auto run = std::find_if(rows.begin(), rows.end(), [](const auto& r) {
    return r.first == "chase.run";
  });
  if (run != rows.end()) {
    run->second -= match_s + commit_s;
    rows.emplace_back("chase.run/match", match_s);
    rows.emplace_back("chase.run/commit", commit_s);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("%-22s %12s %8s\n", "layer (self time)", "seconds", "share");
  for (const auto& [name, self] : rows) {
    std::printf("%-22s %12.4f %7.1f%%\n", name.c_str(), self,
                100.0 * Ratio(self, spans.task_s));
  }
}

// The per-layer metrics of a traced run.  A layer of the timed route
// reports the median over traced passes of its per-pass sum; a layer of the
// other route reports the oracle's (pass 0) sum.
std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const TimedPhase& t) {
  const SpanTotals spans = SumSpans(t.tracer.spans(), t.passes.size());
  auto timed_span = [&](const char* name) {
    std::vector<double> v;
    for (size_t p = 0; p < t.passes.size(); ++p) {
      if (!t.passes[p].traced) continue;
      const auto it = spans.timed[p].find(name);
      v.push_back(it == spans.timed[p].end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  auto span = [&](const char* name, Route owner) {
    if (owner == workload.route) return timed_span(name);
    const auto it = spans.oracle.find(name);
    return it == spans.oracle.end() ? 0.0 : it->second;
  };
  auto count = [&](auto LayerCounts::*field, Route owner) {
    if (owner != workload.route) {
      return static_cast<double>(t.oracle_counts.*field);
    }
    std::vector<double> v;
    for (const Pass& pass : t.passes) {
      if (pass.traced) v.push_back(static_cast<double>(pass.counts.*field));
    }
    return Median(v);
  };
  const Route kC = Route::kChase;
  const Route kR = Route::kRewrite;
  using L = LayerCounts;
  const double parse_facts_s = timed_span("setup.parse_facts");
  const double chase_run_s = span("chase.run", kC);
  const double match_s = count(&L::match_s, kC);
  const double commit_s = count(&L::commit_s, kC);
  const double matches = count(&L::matches, kC);
  const double inserted = count(&L::atoms_inserted, kC);
  const double candidates = count(&L::candidates, kR);
  const double rewrites = count(&L::rewrites, kR);
  const double disjuncts = count(&L::disjuncts, kR);
  const auto task_self = spans.timed_self.find("task");
  double traced_match_s = 0.0;
  double traced_commit_s = 0.0;
  for (const Pass& pass : t.passes) {
    if (!pass.traced || workload.route != kC) continue;
    traced_match_s += pass.counts.match_s;
    traced_commit_s += pass.counts.commit_s;
  }
  PrintSelfTimeTable(spans, traced_match_s, traced_commit_s);
  return {
      {"tgd.parse_s",
       timed_span("setup.parse_theory") + parse_facts_s +
           timed_span("setup.parse_query"),
       "s"},
      {"tgd.facts_per_s",
       Ratio(count(&L::facts_parsed, workload.route), parse_facts_s), "1/s"},
      {"chase.run_s", chase_run_s, "s"},
      {"chase.match_s", match_s, "s"},
      {"chase.commit_s", commit_s, "s"},
      {"chase.commit_expand_s", count(&L::commit_expand_s, kC), "s"},
      {"chase.commit_dedup_s", count(&L::commit_dedup_s, kC), "s"},
      {"chase.commit_index_s", count(&L::commit_index_s, kC), "s"},
      {"chase.other_s", chase_run_s - match_s - commit_s, "s"},
      {"chase.atoms_per_s", Ratio(inserted, chase_run_s), "1/s"},
      {"chase.matches", matches, "count"},
      {"chase.staged", count(&L::staged, kC), "count"},
      {"chase.deduped", count(&L::deduped, kC), "count"},
      {"chase.atoms_inserted", inserted, "count"},
      {"chase.useful_frac", Ratio(inserted, matches), "ratio"},
      {"chase.fixpoint_frac",
       Ratio(count(&L::chase_fixpoints, kC), count(&L::chase_runs, kC)),
       "ratio"},
      {"chase.content_bytes_max", count(&L::content_bytes_max, kC), "bytes"},
      {"chase.peak_bytes_max", count(&L::peak_bytes_max, kC), "bytes"},
      {"hom.eval_s", span("hom.eval", kC), "s"},
      {"hom.answers", count(&L::hom_answers, kC), "count"},
      {"rewriting.rewrite_s", span("rewriting.rewrite", kR), "s"},
      {"rewriting.ucq_eval_s", span("rewriting.ucq_eval", kR), "s"},
      {"rewriting.candidates", candidates, "count"},
      {"rewriting.disjuncts", disjuncts, "count"},
      {"rewriting.iterations", count(&L::iterations, kR), "count"},
      // The CQ itself is the first candidate of its rewriting.
      {"rewriting.kept_frac", Ratio(disjuncts, candidates + rewrites),
       "ratio"},
      {"rewriting.converged_frac",
       Ratio(count(&L::rewrites_converged, kR), rewrites), "ratio"},
      {"rewriting.max_disjunct_atoms", count(&L::max_disjunct_atoms, kR),
       "count"},
      {"trace.overhead_frac",
       1.0 - Ratio(TasksPerSecond(t.passes, true),
                   TasksPerSecond(t.passes, false)),
       "ratio"},
      {"unattributed_frac",
       task_self == spans.timed_self.end()
           ? 0.0
           : Ratio(task_self->second, spans.task_s),
       "ratio"},
      {"oracle.checked", static_cast<double>(t.verdict.checked), "count"},
      {"oracle.mismatches", static_cast<double>(t.verdict.mismatches),
       "count"},
  };
}

// ---------------------------------------------------------------------------
// Report.

void PrintSummary(const Options& options, const TimedPhase& t,
                  const Outcome& outcome) {
  std::string pass_walls;
  size_t untraced = 0;
  for (const Pass& pass : t.passes) {
    double wall = 0.0;
    for (const TaskRun& run : pass.runs) wall += run.wall_s;
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3f", wall);
    pass_walls += buf;
    if (!pass.traced) ++untraced;
  }
  double oracle_s = 0.0;
  for (const TaskRun& run : t.passes[0].runs) oracle_s += run.oracle_s;
  std::printf("workload %s seed %llu: %zu tasks x %zu passes; each task's"
              " time is the best of %zu untraced passes\n",
              options.workload->name,
              static_cast<unsigned long long>(options.seed),
              t.passes[0].runs.size(), t.passes.size(), untraced);
  std::printf("task wall per pass (s):%s\n", pass_walls.c_str());
  std::printf("failed %llu / %llu attempted (failed_frac %.4f)%s%s\n",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted),
              Ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)),
              outcome.first_failure.empty() ? "" : "; first: ",
              outcome.first_failure.c_str());
  std::printf("oracle: %llu CQs cross-checked, %llu mismatches (%.2f s)\n",
              static_cast<unsigned long long>(t.verdict.checked),
              static_cast<unsigned long long>(t.verdict.mismatches),
              oracle_s);
  std::printf("digest: answers=%llu fnv=0x%016llx (%s)\n",
              static_cast<unsigned long long>(outcome.digest.answers),
              static_cast<unsigned long long>(outcome.digest.hash),
              !outcome.digest_pinned ? "not pinned for this seed/size"
              : outcome.digest_ok    ? "matches pin"
                                     : "MISMATCH");
}

std::string ResultJson(const Outcome& outcome,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  return json + "}}";
}

int Run(const Options& options) {
  const Workload& workload = *options.workload;
  const Clock::time_point select_start = Clock::now();
  const Selection selection =
      SelectTasks(workload, options.seed, options.tasks);
  if (!selection.complete) {
    std::fprintf(stderr,
                 "%s seed %llu: selected only %zu of %u tasks (%llu corpus "
                 "candidates drawn)\n",
                 workload.name, static_cast<unsigned long long>(options.seed),
                 selection.tasks.size(), options.tasks,
                 static_cast<unsigned long long>(selection.candidates));
    return 1;
  }
  std::printf("selected %u tasks from %llu corpus candidates in %.2f s;"
              " corpus sizes %.0f .. %.0f, sum %.0f\n",
              options.tasks,
              static_cast<unsigned long long>(selection.candidates),
              Seconds(select_start, Clock::now()), selection.sizes.front(),
              selection.sizes.back(), Sum(selection.sizes));

  TimedPhase t;
  RunPasses(options, selection.tasks, &t);
  const Outcome outcome = CheckAnswers(options, t.passes);
  const std::vector<Metric> end_to_end = EndToEndMetrics(t.passes);
  PrintSummary(options, t, outcome);
  for (const Metric& m : end_to_end) {
    std::printf("  %-14s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!options.trace) {
    std::printf("%s\n", ResultJson(outcome, end_to_end).c_str());
    return 0;
  }
  const std::vector<Metric> layers = LayerMetrics(workload, t);
  for (const Metric& m : layers) {
    std::printf("  %-30s %18.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!options.spans_path.empty() &&
      !WriteSpans(options.spans_path, t.tracer.spans())) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", ResultJson(outcome, layers).c_str());
  return 0;
}

}  // namespace
}  // namespace frontiers::e2e

int main(int argc, char** argv) {
  const std::optional<frontiers::e2e::Options> options =
      frontiers::e2e::ParseArgs(argc, argv);
  if (!options.has_value()) {
    frontiers::e2e::Usage();
    return 2;
  }
  return frontiers::e2e::Run(*options);
}
