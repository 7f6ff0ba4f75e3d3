// Experiment E14: chase engine micro-benchmarks (google-benchmark).
// Measures raw engine throughput on the paper's workloads and the two
// design ablations called out in DESIGN.md:
//   * semi-naive delta evaluation vs naive re-evaluation,
//   * the T_d witness strategy vs the unfiltered exploding chase.

#include <benchmark/benchmark.h>

#include "base/vocabulary.h"
#include "bench/report.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// Publishes the run's phase split as per-iteration-averaged counters so
// the commit phase of the set-at-a-time pipeline is tracked by the bench
// baselines, not just end-to-end wall time.  The `_seconds` suffix routes
// them into the JSONL row's `seconds` object (see JsonlReporter), which
// is the part tools/bench_diff compares.
struct PhaseAccum {
  double match = 0.0;
  double commit = 0.0;
  double commit_expand = 0.0;
  double commit_dedup = 0.0;
  double commit_index = 0.0;
  double shard_wait = 0.0;
  double shard_hold = 0.0;
  void Add(const ChaseStats& stats) {
    match += stats.MatchSeconds();
    commit += stats.CommitSeconds();
    // Commit sub-phases of the sharded pipeline (DESIGN.md §5): expansion
    // into the pending block, shard dedup, and index maintenance.
    // Tracking them separately lets bench_diff attribute commit-phase
    // movement.  Shard wait/hold splits the dedup phase into contention
    // (blocked on a shard mutex) vs productive time under it.
    commit_expand += stats.CommitExpandSeconds();
    commit_dedup += stats.CommitDedupSeconds();
    commit_index += stats.CommitIndexSeconds();
    shard_wait += stats.ShardWaitSeconds();
    shard_hold += stats.ShardHoldSeconds();
  }
};

void CountPhaseSeconds(benchmark::State& state, const PhaseAccum& accum) {
  const auto avg = [&state](const char* name, double seconds) {
    state.counters[name] =
        benchmark::Counter(seconds, benchmark::Counter::kAvgIterations);
  };
  avg("match_seconds", accum.match);
  avg("commit_seconds", accum.commit);
  avg("commit_expand_seconds", accum.commit_expand);
  avg("commit_dedup_seconds", accum.commit_dedup);
  avg("commit_index_seconds", accum.commit_index);
  avg("shard_wait_seconds", accum.shard_wait);
  avg("shard_hold_seconds", accum.shard_hold);
}

void BM_LinearChase(benchmark::State& state) {
  const uint32_t rounds = static_cast<uint32_t>(state.range(0));
  PhaseAccum phases;
  for (auto _ : state) {
    Vocabulary vocab;
    Theory t_p = ForwardPathTheory(vocab);
    ChaseEngine engine(vocab, t_p);
    FactSet db = RandomBinaryInstance(vocab, {"E"}, 20, 40, 99);
    ChaseResult result = engine.RunToDepth(db, rounds);
    benchmark::DoNotOptimize(result.facts.size());
    state.counters["atoms"] = static_cast<double>(result.facts.size());
    phases.Add(result.stats);
  }
  CountPhaseSeconds(state, phases);
}
BENCHMARK(BM_LinearChase)->Arg(4)->Arg(8)->Arg(16);

void BM_DatalogClosure(benchmark::State& state) {
  const uint32_t path = static_cast<uint32_t>(state.range(0));
  PhaseAccum phases;
  for (auto _ : state) {
    Vocabulary vocab;
    Result<Theory> trans =
        ParseTheory(vocab, "E(x,y), E(y,z) -> E(x,z)");
    ChaseEngine engine(vocab, trans.value());
    FactSet db = EdgePath(vocab, "E", path, "a");
    ChaseResult result = engine.RunToDepth(db, 32);
    benchmark::DoNotOptimize(result.facts.size());
    state.counters["atoms"] = static_cast<double>(result.facts.size());
    phases.Add(result.stats);
  }
  CountPhaseSeconds(state, phases);
}
BENCHMARK(BM_DatalogClosure)->Arg(8)->Arg(16)->Arg(32);

void BM_SemiNaiveAblation(benchmark::State& state) {
  const bool semi_naive = state.range(0) != 0;
  PhaseAccum phases;
  for (auto _ : state) {
    Vocabulary vocab;
    Result<Theory> trans =
        ParseTheory(vocab, "E(x,y), E(y,z) -> E(x,z)");
    ChaseEngine engine(vocab, trans.value());
    FactSet db = EdgePath(vocab, "E", 24, "a");
    ChaseOptions options;
    options.max_rounds = 32;
    options.semi_naive = semi_naive;
    ChaseResult result = engine.Run(db, options);
    benchmark::DoNotOptimize(result.facts.size());
    phases.Add(result.stats);
  }
  CountPhaseSeconds(state, phases);
}
BENCHMARK(BM_SemiNaiveAblation)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"semi_naive"});

void BM_TdStrategyAblation(benchmark::State& state) {
  const bool filtered = state.range(0) != 0;
  const uint32_t rounds = 8;  // unfiltered doubles per round: keep small
  PhaseAccum phases;
  for (auto _ : state) {
    Vocabulary vocab;
    Theory td = TdTheory(vocab);
    ChaseEngine engine(vocab, td);
    FactSet db = EdgePath(vocab, "G", 8, "a");
    ChaseOptions options;
    options.max_rounds = rounds;
    options.max_atoms = 2'000'000;
    if (filtered) options.filter = TdWitnessStrategy(vocab, td);
    ChaseResult result = engine.Run(db, options);
    benchmark::DoNotOptimize(result.facts.size());
    state.counters["atoms"] = static_cast<double>(result.facts.size());
    phases.Add(result.stats);
  }
  CountPhaseSeconds(state, phases);
}
BENCHMARK(BM_TdStrategyAblation)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"strategy"});

void BM_Example39Chase(benchmark::State& state) {
  const uint32_t colors = static_cast<uint32_t>(state.range(0));
  PhaseAccum phases;
  for (auto _ : state) {
    Vocabulary vocab;
    Theory ex39 = StickyExample39Theory(vocab);
    ChaseEngine engine(vocab, ex39);
    FactSet db = Star39Instance(vocab, colors);
    ChaseResult result = engine.RunToDepth(db, colors);
    benchmark::DoNotOptimize(result.facts.size());
    state.counters["atoms"] = static_cast<double>(result.facts.size());
    phases.Add(result.stats);
  }
  CountPhaseSeconds(state, phases);
}
BENCHMARK(BM_Example39Chase)->Arg(3)->Arg(4)->Arg(5);

// Console reporter that additionally emits one frontiers-bench-v1 JSONL
// row per measured run (through bench/report.h's JsonSink, so only when
// FRONTIERS_BENCH_JSON is set).  This is what lets tools/bench_diff compare
// two micro-bench runs: the row's `name` param is the join key and the
// per-iteration real/cpu times land in `seconds`.
class JsonlReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      bench::JsonRow row;
      row.Param("name", run.benchmark_name());
      row.Counter("iterations", static_cast<uint64_t>(run.iterations));
      row.Seconds("real_time", run.real_accumulated_time / iterations);
      row.Seconds("cpu_time", run.cpu_accumulated_time / iterations);
      for (const auto& [name, counter] : run.counters) {
        // Phase timings (suffix `_seconds`, already averaged per iteration
        // by their kAvgIterations flag) go into the compared `seconds`
        // object; everything else stays an informational counter.
        if (name.size() > 8 &&
            name.compare(name.size() - 8, 8, "_seconds") == 0) {
          row.Seconds(name, counter.value);
        } else {
          row.Counter(name, static_cast<uint64_t>(counter.value));
        }
      }
      row.Emit();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace
}  // namespace frontiers

// Hand-expanded BENCHMARK_MAIN() routed through bench::Main so this binary
// honors --trace=/--profile=/--metrics= like the table-style
// experiments.
// Those flags are stripped before benchmark::Initialize, which would
// otherwise reject them.
int main(int argc, char** argv) {
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i == 0 || (arg.rfind("--trace=", 0) != 0 &&
                   arg.rfind("--profile=", 0) != 0 &&
                   arg.rfind("--metrics=", 0) != 0)) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  return frontiers::bench::Main(argc, argv, [&]() {
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data())) {
      return 1;
    }
    frontiers::JsonlReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
  });
}
