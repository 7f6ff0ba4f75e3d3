// Experiment E17: thread-count scaling of the parallel chase round
// pipeline (DESIGN.md, "Parallel round pipeline").
//
// Two heavy workloads from the catalog:
//   (a) T_d on long green grids G^L with the witness strategy — the
//       Figure 1 halving grid at production size, dominated by (grid)
//       body-match enumeration;
//   (b) the T_d^K tower (K = 3) on I_1-paths with its witness strategy —
//       the Theorem 6 workload whose match phase dominates every
//       EXPERIMENTS.md tower measurement.
//
// For each workload the bench sweeps ChaseOptions::threads, reports wall
// time, match/commit phase split, and speedup over the 1-thread engine,
// and asserts that every sweep point produced a byte-identical result
// (atom order + depths) — the determinism guarantee the parity suite
// tests at unit scale.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/vocabulary.h"
#include "bench/report.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"

namespace frontiers {
namespace {

struct SweepPoint {
  uint32_t threads;
  double seconds;
  double match_seconds;
  double commit_seconds;
  double commit_expand_seconds;
  double commit_dedup_seconds;
  double commit_index_seconds;
  // Shard-mutex contention and the worst round's shard-row imbalance (max
  // shard rows / mean shard rows).
  double shard_wait_seconds;
  double shard_hold_seconds;
  double shard_imbalance;
  size_t atoms;
  uint64_t matches;
  uint64_t parallel_rounds;
  // Memory pillar (DESIGN.md §9): content-mode total at fixpoint and the
  // capacity-mode high-water mark.  Both are deterministic — the content
  // total is a pure function of the logical result and the peak is
  // thread-invariant — so they are safe baseline fields, unlike sampled
  // RSS (which lives in the --mem stream's diag rows, never here).
  uint64_t mem_total_bytes;
  uint64_t mem_peak_bytes;
};

std::string Fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

// Runs `make_options` across thread counts, checking result identity.
void Sweep(const std::string& title, Vocabulary& vocab, const Theory& theory,
           const FactSet& db, ChaseOptions options,
           const std::vector<uint32_t>& thread_counts) {
  bench::Section(title);
  ChaseEngine engine(vocab, theory);
  std::vector<SweepPoint> points;
  ChaseResult baseline;
  {
    // Warm-up: the first chase over a fresh instance pays first-touch page
    // faults and allocator growth that later runs don't, which would make
    // the 1-thread baseline look artificially slow (and every "speedup vs
    // 1T" artificially high, even on a single-core machine).  One untimed
    // run absorbs that cost.
    ChaseOptions warm = options;
    warm.threads = thread_counts.front();
    (void)engine.Run(db, warm);
  }
  for (uint32_t threads : thread_counts) {
    options.threads = threads;
    ChaseResult result = engine.Run(db, options);
    double worst_imbalance = 0.0;
    for (const ChaseRoundStats& r : result.stats.rounds) {
      if (r.shard_imbalance > worst_imbalance) {
        worst_imbalance = r.shard_imbalance;
      }
    }
    points.push_back({threads, result.stats.total_seconds,
                      result.stats.MatchSeconds(),
                      result.stats.CommitSeconds(),
                      result.stats.CommitExpandSeconds(),
                      result.stats.CommitDedupSeconds(),
                      result.stats.CommitIndexSeconds(),
                      result.stats.ShardWaitSeconds(),
                      result.stats.ShardHoldSeconds(), worst_imbalance,
                      result.facts.size(), result.stats.TotalMatches(),
                      result.stats.ParallelRounds(), result.approx_bytes,
                      result.peak_bytes});
    if (threads == thread_counts.front()) {
      baseline = std::move(result);
    } else if (result.facts.atoms() != baseline.facts.atoms() ||
               result.depth != baseline.depth) {
      std::fprintf(stderr,
                   "FATAL: %u-thread result differs from %u-thread result\n",
                   threads, thread_counts.front());
      std::exit(1);
    }
  }
  bench::Table table({"threads", "wall s", "match s", "commit s", "expand s",
                      "dedup s", "index s", "shard wait s", "imbalance",
                      "atoms", "matches", "par rounds", "speedup vs 1T",
                      "identical"});
  const double base_seconds = points.front().seconds;
  for (const SweepPoint& p : points) {
    table.AddRow({std::to_string(p.threads), Fmt(p.seconds),
                  Fmt(p.match_seconds), Fmt(p.commit_seconds),
                  Fmt(p.commit_expand_seconds), Fmt(p.commit_dedup_seconds),
                  Fmt(p.commit_index_seconds), Fmt(p.shard_wait_seconds),
                  Fmt(p.shard_imbalance), std::to_string(p.atoms),
                  std::to_string(p.matches),
                  std::to_string(p.parallel_rounds),
                  Fmt(base_seconds / p.seconds), "yes"});
    // Structured twin of the table row, with typed fields (the table's
    // auto-emitted row carries strings only).  The commit sub-phases let
    // bench_diff attribute commit-phase movement to expansion, shard
    // dedup, or index maintenance.
    bench::JsonRow()
        .Param("threads", uint64_t{p.threads})
        .Counter("atoms", p.atoms)
        .Counter("matches", p.matches)
        .Counter("parallel_rounds", p.parallel_rounds)
        .Counter("mem_total_bytes", p.mem_total_bytes)
        .Counter("mem_peak_bytes", p.mem_peak_bytes)
        .Seconds("wall", p.seconds)
        .Seconds("match", p.match_seconds)
        .Seconds("commit", p.commit_seconds)
        .Seconds("commit_expand", p.commit_expand_seconds)
        .Seconds("commit_dedup", p.commit_dedup_seconds)
        .Seconds("commit_index", p.commit_index_seconds)
        .Seconds("shard_wait", p.shard_wait_seconds)
        .Seconds("shard_hold", p.shard_hold_seconds)
        .Emit();
    // shard_imbalance is run-varying, so it rides in the table auto-row
    // (string params, never joined) — putting it in the typed row's
    // params would make its bench_diff join key unstable.
  }
  table.Print();
  std::printf("1-thread run: %s\n\n", baseline.stats.Summary().c_str());
}

void Run() {
  const std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  {
    // (a) T_d on a long grid: G^64 under the witness strategy grows the
    // full halving-grid tower (64 -> 32 -> ... -> 1 rows).
    Vocabulary vocab;
    Theory td = TdTheory(vocab);
    FactSet path = EdgePath(vocab, "G", 64, "a");
    ChaseOptions options;
    options.max_rounds = 80;
    options.max_atoms = 2'000'000;
    options.filter = TdWitnessStrategy(vocab, td);
    Sweep("E17a: T_d on G^64 (witness strategy)", vocab, td, path, options,
          thread_counts);
  }

  {
    // (b) The T_{d,k} tower: K = 3 over an I_1-path, the composed-witness
    // workload of exp_tdk_tower at its heaviest published size.
    Vocabulary vocab;
    Theory tdk = TdKTheory(vocab, 3);
    FactSet path = EdgePath(vocab, TdKPredicateName(1), 18, "a");
    ChaseOptions options;
    options.max_rounds = 52;
    options.max_atoms = 4'000'000;
    options.filter = TdKWitnessStrategy(vocab, tdk, 3, path);
    Sweep("E17b: T_d^3 tower on I_1-path of length 18 (witness strategy)",
          vocab, tdk, path, options, thread_counts);
  }

  {
    // (c) Unfiltered semi-oblivious fan-out: Example 39's sticky rule on a
    // wide star — one rule, many independent matches per round, the
    // best-case shape for the worker pool.
    Vocabulary vocab;
    Theory sticky = StickyExample39Theory(vocab);
    FactSet star = Star39Instance(vocab, 24);
    ChaseOptions options;
    options.max_rounds = 4;
    options.max_atoms = 2'000'000;
    Sweep("E17c: sticky Example 39 star fan-out (unfiltered)", vocab, sticky,
          star, options, thread_counts);
  }

  std::printf(
      "Determinism: every sweep point above was byte-identical to the\n"
      "1-thread run (atom order and depths); a mismatch aborts the bench.\n"
      "Speedup is bounded by the hardware thread count reported above —\n"
      "on a single-core container all rows time alike by construction.\n");
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) {
  return frontiers::bench::Main(argc, argv, frontiers::Run);
}
