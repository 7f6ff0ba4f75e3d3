#ifndef FRONTIERS_BENCH_E2E_WORKLOADS_H_
#define FRONTIERS_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rewriting/rewriter.h"
#include "testing/rng.h"

namespace frontiers::e2e {

/// CQs answered per task.
inline constexpr uint32_t kQueriesPerTask = 4;

/// How a task computes certain answers (Theorem 1's two sides).
enum class Route {
  /// ChaseEngine::Run, then EvaluateQuery per CQ on the chase, dropping
  /// tuples that contain nulls.
  kChase,
  /// Rewriter::Rewrite per CQ, then EvaluateUcq on the parsed instance.
  kRewrite,
};

/// One task exactly as the program receives it: DSL text, parsed fresh on
/// every execution.
struct TaskText {
  std::string theory;
  std::string facts;
  std::vector<std::string> queries;  // kQueriesPerTask CQs
};

/// A named workload.  Its tasks come in two parts.  The *corpus* (the
/// theories, and for linear-chase and guarded-rewrite the CQs) is drawn
/// from a fixed seed and is the same in every run: candidates are measured
/// by a *size*, a count fixed by the inputs (materialisation atoms,
/// rule-body matches in it, atoms of complete rewritings, star colors),
/// never by timing or by how the engine gets there, and one candidate is
/// matched to each of a ladder of target sizes log-spaced over
/// [size_lo, size_hi].  The run's seed then draws each task's instance and
/// any CQs the corpus leaves open (README.md, "Task selection").
struct Workload {
  const char* name;
  Route route;
  /// ChaseOptions::max_rounds for the chase route and the oracle's chase.
  uint32_t max_rounds;
  /// Draws a corpus candidate from `rng` and measures its size; false
  /// rejects the candidate.
  bool (*draw)(testing::SplitMix64& rng, TaskText* task, double* size);
  double size_lo;
  double size_hi;
  /// Draws the seed-dependent parts of a corpus task of size `size` from
  /// `rng`; false when the draw is unusable (the caller draws again).
  bool (*instantiate)(testing::SplitMix64& rng, double size, TaskText* task);
  /// Answer digest of the timed route at kDefaultSeed with kDefaultTasks
  /// tasks: total answer tuples and their FNV-1a hash (README.md).
  uint64_t digest_answers;
  uint64_t digest_hash;
};

/// Rewriting budgets far below the timed route's.  A rewriting that
/// converges without reaching them is exactly the rewriting under looser
/// budgets, so they pick guarded-rewrite tasks cheaply and bound the
/// oracle's rewritings.
RewritingOptions SmallRewritingBudget();

inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint32_t kDefaultTasks = 100;

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// Every workload name, comma-separated (for usage messages).
std::string WorkloadNames();

/// The tasks of one run and what it took to select them.
struct Selection {
  std::vector<TaskText> tasks;
  std::vector<double> sizes;  // corpus size per task
  uint64_t candidates = 0;    // corpus candidates drawn, kept or not
  bool complete = false;      // false when a corpus or data draw ran out
};

/// Selects `tasks` tasks of `workload` for `seed`: deterministic in both.
Selection SelectTasks(const Workload& workload, uint64_t seed, uint32_t tasks);

}  // namespace frontiers::e2e

#endif  // FRONTIERS_BENCH_E2E_WORKLOADS_H_
