#ifndef FRONTIERS_TESTING_DIFFERENTIAL_H_
#define FRONTIERS_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "rewriting/rewriter.h"
#include "testing/generator.h"

namespace frontiers::testing {

/// Differential oracle (DESIGN.md, "Torture subsystem").  A torture case is
/// a workload in DSL text form — the same renderings the generator emits and
/// the repro files store — so every case that ever diverged can be replayed
/// from its text alone.
struct TortureCase {
  std::string theory_text;
  std::string facts_text;
  /// Empty string = no query (query-dependent checks are skipped).
  std::string query_text;
};

/// Budgets for the oracle's chase and rewriting runs.
struct TortureOptions {
  /// Round budget per chase run; small enough that even non-terminating
  /// chases return quickly (all parity checks are valid at any stop).
  uint32_t max_rounds = 12;
  /// Atom budget per chase run.
  size_t max_atoms = 50'000;
  /// Thread counts compared against the serial reference run.
  std::vector<uint32_t> thread_counts = {2, 4, 8};
  /// Check UCQ-rewriting answers against chase answers on FUS theories.
  bool check_rewriting = true;
  RewritingOptions rewriting;
};

/// Runs every applicable differential check on `torture_case`:
///
///  1. text round-trip: parse -> render -> re-parse -> render is stable;
///  2. serial vs. multi-threaded chase byte-parity (atoms, depths, stop,
///     provenance, birth atoms, per-round counters);
///  3. snapshot interrupt -> encode -> decode -> fresh-vocabulary resume
///     byte-parity against the uninterrupted run;
///  4. restricted vs. semi-oblivious chase certain-answer agreement (when
///     both terminate);
///  5. UCQ rewriting vs. chase certain answers on single-head FUS
///     (linear or sticky) theories whose rewriting converged;
///  6. the semi-oblivious chase vs. the brute-force reference chase of
///     Definition 6, stage by stage.
///
/// Returns one human-readable description per divergence; empty means the
/// case passed.  Malformed case text counts as a divergence (the generator
/// must only emit parseable text; replayed repro files should stay valid).
std::vector<std::string> RunDifferentialChecks(const TortureCase& torture_case,
                                               const TortureOptions& options);

/// Greedily shrinks a diverging case: repeatedly drops single theory rules,
/// facts, and finally the query, keeping each drop that still diverges.
/// Returns the input unchanged if it does not diverge.
TortureCase MinimizeCase(const TortureCase& torture_case,
                         const TortureOptions& options);

/// Renders a replayable repro file: seed + divergence summary as comments,
/// then `== theory ==` / `== facts ==` / `== query ==` sections.
std::string ReproToString(const TortureCase& torture_case, uint64_t seed,
                          const std::vector<std::string>& divergences);

/// Parses a repro file produced by ReproToString (tolerates missing
/// sections; unknown section names are an error).
Result<TortureCase> ParseRepro(std::string_view text);

/// Outcome of one torture seed.
struct TortureSeedOutcome {
  uint64_t seed = 0;
  TheoryClass theory_class = TheoryClass::kLinear;
  /// Empty = the seed passed.
  std::vector<std::string> divergences;
  /// The minimized diverging case (only meaningful when divergences is
  /// non-empty).
  TortureCase repro;
};

/// Generates the workload for `seed`, runs the differential checks, and
/// minimizes on divergence.
TortureSeedOutcome RunTortureSeed(uint64_t seed, const TortureOptions& options);

}  // namespace frontiers::testing

#endif  // FRONTIERS_TESTING_DIFFERENTIAL_H_
