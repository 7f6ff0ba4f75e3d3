#ifndef FRONTIERS_OBS_ROUND_STREAM_H_
#define FRONTIERS_OBS_ROUND_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace frontiers::obs {

/// One (component, predicate) byte-attribution row of a round boundary.
/// The name pointers only need to outlive the WriteBoundary() call.
struct RoundStreamComponent {
  const char* component;
  const char* predicate;  ///< "" for components not owned by a predicate.
  uint64_t bytes;
};

/// One chase round boundary: the closing round's record plus the ledger
/// and progress figures at that boundary.  The counters are 0 at the
/// opening boundary of a Run/Resume call, which closes no round.
struct RoundStreamBoundary {
  uint64_t round = 0;  ///< Completed chase rounds at this boundary.
  // The deterministic `round` row.
  uint64_t atoms = 0;
  uint64_t total_bytes = 0;  ///< Capacity-mode ledger total.
  uint64_t peak_bytes = 0;   ///< Capacity-mode high-water mark.
  uint64_t live_bytes = 0;   ///< Content-mode total (the max_bytes quantity).
  uint64_t matches = 0;
  uint64_t staged = 0;
  uint64_t committed = 0;
  uint64_t preempted = 0;
  uint64_t deduped = 0;
  uint64_t atoms_inserted = 0;
  // The `diag` row (the session adds the sampled rss_bytes).
  uint64_t scratch_bytes = 0;
  double elapsed_seconds = 0.0;
  double atoms_per_sec = 0.0;
  double budget_remaining_seconds = -1.0;  ///< Negative renders as null.
  double eta_seconds = -1.0;               ///< Negative renders as null.
};

/// A process-global session writing the chase's round boundaries as a
/// `frontiers-rounds-v1` JSONL file, one record per chase stage `Ch_i`.
/// At most one session is active at a time.
///
/// File format: one JSON object per line.  The first line is a meta row
///   {"schema":"frontiers-rounds-v1","kind":"meta","page_bytes":<u64>}
/// Then, per chase round boundary, in emission order:
///   {"kind":"component","run":R,"round":N,"component":"columns",
///    "predicate":"E","bytes":B}         component-major, predicate-id order
///   {"kind":"round","run":R,"round":N,"atoms":A,"total_bytes":T,
///    "peak_bytes":P,"live_bytes":L,"matches":M,"staged":S,"committed":C,
///    "preempted":X,"deduped":D,"atoms_inserted":I}
///                                       T = sum of the component rows
///   {"kind":"diag","run":R,"round":N,"rss_bytes":S,"scratch_bytes":C,
///    "elapsed_seconds":E,"atoms_per_sec":F,
///    "budget_remaining_seconds":B|null,"eta_seconds":Y|null}
/// and, when the run stops, one
///   {"kind":"stop","run":R,"round":N,"stop":"fixpoint"}
/// whose round is the run's complete rounds.  `run` is a session-local
/// ordinal (1-based) claimed by each chase run at its opening boundary;
/// `round` is strictly increasing within a run.  Component, round and stop
/// rows carry only figures the chase's merge-ordered commit makes
/// deterministic, so they are byte-identical across thread counts
/// (tests/mem_test.cc).  The diag row holds everything else: the RSS
/// sampled from /proc/self/statm (0 where unavailable), the
/// thread-dependent scratch bytes, and wall-clock progress; consumers
/// strip diag rows before comparing streams.  `atoms_per_sec` and the
/// ETA's rates are measured since the previous boundary.
///
/// The chase writes at round boundaries, which are quiescent points on
/// its calling thread, so rows go straight to the file under one mutex,
/// and the file is flushed after every boundary so it can be tailed
/// mid-run.  tools/chase_report renders and checks the stream.
class RoundStreamSession {
 public:
  /// Starts the global session: opens `path` and writes the meta row.
  /// Fails if a session is already active or the file cannot be opened.
  static Status Start(std::string path);

  /// Stops the active session and closes the file.  Returns an error if no
  /// session is active or writes failed.
  static Status Stop();

  /// Claims the next run ordinal, or returns 0 when no session is active
  /// (one relaxed load).  Called once per chase run, never per pool batch,
  /// so the ordinals do not depend on the thread count.
  static uint64_t BeginRun();

  /// Writes one boundary of `run` — its component rows, round row and diag
  /// row — and flushes.  No-op for run 0 or when the session has stopped.
  static void WriteBoundary(uint64_t run, const RoundStreamBoundary& boundary,
                            const std::vector<RoundStreamComponent>& components);

  /// Writes the stop row of `run` and flushes.  `stop` is a ChaseStopName().
  static void WriteStop(uint64_t run, uint64_t round, const char* stop);
};

}  // namespace frontiers::obs

#endif  // FRONTIERS_OBS_ROUND_STREAM_H_
