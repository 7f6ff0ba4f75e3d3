// Experiment E18: interrupt/resume parity on the T_d^3 tower.
//
// The resource-governance layer promises that a chase interrupted by a
// budget (deadline, bytes, rounds) or cancellation, snapshotted, and
// resumed — possibly many times, possibly in a fresh process — produces a
// final result byte-identical to the uninterrupted run: same atoms in the
// same order, same TermIds, same depths, same provenance, same per-round
// counters, at every thread count.  This experiment exercises that promise
// on the composed T_d^3 tower chase of E4c (witness strategy over an
// I_1-path), the heaviest catalog workload:
//
//   (a) deadline interrupts: escalating wall-clock budgets, snapshot on
//       every trip, resume until the run completes;
//   (b) byte-budget interrupts: escalating approximate-memory budgets;
//   (c) round-budget interrupts: deterministic two-round slices;
//   (d) process restart: every chained resume of (c) round-trips the
//       snapshot through EncodeSnapshot/DecodeSnapshot and rebuilds a
//       *fresh* vocabulary via ApplySnapshotVocabulary, simulating a
//       kill + restart between every slice.
//
// Each scenario reports the number of interrupts it survived and whether
// the final result is identical to the uninterrupted reference.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/vocabulary.h"
#include "bench/report.h"
#include "catalog/instances.h"
#include "catalog/queries.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "hom/query_ops.h"

namespace frontiers {
namespace {

constexpr uint32_t kPathLength = 8;
constexpr uint32_t kMaxRounds = 2 * kPathLength + 16;

struct Workload {
  Vocabulary vocab;
  Theory tdk;
  FactSet path;
  ChaseOptions options;

  Workload() : tdk(TdKTheory(vocab, 3)) {
    path = EdgePath(vocab, TdKPredicateName(1), kPathLength, "a");
    options.max_rounds = kMaxRounds;
    options.max_atoms = 4'000'000;
    options.track_provenance = true;
    // E18 drives its own deadlines (that is the experiment), so it skips
    // BudgetGuard::Apply.
    options.filter = TdKWitnessStrategy(vocab, tdk, 3, path);
  }
};

bool RoundCountersEqual(const ChaseStats& a, const ChaseStats& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    const ChaseRoundStats& x = a.rounds[i];
    const ChaseRoundStats& y = b.rounds[i];
    if (x.matches != y.matches || x.staged != y.staged ||
        x.committed != y.committed || x.preempted != y.preempted ||
        x.deduped != y.deduped || x.atoms_inserted != y.atoms_inserted) {
      return false;
    }
  }
  return true;
}

bool Identical(const ChaseResult& a, const ChaseResult& b) {
  // approx_bytes is the content-mode ledger total (base/mem_ledger.h):
  // equality here is the E18 memory claim — an interrupted, snapshotted,
  // resumed run reconstructs the same ledger byte-for-byte, so byte
  // budgets meter identically on both sides.
  return a.facts.ToAtoms() == b.facts.ToAtoms() && a.depth == b.depth &&
         a.complete_rounds == b.complete_rounds && a.stop == b.stop &&
         a.first_derivation.size() == b.first_derivation.size() &&
         a.approx_bytes == b.approx_bytes &&
         RoundCountersEqual(a.stats, b.stats);
}

// Runs the workload under `interrupt`, snapshotting and resuming until the
// run completes (fixpoint or round budget); `escalate` relaxes the budget
// between cycles so wall-clock trips cannot stall forever.  Returns the
// final result and the interrupt count via `*interrupts`.
template <typename Configure>
ChaseResult RunWithInterrupts(Workload& w, Configure configure,
                              uint32_t* interrupts) {
  *interrupts = 0;
  uint32_t cycle = 0;
  ChaseOptions options = w.options;
  configure(cycle, options);
  ChaseEngine engine(w.vocab, w.tdk);
  ChaseResult result = engine.Run(w.path, options);
  while (bench::BudgetTripped(result.stop)) {
    ++*interrupts;
    ++cycle;
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(w.vocab, w.tdk, result, options);
    if (!snapshot.ok()) {
      std::printf("snapshot failed: %s\n", snapshot.message().c_str());
      return result;
    }
    options = w.options;
    configure(cycle, options);
    result = engine.Resume(snapshot.value(), options);
  }
  return result;
}

// The process-restart scenario: every slice runs in a freshly built
// workload whose vocabulary is rebuilt from the serialized snapshot.
ChaseResult RunWithProcessRestarts(const ChaseResult& reference,
                                   uint32_t* interrupts) {
  *interrupts = 0;
  std::string wire;
  {
    Workload w;
    ChaseOptions options = w.options;
    options.max_rounds = 2;  // two-round slices: deterministic interrupts
    ChaseEngine engine(w.vocab, w.tdk);
    ChaseResult result = engine.Run(w.path, options);
    if (!bench::BudgetTripped(result.stop) &&
        result.stop != ChaseStop::kRoundBudget) {
      return result;
    }
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(w.vocab, w.tdk, result, options);
    if (!snapshot.ok()) {
      std::printf("snapshot failed: %s\n", snapshot.message().c_str());
      return result;
    }
    wire = EncodeSnapshot(snapshot.value());
  }
  for (;;) {
    ++*interrupts;
    // A "fresh process": nothing survives but the serialized snapshot.
    Workload w;
    Result<ChaseSnapshot> snapshot = DecodeSnapshot(wire);
    if (!snapshot.ok()) {
      std::printf("decode failed: %s\n", snapshot.message().c_str());
      return ChaseResult{};
    }
    // Rebuild interned ids.  The workload already interned the theory and
    // instance, which form a prefix of the snapshot's tables, so replay
    // verifies those and appends the chase-invented Skolem terms.
    Status applied = ApplySnapshotVocabulary(snapshot.value(), w.vocab);
    if (!applied.ok()) {
      std::printf("vocabulary replay failed: %s\n",
                  applied.message().c_str());
      return ChaseResult{};
    }
    ChaseOptions options = w.options;
    options.max_rounds =
        std::min(kMaxRounds, snapshot.value().next_round + 2);
    ChaseEngine engine(w.vocab, w.tdk);
    ChaseResult result = engine.Resume(snapshot.value(), options);
    if (result.stop == ChaseStop::kFixpoint ||
        result.complete_rounds >= kMaxRounds ||
        Identical(result, reference)) {
      return result;
    }
    Result<ChaseSnapshot> next = MakeSnapshot(w.vocab, w.tdk, result, options);
    if (!next.ok()) {
      std::printf("snapshot failed: %s\n", next.message().c_str());
      return result;
    }
    wire = EncodeSnapshot(next.value());
  }
}

int Run() {
  bench::BudgetGuard guard;
  bench::Section("E18: interrupt/resume parity on the T_d^3 tower (L = " +
                 std::to_string(kPathLength) + ")");

  uint32_t unused = 0;
  Workload ref_workload;
  ChaseResult reference = RunWithInterrupts(
      ref_workload, [](uint32_t, ChaseOptions&) {}, &unused);

  bench::Table table({"scenario", "interrupts", "atoms", "rounds",
                      "identical to uninterrupted"});
  // Structured twin of each table row; carries the final stop reason as the
  // budget marker when a scenario ended on a tripped budget (it never
  // should — that is the parity claim).
  auto emit = [](const char* scenario, uint32_t interrupts,
                 const ChaseResult& result, const char* identical) {
    bench::JsonRow row;
    row.Param("scenario", scenario)
        .Param("identical", identical)
        .Counter("interrupts", interrupts)
        .Counter("atoms", result.facts.size())
        .Counter("rounds", result.complete_rounds)
        .Counter("mem_total_bytes", result.approx_bytes)
        .Counter("mem_peak_bytes", result.peak_bytes)
        .Seconds("wall", result.stats.total_seconds);
    if (bench::BudgetTripped(result.stop)) {
      row.Budget(ChaseStopName(result.stop));
    }
    row.Emit();
  };
  table.AddRow({"reference (uninterrupted)", "0",
                std::to_string(reference.facts.size()),
                std::to_string(reference.complete_rounds), "-"});
  emit("reference", 0, reference, "-");

  {
    Workload w;
    uint32_t interrupts = 0;
    ChaseResult result = RunWithInterrupts(
        w,
        [](uint32_t cycle, ChaseOptions& options) {
          // Start at 200us and escalate 4x per cycle; after ~40 cycles run
          // unbudgeted so the scenario terminates even on a loaded machine.
          options.deadline_seconds =
              cycle < 40 ? 0.0002 * (1u << std::min(cycle, 20u)) : 0.0;
        },
        &interrupts);
    table.AddRow({"deadline (escalating from 200us)",
                  std::to_string(interrupts),
                  std::to_string(result.facts.size()),
                  std::to_string(result.complete_rounds),
                  bench::YesNo(Identical(result, reference))});
    emit("deadline", interrupts, result,
         Identical(result, reference) ? "yes" : "no");
  }

  {
    Workload w;
    const size_t start_budget = reference.approx_bytes / 3 + 1;
    uint32_t interrupts = 0;
    ChaseResult result = RunWithInterrupts(
        w,
        [&](uint32_t cycle, ChaseOptions& options) {
          // Double the byte budget each cycle; past the reference footprint
          // the budget can no longer trip.
          options.max_bytes = cycle < 30 ? start_budget << std::min(cycle, 20u)
                                         : 0;
        },
        &interrupts);
    table.AddRow({"byte budget (escalating from 1/3 of final)",
                  std::to_string(interrupts),
                  std::to_string(result.facts.size()),
                  std::to_string(result.complete_rounds),
                  bench::YesNo(Identical(result, reference))});
    emit("byte_budget", interrupts, result,
         Identical(result, reference) ? "yes" : "no");
  }

  {
    uint32_t interrupts = 0;
    ChaseResult result = RunWithProcessRestarts(reference, &interrupts);
    table.AddRow({"round slices + process restart via snapshot file",
                  std::to_string(interrupts),
                  std::to_string(result.facts.size()),
                  std::to_string(result.complete_rounds),
                  bench::YesNo(Identical(result, reference))});
    emit("process_restart", interrupts, result,
         Identical(result, reference) ? "yes" : "no");
  }

  table.Print();
  std::printf(
      "Shape check: every scenario must report 'identical: yes' - budgets\n"
      "only decide *when* the chase pauses, never what it computes.  The\n"
      "restart scenario additionally round-trips vocabulary + state through\n"
      "the binary snapshot codec between every two-round slice.\n");
  return guard.Finish();
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) {
  return frontiers::bench::Main(argc, argv, frontiers::Run);
}
