#ifndef FRONTIERS_CHASE_SNAPSHOT_H_
#define FRONTIERS_CHASE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/atom.h"
#include "base/status.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "tgd/tgd.h"

namespace frontiers {

/// A resumable checkpoint of an interrupted chase run.
///
/// Snapshots exist so a run stopped by a budget (deadline, bytes, rounds) or
/// by cancellation can be continued later — in the same process or, via
/// `EncodeSnapshot` / `DecodeSnapshot` / `ApplySnapshotVocabulary`, in a
/// fresh one — with the final result byte-identical to an uninterrupted run
/// (same atoms in the same order, same TermIds, same depths, provenance and
/// per-round counters) at any thread count.
///
/// Three groups of state are captured:
///
///  1. **Vocabulary replay payload.**  TermIds/PredicateIds are dense
///     interning indices, so replaying the interning calls in id order into
///     a fresh `Vocabulary` (`ApplySnapshotVocabulary`) reproduces the exact
///     ids the snapshot's atoms refer to.  Only the public interning API is
///     used — no private vocabulary state is serialized.
///  2. **Chase state**: atoms (in insertion order), per-atom depths,
///     provenance, birth atoms, the semi-oblivious dedup memo and per-round
///     counters.  The stop reason must satisfy `IsResumableStop`, which
///     guarantees the atoms are exactly the stage `Ch_{next_round}` — the
///     in-flight round of the interrupted run was discarded whole.
///  3. **Run fingerprint**: the option flags and a hash of the theory, so
///     `ChaseEngine::Resume` can reject resuming under a different regime
///     (which would silently diverge from the uninterrupted run).
struct ChaseSnapshot {
  // --- Vocabulary replay payload -----------------------------------------
  struct PredicateEntry {
    std::string name;
    uint32_t arity = 0;
  };
  struct SkolemFnEntry {
    std::string signature;
    uint32_t arity = 0;
  };
  struct TermEntry {
    TermKind kind = TermKind::kConstant;
    std::string name;           // constants and variables
    SkolemFnId fn = 0;          // Skolem terms
    std::vector<TermId> args;   // Skolem terms; all ids precede this term's
  };
  std::vector<PredicateEntry> predicates;
  std::vector<SkolemFnEntry> skolem_fns;
  std::vector<TermEntry> terms;

  // --- Chase state --------------------------------------------------------
  std::vector<Atom> atoms;          // insertion order
  std::vector<uint32_t> depth;      // parallel to `atoms`
  uint32_t next_round = 0;          // == complete_rounds of the source run
  ChaseStop stop = ChaseStop::kRoundBudget;
  std::vector<std::optional<Derivation>> first_derivation;  // if provenance
  std::vector<std::vector<Derivation>> all_derivations;     // if recording
  std::vector<std::pair<TermId, uint32_t>> birth_atoms;     // sorted by term
  std::vector<std::string> seen_applications;               // sorted
  std::vector<ChaseRoundStats> round_stats;
  double total_seconds = 0.0;
  /// Content-mode ledger total at the snapshot boundary.  Resume recomputes
  /// the same figure from the reconstructed state and asserts byte equality
  /// (the E18 ledger-equivalence check): content accounting is a pure
  /// function of logical state, so any disagreement means an accounting bug.
  uint64_t approx_bytes = 0;
  /// Capacity-mode high-water mark over all round boundaries of the source
  /// run, carried through so a same-process resume's peak covers the whole
  /// logical run rather than restarting from zero.  Deliberately *not*
  /// serialized: capacity figures depend on the reconstruction path, and
  /// the wire format is canonical over logical chase state only
  /// (EncodeSnapshot's doc).
  /// A decoded snapshot therefore resumes with peak restarting from the
  /// reconstructed store's footprint.
  uint64_t peak_bytes = 0;

  // --- Run fingerprint ----------------------------------------------------
  ChaseVariant variant = ChaseVariant::kSemiOblivious;
  bool semi_naive = true;
  bool track_provenance = false;
  bool record_all_derivations = false;
  bool has_filter = false;
  std::string theory_name;
  uint64_t theory_fingerprint = 0;
};

/// FNV-1a hash of the theory's canonical rendering; identifies the theory a
/// snapshot was taken under without serializing it (the resuming process is
/// expected to rebuild the theory the same way it built it originally).
uint64_t TheoryFingerprint(const Vocabulary& vocab, const Theory& theory);

/// Captures `result` (a run of `theory` under `options` over `vocab`) as a
/// snapshot.  Fails with an error status if the result's stop reason is not
/// resumable (kAtomBudget truncates the last round mid-head, so its facts
/// are not a chase stage).
Result<ChaseSnapshot> MakeSnapshot(const Vocabulary& vocab,
                                   const Theory& theory,
                                   const ChaseResult& result,
                                   const ChaseOptions& options);

/// Serializes a snapshot to a compact binary string (magic "FRSN").
std::string EncodeSnapshot(const ChaseSnapshot& snapshot);

/// Parses bytes produced by EncodeSnapshot.  Truncated or corrupted input
/// yields an error status, never undefined behaviour: every read is bounds-
/// checked and every id is validated against the tables decoded so far.
Result<ChaseSnapshot> DecodeSnapshot(std::string_view bytes);

/// Replays the snapshot's interning calls into `vocab` so its dense ids
/// match the snapshot's.  Works on a fresh vocabulary (the process-restart
/// path) and on one already holding a prefix-compatible population (the
/// same-process path, where it just verifies).  Returns an error if `vocab`
/// has diverged — a name at the wrong id, an arity conflict — without
/// mutating further.  Skolem terms replay a row at a time, so a term list
/// that does not come as whole rows (each row the block's functions in
/// order, over identical arguments, on consecutive ids) is rejected too.
Status ApplySnapshotVocabulary(const ChaseSnapshot& snapshot,
                               Vocabulary& vocab);

/// Writes EncodeSnapshot(snapshot) to `path` (binary, overwrite).
Status WriteSnapshotFile(const std::string& path,
                         const ChaseSnapshot& snapshot);

/// Reads and decodes a snapshot file written by WriteSnapshotFile.
Result<ChaseSnapshot> ReadSnapshotFile(const std::string& path);

}  // namespace frontiers

#endif  // FRONTIERS_CHASE_SNAPSHOT_H_
