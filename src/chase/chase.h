#ifndef FRONTIERS_CHASE_CHASE_H_
#define FRONTIERS_CHASE_CHASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/mem_ledger.h"
#include "base/vocabulary.h"
#include "chase/frontier_memo.h"
#include "tgd/substitution.h"
#include "tgd/tgd.h"

namespace frontiers {

struct ChaseSnapshot;  // chase/snapshot.h

/// Why a chase run stopped.
enum class ChaseStop {
  kFixpoint,     ///< A round produced nothing new: Ch(T,D) = Ch_i(T,D).
  kRoundBudget,  ///< max_rounds complete rounds were computed.
  kAtomBudget,   ///< The atom budget was hit (the last round may be partial).
  kDeadline,     ///< ChaseOptions::deadline_seconds elapsed; the result is a
                 ///< complete chase stage (the in-flight round was abandoned).
  kByteBudget,   ///< ChaseOptions::max_bytes exceeded; the result is a
                 ///< complete chase stage.
  kCancelled,    ///< ChaseOptions::cancel was tripped; the result is a
                 ///< complete chase stage.
  kInjectedFault,  ///< A torture-harness failpoint (base/failpoint.h) fired
                   ///< during the round; the in-flight round was abandoned
                   ///< whole, so the result is a complete chase stage and
                   ///< the run can be snapshotted and resumed.
};

/// Short lowercase name of a stop reason ("fixpoint", "deadline", ...).
const char* ChaseStopName(ChaseStop stop);

/// True if `stop` leaves the result at a round boundary — the facts are
/// exactly `Ch_{complete_rounds}(T, D)` — so the run can be snapshotted
/// (chase/snapshot.h) and resumed byte-identically.  Every stop reason is
/// resumable except kAtomBudget, whose last round may be truncated mid-head.
bool IsResumableStop(ChaseStop stop);

/// Resolved worker count for `requested` threads: `requested` itself, or
/// (for 0) one worker per hardware thread.  Clamped to at least 1 because
/// std::thread::hardware_concurrency() is allowed to return 0.
uint32_t ResolveWorkerCount(uint32_t requested);

/// Cooperative cancellation token.  Share one via ChaseOptions::cancel and
/// call Cancel() from any thread (a signal-handling thread, a UI, a watchdog)
/// to stop an in-flight run at the next cancellation point; the run returns
/// a well-formed partial result with ChaseStop::kCancelled.  Tokens are
/// level-triggered and never reset: use a fresh token per run.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// One recorded derivation of an atom: which rule fired and which atoms
/// (indices into the chase's fact store) the body was matched to.  This is
/// the *parent function* `par_T` of Section 13.  `parents` always has
/// exactly one entry per body atom of the rule (a staged match whose body
/// atom cannot be resolved to a fact index is a fatal engine bug, not a
/// droppable entry — ancestor reconstruction relies on completeness).
struct Derivation {
  size_t rule_index = 0;
  std::vector<uint32_t> parents;
};

/// Which chase variant to run.
enum class ChaseVariant {
  /// The paper's semi-oblivious Skolem chase (Definition 6): every body
  /// match fires once per frontier assignment.
  kSemiOblivious,
  /// The *restricted* (standard) chase: a match fires only if the head is
  /// not yet satisfied in the current stage (footnote 19 distinguishes the
  /// two for termination purposes).  Applications are checked against the
  /// stage at the start of their round, so rounds remain parallel; the
  /// result is still a universal model but may terminate where the
  /// semi-oblivious chase does not.
  kRestricted,
};

/// The record of one chase round: counters and phase timings collected by
/// every chase run.
///
/// A round has two timed phases: *match* (plan the match units, enumerate
/// body matches, merge the staged applications — the parallelizable part)
/// and *commit* (apply staged rules in deterministic order, intern Skolem
/// terms, insert atoms).  The record is completed and appended at the
/// round boundary, the one place that also publishes it to the registry
/// and the round stream (DESIGN.md §7).
struct ChaseRoundStats {
  /// Body/domain matches offered to staging (before the filter and before
  /// the restricted variant's stage-time satisfaction check).
  uint64_t matches = 0;
  /// Applications staged after the filter and stage-time checks.
  uint64_t staged = 0;
  /// Staged applications that reached the insert loop (for the restricted
  /// variant: survived the commit-time recheck).
  uint64_t committed = 0;
  /// Restricted variant only: staged applications skipped at commit time
  /// because an earlier application this round already satisfied the head.
  uint64_t preempted = 0;
  /// Staged applications dropped because an earlier application this round
  /// had the same rule and head-universal projection — the semi-oblivious
  /// "fires once per frontier assignment" collapse (skipped while
  /// record_all_derivations is on, which needs every derivation).
  uint64_t deduped = 0;
  /// New atoms inserted this round.
  uint64_t atoms_inserted = 0;
  /// Wall time of the match phase: planning, enumeration and the merge of
  /// the per-unit buffers.
  double match_seconds = 0.0;
  /// Wall time of the commit phase.
  double commit_seconds = 0.0;
  // Sub-phases of commit_seconds, so bench_diff can attribute commit-phase
  // movement (the remainder of commit_seconds is outcome replay and
  // bookkeeping).  These are diagnostics: they are excluded from snapshots
  // (FRSN encodes only the counters above plus the two phase timings) and
  // from parity comparisons, like all timings.
  /// Frontier-memo dedup + head expansion + Skolem row interning.
  double commit_expand_seconds = 0.0;
  /// Batch insert: hashing + dedup probes + id assignment.
  double commit_dedup_seconds = 0.0;
  /// Batch insert: column fill, posting appends, domain/degree updates.
  double commit_index_seconds = 0.0;
  /// Workers this round's match phase actually used (1 when the
  /// small-round serial fallback engaged; see
  /// ChaseOptions::serial_round_threshold).  Purely
  /// an execution record — results are byte-identical either way.
  uint32_t used_threads = 1;
  /// Ledger snapshot at this round's boundary: capacity-mode bytes per
  /// component (base/mem_ledger.h), including the chase's own scratch.
  /// A diagnostic like the timings above — excluded from snapshots and
  /// parity comparisons — but deterministic across thread counts for
  /// every component except kScratch (see DESIGN.md §9).
  MemTotals mem;
};

/// Aggregated statistics of a chase run (one record per started round).
///
/// This is the per-run view of the round records; the same records are
/// published to `obs::DefaultRegistry()` under `frontiers.chase.*`, where
/// they aggregate across runs and threads, and a `--trace` session
/// additionally records the same phases as spans.
struct ChaseStats {
  std::vector<ChaseRoundStats> rounds;
  /// Wall time of the whole run.
  double total_seconds = 0.0;

  /// Sums of the per-round fields of the same name.
  uint64_t TotalMatches() const { return Sum(&ChaseRoundStats::matches); }
  uint64_t TotalStaged() const { return Sum(&ChaseRoundStats::staged); }
  uint64_t TotalCommitted() const { return Sum(&ChaseRoundStats::committed); }
  uint64_t TotalPreempted() const { return Sum(&ChaseRoundStats::preempted); }
  uint64_t TotalDeduped() const { return Sum(&ChaseRoundStats::deduped); }
  uint64_t TotalInserted() const {
    return Sum(&ChaseRoundStats::atoms_inserted);
  }
  double MatchSeconds() const { return Sum(&ChaseRoundStats::match_seconds); }
  double CommitSeconds() const {
    return Sum(&ChaseRoundStats::commit_seconds);
  }
  double CommitExpandSeconds() const {
    return Sum(&ChaseRoundStats::commit_expand_seconds);
  }
  double CommitDedupSeconds() const {
    return Sum(&ChaseRoundStats::commit_dedup_seconds);
  }
  double CommitIndexSeconds() const {
    return Sum(&ChaseRoundStats::commit_index_seconds);
  }
  /// Rounds that ran with more than one worker (i.e. where the small-round
  /// serial fallback did *not* engage).
  uint64_t ParallelRounds() const;

  /// Wall time of the whole run.  In debug builds (NDEBUG undefined) this
  /// checks the phase accounting invariant: the summed match + commit
  /// phase times never exceed the run's wall time (up to measurement
  /// slack); the gap is the "other" time Summary() reports (round-boundary
  /// accounting and governance checks).
  double TotalSeconds() const;

  /// One row per round: `round matches staged committed preempted ...`.
  std::string ToString() const;

  /// One-line run summary — the single formatting point shared by the REPL
  /// and the bench binaries, e.g.
  /// `rounds=3 matches=120 staged=80 deduped=10 committed=70 preempted=0
  ///  inserted=140 match=0.010s commit=0.002s other=0.001s total=0.013s`.
  std::string Summary() const;

 private:
  template <typename T>
  T Sum(T ChaseRoundStats::*field) const {
    T total{};
    for (const ChaseRoundStats& r : rounds) total += r.*field;
    return total;
  }
};

/// Options controlling a chase run.
struct ChaseOptions {
  /// Chase flavour; experiments default to the paper's semi-oblivious one.
  ChaseVariant variant = ChaseVariant::kSemiOblivious;
  /// Maximum number of complete rounds (the `i` of `Ch_i`).
  uint32_t max_rounds = 64;
  /// Safety budget on the total number of atoms.  Enforced per inserted
  /// atom: the result never holds more than `max_atoms` atoms.  It does
  /// not bound the memory one round stages: every application of a round
  /// is matched and staged before the first of its atoms is inserted, so
  /// a round whose matches multiply can stage far more than `max_atoms`
  /// applications.  Use `max_bytes`, which also counts staged bytes
  /// mid-round, to bound memory.
  size_t max_atoms = 2'000'000;
  /// Use semi-naive (delta-driven) evaluation.  Disabling re-enumerates all
  /// matches each round; exists as an ablation (see DESIGN.md).
  bool semi_naive = true;
  /// Worker threads for the match-enumeration phase of each round.
  /// 1 (default) runs fully sequentially on the calling thread; 0 asks for
  /// one worker per hardware thread.  Results are byte-identical across
  /// thread counts: workers only *enumerate* matches into per-task buffers
  /// which are merged in a fixed order, and the commit phase — Skolem
  /// interning and the batch insert — always runs on the calling thread
  /// (see DESIGN.md §5).
  uint32_t threads = 1;
  /// Small-round serial fallback: when the round's work hint (the input
  /// delta for the first round, the previous round's matches + staged
  /// applications after that) falls below this threshold, the match phase
  /// stays on the calling thread even with `threads > 1`; commit runs on
  /// the calling thread either way.  Dispatching a handful of matches to
  /// a pool costs more than the work itself (the E17a 2-thread
  /// regression), so thin rounds run serially; the decision is recorded in
  /// ChaseRoundStats::used_threads and never affects results (byte-identity
  /// holds at every thread count anyway).
  uint64_t serial_round_threshold = 2048;
  /// Record the first derivation of every produced atom.
  bool track_provenance = false;
  /// Record *every* derivation of every produced atom (implies
  /// track_provenance; memory-heavy, used by the ancestor experiments of
  /// Section 13 where the adversarial choice among derivations matters).
  bool record_all_derivations = false;
  /// Optional application filter ("strategy"): called before each rule
  /// application with the rule index, the body/domain-variable match, and
  /// the current stage; returning false skips the application.  Used by
  /// experiments to run sound under-approximations of theories whose full
  /// chase explodes (e.g. skipping (pins) on terms that provably cannot
  /// contribute to a target query; see catalog/strategies.h).  The
  /// resulting structure is a subset of the true chase, so query
  /// satisfaction remains sound.
  ///
  /// With `threads > 1` the filter is invoked concurrently from worker
  /// threads (the stage is frozen during the match phase); it must be
  /// safe to call in parallel — i.e. a pure function of its arguments, as
  /// all catalog strategies are.
  std::function<bool(size_t rule_index, const Substitution& sigma,
                     const FactSet& stage)>
      filter;
  /// Wall-clock budget in seconds, measured from entry into Run/Resume.
  /// <= 0 disables the deadline.  A tripped deadline stops at the next round
  /// boundary (the in-flight round is abandoned) with ChaseStop::kDeadline.
  /// *Where* the deadline trips is timing-dependent, but every trip lands on
  /// a round boundary, so interrupting and resuming always converges to the
  /// byte-identical full run.
  double deadline_seconds = 0.0;
  /// Approximate live-memory budget in bytes over the chase's own state
  /// (atoms, derivations, frontier memo, staged applications).  0 disables
  /// it.
  /// Enforced at deterministic points only, so a given (db, theory, options)
  /// triple trips at the same round at every thread count.  The commit phase
  /// of a round is never interrupted, so the budget can be overshot by at
  /// most one round's worth of staged insertions.
  size_t max_bytes = 0;
  /// Optional external cancellation token, checked at the same cooperative
  /// points as the budgets.  Cancellation stops at the next round boundary
  /// with ChaseStop::kCancelled.
  std::shared_ptr<const CancelToken> cancel;
};

/// The result of a chase run: the structure plus per-atom metadata.
///
/// Per-atom vectors are indexed by atom id in `facts`; input atoms come
/// first (depth 0) and every derived atom records the round that created it.
/// Rounds append, so depths never decrease along the atom ids: `Ch_i(T, D)`
/// is an id prefix, which `PrefixAtDepth(i)` recovers exactly for every
/// `i <= complete_rounds`.
struct ChaseResult {
  FactSet facts;
  /// Round at which each atom (by index) entered the structure.
  std::vector<uint32_t> depth;
  /// Number of *complete* rounds: facts includes all of Ch_{complete_rounds}.
  uint32_t complete_rounds = 0;
  ChaseStop stop = ChaseStop::kFixpoint;
  /// First derivation per atom (empty unless track_provenance); input atoms
  /// have no derivation.
  std::vector<std::optional<Derivation>> first_derivation;
  /// All derivations per atom (empty unless record_all_derivations).
  std::vector<std::vector<Derivation>> all_derivations;
  /// Birth atoms (Observation 10), indexed by TermId: `birth_atom[t]` is the
  /// index of the first atom that holds the chase-created term `t` at an
  /// existential head position, and `kNoAtom` for every other term (input
  /// terms, and Skolem terms this run did not insert).  The table ends at
  /// the largest term born so far, so its size is a function of the chase
  /// state alone.  Read it through `BirthAtom`.
  std::vector<uint32_t> birth_atom;
  static constexpr uint32_t kNoAtom = UINT32_MAX;
  /// Per-round counters and timings.
  ChaseStats stats;
  /// Bytes of live chase state at the end of the run — the quantity
  /// ChaseOptions::max_bytes budgets.  This is the *content-mode* ledger
  /// total (base/mem_ledger.h): a pure function of the logical state, so
  /// it is identical across thread counts *and* across interrupted/resumed
  /// reconstructions of the same state (tests/parity_test.cc relies on
  /// both).
  size_t approx_bytes = 0;
  /// High-water mark of the *capacity-mode* ledger total (what the
  /// containers actually reserved, scratch excluded) over all round
  /// boundaries.  Deterministic across thread counts; carried through
  /// snapshots so a resumed run reports the peak of the whole logical
  /// run, not just the tail.
  size_t peak_bytes = 0;
  /// The semi-oblivious dedup memo: (rule index, head-universal
  /// projection) of every application committed so far by a Datalog rule
  /// or by a rule sharing its Skolem block with another rule (every rule's,
  /// under the restricted variant).  Empty when record_all_derivations
  /// disabled dedup.
  FrontierMemo seen_applications;
  /// The applications of every other semi-oblivious rule, as marks on
  /// their Skolem rows (see `AppliedRows`).
  AppliedRows applied_rows;

  /// Every application committed so far — the memo's entries and the
  /// marked rows — as sorted `FrontierMemo::Key` strings: the set
  /// snapshots carry (so a resumed run has identical per-round
  /// `deduped`/`committed` counters) and parity checks compare.
  std::vector<std::string> AppliedKeys() const;

  /// The birth atom of `t`, or kNoAtom if the chase did not create `t`.
  uint32_t BirthAtom(TermId t) const {
    return t < birth_atom.size() ? birth_atom[t] : kNoAtom;
  }

  /// True iff the chase reached a fixpoint, i.e. the (semi-oblivious) chase
  /// of this instance terminates: Ch(T,D) = Ch_{complete_rounds}(T,D).
  bool Terminated() const { return stop == ChaseStop::kFixpoint; }

  /// The stage `Ch_i(T, D)`: all atoms of depth <= i.  Requires
  /// i <= complete_rounds to be exact.
  FactSet PrefixAtDepth(uint32_t i) const;

  /// Depth of the first atom equal to `atom`, or nullopt if absent.
  std::optional<uint32_t> DepthOf(const Atom& atom) const;
};

/// Recomputes the full memory ledger of a chase state from scratch: the
/// fact store, the vocabulary, provenance, and the frontier memo (every
/// component except kScratch, which belongs to an engine's in-flight
/// round).  Each container reports its own bytes (`FrontierMemo::HeapBytes`,
/// `Vocabulary::AccountHeap`, ...); only provenance's inner vectors need a
/// walk.  This is the slow, authoritative recompute the engine's
/// incremental round-boundary accounting is asserted against in debug
/// builds; tests and tools use it to audit `ChaseResult::approx_bytes`
/// (content mode) and the stream's totals (capacity mode).
MemTotals ComputeChaseMemTotals(const ChaseResult& result,
                                const Vocabulary& vocab, MemAccounting mode);

/// The semi-oblivious Skolem chase of Definition 6.
///
/// `Ch_0 = D`; each round applies, in parallel, every rule to every body
/// match of the *current* stage, adding the skolemized heads (Definitions
/// 4-5).  Skolem terms are hash-consed in the shared `Vocabulary`, so runs
/// over sub-instances produce literally comparable atoms (Observation 8).
///
/// With `ChaseOptions::threads > 1` the match-enumeration phase of each
/// round fans out over a worker pool; the result (atom order, depths,
/// provenance, stop reason) is byte-identical to the sequential engine.
class ChaseEngine {
 public:
  /// Prepares the engine: interns Skolem functions for every rule head and
  /// precomputes per-rule match metadata.
  ChaseEngine(Vocabulary& vocab, const Theory& theory);

  /// Runs the chase from `db` under `options`.
  ChaseResult Run(const FactSet& db, const ChaseOptions& options) const;

  /// Resumes an interrupted run from `snapshot` (see chase/snapshot.h).
  /// The snapshot must come from a run over this engine's theory with
  /// compatible options (variant, semi-naive mode, provenance flags, filter
  /// presence — all checked), its stop reason must satisfy IsResumableStop,
  /// and the engine's vocabulary must already contain the snapshot's terms
  /// (either the original vocabulary, or a fresh one rebuilt with
  /// ApplySnapshotVocabulary).  The final result — atoms, order, TermIds,
  /// depths, provenance, per-round counters — is byte-identical to an
  /// uninterrupted run at any thread count.
  ChaseResult Resume(const ChaseSnapshot& snapshot,
                     const ChaseOptions& options) const;

  /// Convenience: runs exactly `rounds` rounds (or to fixpoint, whichever
  /// comes first) with default budgets.
  ChaseResult RunToDepth(const FactSet& db, uint32_t rounds) const;

  /// The theory this engine chases.
  const Theory& theory() const { return theory_; }

 private:
  // Mutable state threaded through the round loop; built by Run from a
  // database or by Resume from a snapshot, consumed by RunFromState.
  struct RunState;
  // One run's round loop: the phases RunFromState drives (DESIGN.md §5,
  // Plan → Match → Commit → Close) and the round boundary they end in.
  // Defined in chase.cc.
  class RoundLoop;
  ChaseResult RunFromState(RunState state, const ChaseOptions& options) const;
  // Declares in `facts` every position a run under `options` reads the
  // postings of, before its first round (FactSet's "Indexed positions").
  void DeclareReadPositions(FactSet& facts, const ChaseOptions& options) const;

  // --- Set-at-a-time commit layout ----------------------------------------
  // The commit phase expands staged applications from a flat binding tuple
  // (the values of `commit_vars` under the match substitution) straight
  // into columnar pending rows, without materialising a Substitution or an
  // Atom per head.  All existential nulls of one application intern as a
  // single Skolem block row (one hash probe per application).

  struct HeadSlot {
    enum Kind : uint8_t {
      kBinding,      // value = bindings[index]
      kRigid,        // value = the TermId `index` itself (constants)
      kExistential,  // value = skolem row null `index` (first null + index)
    };
    Kind kind;
    uint32_t index;
  };
  struct HeadAtomLayout {
    PredicateId predicate;
    std::vector<HeadSlot> slots;  // one per argument position
  };
  struct CommitLayout {
    // The binding tuple order: the rule's head-universal variables.  This
    // is the frontier memo's projection, so one tuple serves dedup, the
    // restricted recheck, Skolem arguments, and head expansion.
    std::vector<TermId> commit_vars;
    // Where a match's value of each commit var is read from: a body match
    // plan's slot (< body_vars.size(); the plan numbers slots in
    // `body_vars` order), or domain variable `source - body_vars.size()`.
    std::vector<uint32_t> commit_sources;
    std::vector<HeadAtomLayout> head;
    // Skolem block for the head's existential tuple, in head-first-
    // occurrence order (the same order the lazy per-atom interning used),
    // or kNoSkolemBlock for Datalog rules.  Its arguments are
    // `commit_vars` (sh.fn_args), so a binding tuple is the row key as it
    // stands.
    uint32_t skolem_block = UINT32_MAX;
    // True if no other rule of the theory uses `skolem_block`: the
    // semi-oblivious commit then records this rule's applications as
    // `AppliedRows` marks instead of `FrontierMemo` entries.
    bool row_memo = false;
  };
  static constexpr uint32_t kNoSkolemBlock = UINT32_MAX;

  /// The first Skolem null of `rule_index` under `bindings` (values of
  /// the rule's `commit_vars`), interned as one block row whose nulls are
  /// consecutive TermIds; kNoTerm for a Datalog rule.
  TermId FirstSkolemNull(size_t rule_index, const TermId* bindings) const;

  /// Appends the instantiated head rows of `rule_index` under `bindings`
  /// and the application's Skolem nulls (from `first_null` on) to `out`.
  void ExpandHead(size_t rule_index, const TermId* bindings,
                  TermId first_null, RowBlock* out) const;

  Vocabulary& vocab_;
  Theory theory_;
  std::vector<SkolemizedHead> skolemized_;
  std::vector<CommitLayout> commit_layouts_;
  // Skolem block id -> the rule whose `row_memo` block it is, or
  // AppliedRows::kNoRule; each run's `AppliedRows` keeps a copy.
  std::vector<uint32_t> row_memo_rules_;
  // Per-rule, per-head-atom: which argument positions hold existential
  // variables (freshly-invented terms after skolemization).
  std::vector<std::vector<std::vector<bool>>> existential_positions_;
  // Per-rule mappable terms: the body variables, for body match plans, and
  // every head variable, for the restricted variant's head checks (the
  // head-universal ones are bound per application, so the search assigns
  // only the existentials).
  std::vector<std::unordered_set<TermId>> body_vars_;
  std::vector<std::unordered_set<TermId>> head_vars_;
  // Rules that cannot be driven purely by atom deltas: nonempty body plus
  // domain variables.  They are re-enumerated naively every round.
  std::vector<bool> needs_naive_;
  // The (predicate, position) pairs whose postings the body match plans
  // read, and those the restricted variant's head checks read besides.
  std::vector<std::pair<PredicateId, uint32_t>> body_read_positions_;
  std::vector<std::pair<PredicateId, uint32_t>> head_read_positions_;
};

}  // namespace frontiers

#endif  // FRONTIERS_CHASE_CHASE_H_
