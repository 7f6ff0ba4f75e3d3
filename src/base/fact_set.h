#ifndef FRONTIERS_BASE_FACT_SET_H_
#define FRONTIERS_BASE_FACT_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/atom.h"
#include "base/columnar.h"
#include "base/vocabulary.h"

namespace frontiers {

class WorkerPool;  // base/worker_pool.h

/// A finite structure / database instance / fact set: a duplicate-free set
/// of atoms with access-path indexes.
///
/// Faithful to Section 2 of the paper, a `FactSet` is *just* a set of facts;
/// its active domain `dom(F)` is derived.  The class maintains, besides the
/// atom store:
///
///  * a per-predicate index (`ByPredicate`), and
///  * a per-(predicate, position, term) index (`ByPredicatePositionTerm`)
///
/// which are the two access paths the CQ matcher and the chase's semi-naive
/// join need.  Atoms are kept in insertion order, so iteration (and hence
/// everything built on top, including chase runs) is deterministic.
///
/// **Indexed positions.**  A (predicate, position) gets a posting map only
/// once a reader asks for it, because most positions are never probed
/// (the chase's Example 39 star reads one position of its four-place
/// predicate).  A position is indexed when it is
///
///  * declared with `Declare` — the chase declares, before its first round,
///    every position its match plans and head checks can probe; a position
///    of a predicate with no rows yet is indexed from its first row on; or
///  * first read through `Postings` or `ByPredicatePositionTerm` — a match
///    plan's compile, CQ evaluation, containment and cores.  Such a
///    *build on read* takes the store's index mutex once and publishes the
///    position with release/acquire, so a lookup of an indexed position
///    never locks.
///
/// A position indexed late is built from its column in append order, so
/// every posting list is identical to the one the eager store kept.  From
/// then on inserts append to it; an unindexed position fills its column
/// only.  Indexes are derived state: copies keep them, snapshots do not.
/// Which positions are indexed moves the postings share of the memory
/// ledger, so a chase declares them all before its first round and checks
/// that no round builds one on read (`positions_built_on_read`): its
/// content-mode ledger is then a function of the theory and the data, the
/// same at every thread count and across interrupt/resume.
///
/// Storage is columnar, and the columns are the only copy of a row: each
/// predicate's argument terms live in struct-of-arrays `ColumnarSegment`
/// columns, and one dense per-row table maps an atom id to its predicate
/// and its row within that predicate's segment.  The dedup index and the
/// posting lists key by atom id into that store.  A row is read back by id
/// (`PredicateOf`, and `Segment`/`LocalRow` for its terms); `ToAtom` and
/// `ToAtoms` build owned atoms for the callers that want them.
///
/// **Sharding & concurrency contract.**  The dedup index is partitioned
/// into `shard_count()` shards keyed by (predicate, first ground term), so
/// a high-fanout predicate's rows spread across every shard while duplicate
/// rows always land in the same shard (duplicates agree on both keys).
/// Each shard owns its partition's open-addressed table and a mutex;
/// `InsertBatchParallel` commits one block with one task per shard (dedup)
/// plus one task per (predicate, position) pair (the column, and the
/// postings of an indexed position), all
/// writing disjoint pre-assigned slots.  *Reads take no locks anywhere*:
/// between commit phases the segments, postings, and dedup tables are
/// epoch-stable (nothing mutates them), which is what lets the chase's
/// match workers scan the store freely.  Observable state — atom order,
/// segment rows, posting-list order, domain order — never depends on the
/// shard count or the worker count; shards partition *work*, not
/// semantics.
class FactSet {
 public:
  /// Default dedup shard count (power of two).  Small enough that tiny
  /// instances don't pay table overhead, large enough that an 8-thread
  /// commit has a shard per worker.
  static constexpr uint32_t kDefaultShards = 8;

  FactSet() : FactSet(kDefaultShards) {}

  /// Constructs a store with `shard_count` dedup shards (rounded up to a
  /// power of two, clamped to [1, 256]).  The shard count is a pure
  /// performance knob: every observable behaviour is identical across
  /// shard counts (asserted by tests/shard_test.cc).
  explicit FactSet(uint32_t shard_count);

  // Copies duplicate the data and get fresh (unlocked) shard mutexes; a
  // copy made while another thread commits into the source is a data race,
  // exactly as for any other container.
  FactSet(const FactSet& other);
  FactSet& operator=(const FactSet& other);
  FactSet(FactSet&&) = default;
  FactSet& operator=(FactSet&&) = default;

  /// Number of dedup shards (always a power of two).
  uint32_t shard_count() const { return shard_mask_ + 1; }

  /// Inserts an atom; returns true if it was new.
  bool Insert(const Atom& atom);

  /// Outcome of a row-level insert: the atom's id (fresh or pre-existing)
  /// and whether this call inserted it.
  struct InsertOutcome {
    uint32_t index;
    bool inserted;
  };

  /// Inserts the row `predicate(terms[0..arity))`; duplicates are detected
  /// without materialising an `Atom`.
  InsertOutcome InsertRow(PredicateId predicate, const TermId* terms,
                          uint32_t arity);

  /// Bulk-inserts every row of `block` in order, as if by repeated
  /// `InsertRow`, pre-sizing the dedup table and segments once for the
  /// whole batch.  Appends one `InsertOutcome` per row to `outcomes` (if
  /// non-null) and returns the number of new atoms.
  ///
  /// `max_size` caps the store: the batch stops (without consuming the
  /// row) at the first *new* row that would push `size()` past the cap;
  /// duplicate rows are still recorded past the cap.  A truncated batch is
  /// visible as `outcomes->size() < block.rows()`.
  size_t InsertBatch(const RowBlock& block,
                     std::vector<InsertOutcome>* outcomes,
                     size_t max_size = SIZE_MAX);

  /// Sub-phase timings of one batch commit, for the chase's commit
  /// attribution (expand / dedup / index).
  struct BatchTimings {
    double dedup_seconds = 0.0;  ///< hash + shard dedup probes + id assignment
    double index_seconds = 0.0;  ///< column fill, postings, rows, domain
  };

  /// Per-batch shard occupancy and contention, for the obs layer's
  /// metrics and the chase's round record.  All timing fields
  /// are pure observation: they are filled from per-task clock reads into
  /// disjoint scratch slots and never influence the committed state.
  struct BatchStats {
    uint32_t shards_touched = 0;   ///< shards that saw at least one row
    uint64_t max_shard_rows = 0;   ///< rows routed to the busiest shard
    uint64_t new_atoms = 0;        ///< rows that were actually new
    uint64_t rows = 0;             ///< rows in the batch
    /// Shard-mutex contention summed over the batch's dedup + fix-up
    /// tasks: time spent blocked acquiring vs holding a shard mutex.
    uint64_t shard_wait_ns = 0;
    uint64_t shard_hold_ns = 0;
    uint64_t max_shard_wait_ns = 0;  ///< worst single shard's wait
  };

  /// The pipelined twin of `InsertBatch`: byte-identical outcomes and
  /// store state, computed with one dedup task per shard and one index
  /// task per (predicate, position), executed on `pool` (or inline when
  /// `pool` is null — same code path, still phase-timed).
  ///
  /// Determinism: new rows keep their block order — global atom ids are
  /// assigned by a serial pass over the block after the parallel dedup
  /// phase, and every index task writes pre-assigned disjoint slots — so
  /// the resulting store is byte-identical to `InsertBatch` at every pool
  /// size and shard count.
  ///
  /// A batch that could truncate against `max_size` falls back to the
  /// serial path (truncation is insert-by-insert stateful and terminal for
  /// the caller anyway); its whole duration is attributed to
  /// `timings->dedup_seconds`.
  ///
  /// Failpoints: `fact_set.insert_batch` (admission, like the serial
  /// path) and `fact_set.shard_commit` (fired inside a shard's dedup
  /// task).  On a shard fault the batch aborts whole: provisional dedup
  /// entries are rolled back shard by shard, no outcome is appended, 0 is
  /// returned, and the store is byte-identical to its pre-batch state.
  size_t InsertBatchParallel(const RowBlock& block,
                             std::vector<InsertOutcome>* outcomes,
                             WorkerPool* pool, size_t max_size = SIZE_MAX,
                             BatchTimings* timings = nullptr,
                             BatchStats* stats = nullptr);

  /// Index of the row `predicate(terms[0..arity))`, if present.
  std::optional<uint32_t> FindRow(PredicateId predicate, const TermId* terms,
                                  uint32_t arity) const;

  /// Inserts every atom of `other`; returns the number of new atoms.
  size_t InsertAll(const FactSet& other);

  /// Membership test.
  bool Contains(const Atom& atom) const { return IndexOf(atom).has_value(); }

  /// Id of `atom`, if present.  Ids count from 0 in insertion order.
  std::optional<uint32_t> IndexOf(const Atom& atom) const;

  /// Number of atoms.
  size_t size() const { return rows_.size(); }

  /// True if the set has no atoms.
  bool empty() const { return rows_.empty(); }

  /// Predicate of atom `id`.
  PredicateId PredicateOf(uint32_t id) const { return rows_[id].predicate; }

  /// Atom `id` as an owned value, read from its columns.
  Atom ToAtom(uint32_t id) const;

  /// Every atom as an owned value, in id order.  For whole-set compares
  /// and cold pattern uses; a per-row reader uses `ToAtom` or the columns.
  std::vector<Atom> ToAtoms() const;

  /// The columnar term store for predicate `p`, or nullptr if no atom with
  /// that predicate has been inserted.  Row `LocalRow(id)` of the segment
  /// holds the terms of atom `id`.
  const ColumnarSegment* Segment(PredicateId p) const {
    const PredicateIndex* pidx = Predicate(p);
    return pidx == nullptr ? nullptr : &pidx->segment;
  }

  /// Row of atom `id` within its predicate's segment.
  uint32_t LocalRow(uint32_t id) const { return rows_[id].local; }

  /// Ids of atoms with the given predicate.
  const std::vector<uint32_t>& ByPredicate(PredicateId p) const;

  /// Indices of atoms with predicate `p` whose argument at `position`
  /// equals `t`, in insertion order.  Indexes the position if it is not
  /// yet.  The view stays valid until the next insert.
  PostingList ByPredicatePositionTerm(PredicateId p, uint32_t position,
                                      TermId t) const;

  /// The access path of one argument position: term -> posting list.
  /// Each position owns its posting map *and* its chunk pool, so the
  /// parallel commit's per-(predicate, position) index tasks never share an
  /// allocator.  Until the position is indexed both stay empty; read it
  /// only through `FactSet::Postings`, which indexes it first.
  struct PositionIndex {
    PositionIndex() = default;
    PositionIndex(const PositionIndex& other);
    PositionIndex& operator=(const PositionIndex& other);

    /// `ByPredicatePositionTerm` for this (indexed) position.
    PostingList Lookup(TermId t) const {
      const PostingMap::Entry* e = map.Find(t);
      if (e == nullptr) return PostingList();
      return PostingList(&pool, e->head, e->count);
    }

    // Written under the store's index mutex by a build on read, which is
    // why a const store can fill them.  `indexed` is stored with release
    // once `map` holds every row; a reader that loads it with acquire
    // reads `map` and `pool` without a lock.
    mutable std::atomic<bool> indexed{false};
    mutable PostingMap map;
    mutable PostingPool pool;
  };

  /// Everything keyed by one predicate, in one struct, so an insert
  /// resolves the predicate once and then touches only TermId-keyed
  /// per-position maps — no composite (predicate, position, term) keys.
  struct PredicateIndex {
    explicit PredicateIndex(uint32_t arity)
        : segment(arity), by_position(arity) {}
    ColumnarSegment segment;
    std::vector<uint32_t> atom_ids;  // atom ids, in order
    std::vector<PositionIndex> by_position;  // one per argument position
  };

  /// The access paths of `p`, or nullptr when no atom of `p` has been
  /// inserted.  A caller that probes one predicate many times (the
  /// matcher) resolves it once instead of paying the predicate lookup
  /// that `Segment`, `ByPredicate` and `ByPredicatePositionTerm` each pay.
  /// Valid until the next insert.
  const PredicateIndex* Predicate(PredicateId p) const {
    auto it = predicates_.find(p);
    return it == predicates_.end() ? nullptr : &it->second;
  }

  /// Indexes position `position` of `p` from now on: builds its postings
  /// now if `p` has rows, or from `p`'s first row on if it has none.
  /// Idempotent; a position past `p`'s arity is ignored.
  void Declare(PredicateId p, uint32_t position);

  /// True if position `position` of `p` is indexed or declared.
  bool Indexed(PredicateId p, uint32_t position) const;

  /// The postings of position `position` of `pidx` (one of this store's
  /// predicates, `position` below its arity), indexing the position first
  /// if it is not yet.  Safe to call from concurrent readers.
  const PositionIndex& Postings(const PredicateIndex& pidx,
                                uint32_t position) const;

  /// How many positions a reader has indexed by reading them (as opposed
  /// to declaring them) since this store was created or copied.
  uint64_t positions_built_on_read() const;

  /// Forgets every indexed and declared position; the rows stay.
  void ClearIndexes();

  /// The active domain: every term occurring in some atom, in first-seen
  /// order.
  const std::vector<TermId>& Domain() const { return domain_; }

  /// True if `t` occurs in some atom.
  bool ContainsTerm(TermId t) const {
    return t < atom_degree_.size() && atom_degree_[t] > 0;
  }

  /// True if every atom of this set is in `other`.
  bool IsSubsetOf(const FactSet& other) const;

  /// Set equality (order-insensitive).
  bool SetEquals(const FactSet& other) const {
    return size() == other.size() && IsSubsetOf(other);
  }

  /// The substructure induced on `keep`: all atoms whose terms all belong
  /// to `keep` (Definition 36 uses this to carve `M_F` out of a chase).
  FactSet InducedOn(const std::unordered_set<TermId>& keep) const;

  /// Degree of `t` in the Gaifman sense restricted to atom incidence: the
  /// number of atoms in which `t` occurs.
  uint32_t AtomDegree(TermId t) const;

  /// Renders `{A(...), B(...)}`.
  std::string ToString(const Vocabulary& vocab) const;

  /// Adds this store's heap footprint into `totals`, component by
  /// component (columns, postings, dedup, fact_meta, scratch), computed
  /// from the store's own bookkeeping in O(predicates × arity + shards).
  /// Deterministic in capacity mode for a fixed insert sequence; see
  /// MemAccounting for the capacity/content contract.
  void AccountHeap(MemTotals& totals, MemAccounting mode) const;

  /// Appends per-predicate attribution rows (columns, postings — in
  /// component-major, predicate-id order) plus the global dedup and
  /// fact_meta rows to `ledger`.  Scratch is deliberately absent: it is
  /// thread-dependent and only ever reported as a diagnostic total.
  void AccountLedger(MemLedger& ledger, MemAccounting mode) const;

 private:
  // One dedup shard: the (hash, atom id) table for rows whose
  // (predicate, first ground term) hashes here, plus the mutex the
  // parallel commit's shard tasks hold while mutating it.
  struct Shard {
    RowIdSet dedup;
  };

  // Provisional dedup ids during a parallel batch: `kBatchRowBit | row`
  // marks "row `row` of the in-flight block", promoted to the final
  // global atom id by the fix-up task once ids are assigned.  Real atom
  // ids must stay below the bit (checked at batch admission).
  static constexpr uint32_t kBatchRowBit = 0x80000000u;

  // Reusable working arrays for `InsertBatchParallel`.  The chase commits
  // one batch per round, and a tiny round must not pay a dozen heap
  // allocations of per-batch scratch — so the arrays keep their capacity
  // across batches.  Pure scratch: dead between calls, never copied (a
  // copy starts with empty scratch).
  struct BatchScratch {
    std::vector<uint64_t> hashes;          // per row
    std::vector<uint32_t> shard_of;        // per row
    std::vector<PredicateIndex*> pidx_of;  // per row
    std::vector<uint32_t> found;           // per row: resident id or marker
    std::vector<uint32_t> row_global;      // per row: assigned global id
    std::vector<uint32_t> plan_of_row;     // per row: index into plans
    std::vector<std::vector<uint32_t>> shard_rows;  // per shard, block order
    std::vector<std::vector<uint32_t>> shard_new;   // per shard: new rows
    std::vector<uint32_t> active_shards;
    std::vector<uint32_t> new_rows;  // block order
    // Per-predicate plan: a predicate's new rows occupy the next slots of
    // its segment in block order.  `plan_rows` is the CSR payload — new
    // rows grouped by plan, block order within each group.
    struct PredPlan {
      PredicateId predicate;
      PredicateIndex* pidx;
      uint32_t old_rows;  // segment rows before this batch
      uint32_t begin;     // into plan_rows
      uint32_t count;
    };
    std::vector<PredPlan> plans;
    std::vector<uint32_t> plan_rows;
    std::unordered_map<PredicateId, uint32_t> plan_of;  // cleared per batch
    // Phase-B work items (kinds defined in fact_set.cc).
    struct IndexTask {
      uint8_t kind;
      uint32_t a;
      uint32_t b;
    };
    std::vector<IndexTask> tasks;
    // Per-shard contention slots (BatchStats).  Disjoint by construction —
    // each shard's dedup and fix-up tasks write exactly its own index — so
    // recording them is race-free and cannot perturb results.
    std::vector<uint64_t> shard_wait_ns;  // per shard, dedup + fix-up
    std::vector<uint64_t> shard_hold_ns;  // per shard, dedup + fix-up
  };

  /// Shard routing: predicate + first ground term (kNoTerm for arity 0).
  /// Duplicate rows agree on both, so dedup stays shard-local.
  uint32_t DedupShardOf(PredicateId predicate, const TermId* terms,
                        uint32_t arity) const {
    const TermId t0 = arity > 0 ? terms[0] : kNoTerm;
    return static_cast<uint32_t>(HashIdSpan(predicate, &t0, 1)) & shard_mask_;
  }

  /// True if atom `id` is the row `predicate(terms)`, checked against the
  /// columnar segment `seg` of `predicate` (whose arity `IndexFor` fixed).
  bool RowMatches(uint32_t id, PredicateId predicate, const TermId* terms,
                  const ColumnarSegment& seg) const {
    return rows_[id].predicate == predicate &&
           seg.RowEquals(rows_[id].local, terms);
  }

  /// The access paths of `predicate`, created for `arity` on first use
  /// (`*fresh`, if given, says whether they were); aborts on an arity
  /// clash.
  PredicateIndex& IndexFor(PredicateId predicate, uint32_t arity,
                           bool* fresh = nullptr);

  /// Shared tail of `Insert`/`InsertRow`/`InsertBatch`: index maintenance
  /// for the freshly appended atom `index`, whose terms are `terms`.
  void IndexNewAtom(uint32_t index, PredicateIndex& pidx, const TermId* terms);

  // Accounting helpers shared by AccountHeap and AccountLedger, so the
  // per-predicate ledger rows sum to exactly the component totals.
  uint64_t PredColumnsBytes(const PredicateIndex& pidx,
                            MemAccounting mode) const;
  uint64_t PredPostingsBytes(const PredicateIndex& pidx,
                             MemAccounting mode) const;
  uint64_t DeclaredAbsentBytes(MemAccounting mode) const;
  uint64_t DedupHeapBytes(MemAccounting mode) const;
  uint64_t MetaHeapBytes(MemAccounting mode) const;
  uint64_t ScratchHeapBytes() const;

  /// Records `t` at position `pos` of the freshly appended `atom` into the
  /// degree/domain structures (first-occurrence-in-atom discipline).
  void CountTermOccurrence(const TermId* args, uint32_t pos);

  void InitShards(uint32_t shard_count);

  /// Fills `pi`, position `position` of `pidx`, from the column in append
  /// order and marks it indexed.  The caller excludes other writers.
  static void BuildPosition(const PredicateIndex& pidx, uint32_t position,
                            const PositionIndex& pi);

  /// Serializes builds on read.  They run only between commits, when no
  /// shard task holds a shard mutex, so shard 0's mutex serves: a store
  /// allocates no mutex of its own for its indexes.
  std::mutex& IndexMutex() const { return *shard_mutexes_[0]; }

  /// Marks the declared positions of the fresh predicate `predicate`
  /// indexed (it has no rows yet, so there is nothing to build).
  void ApplyDeclarations(PredicateId predicate, PredicateIndex& pidx);

  // One entry per atom, indexed by id: its predicate and its row within
  // that predicate's segment.
  struct RowRef {
    PredicateId predicate;
    uint32_t local;
  };
  std::vector<RowRef> rows_;
  std::unordered_map<PredicateId, PredicateIndex> predicates_;
  std::vector<Shard> shards_;
  // Parallel to shards_; unique_ptr keeps FactSet movable and lets copies
  // start with fresh mutexes.
  std::vector<std::unique_ptr<std::mutex>> shard_mutexes_;
  uint32_t shard_mask_ = 0;
  BatchScratch scratch_;  // InsertBatchParallel working arrays; not copied
  std::vector<TermId> domain_;
  // Degree indexed directly by TermId (term ids are dense vocabulary
  // indices); doubles as domain membership — a term is in the active
  // domain iff its degree is non-zero (degrees are never decremented).
  std::vector<uint32_t> atom_degree_;
  // Positions declared for predicates that have no rows yet, as
  // (predicate, position) pairs; moved onto the predicate at its first row.
  std::vector<std::pair<PredicateId, uint32_t>> declared_absent_;
  // Positions built on read, guarded by IndexMutex(); a copy starts at 0.
  mutable uint64_t built_on_read_ = 0;
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_FACT_SET_H_
