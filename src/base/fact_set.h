#ifndef FRONTIERS_BASE_FACT_SET_H_
#define FRONTIERS_BASE_FACT_SET_H_

#include <atomic>
#include <cstddef>
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
/// **Concurrency contract.**  Every insert runs on the calling thread.
/// *Reads take no locks*: between inserts the segments, postings and dedup
/// table are stable, which is what lets the chase's match workers scan the
/// store freely.  The one mutex serializes builds on read.
class FactSet {
 public:
  FactSet() = default;

  // Copies duplicate the data and get a fresh (unlocked) index mutex; a
  // copy made while another thread inserts into the source is a data race,
  // exactly as for any other container.
  FactSet(const FactSet& other);
  FactSet& operator=(const FactSet& other);
  FactSet(FactSet&&) = default;
  FactSet& operator=(FactSet&&) = default;

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

  /// Sub-phase timings of one batch insert, for the chase's commit
  /// attribution (expand / dedup / index).
  struct BatchTimings {
    double dedup_seconds = 0.0;  ///< hashing, dedup probes, id assignment
    double index_seconds = 0.0;  ///< rows, columns, postings, domain
  };

  /// Bulk-inserts every row of `block` in order, as if by repeated
  /// `InsertRow`, growing the rows, each touched segment and the dedup
  /// table once for the whole batch.  Appends one `InsertOutcome` per row
  /// to `outcomes` (if non-null) and returns the number of new atoms.
  ///
  /// Two passes: the dedup pass gives each new row its final id (a row is
  /// compared with an earlier new row of the batch in the block itself),
  /// then the index pass fills the rows, columns, postings and domain.
  /// `timings`, if non-null, accumulates the time of each.
  ///
  /// `max_size` caps the store: the batch stops (without consuming the
  /// row) at the first *new* row that would push `size()` past the cap;
  /// duplicate rows are still recorded past the cap.  A truncated batch is
  /// visible as `outcomes->size() < block.rows()`.
  ///
  /// Returns nullopt, with the store untouched and no outcome appended, if
  /// the `fact_set.insert_batch` failpoint refused the batch.
  std::optional<size_t> InsertBatch(const RowBlock& block,
                                    std::vector<InsertOutcome>* outcomes,
                                    size_t max_size = SIZE_MAX,
                                    BatchTimings* timings = nullptr);

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

  /// Ids of atoms with the given predicate, in ascending order: an insert
  /// appends its id.  The chase finds a round's atoms of `p` as a suffix
  /// of this list.
  const std::vector<uint32_t>& ByPredicate(PredicateId p) const;

  /// Indices of atoms with predicate `p` whose argument at `position`
  /// equals `t`, in insertion order.  Indexes the position if it is not
  /// yet.  The view stays valid until the next insert.
  PostingList ByPredicatePositionTerm(PredicateId p, uint32_t position,
                                      TermId t) const;

  /// The access path of one argument position: term -> posting list.
  /// Each position owns its posting map *and* its chunk pool.  Until the
  /// position is indexed both stay empty; read it only through
  /// `FactSet::Postings`, which indexes it first.
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

  /// The active domain: every term occurring in some atom, in
  /// first-occurrence order.  It only appends (an insert adds the terms it
  /// introduces at the end), so the terms a batch of inserts introduced are
  /// the suffix past the size before them; the chase reads a round's new
  /// terms this way.
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
  /// component (columns, postings, dedup, fact_meta), computed from the
  /// store's own bookkeeping in O(predicates × arity).
  /// Deterministic in capacity mode for a fixed insert sequence; see
  /// MemAccounting for the capacity/content contract.
  void AccountHeap(MemTotals& totals, MemAccounting mode) const;

  /// Appends per-predicate attribution rows (columns, postings — in
  /// component-major, predicate-id order) plus the global dedup and
  /// fact_meta rows to `ledger`.
  void AccountLedger(MemLedger& ledger, MemAccounting mode) const;

 private:
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

  /// Records `t` at position `pos` of the freshly appended `atom` into the
  /// degree/domain structures (first-occurrence-in-atom discipline).
  void CountTermOccurrence(const TermId* args, uint32_t pos);

  /// Fills `pi`, position `position` of `pidx`, from the column in append
  /// order and marks it indexed.  The caller excludes other writers.
  static void BuildPosition(const PredicateIndex& pidx, uint32_t position,
                            const PositionIndex& pi);

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
  // (hash, atom id) of every row.
  RowIdSet dedup_;
  std::vector<TermId> domain_;
  // Degree indexed directly by TermId (term ids are dense vocabulary
  // indices); doubles as domain membership — a term is in the active
  // domain iff its degree is non-zero (degrees are never decremented).
  std::vector<uint32_t> atom_degree_;
  // Positions declared for predicates that have no rows yet, as
  // (predicate, position) pairs; moved onto the predicate at its first row.
  std::vector<std::pair<PredicateId, uint32_t>> declared_absent_;
  // Serializes builds on read.  unique_ptr keeps FactSet movable and lets
  // copies start with a fresh mutex.
  std::unique_ptr<std::mutex> index_mutex_ = std::make_unique<std::mutex>();
  // Positions built on read, guarded by index_mutex_; a copy starts at 0.
  mutable uint64_t built_on_read_ = 0;
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_FACT_SET_H_
