#ifndef FRONTIERS_HOM_MATCHER_H_
#define FRONTIERS_HOM_MATCHER_H_

#include <functional>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/answer_table.h"
#include "tgd/substitution.h"

namespace frontiers {

namespace match_internal {

// An array that lives inside its owner up to `N` elements and spills to
// the heap past them: compiling a rule body or a CQ allocates nothing,
// while a structure-sized pattern (cores, structure homomorphisms) pays
// one allocation per array.
template <typename T, size_t N>
class InlineArray {
 public:
  explicit InlineArray(size_t n) {
    if (n > N) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  InlineArray(const InlineArray&) = delete;
  InlineArray& operator=(const InlineArray&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T inline_[N];
  std::vector<T> heap_;
  T* data_ = inline_;
};

constexpr size_t kInlineAtoms = 4;
constexpr size_t kInlineArgs = 24;

}  // namespace match_internal

/// A pattern compiled once for repeated backtracking search against one
/// frozen target: the one search behind every `Matcher` call, and the
/// chase's per-unit match plan.
///
/// Compiling turns every pattern argument into a dense variable *slot* (a
/// term in `mappable` not bound by `initial`) or a fixed term (rigid, or
/// bound by `initial`).  Slots are numbered in order of first occurrence in
/// the pattern, so the numbering is a function of the pattern, `mappable`
/// and `initial` alone — callers may precompute slot indices.  Each atom
/// resolves its predicate's columns and posting maps once.  A run binds
/// slots in a flat array; nothing in its loop hashes or allocates.
///
/// At every step the search picks the unmatched atom with the fewest
/// candidate target atoms (the most selective posting list of a fixed or
/// bound position, the first such position on ties), the classic fail-first
/// heuristic, and tries the candidates in posting-list order.  That order
/// is a contract: the chase stages applications in the order a run emits
/// them, so the emitted sequence is a function of the pattern, the bindings
/// in place when the run starts and the target alone.  A slot bound by
/// `Seed` or `Bind` is searched exactly like a term fixed by `initial`.
///
/// A plan caches posting-list views and column pointers of its target, so
/// it is valid only while the target is not mutated: compile it after the
/// last insert and drop it before the next.  A plan is single-threaded
/// state; concurrent readers of one target each compile their own.
///
/// A plan reads the postings of exactly the positions `ProbedPositions`
/// names, and indexes each one it reads (`FactSet::Postings`): the fixed
/// positions and those of slots shared by two atoms when it compiles, and
/// those of a slot bound by `Bind` when it is first bound.
class MatchPlan {
 public:
  /// Slot index of a term that has no slot.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Compiles `pattern` against `target`, which must outlive the plan.
  MatchPlan(const FactSet& target, const std::vector<Atom>& pattern,
            const std::unordered_set<TermId>& mappable,
            const Substitution& initial = {});

  MatchPlan(const MatchPlan&) = delete;
  MatchPlan& operator=(const MatchPlan&) = delete;

  uint32_t slot_count() const { return slot_count_; }
  /// The pattern term of slot `s`.
  TermId SlotVar(uint32_t s) const { return slot_vars_[s]; }
  /// The slot of `t`, or kNoSlot.
  uint32_t SlotOf(TermId t) const;
  /// The slot array: `slots()[s]` is slot `s`'s binding, kNoTerm while
  /// unbound.  Complete during a match callback.
  const TermId* slots() const { return &bindings_[0]; }
  /// Id (in the target) of the fact pattern atom `atom` is matched to:
  /// valid during a match callback, and for a seeded atom.
  uint32_t MatchedFact(uint32_t atom) const { return atoms_[atom].matched; }

  /// Matches pattern atom `atom` to the target's fact `fact_index`,
  /// which must have the atom's predicate: binds its unbound slots from the
  /// fact's columns, checks its rigid positions and repeated or already
  /// bound slots, and takes the atom out of the search.  Returns false, with
  /// every binding exactly as it was, when the fact does not fit.
  bool Seed(uint32_t atom, uint32_t fact_index);
  /// Undoes a successful `Seed(atom, ...)`.
  void Unseed(uint32_t atom);

  /// Binds the unbound slot `s` to `value` for the following runs, until
  /// `Unbind(s)`.
  void Bind(uint32_t s, TermId value) {
    if (!slot_indexed_[s]) IndexSlot(s);
    bindings_[s] = value;
  }
  void Unbind(uint32_t s) { bindings_[s] = kNoTerm; }

  /// Enumerates every complete match under the current bindings;
  /// `on_match()` returns false to stop.  Returns true if the search ran to
  /// completion.  Each run adds one enumeration and its own candidate and
  /// match counts to `frontiers.hom.{enumerations,candidates,matches}`.
  template <typename OnMatch>
  bool Run(OnMatch&& on_match) {
    using F = std::remove_reference_t<OnMatch>;
    return RunWith(&Call<F>,
                   const_cast<void*>(static_cast<const void*>(&on_match)));
  }

  /// Adds the distinct projections onto `terms` to `answers` (see
  /// Matcher::Project): answer slots are bound first, and each new tuple is
  /// then one existence check of the rest.
  void Project(const std::vector<TermId>& terms, AnswerTable& answers);

 private:
  struct Arg {
    uint32_t slot;   // variable slot, or kNoSlot for a fixed term
    TermId term;     // the fixed term
    // This position's postings; nullptr until the position can be probed
    // (and always when the atom cannot match).
    const FactSet::PositionIndex* index;
    const TermId* column;  // this position's column
  };

  struct AtomPlan {
    uint32_t first_arg;  // into args_ and ops_
    uint32_t arity;
    const FactSet::PredicateIndex* pidx;  // nullptr: the atom cannot match
    const ColumnarSegment* segment;       // nullptr: the atom cannot match
    PostingList all_rows;    // the predicate's rows, for an unconstrained atom
    PostingList fixed_best;  // most selective fixed position's postings
    uint32_t fixed_pos;      // its position, or kNoSlot
    uint32_t matched;        // the fact matched (seeded or in the search)
    uint32_t seed_binds;     // Seed: slots bound, listed in the atom's ops_
    bool done;
  };

  // One position of a frame's plan.
  enum class OpKind : uint8_t { kCheckTerm, kBind, kCheckSlot };
  struct Op {
    const TermId* column;
    uint32_t operand;  // the term to compare with, or the slot
    OpKind kind;
  };

  template <typename F>
  static bool Call(void* f) {
    return (*static_cast<F*>(f))();
  }

  bool RunWith(bool (*call)(void*), void* callee);
  void IndexSlot(uint32_t s);
  PostingList CandidatesFor(const AtomPlan& atom) const;
  bool BindsAnswer(const AtomPlan& atom) const;
  bool AnswersBound() const;
  bool Solve();
  bool Branch(AtomPlan& atom, PostingList candidates);
  bool CheckTuple();

  const FactSet& target_;
  uint32_t atom_count_;
  const size_t arg_count_;
  uint32_t slot_count_ = 0;
  bool dead_ = false;  // some atom has no candidates: no match exists
  match_internal::InlineArray<AtomPlan, match_internal::kInlineAtoms> atoms_;
  match_internal::InlineArray<Arg, match_internal::kInlineArgs> args_;
  // One region per atom (at its first_arg): the frame plan of a searched
  // atom, or the slots a seeded atom bound.
  match_internal::InlineArray<Op, match_internal::kInlineArgs> ops_;
  match_internal::InlineArray<TermId, match_internal::kInlineArgs> slot_vars_;
  // By slot; kNoTerm = unbound.
  match_internal::InlineArray<TermId, match_internal::kInlineArgs> bindings_;
  // By slot: the postings of every position holding the slot are resolved.
  match_internal::InlineArray<uint8_t, match_internal::kInlineArgs>
      slot_indexed_;
  // The running enumeration's callback.
  bool (*call_)(void*) = nullptr;
  void* callee_ = nullptr;
  // Work counters of the running enumeration, published once by RunWith.
  uint64_t candidates_ = 0;
  uint64_t matches_ = 0;
  // Projection state (Project only): the tuple under construction and the
  // slot of each of its positions (kNoSlot: a term that projects to itself).
  AnswerTable* answers_ = nullptr;
  std::vector<TermId> tuple_;
  std::vector<uint32_t> tuple_slots_;
  bool checking_ = false;
};

/// Calls `fn(predicate, position)` for each position of `pattern` whose
/// postings a `MatchPlan` over it can read while the terms in `bound` are
/// bound (by `initial`, `Seed` or `Bind`): a position holding a term outside
/// `mappable`, a term in `bound`, or a term of `mappable` that also occurs
/// in another atom of `pattern`.  A position of a variable that occurs in
/// one atom only is never probed: the search binds it only while scanning
/// that atom's candidates.  Positions repeat when the pattern repeats them.
template <typename Fn>
void ProbedPositions(const std::vector<Atom>& pattern,
                     const std::unordered_set<TermId>& mappable,
                     const std::unordered_set<TermId>& bound, Fn&& fn) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    const Atom& atom = pattern[i];
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      const TermId t = atom.args[pos];
      bool probed = mappable.count(t) == 0 || bound.count(t) > 0;
      for (size_t j = 0; j < pattern.size() && !probed; ++j) {
        probed = j != i && pattern[j].ContainsTerm(t);
      }
      if (probed) fn(atom.predicate, pos);
    }
  }
}

/// Backtracking pattern matcher: finds assignments of the *mappable* terms
/// of an atom pattern such that every pattern atom lands inside a target
/// fact set.
///
/// The same engine serves every homomorphism-shaped question in the paper:
///   * CQ evaluation over instances and chase prefixes (`Hom(rho, F)` of
///     Definition 5, query satisfaction of Section 2),
///   * query containment (homomorphisms between queries, Observation 2's
///     footnote),
///   * structure-to-structure homomorphisms and cores (Definitions 19/24),
/// differing only in *which terms are mappable*: query variables, all
/// non-fixed domain elements, etc.  Terms outside `mappable` are rigid and
/// must match themselves.
///
/// Every call compiles its pattern into a `MatchPlan` (with `initial`'s
/// bindings as fixed terms) and runs it once; the emitted order is the
/// plan's contract.
///
/// A Matcher holds no mutable state (each call compiles its own plan), so
/// one instance may be shared by concurrent readers as long as nobody
/// mutates the underlying fact set or vocabulary meanwhile.
class Matcher {
 public:
  /// Creates a matcher over `target`.  Both references must outlive the
  /// matcher.
  Matcher(const Vocabulary& vocab, const FactSet& target)
      : vocab_(vocab), target_(target) {}

  /// Enumerates all total assignments extending `initial`.  The callback
  /// receives each complete substitution; returning `false` stops the
  /// enumeration.  Returns true if the enumeration ran to completion.
  ///
  /// Every term of `pattern` that is in `mappable` and not already bound by
  /// `initial` is assigned; all other terms are rigid.  The callback sees
  /// exactly `initial` plus the bindings of those terms.
  bool ForEach(const std::vector<Atom>& pattern,
               const std::unordered_set<TermId>& mappable,
               const Substitution& initial,
               const std::function<bool(const Substitution&)>& callback) const;

  /// First match or nullopt.
  std::optional<Substitution> Find(
      const std::vector<Atom>& pattern,
      const std::unordered_set<TermId>& mappable,
      const Substitution& initial = {}) const;

  /// True if some match exists.
  bool Exists(const std::vector<Atom>& pattern,
              const std::unordered_set<TermId>& mappable,
              const Substitution& initial = {}) const;

  /// Adds to `answers` every distinct projection of the matches of
  /// `pattern` onto `terms` (`answers.width()` must be `terms.size()`); a
  /// term that no match binds projects to itself.  Enumerates projections,
  /// not matches:
  ///   * each connected component (atoms linked by shared mappable terms)
  ///     that holds none of `terms` is one existence check, and a failed
  ///     check leaves `answers` untouched;
  ///   * in the other atoms, atoms that bind a still-unbound projected term
  ///     are matched first (fail-first among them);
  ///   * once every projected term is bound, the rest of the pattern is only
  ///     checked for some match, and not at all when the tuple is already
  ///     in `answers`.
  void Project(const std::vector<Atom>& pattern,
               const std::unordered_set<TermId>& mappable,
               const std::vector<TermId>& terms, AnswerTable& answers) const;

 private:
  const Vocabulary& vocab_;
  const FactSet& target_;
};

}  // namespace frontiers

#endif  // FRONTIERS_HOM_MATCHER_H_
