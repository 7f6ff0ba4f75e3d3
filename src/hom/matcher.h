#ifndef FRONTIERS_HOM_MATCHER_H_
#define FRONTIERS_HOM_MATCHER_H_

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/answer_table.h"
#include "tgd/substitution.h"

namespace frontiers {

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
/// Every call first compiles its pattern: each argument becomes either a
/// dense variable slot or a fixed term (a rigid term, or one bound by
/// `initial`), and each atom resolves its predicate's columns and posting
/// maps once.  The search then binds slots in a flat array; nothing in its
/// loop hashes or allocates.  At every step it picks the unmatched atom
/// with the fewest candidate target atoms (the most selective posting list
/// of a fixed or bound position, the first such position on ties), the
/// classic fail-first heuristic, and tries the candidates in posting-list
/// order.  That order is a contract: the chase stages applications in the
/// order `ForEach` emits them, so the emitted sequence is a function of the
/// pattern, `initial` and the target alone.
///
/// A Matcher holds no mutable state (each call compiles its own search), so
/// one instance may be shared by concurrent readers as long as nobody
/// mutates the underlying fact set or vocabulary meanwhile — the contract
/// the chase's parallel match phase relies on.  Each enumeration adds its
/// candidate and complete-match counts to `frontiers.hom.candidates` and
/// `frontiers.hom.matches` once, when it ends.
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

/// Attempts to extend `sub` so that `pattern` (whose `mappable` terms may be
/// bound) becomes exactly `fact`.  On failure returns false and rolls back
/// every binding it added, leaving `sub` exactly as passed in — callers
/// (the chase's semi-naive loop, which seeds matches by unifying one body
/// atom with a delta fact) reuse one substitution across attempts.
bool UnifyAtomWithFact(const Atom& pattern, const Atom& fact,
                       const std::unordered_set<TermId>& mappable,
                       Substitution& sub);

}  // namespace frontiers

#endif  // FRONTIERS_HOM_MATCHER_H_
