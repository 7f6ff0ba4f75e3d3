#ifndef FRONTIERS_REWRITING_UCQ_H_
#define FRONTIERS_REWRITING_UCQ_H_

#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "tgd/conjunctive_query.h"

namespace frontiers {

/// A union of conjunctive queries (Section 2).  This is the shape of every
/// rewriting (Theorem 1); the type bundles the disjunct list with the
/// evaluation and maintenance operations the experiments kept re-rolling.
struct Ucq {
  std::vector<ConjunctiveQuery> disjuncts;
  /// A UCQ that is true on every instance (produced by rewritings under
  /// empty-body rules); disjuncts are then irrelevant.
  bool always_true = false;

  /// Number of disjuncts.
  size_t size() const { return disjuncts.size(); }

  /// The maximal number of atoms in a disjunct (the paper's `rs`).
  size_t MaxDisjunctSize() const;
};

/// True if some disjunct holds on `facts` under `answer` (all disjuncts
/// must share the answer arity).  An always_true UCQ holds whenever the
/// instance is nonempty.
bool Holds(const Vocabulary& vocab, const Ucq& ucq, const FactSet& facts,
           const std::vector<TermId>& answer);

/// Boolean variant.
bool HoldsBoolean(const Vocabulary& vocab, const Ucq& ucq,
                  const FactSet& facts);

/// The union of the disjuncts' answer sets, sorted and deduplicated.
std::vector<std::vector<TermId>> EvaluateUcq(const Vocabulary& vocab,
                                             const Ucq& ucq,
                                             const FactSet& facts);

/// True if some disjunct of `ucq` contains `query` (is at least as
/// general).
bool SomeDisjunctContains(const Vocabulary& vocab, const Ucq& ucq,
                          const ConjunctiveQuery& query);

/// Inserts `query` unless an existing disjunct contains it, and retires the
/// disjuncts the new query contains (Theorem 1 minimality).  Survivors keep
/// their order and `query` is appended.  Returns true if the query was
/// inserted.
///
/// A caller that treats the first `*prefix` disjuncts apart (the rewriter's
/// already-expanded ones) passes `prefix`; it shrinks by the number of
/// retired disjuncts that lay inside it.
bool InsertMinimal(const Vocabulary& vocab, ConjunctiveQuery query, Ucq* ucq,
                   size_t* prefix = nullptr);

/// True if the two UCQs agree on every instance, checked by mutual
/// disjunct containment (sound and complete for UCQs).
bool EquivalentUcqs(const Vocabulary& vocab, const Ucq& a, const Ucq& b);

/// One disjunct per line.
std::string UcqToString(const Vocabulary& vocab, const Ucq& ucq);

}  // namespace frontiers

#endif  // FRONTIERS_REWRITING_UCQ_H_
