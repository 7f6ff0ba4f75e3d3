#ifndef FRONTIERS_HOM_QUERY_OPS_H_
#define FRONTIERS_HOM_QUERY_OPS_H_

#include <optional>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/answer_table.h"
#include "tgd/conjunctive_query.h"
#include "tgd/substitution.h"

namespace frontiers {

/// CQ evaluation and the query-order operations of Section 2.

/// True if `facts |= query(answer)`: some homomorphism maps the body into
/// `facts` sending the i-th answer variable to `answer[i]`.
bool Holds(const Vocabulary& vocab, const ConjunctiveQuery& query,
           const FactSet& facts, const std::vector<TermId>& answer);

/// True if the Boolean query holds (`answer` empty).
bool HoldsBoolean(const Vocabulary& vocab, const ConjunctiveQuery& query,
                  const FactSet& facts);

/// All distinct answer tuples of `query` over `facts`, sorted.  Computes
/// projections, not homomorphisms (Matcher::Project): a Boolean query or
/// an answer-free component costs one existence check, and each answer
/// tuple one search for its first witness.
std::vector<std::vector<TermId>> EvaluateQuery(const Vocabulary& vocab,
                                               const ConjunctiveQuery& query,
                                               const FactSet& facts);

/// Adds the answer tuples of `query` over `facts` to `answers`, whose width
/// must be the query's answer arity; UCQ evaluation collects every
/// disjunct into one table this way.
void CollectAnswers(const Vocabulary& vocab, const ConjunctiveQuery& query,
                    const FactSet& facts, AnswerTable& answers);

/// A homomorphism from `from` to `to` mapping the i-th answer variable of
/// `from` to the i-th answer variable of `to` (both queries must have the
/// same number of answer variables), or nullopt.
std::optional<Substitution> QueryHomomorphism(const Vocabulary& vocab,
                                              const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to);

/// The paper's containment order (Section 2): `phi` *contains* `psi` iff
/// every structure satisfying `psi` satisfies `phi`, iff there is a
/// homomorphism from `phi` to `psi` that is the identity on the answer
/// variables.
bool Contains(const Vocabulary& vocab, const ConjunctiveQuery& phi,
              const ConjunctiveQuery& psi);

/// Mutual containment.
bool EquivalentQueries(const Vocabulary& vocab, const ConjunctiveQuery& a,
                       const ConjunctiveQuery& b);

/// The core (minimization) of a CQ: the unique (up to isomorphism) smallest
/// equivalent query, obtained by folding redundant atoms with
/// answer-variable-fixing endomorphisms.  Used by the rewriting engine to
/// keep rewriting sets in the minimal form Theorem 1 requires.
ConjunctiveQuery MinimizeQuery(const Vocabulary& vocab,
                               const ConjunctiveQuery& query);

}  // namespace frontiers

#endif  // FRONTIERS_HOM_QUERY_OPS_H_
