#ifndef FRONTIERS_CHASE_EXPLAIN_H_
#define FRONTIERS_CHASE_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "tgd/tgd.h"

namespace frontiers {

/// Derivation-tree explanations from chase provenance.
///
/// Given a provenance-tracked chase run, renders why an atom is entailed:
/// the rule that produced it and, recursively, the derivations of its body
/// match, bottoming out at input facts.  This is the user-facing face of
/// the parent functions of Section 13 (the explanation *is* one concrete
/// `par_T` choice - the chase's first derivation).
struct ExplainOptions {
  /// Cut off recursion below this depth (deep chases repeat structure).
  size_t max_depth = 12;
  /// Indentation unit.
  std::string indent = "  ";
};

/// Renders the derivation tree of atom `atom_index` of `chase.facts`.
/// Requires the chase to have run with `track_provenance`; atoms without
/// recorded provenance are annotated as such.
std::string ExplainAtom(const Vocabulary& vocab, const Theory& theory,
                        const ChaseResult& chase, uint32_t atom_index,
                        const ExplainOptions& options = {});

/// Convenience: finds `atom` in the chase and explains it; returns an
/// explanatory message if the atom is not present.
std::string ExplainAtom(const Vocabulary& vocab, const Theory& theory,
                        const ChaseResult& chase, const Atom& atom,
                        const ExplainOptions& options = {});

}  // namespace frontiers

#endif  // FRONTIERS_CHASE_EXPLAIN_H_
