#ifndef FRONTIERS_NORMALIZE_FOREST_H_
#define FRONTIERS_NORMALIZE_FOREST_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "tgd/tgd.h"

namespace frontiers {

/// Section 13's taxonomy of chase atoms and the tree structure it induces.
///
/// For a theory over a binary signature the chase splits into input atoms,
/// *Datalog atoms* (produced by rules without existentials), and
/// *existential atoms*; existential atoms are *detached* (empty-frontier
/// rules - no terms shared with the past) or *sensible*.  Observation 64:
/// the sensible atoms form a forest over the terms, rooted at the input
/// constants and the detached terms, with out-degree bounded by the number
/// of existential rules.

/// Classification of one chase atom.
enum class AtomClass {
  kInput,       ///< depth 0
  kDatalog,     ///< produced by a Datalog rule
  kDetached,    ///< produced by an empty-frontier existential rule
  kSensible,    ///< produced by any other existential rule
};

/// The per-atom classification plus the S(t) forest.
struct ChaseForest {
  std::vector<AtomClass> atom_class;  // indexed by atom id in chase.facts

  /// For each sensible atom: the root term of the tree it belongs to (an
  /// input constant or a detached term).
  std::unordered_map<uint32_t, TermId> tree_root_of_atom;

  /// Roots in first-seen order.
  std::vector<TermId> roots;

  /// Atoms (indices) of the tree S(t) rooted at `t`.
  std::vector<uint32_t> TreeAtoms(TermId root) const;

  /// True if every sensible atom lies in exactly one tree and the
  /// parent-child structure is acyclic with single parents (Observation
  /// 64's forest property); computed during construction and re-checkable.
  bool forest_ok = true;

  /// Maximal out-degree observed in the forest (Observation 64 bounds it
  /// by the number of existential rules).
  uint32_t max_out_degree = 0;

 private:
  friend ChaseForest BuildChaseForest(const Vocabulary&, const Theory&,
                                      const ChaseResult&);
  std::unordered_map<TermId, std::vector<uint32_t>> atoms_by_root_;
};

/// Builds the Section 13 forest from a provenance-tracked chase run of a
/// theory whose existential rules are frontier-one (all binary theories
/// qualify; footnote 37).  Requires `chase` to have been produced with
/// `track_provenance` (for rule attribution).
ChaseForest BuildChaseForest(const Vocabulary& vocab, const Theory& theory,
                             const ChaseResult& chase);

/// The number of distinct input atoms among the (connected) ancestors of
/// the tree S(root) - the quantity the crucial Lemma 77 bounds by `M` for
/// normalized theories.
size_t TreeAncestorInputs(const Vocabulary& vocab, const ChaseResult& chase,
                          const ChaseForest& forest, TermId root);

}  // namespace frontiers

#endif  // FRONTIERS_NORMALIZE_FOREST_H_
