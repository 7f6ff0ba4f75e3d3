#include "normalize/forest.h"

#include <unordered_set>

#include "normalize/ancestors.h"
#include "tgd/classify.h"

namespace frontiers {

std::vector<uint32_t> ChaseForest::TreeAtoms(TermId root) const {
  auto it = atoms_by_root_.find(root);
  if (it == atoms_by_root_.end()) return {};
  return it->second;
}

ChaseForest BuildChaseForest(const Vocabulary& /*vocab*/, const Theory& theory,
                             const ChaseResult& chase) {
  ChaseForest forest;
  const size_t n = chase.facts.size();
  forest.atom_class.assign(n, AtomClass::kInput);

  // Classify atoms by the rule of their first derivation.
  for (uint32_t i = 0; i < n; ++i) {
    if (chase.depth[i] == 0) continue;
    if (chase.first_derivation.empty() ||
        !chase.first_derivation[i].has_value()) {
      forest.forest_ok = false;  // provenance missing
      continue;
    }
    const Tgd& rule = theory.rules[chase.first_derivation[i]->rule_index];
    if (IsDatalogRule(rule)) {
      forest.atom_class[i] = AtomClass::kDatalog;
    } else if (IsDetachedRule(rule)) {
      forest.atom_class[i] = AtomClass::kDetached;
    } else {
      forest.atom_class[i] = AtomClass::kSensible;
    }
  }

  // Terms born by detached atoms.
  std::unordered_set<TermId> detached_terms;
  for (TermId term = 0; term < chase.birth_atom.size(); ++term) {
    const uint32_t birth = chase.birth_atom[term];
    if (birth != ChaseResult::kNoAtom &&
        forest.atom_class[birth] == AtomClass::kDetached) {
      detached_terms.insert(term);
    }
  }

  // Parent term of each sensible-born term: the frontier term of its
  // birth atom (frontier-one theories have exactly one).
  auto parent_of = [&](TermId t) -> TermId {
    const uint32_t birth = chase.BirthAtom(t);
    if (birth == ChaseResult::kNoAtom) return kNoTerm;  // input term
    const Atom atom = chase.facts.ToAtom(birth);
    for (TermId other : atom.args) {
      // The parent is any argument that was *not* born here.
      if (other != t && chase.BirthAtom(other) != birth) return other;
    }
    return kNoTerm;  // all arguments born here: detached shape
  };

  // Root of the tree containing a term (memoized walk up the parents).
  std::unordered_map<TermId, TermId> root_of;
  std::function<TermId(TermId)> find_root = [&](TermId t) -> TermId {
    auto cached = root_of.find(t);
    if (cached != root_of.end()) return cached->second;
    TermId root;
    if (chase.BirthAtom(t) == ChaseResult::kNoAtom ||
        detached_terms.count(t) > 0) {
      root = t;  // input constant or detached term
    } else {
      TermId parent = parent_of(t);
      root = parent == kNoTerm ? t : find_root(parent);
    }
    root_of.emplace(t, root);
    return root;
  };

  std::unordered_set<TermId> seen_roots;
  std::unordered_map<TermId, uint32_t> out_degree;
  for (uint32_t i = 0; i < n; ++i) {
    if (forest.atom_class[i] != AtomClass::kSensible) continue;
    // The child is the argument born by this atom; Observation 64 needs
    // exactly one (frontier-one existential rules).
    const Atom atom = chase.facts.ToAtom(i);
    TermId child = kNoTerm;
    int children = 0;
    for (TermId t : atom.args) {
      if (chase.BirthAtom(t) == i) {
        child = t;
        ++children;
      }
    }
    if (children != 1) {
      forest.forest_ok = false;
      continue;
    }
    TermId parent = parent_of(child);
    if (parent == kNoTerm) {
      forest.forest_ok = false;
      continue;
    }
    ++out_degree[parent];
    TermId root = find_root(child);
    forest.tree_root_of_atom.emplace(i, root);
    forest.atoms_by_root_[root].push_back(i);
    if (seen_roots.insert(root).second) forest.roots.push_back(root);
  }
  for (const auto& [_, degree] : out_degree) {
    forest.max_out_degree = std::max(forest.max_out_degree, degree);
  }
  return forest;
}

size_t TreeAncestorInputs(const Vocabulary& vocab, const ChaseResult& chase,
                          const ChaseForest& forest, TermId root) {
  std::unordered_set<uint32_t> inputs;
  for (uint32_t atom_index : forest.TreeAtoms(root)) {
    for (uint32_t input : AncestorInputs(vocab, chase, atom_index,
                                         FirstDerivation(),
                                         /*connected_only=*/true)) {
      inputs.insert(input);
    }
  }
  return inputs.size();
}

}  // namespace frontiers
