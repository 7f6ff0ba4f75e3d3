#include "normalize/ancestors.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace frontiers {

DerivationChooser FirstDerivation() {
  return [](uint32_t, const std::vector<Derivation>&) -> size_t { return 0; };
}

DerivationChooser RotatingDerivation() {
  return [](uint32_t atom_index,
            const std::vector<Derivation>& derivations) -> size_t {
    return atom_index % derivations.size();
  };
}

namespace {

// Derivations of an atom, from whichever provenance mode was recorded.
const std::vector<Derivation>* DerivationsOf(const ChaseResult& chase,
                                             uint32_t atom_index,
                                             std::vector<Derivation>* scratch) {
  if (!chase.all_derivations.empty()) {
    const std::vector<Derivation>& all = chase.all_derivations[atom_index];
    if (!all.empty()) return &all;
    return nullptr;
  }
  if (!chase.first_derivation.empty() &&
      chase.first_derivation[atom_index].has_value()) {
    scratch->assign(1, *chase.first_derivation[atom_index]);
    return scratch;
  }
  return nullptr;
}

void Collect(const Vocabulary& vocab, const ChaseResult& chase,
             uint32_t atom_index, const DerivationChooser& chooser,
             bool connected_only, std::set<uint32_t>* inputs,
             std::set<uint32_t>* visited) {
  if (!visited->insert(atom_index).second) return;
  if (chase.depth[atom_index] == 0) {
    inputs->insert(atom_index);
    return;
  }
  std::vector<Derivation> scratch;
  const std::vector<Derivation>* derivations =
      DerivationsOf(chase, atom_index, &scratch);
  if (derivations == nullptr) return;  // no recorded provenance
  const Derivation& chosen =
      (*derivations)[chooser(atom_index, *derivations) % derivations->size()];
  for (uint32_t parent : chosen.parents) {
    if (connected_only &&
        vocab.PredicateArity(chase.facts.PredicateOf(parent)) == 0) {
      continue;
    }
    Collect(vocab, chase, parent, chooser, connected_only, inputs, visited);
  }
}

}  // namespace

std::vector<uint32_t> AncestorInputs(const Vocabulary& vocab,
                                     const ChaseResult& chase,
                                     uint32_t atom_index,
                                     const DerivationChooser& chooser,
                                     bool connected_only) {
  std::set<uint32_t> inputs, visited;
  Collect(vocab, chase, atom_index, chooser, connected_only, &inputs,
          &visited);
  return {inputs.begin(), inputs.end()};
}

size_t MaxAncestorSetSize(const Vocabulary& vocab, const ChaseResult& chase,
                          const DerivationChooser& chooser,
                          bool connected_only) {
  size_t max = 0;
  for (uint32_t i = 0; i < chase.facts.size(); ++i) {
    size_t size =
        AncestorInputs(vocab, chase, i, chooser, connected_only).size();
    max = std::max(max, size);
  }
  return max;
}

}  // namespace frontiers
