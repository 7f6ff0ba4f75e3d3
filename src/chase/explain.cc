#include "chase/explain.h"

namespace frontiers {

namespace {

void Render(const Vocabulary& vocab, const Theory& theory,
            const ChaseResult& chase, uint32_t atom_index,
            const ExplainOptions& options, size_t depth, std::string* out) {
  for (size_t i = 0; i < depth; ++i) *out += options.indent;
  *out += AtomToString(vocab, chase.facts.ToAtom(atom_index));
  if (chase.depth[atom_index] == 0) {
    *out += "   [input]\n";
    return;
  }
  if (chase.first_derivation.empty() ||
      !chase.first_derivation[atom_index].has_value()) {
    *out += "   [derived; provenance not recorded]\n";
    return;
  }
  const Derivation& derivation = *chase.first_derivation[atom_index];
  const Tgd& rule = theory.rules[derivation.rule_index];
  *out += "   [round " + std::to_string(chase.depth[atom_index]) +
          ", rule " +
          (rule.name.empty() ? "#" + std::to_string(derivation.rule_index)
                             : rule.name) +
          "]\n";
  if (depth + 1 >= options.max_depth) {
    for (size_t i = 0; i <= depth; ++i) *out += options.indent;
    *out += "...\n";
    return;
  }
  for (uint32_t parent : derivation.parents) {
    Render(vocab, theory, chase, parent, options, depth + 1, out);
  }
}

}  // namespace

std::string ExplainAtom(const Vocabulary& vocab, const Theory& theory,
                        const ChaseResult& chase, uint32_t atom_index,
                        const ExplainOptions& options) {
  std::string out;
  if (atom_index >= chase.facts.size()) {
    return "(atom index out of range)\n";
  }
  Render(vocab, theory, chase, atom_index, options, 0, &out);
  return out;
}

std::string ExplainAtom(const Vocabulary& vocab, const Theory& theory,
                        const ChaseResult& chase, const Atom& atom,
                        const ExplainOptions& options) {
  std::optional<uint32_t> index = chase.facts.IndexOf(atom);
  if (!index.has_value()) {
    return AtomToString(vocab, atom) + " is not in the chase (within budget)\n";
  }
  return ExplainAtom(vocab, theory, chase, *index, options);
}

}  // namespace frontiers
