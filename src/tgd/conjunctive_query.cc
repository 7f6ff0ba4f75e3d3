#include "tgd/conjunctive_query.h"

#include <unordered_map>

namespace frontiers {

std::vector<TermId> QueryVariables(const Vocabulary& vocab,
                                   const ConjunctiveQuery& query) {
  std::vector<TermId> vars;
  std::unordered_set<TermId> seen;
  for (TermId v : query.answer_vars) {
    if (vocab.IsVariable(v) && seen.insert(v).second) vars.push_back(v);
  }
  for (const Atom& atom : query.atoms) {
    for (TermId t : atom.args) {
      if (vocab.IsVariable(t) && seen.insert(t).second) vars.push_back(t);
    }
  }
  return vars;
}

std::vector<TermId> ExistentialVariables(const Vocabulary& vocab,
                                         const ConjunctiveQuery& query) {
  std::unordered_set<TermId> answer(query.answer_vars.begin(),
                                    query.answer_vars.end());
  std::vector<TermId> out;
  for (TermId v : QueryVariables(vocab, query)) {
    if (answer.find(v) == answer.end()) out.push_back(v);
  }
  return out;
}

bool IsConnected(const Vocabulary& vocab, const ConjunctiveQuery& query) {
  (void)vocab;
  if (query.atoms.empty()) return true;
  // Union-find over the terms occurring in atoms.
  std::unordered_map<TermId, TermId> parent;
  auto find = [&parent](TermId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&parent, &find](TermId a, TermId b) {
    TermId ra = find(a), rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };
  for (const Atom& atom : query.atoms) {
    for (TermId t : atom.args) {
      if (parent.find(t) == parent.end()) parent[t] = t;
    }
    for (size_t i = 1; i < atom.args.size(); ++i) {
      unite(atom.args[0], atom.args[i]);
    }
  }
  // Zero-ary atoms contribute no terms; a query made only of them is
  // connected by convention.
  if (parent.empty()) return true;
  TermId root = kNoTerm;
  for (auto& [t, _] : parent) {
    TermId r = find(t);
    if (root == kNoTerm) {
      root = r;
    } else if (r != root) {
      return false;
    }
  }
  return true;
}

FactSet QueryAsFactSet(const ConjunctiveQuery& query) {
  FactSet out;
  for (const Atom& atom : query.atoms) out.Insert(atom);
  return out;
}

std::string QueryToString(const Vocabulary& vocab,
                          const ConjunctiveQuery& query) {
  std::string out;
  if (!query.answer_vars.empty()) {
    out += "q(";
    for (size_t i = 0; i < query.answer_vars.size(); ++i) {
      if (i > 0) out += ",";
      out += vocab.TermToString(query.answer_vars[i]);
    }
    out += ") :- ";
  }
  out += AtomsToString(vocab, query.atoms);
  return out;
}

}  // namespace frontiers
