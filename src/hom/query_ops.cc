#include "hom/query_ops.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "hom/matcher.h"
#include "obs/trace.h"

namespace frontiers {

namespace {

std::unordered_set<TermId> MappableVars(const Vocabulary& vocab,
                                        const ConjunctiveQuery& query,
                                        bool include_answer_vars) {
  std::unordered_set<TermId> mappable;
  for (TermId v : QueryVariables(vocab, query)) mappable.insert(v);
  if (!include_answer_vars) {
    for (TermId v : query.answer_vars) mappable.erase(v);
  }
  return mappable;
}

// True if `atom` could land on some atom of `targets` other than
// `targets[skip]` under a homomorphism extending `initial`: one with the
// same predicate and arity that agrees with it at every rigid position (a
// constant, or a variable `initial` binds).  This is the compiled search's
// dead-atom test, run before any target is built; a false answer means no
// homomorphism exists.
bool HasImage(const Vocabulary& vocab, const Atom& atom,
              const Substitution& initial, const std::vector<Atom>& targets,
              size_t skip = SIZE_MAX) {
  for (size_t i = 0; i < targets.size(); ++i) {
    const Atom& target = targets[i];
    if (i == skip || target.predicate != atom.predicate ||
        target.args.size() != atom.args.size()) {
      continue;
    }
    bool agrees = true;
    for (size_t pos = 0; pos < atom.args.size() && agrees; ++pos) {
      const TermId t = atom.args[pos];
      auto bound = initial.find(t);
      if (bound != initial.end()) {
        agrees = target.args[pos] == bound->second;
      } else if (!vocab.IsVariable(t)) {
        agrees = target.args[pos] == t;
      }
    }
    if (agrees) return true;
  }
  return false;
}

}  // namespace

bool Holds(const Vocabulary& vocab, const ConjunctiveQuery& query,
           const FactSet& facts, const std::vector<TermId>& answer) {
  if (answer.size() != query.answer_vars.size()) return false;
  Substitution initial;
  for (size_t i = 0; i < answer.size(); ++i) {
    const TermId v = query.answer_vars[i];
    // Rewritten queries may carry constants in the answer tuple; they match
    // only themselves and take no binding.
    if (!vocab.IsVariable(v)) {
      if (v != answer[i]) return false;
      continue;
    }
    auto it = initial.find(v);
    if (it != initial.end() && it->second != answer[i]) return false;
    initial.emplace(v, answer[i]);
  }
  Matcher matcher(vocab, facts);
  return matcher.Exists(query.atoms, MappableVars(vocab, query, false),
                        initial);
}

bool HoldsBoolean(const Vocabulary& vocab, const ConjunctiveQuery& query,
                  const FactSet& facts) {
  return Holds(vocab, query, facts, {});
}

void CollectAnswers(const Vocabulary& vocab, const ConjunctiveQuery& query,
                    const FactSet& facts, AnswerTable& answers) {
  Matcher matcher(vocab, facts);
  matcher.Project(query.atoms, MappableVars(vocab, query, true),
                  query.answer_vars, answers);
}

std::vector<std::vector<TermId>> EvaluateQuery(const Vocabulary& vocab,
                                               const ConjunctiveQuery& query,
                                               const FactSet& facts) {
  AnswerTable answers(query.answer_vars.size());
  CollectAnswers(vocab, query, facts, answers);
  obs::Span span("hom.sort", "hom");
  return answers.Sorted();
}

std::optional<Substitution> QueryHomomorphism(const Vocabulary& vocab,
                                              const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to) {
  if (from.answer_vars.size() != to.answer_vars.size()) return std::nullopt;
  Substitution initial;
  for (size_t i = 0; i < from.answer_vars.size(); ++i) {
    TermId f = from.answer_vars[i];
    TermId t = to.answer_vars[i];
    // An answer-tuple constant maps only to itself (homomorphisms fix
    // constants); it never enters the substitution.
    if (!vocab.IsVariable(f)) {
      if (f != t) return std::nullopt;
      continue;
    }
    auto it = initial.find(f);
    if (it != initial.end() && it->second != t) return std::nullopt;
    initial.emplace(f, t);
  }
  for (const Atom& atom : from.atoms) {
    if (!HasImage(vocab, atom, initial, to.atoms)) return std::nullopt;
  }
  FactSet target = QueryAsFactSet(to);
  Matcher matcher(vocab, target);
  return matcher.Find(from.atoms, MappableVars(vocab, from, false), initial);
}

bool Contains(const Vocabulary& vocab, const ConjunctiveQuery& phi,
              const ConjunctiveQuery& psi) {
  return QueryHomomorphism(vocab, phi, psi).has_value();
}

bool EquivalentQueries(const Vocabulary& vocab, const ConjunctiveQuery& a,
                       const ConjunctiveQuery& b) {
  return Contains(vocab, a, b) && Contains(vocab, b, a);
}

ConjunctiveQuery MinimizeQuery(const Vocabulary& vocab,
                               const ConjunctiveQuery& query) {
  ConjunctiveQuery current = query;
  // Remove literal duplicates first.
  {
    std::vector<Atom> unique;
    for (const Atom& atom : current.atoms) {
      if (std::find(unique.begin(), unique.end(), atom) == unique.end()) {
        unique.push_back(atom);
      }
    }
    current.atoms = std::move(unique);
  }
  Substitution identity;
  for (TermId v : current.answer_vars) {
    if (vocab.IsVariable(v)) identity.emplace(v, v);
  }

  // Variables only disappear as atoms fold, so one mappable set serves
  // every attempt.
  const std::unordered_set<TermId> mappable =
      MappableVars(vocab, current, false);
  bool changed = true;
  while (changed && current.atoms.size() > 1) {
    changed = false;
    for (size_t drop = 0; drop < current.atoms.size(); ++drop) {
      // A fold onto the query without atom `drop` sends that atom to
      // another one agreeing with it on constants and answer variables.
      if (!HasImage(vocab, current.atoms[drop], identity, current.atoms,
                    drop)) {
        continue;
      }
      // Target: the query without atom `drop`, viewed as a structure.
      ConjunctiveQuery rest = current;
      rest.atoms.erase(rest.atoms.begin() + drop);
      FactSet target = QueryAsFactSet(rest);
      Matcher matcher(vocab, target);
      std::optional<Substitution> fold =
          matcher.Find(current.atoms, mappable, identity);
      if (!fold.has_value()) continue;
      // Replace the query by its homomorphic image (a subset of the target,
      // hence strictly smaller than `current`).
      std::vector<Atom> image;
      for (const Atom& atom : current.atoms) {
        Atom mapped = Apply(*fold, atom);
        if (std::find(image.begin(), image.end(), mapped) == image.end()) {
          image.push_back(std::move(mapped));
        }
      }
      current.atoms = std::move(image);
      changed = true;
      break;
    }
  }
  return current;
}

}  // namespace frontiers
