#include "hom/structure_ops.h"

#include <vector>

#include "hom/matcher.h"

namespace frontiers {

std::optional<Substitution> StructureHomomorphism(
    const Vocabulary& vocab, const FactSet& source, const FactSet& target,
    const std::unordered_set<TermId>& fixed) {
  std::unordered_set<TermId> mappable;
  for (TermId t : source.Domain()) {
    if (fixed.count(t) == 0) mappable.insert(t);
  }
  // Fixed terms are rigid: they must occur in `target` verbatim wherever an
  // atom mentions them, which the matcher enforces automatically.
  Matcher matcher(vocab, target);
  return matcher.Find(source.ToAtoms(), mappable);
}

FactSet HomomorphicImage(const Substitution& sub, const FactSet& facts) {
  FactSet image;
  for (const Atom& atom : facts.ToAtoms()) image.Insert(Apply(sub, atom));
  return image;
}

namespace {

// Attempts to fold away a single term: a homomorphism facts -> facts
// avoiding `victim` and fixing `fixed`.  First tries the cheap fold that
// moves only `victim`; falls back to a full search in which every
// non-fixed term may move.
std::optional<Substitution> FoldAway(const Vocabulary& vocab,
                                     const FactSet& facts, TermId victim,
                                     const std::unordered_set<TermId>& fixed) {
  std::unordered_set<TermId> smaller_domain;
  for (TermId t : facts.Domain()) {
    if (t != victim) smaller_domain.insert(t);
  }
  FactSet target = facts.InducedOn(smaller_domain);
  // Cheap attempt: only `victim` moves, everything else is rigid.
  {
    Matcher matcher(vocab, target);
    std::optional<Substitution> fold =
        matcher.Find(facts.ToAtoms(), {victim});
    if (fold.has_value()) return fold;
  }
  // Full attempt: all non-fixed terms may move.
  return StructureHomomorphism(vocab, facts, target, fixed);
}

}  // namespace

FactSet CoreRetract(const Vocabulary& vocab, const FactSet& facts,
                    const std::unordered_set<TermId>& fixed) {
  FactSet current = facts;
  bool changed = true;
  while (changed) {
    changed = false;
    for (TermId victim : current.Domain()) {
      if (fixed.count(victim) > 0) continue;
      std::optional<Substitution> fold =
          FoldAway(vocab, current, victim, fixed);
      if (!fold.has_value()) continue;
      current = HomomorphicImage(*fold, current);
      changed = true;
      break;  // domain changed; restart the scan
    }
  }
  return current;
}

bool ForEachBodyMatch(
    const Vocabulary& vocab, const Tgd& rule, const FactSet& facts,
    const std::function<bool(const Substitution&)>& callback) {
  const std::vector<TermId>& domain = facts.Domain();

  // Extends `base` with all assignments of the rule's domain variables
  // (pins-style rules) over the active domain.
  std::function<bool(Substitution&, size_t)> extend =
      [&](Substitution& sub, size_t i) -> bool {
    if (i == rule.domain_vars.size()) return callback(sub);
    for (TermId t : domain) {
      sub[rule.domain_vars[i]] = t;
      if (!extend(sub, i + 1)) return false;
    }
    sub.erase(rule.domain_vars[i]);
    return true;
  };

  if (rule.body.empty()) {
    Substitution sub;
    return extend(sub, 0);
  }
  std::unordered_set<TermId> mappable(rule.body_vars.begin(),
                                      rule.body_vars.end());
  Matcher matcher(vocab, facts);
  return matcher.ForEach(rule.body, mappable, {},
                         [&](const Substitution& body_sub) {
                           Substitution sub = body_sub;
                           return extend(sub, 0);
                         });
}

std::optional<RuleViolation> FindViolation(const Vocabulary& vocab,
                                           const FactSet& facts,
                                           const Theory& theory) {
  std::optional<RuleViolation> violation;
  for (size_t r = 0; r < theory.rules.size(); ++r) {
    const Tgd& rule = theory.rules[r];
    std::unordered_set<TermId> head_existentials(
        rule.existential_vars.begin(), rule.existential_vars.end());
    Matcher matcher(vocab, facts);
    ForEachBodyMatch(vocab, rule, facts, [&](const Substitution& sigma) {
      Substitution head_initial;
      for (TermId v : rule.head_universal_vars) {
        head_initial.emplace(v, Apply(sigma, v));
      }
      if (!matcher.Exists(rule.head, head_existentials, head_initial)) {
        violation = RuleViolation{r, sigma};
        return false;
      }
      return true;
    });
    if (violation.has_value()) return violation;
  }
  return std::nullopt;
}

bool IsModelOf(const Vocabulary& vocab, const FactSet& facts,
               const Theory& theory) {
  return !FindViolation(vocab, facts, theory).has_value();
}

}  // namespace frontiers
