#include "rewriting/ucq.h"

#include <algorithm>

#include "hom/query_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

size_t Ucq::MaxDisjunctSize() const {
  size_t max = 0;
  for (const ConjunctiveQuery& q : disjuncts) max = std::max(max, q.size());
  return max;
}

bool Holds(const Vocabulary& vocab, const Ucq& ucq, const FactSet& facts,
           const std::vector<TermId>& answer) {
  obs::Span span("ucq.holds", "rewriting");
  static obs::Counter& evaluations =
      obs::DefaultRegistry().GetCounter("frontiers.ucq.holds");
  evaluations.Add();
  if (ucq.always_true) return !facts.empty();
  for (const ConjunctiveQuery& q : ucq.disjuncts) {
    if (Holds(vocab, q, facts, answer)) return true;
  }
  return false;
}

bool HoldsBoolean(const Vocabulary& vocab, const Ucq& ucq,
                  const FactSet& facts) {
  return Holds(vocab, ucq, facts, {});
}

std::vector<std::vector<TermId>> EvaluateUcq(const Vocabulary& vocab,
                                             const Ucq& ucq,
                                             const FactSet& facts) {
  obs::Span span("ucq.evaluate", "rewriting");
  static obs::Counter& evaluations =
      obs::DefaultRegistry().GetCounter("frontiers.ucq.evaluations");
  evaluations.Add();
  if (ucq.disjuncts.empty()) return {};
  AnswerTable answers(ucq.disjuncts.front().answer_vars.size());
  for (const ConjunctiveQuery& q : ucq.disjuncts) {
    CollectAnswers(vocab, q, facts, answers);
  }
  obs::Span sort_span("hom.sort", "hom");
  return answers.Sorted();
}

bool SomeDisjunctContains(const Vocabulary& vocab, const Ucq& ucq,
                          const ConjunctiveQuery& query) {
  for (const ConjunctiveQuery& existing : ucq.disjuncts) {
    if (Contains(vocab, existing, query)) return true;
  }
  return false;
}

bool InsertMinimal(const Vocabulary& vocab, ConjunctiveQuery query, Ucq* ucq,
                   size_t* prefix) {
  if (SomeDisjunctContains(vocab, *ucq, query)) return false;
  std::vector<ConjunctiveQuery>& disjuncts = ucq->disjuncts;
  const size_t old_prefix = prefix != nullptr ? *prefix : 0;
  size_t kept = 0;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (Contains(vocab, query, disjuncts[i])) {
      if (i < old_prefix) --*prefix;
      continue;
    }
    if (kept != i) disjuncts[kept] = std::move(disjuncts[i]);
    ++kept;
  }
  disjuncts.resize(kept);
  disjuncts.push_back(std::move(query));
  return true;
}

bool EquivalentUcqs(const Vocabulary& vocab, const Ucq& a, const Ucq& b) {
  if (a.always_true || b.always_true) {
    return a.always_true == b.always_true;
  }
  // Every disjunct of a must be contained in some disjunct of b (i.e. some
  // disjunct of b is at least as general), and vice versa.
  auto covered = [&vocab](const Ucq& fine, const Ucq& coarse) {
    for (const ConjunctiveQuery& q : fine.disjuncts) {
      if (!SomeDisjunctContains(vocab, coarse, q)) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

std::string UcqToString(const Vocabulary& vocab, const Ucq& ucq) {
  if (ucq.always_true) return "(always true)\n";
  std::string out;
  for (const ConjunctiveQuery& q : ucq.disjuncts) {
    out += QueryToString(vocab, q);
    out += "\n";
  }
  return out;
}

}  // namespace frontiers
