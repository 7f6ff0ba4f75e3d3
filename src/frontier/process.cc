#include "frontier/process.h"

#include <deque>
#include <unordered_set>

#include "frontier/ranks.h"
#include "hom/query_ops.h"
#include "rewriting/ucq.h"

namespace frontiers {

TdProcessResult RunTdProcess(Vocabulary& vocab, const TdContext& ctx,
                             const ConjunctiveQuery& phi,
                             const TdProcessOptions& options) {
  TdProcessResult result;
  std::deque<MarkedQuery> worklist;
  std::unordered_set<std::string> seen;
  std::vector<ConjunctiveQuery> collected;
  size_t enqueued = 0;

  // Admits a marked query: drop improper ones, collect totally marked
  // ones, queue live ones (deduplicated).
  auto admit = [&](MarkedQuery q) {
    if (!IsProperlyMarked(vocab, ctx, q)) {
      ++result.discarded_improper;
      return;
    }
    std::string key = CanonicalKey(vocab, q);
    if (!seen.insert(std::move(key)).second) {
      ++result.deduplicated;
      return;
    }
    if (IsTotallyMarked(vocab, q)) {
      ++result.totally_marked;
      for (ConjunctiveQuery& expanded : ExpandDanglingAnswerVars(
               vocab, {ctx.red, ctx.green}, q.query)) {
        collected.push_back(std::move(expanded));
      }
      return;
    }
    ++enqueued;
    worklist.push_back(std::move(q));
  };

  // S_0: all markings of phi with the answer variables marked.
  std::vector<TermId> existential = ExistentialVariables(vocab, phi);
  const size_t variants = static_cast<size_t>(1) << existential.size();
  for (size_t mask = 0; mask < variants; ++mask) {
    MarkedQuery q;
    q.query = phi;
    for (TermId v : phi.answer_vars) q.marked.insert(v);
    for (size_t b = 0; b < existential.size(); ++b) {
      if (mask & (static_cast<size_t>(1) << b)) {
        q.marked.insert(existential[b]);
      }
    }
    admit(std::move(q));
  }

  while (!worklist.empty() && result.steps < options.max_steps &&
         enqueued < options.max_queries) {
    MarkedQuery current = std::move(worklist.front());
    worklist.pop_front();
    ++result.steps;

    StepResult step = StepLiveQuery(vocab, ctx, current);
    ++result.operation_counts[static_cast<int>(step.operation)];

    if (options.check_rank_certificate) {
      QueryRank parent = ComputeQueryRank(vocab, ctx, current);
      for (const MarkedQuery& child : step.results) {
        QueryRank child_rank = ComputeQueryRank(vocab, ctx, child);
        ++result.certificate_checks;
        if (CompareQueryRank(child_rank, parent) >= 0) {
          result.rank_certificate_ok = false;
        }
      }
    }
    for (MarkedQuery& child : step.results) admit(std::move(child));
  }
  result.completed = worklist.empty();

  // Minimize and prune the collected disjuncts to a pairwise-incomparable
  // set (Theorem 1's shape).
  Ucq pruned;
  for (const ConjunctiveQuery& q : collected) {
    InsertMinimal(vocab, MinimizeQuery(vocab, q), &pruned);
  }
  result.rewriting = std::move(pruned.disjuncts);
  return result;
}

}  // namespace frontiers
