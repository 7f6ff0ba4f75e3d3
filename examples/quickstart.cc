// Quickstart: parse a theory, chase an instance, answer a query three
// ways (chase prefix, certain-answer check, UCQ rewriting).
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart

#include <cstdio>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "hom/query_ops.h"
#include "rewriting/rewriter.h"
#include "tgd/parser.h"

using namespace frontiers;

int main() {
  Vocabulary vocab;

  // Example 1 of the paper: everyone has a mother, and mothers are human.
  Result<Theory> theory = ParseTheory(vocab, R"(
    mother: Human(y) -> exists z . Mother(y,z)
    human:  Mother(x,y) -> Human(y)
  )",
                                      "T_a");
  if (!theory.ok()) {
    std::printf("parse error: %s\n", theory.status().message().c_str());
    return 1;
  }
  std::printf("Theory:\n%s\n", TheoryToString(vocab, theory.value()).c_str());

  Result<FactSet> db = ParseFacts(vocab, "Human(Abel)");
  std::printf("Instance D = %s\n\n", db.value().ToString(vocab).c_str());

  // --- 1. The semi-oblivious Skolem chase (Definition 6). ---------------
  ChaseEngine engine(vocab, theory.value());
  ChaseResult chase = engine.RunToDepth(db.value(), 4);
  std::printf("Ch_4(T, D) has %zu atoms:\n", chase.facts.size());
  for (size_t i = 0; i < chase.facts.size(); ++i) {
    std::printf("  depth %u: %s\n", chase.depth[i],
                AtomToString(vocab, chase.facts.ToAtom(i)).c_str());
  }

  // --- 2. Certain-answer check against the chase. ------------------------
  Result<ConjunctiveQuery> grandmother =
      ParseQuery(vocab, "Mother(Abel,y), Mother(y,z)");
  bool entailed =
      HoldsBoolean(vocab, grandmother.value(), chase.facts);
  std::printf("\nD, T |= 'Abel has a grandmother'?  %s\n",
              entailed ? "yes" : "no");

  // --- 3. First-order rewriting (Theorem 1). ------------------------------
  Rewriter rewriter(vocab, theory.value());
  RewritingResult rew = rewriter.Rewrite(grandmother.value());
  std::printf("\nrew(query) has %zu disjuncts (status: %s):\n",
              rew.queries.size(),
              rew.status == RewritingStatus::kConverged ? "converged"
                                                        : "budget");
  for (const ConjunctiveQuery& q : rew.queries) {
    std::printf("  %s\n", QueryToString(vocab, q).c_str());
  }
  std::printf("\nEvaluating the rewriting directly on D (no chase): %s\n",
              [&] {
                for (const ConjunctiveQuery& q : rew.queries) {
                  if (HoldsBoolean(vocab, q, db.value())) return "yes";
                }
                return "no";
              }());
  return 0;
}
