// Oracle tests: core engines checked against brute-force reference
// implementations on small random inputs.  These are the strongest
// correctness guards in the suite - any systematic matcher / containment /
// process bug shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "base/bignat.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/queries.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "frontier/process.h"
#include "hom/query_ops.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// ---------------------------------------------------------------------
// Matcher vs brute force.
// ---------------------------------------------------------------------

// Reference CQ evaluation: enumerate every assignment of the query's
// variables over the instance domain.
std::set<std::vector<TermId>> BruteForceAnswers(const Vocabulary& vocab,
                                                const ConjunctiveQuery& query,
                                                const FactSet& facts) {
  std::vector<TermId> vars = QueryVariables(vocab, query);
  const std::vector<TermId>& domain = facts.Domain();
  std::set<std::vector<TermId>> answers;
  std::vector<TermId> assignment(vars.size());
  std::function<void(size_t)> enumerate = [&](size_t i) {
    if (i == vars.size()) {
      Substitution sub;
      for (size_t k = 0; k < vars.size(); ++k) {
        sub.emplace(vars[k], assignment[k]);
      }
      for (const Atom& atom : query.atoms) {
        if (!facts.Contains(Apply(sub, atom))) return;
      }
      std::vector<TermId> tuple;
      for (TermId v : query.answer_vars) tuple.push_back(Apply(sub, v));
      answers.insert(std::move(tuple));
      return;
    }
    for (TermId t : domain) {
      assignment[i] = t;
      enumerate(i + 1);
    }
  };
  enumerate(0);
  return answers;
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleTest, EvaluateQueryMatchesBruteForce) {
  uint64_t seed = GetParam();
  Vocabulary vocab;
  FactSet facts = RandomBinaryInstance(vocab, {"E", "F"}, 4, 6, seed);
  // The second half are the shapes EvaluateQuery's projection treats
  // specially: products, answer-free components (one without any match,
  // over a predicate the instance lacks), repeated answer variables,
  // answers at both ends of a chain, and a rigid constant `k` (replaced
  // below by an instance constant).
  const char* queries[] = {
      "q(x) :- E(x,y)",          "q(x,y) :- E(x,y), F(y,x)",
      "q(x) :- E(x,x)",          "q(x,z) :- E(x,y), E(y,z)",
      "E(x,y), E(y,z), F(z,x)",  "q(y) :- E(x,y), E(z,y)",
      "q(x) :- E(x,y), F(z,w)",  "E(x,y), F(z,w), F(w,z)",
      "q(x) :- E(x,y), G(z,w)",  "q(x,x) :- E(x,y), F(y,x)",
      "q(x,w) :- E(x,y), F(y,z), E(z,w)",
      "q(x) :- E(x,k), F(k,y)",  "q(x,y) :- E(x,k), F(y,z)",
  };
  const Substitution rigid = {
      {vocab.Variable("k"), facts.Domain()[seed % facts.Domain().size()]}};
  for (const char* text : queries) {
    Result<ConjunctiveQuery> parsed = ParseQuery(vocab, text);
    ASSERT_TRUE(parsed.ok()) << text;
    ConjunctiveQuery query = parsed.value();
    query.atoms = Apply(rigid, query.atoms);
    auto fast = EvaluateQuery(vocab, query, facts);
    std::set<std::vector<TermId>> fast_set(fast.begin(), fast.end());
    EXPECT_EQ(fast.size(), fast_set.size()) << text << " seed " << seed;
    EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
    auto slow = BruteForceAnswers(vocab, query, facts);
    EXPECT_EQ(fast_set, slow) << text << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatcherOracleTest,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------
// Containment vs sampled semantics.
// ---------------------------------------------------------------------

class ContainmentOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentOracleTest, ContainmentImpliesSampledImplication) {
  // If phi contains psi (hom phi -> psi), then on every instance the
  // answers of psi are answers of phi.  Falsifiable by sampling.
  uint64_t seed = GetParam();
  Vocabulary vocab;
  const char* texts[] = {
      "q(x) :- E(x,y)", "q(x) :- E(x,y), E(y,z)", "q(x) :- E(x,x)",
      "q(x) :- E(x,y), F(y,z)", "q(x) :- E(y,x)"};
  std::vector<ConjunctiveQuery> queries;
  for (const char* text : texts) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab, text);
    ASSERT_TRUE(q.ok());
    queries.push_back(q.value());
  }
  FactSet facts = RandomBinaryInstance(vocab, {"E", "F"}, 4, 7, seed);
  for (const ConjunctiveQuery& phi : queries) {
    for (const ConjunctiveQuery& psi : queries) {
      if (!Contains(vocab, phi, psi)) continue;
      auto psi_answers = EvaluateQuery(vocab, psi, facts);
      for (const auto& tuple : psi_answers) {
        EXPECT_TRUE(Holds(vocab, phi, facts, tuple))
            << QueryToString(vocab, phi) << " should contain "
            << QueryToString(vocab, psi) << " (seed " << seed << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentOracleTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------------
// T_d process vs full chase over random R/G instances.
// ---------------------------------------------------------------------

class TdProcessOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TdProcessOracleTest, ProcessUcqMatchesFullChaseOnRandomInstances) {
  uint64_t seed = GetParam();
  Vocabulary vocab;
  TdContext ctx = TdContext::Make(vocab);
  ConjunctiveQuery phi = PhiRn(vocab, 1);
  TdProcessResult process = RunTdProcess(vocab, ctx, phi);
  ASSERT_TRUE(process.completed);

  Theory td = TdTheory(vocab);
  ChaseEngine engine(vocab, td);
  // Small random two-colour instances; keep them tiny so the *unfiltered*
  // chase stays affordable at the depth phi_R^1 needs.
  FactSet db = RandomBinaryInstance(vocab, {"R", "G"}, 3, 4, seed);
  if (db.empty()) return;
  ChaseOptions options;
  options.max_rounds = 5;
  options.max_atoms = 300000;
  ChaseResult chase = engine.Run(db, options);
  for (TermId a : db.Domain()) {
    for (TermId b : db.Domain()) {
      bool via_chase = Holds(vocab, phi, chase.facts, {a, b});
      bool via_process = false;
      for (const ConjunctiveQuery& d : process.rewriting) {
        if (Holds(vocab, d, db, {a, b})) via_process = true;
      }
      EXPECT_EQ(via_chase, via_process)
          << db.ToString(vocab) << " answer (" << vocab.TermToString(a)
          << "," << vocab.TermToString(b) << ") seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TdProcessOracleTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// BigNat arithmetic laws.
// ---------------------------------------------------------------------

class BigNatLawTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BigNatLawTest, ArithmeticLaws) {
  uint32_t n = GetParam();
  BigNat a = BigNat::Pow(3, n);
  BigNat b = BigNat::Pow(2, n + 3);
  BigNat c = BigNat::Pow(7, n / 2);
  // Associativity and commutativity of addition.
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + b, b + a);
  // Multiplication by a small factor distributes over addition.
  BigNat lhs = a + b;
  lhs.MulSmall(5);
  BigNat rhs_a = a, rhs_b = b;
  rhs_a.MulSmall(5);
  rhs_b.MulSmall(5);
  EXPECT_EQ(lhs, rhs_a + rhs_b);
  // Pow recurrence: 3 * 3^n = 3^{n+1}.
  BigNat three_a = a;
  three_a.MulSmall(3);
  EXPECT_EQ(three_a, BigNat::Pow(3, n + 1));
  // Order embedding: a < a + b when b > 0.
  EXPECT_LT(a, a + b);
  EXPECT_EQ(a.Compare(a), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BigNatLawTest,
                         ::testing::Values(0, 1, 2, 5, 13, 29, 61, 100));

// ---------------------------------------------------------------------
// Parser robustness: no crash / clean rejection on junk.
// ---------------------------------------------------------------------

TEST(ParserRobustnessTest, JunkInputsAreRejectedNotCrashed) {
  const char* junk[] = {
      "",           "(",          ")))((",         "-> ->",
      "E(",         "E()",        "E(x,y -> F(x)", "exists z . E(z)",
      "q() :- ",    ":- E(x,y)",  "E(x,y) -> exists . F(x)",
      "# only a comment",         "a b c d",       "E(x,,y) -> F(x)",
  };
  for (const char* text : junk) {
    Vocabulary vocab;
    // None of these may crash; most must fail cleanly.  (The empty and
    // comment-only inputs are legal empty theories.)
    (void)ParseTheory(vocab, text);
    (void)ParseQuery(vocab, text);
    (void)ParseRule(vocab, text);
    (void)ParseFacts(vocab, text);
  }
  SUCCEED();
}

TEST(ParserRobustnessTest, EmptyTheoryAndFactsAreLegal) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, "  # nothing here\n");
  ASSERT_TRUE(theory.ok());
  EXPECT_TRUE(theory.value().rules.empty());
  Result<FactSet> facts = ParseFacts(vocab, "");
  ASSERT_TRUE(facts.ok());
  EXPECT_TRUE(facts.value().empty());
}

}  // namespace
}  // namespace frontiers
