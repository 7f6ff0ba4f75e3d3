#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "hom/query_ops.h"
#include "rewriting/rewriter.h"
#include "rewriting/ucq.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class RewritingTest : public ::testing::Test {
 protected:
  FactSet Facts(const std::string& text) {
    Result<FactSet> facts = ParseFacts(vocab_, text);
    EXPECT_TRUE(facts.ok()) << facts.status().message();
    return facts.value();
  }
  Theory ParseT(const std::string& text) {
    Result<Theory> t = ParseTheory(vocab_, text);
    EXPECT_TRUE(t.ok()) << t.status().message();
    return t.value();
  }
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  // True if some disjunct of `rew` holds on `facts` (Boolean case).
  bool UcqHolds(const RewritingResult& rew, const FactSet& facts) {
    if (rew.always_true) return true;
    for (const ConjunctiveQuery& q : rew.queries) {
      if (HoldsBoolean(vocab_, q, facts)) return true;
    }
    return false;
  }

  // Cross-checks `D |= rew(q)  <=>  Ch_depth(D) |= q` for a Boolean q.
  void CheckSoundness(const Theory& theory, const ConjunctiveQuery& q,
                      const RewritingResult& rew, const FactSet& db,
                      uint32_t depth) {
    ChaseEngine engine(vocab_, theory);
    ChaseResult chase = engine.RunToDepth(db, depth);
    bool via_chase = HoldsBoolean(vocab_, q, chase.facts);
    bool via_rewriting = UcqHolds(rew, db);
    EXPECT_EQ(via_chase, via_rewriting)
        << "chase and rewriting disagree on " << db.ToString(vocab_);
  }

  Vocabulary vocab_;
};

TEST_F(RewritingTest, LinearTheoryFreeVariableQuery) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  Rewriter rewriter(vocab_, t_p);
  RewritingResult rew = rewriter.Rewrite(Query("q(x) :- E(x,y)"));
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  // "x has an outgoing edge in the chase" iff "x has an outgoing or an
  // incoming edge in D".
  ASSERT_EQ(rew.queries.size(), 2u);
  EXPECT_EQ(rew.MaxDisjunctSize(), 1u);
}

TEST_F(RewritingTest, LinearTheoryPathQueryCollapses) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  Rewriter rewriter(vocab_, t_p);
  RewritingResult rew = rewriter.Rewrite(Query("E(x,y), E(y,z)"));
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  // A 2-path exists in the chase iff any edge exists in D.
  ASSERT_EQ(rew.queries.size(), 1u);
  EXPECT_EQ(rew.queries[0].size(), 1u);
}

TEST_F(RewritingTest, LinearTheorySemanticAgreement) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  Rewriter rewriter(vocab_, t_p);
  ConjunctiveQuery q = Query("E(x,y), E(y,z), E(z,w)");
  RewritingResult rew = rewriter.Rewrite(q);
  ASSERT_EQ(rew.status, RewritingStatus::kConverged);
  for (const std::string db :
       {"E(A,B)", "P(A)", "E(A,B), E(B,A)", "E(A,A)", "E(A,B), E(C,D)"}) {
    CheckSoundness(t_p, q, rew, Facts(db), 6);
  }
}

TEST_F(RewritingTest, DatalogChainRewriting) {
  Theory chain = ParseT(R"(
    R(x,y) -> S(x,y)
    S(x,y) -> T(x,y)
  )");
  Rewriter rewriter(vocab_, chain);
  RewritingResult rew =
      rewriter.RewriteAtomicQuery(vocab_.FindPredicate("T").value());
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  EXPECT_EQ(rew.queries.size(), 3u) << "T, S and R disjuncts";
  EXPECT_EQ(rew.MaxDisjunctSize(), 1u);
}

TEST_F(RewritingTest, TransitivityIsNotBddOnAtomicQuery) {
  // Unbounded Datalog: rewriting of E(u,v) under transitivity never
  // saturates (paths of every length appear).
  Theory trans = ParseT("E(x,y), E(y,z) -> E(x,z)");
  Rewriter rewriter(vocab_, trans);
  RewritingOptions options;
  options.max_iterations = 30;
  options.max_queries = 30;
  options.max_atoms_per_query = 10;
  RewritingResult rew = rewriter.RewriteAtomicQuery(
      vocab_.FindPredicate("E").value(), options);
  EXPECT_EQ(rew.status, RewritingStatus::kBudgetExhausted);
  EXPECT_GT(rew.queries.size(), 5u);
}

TEST_F(RewritingTest, Example41IsNotBdd) {
  // Example 41: bd-local but not BDD; the atomic rewriting grows forever.
  Theory e41 = ParseT("E(x,y,z), R(x,z) -> R(y,z)");
  Rewriter rewriter(vocab_, e41);
  RewritingOptions options;
  options.max_iterations = 300;
  options.max_queries = 120;
  RewritingResult rew = rewriter.RewriteAtomicQuery(
      vocab_.FindPredicate("R").value(), options);
  EXPECT_EQ(rew.status, RewritingStatus::kBudgetExhausted);
}

TEST_F(RewritingTest, StickyExample39Converges) {
  // Example 39 is sticky, hence BDD: rewritings converge.  (The fully-free
  // atomic query cannot be backward-unified at all - position 3 of the
  // head holds an invented term - so we ask about a query with an
  // existential in that position.)
  Theory sticky = ParseT(
      "E(x,y,y1,t), R(x,t1) -> exists y2 . E(x,y1,y2,t1)");
  Rewriter rewriter(vocab_, sticky);
  RewritingOptions options;
  options.max_iterations = 5000;
  ConjunctiveQuery q = Query("q(a,b,t) :- E(a,b,z,t)");
  RewritingResult rew = rewriter.Rewrite(q, options);
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  EXPECT_GE(rew.queries.size(), 2u);
}

TEST_F(RewritingTest, StickyExample39SemanticAgreement) {
  Theory sticky = ParseT(
      "E(x,y,y1,t), R(x,t1) -> exists y2 . E(x,y1,y2,t1)");
  Rewriter rewriter(vocab_, sticky);
  ConjunctiveQuery q = Query("E(a,b,z,t), E(a,z,w,t2)");
  RewritingOptions options;
  options.max_iterations = 5000;
  RewritingResult rew = rewriter.Rewrite(q, options);
  ASSERT_EQ(rew.status, RewritingStatus::kConverged);
  for (const std::string db :
       {"E(A,B1,B2,C1), R(A,C2)", "E(A,B1,B2,C1)",
        "E(A,B1,B2,C1), R(A,C2), R(A,C3)", "R(A,C1)"}) {
    CheckSoundness(sticky, q, rew, Facts(db), 4);
  }
}

TEST_F(RewritingTest, PinsRuleAdomExpansion) {
  // true -> exists z E(x,z): every domain element has an outgoing edge in
  // the chase, so q(x) :- E(x,y) rewrites to "x occurs in D".
  Theory pins = ParseT("true -> exists z . E(x,z)");
  Rewriter rewriter(vocab_, pins);
  RewritingResult rew = rewriter.Rewrite(Query("q(x) :- E(x,y)"));
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  // Disjuncts: E(x,_) (original) and E(_,x) (x in second position).
  EXPECT_EQ(rew.queries.size(), 2u);
}

TEST_F(RewritingTest, PinsRuleBooleanAlwaysTrue) {
  Theory pins = ParseT("true -> exists z . E(x,z)");
  Rewriter rewriter(vocab_, pins);
  RewritingResult rew = rewriter.Rewrite(Query("E(x,y)"));
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  EXPECT_TRUE(rew.always_true)
      << "an edge exists in the chase of every nonempty instance";
}

TEST_F(RewritingTest, MultiHeadRulesAreReportedUnsupported) {
  Theory multi =
      ParseT("E(x,y) -> exists z . R(x,z), G(y,z)");
  Rewriter rewriter(vocab_, multi);
  RewritingResult rew = rewriter.Rewrite(Query("R(x,y)"));
  EXPECT_EQ(rew.status, RewritingStatus::kUnsupportedRule);
}

TEST_F(RewritingTest, MotherTheorySemanticAgreement) {
  // T_a of Example 1: BDD (linear); cross-check on several instances.
  Theory t_a = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  Rewriter rewriter(vocab_, t_a);
  ConjunctiveQuery q = Query("Mother(x,y), Mother(y,z)");
  RewritingResult rew = rewriter.Rewrite(q);
  ASSERT_EQ(rew.status, RewritingStatus::kConverged);
  for (const std::string db :
       {"Human(Abel)", "Mother(Eve,Abel)", "Parent(A,B)",
        "Mother(A,B), Mother(B,D)"}) {
    CheckSoundness(t_a, q, rew, Facts(db), 6);
  }
}

TEST_F(RewritingTest, RewritingSetIsPairwiseIncomparable) {
  Theory t_a = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  Rewriter rewriter(vocab_, t_a);
  RewritingResult rew = rewriter.Rewrite(Query("Mother(x,y), Mother(y,z)"));
  ASSERT_EQ(rew.status, RewritingStatus::kConverged);
  for (size_t i = 0; i < rew.queries.size(); ++i) {
    for (size_t j = 0; j < rew.queries.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Contains(vocab_, rew.queries[i], rew.queries[j]))
          << "Theorem 1 minimality violated between disjuncts " << i
          << " and " << j;
    }
  }
}

TEST_F(RewritingTest, AnswerVariableCannotUnifyWithExistential) {
  // q(y) :- E(x,y): y is the invented end of the rule head; since y is an
  // answer variable the backward step must be rejected, leaving only the
  // identity disjunct.
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  Rewriter rewriter(vocab_, t_p);
  RewritingResult rew = rewriter.Rewrite(Query("q(y) :- E(x,y)"));
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  EXPECT_EQ(rew.queries.size(), 1u);
}

TEST_F(RewritingTest, MergedAnswerVariablesKeepTheirCertainAnswers) {
  // Torture-oracle find (seed 12): unifying q's head Q(a,b) with the
  // repeated-variable rule head Q(x,x) equates the two answer variables.
  // The rewriting must keep that unifier as a repeated-answer-variable
  // disjunct q(a,a) :- P(a); dropping it loses the certain answer (C,C).
  Theory t_p = ParseT("P(x) -> Q(x,x)");
  Rewriter rewriter(vocab_, t_p);
  RewritingResult rew = rewriter.Rewrite(Query("q(a,b) :- Q(a,b)"));
  ASSERT_EQ(rew.status, RewritingStatus::kConverged);
  Ucq ucq;
  ucq.disjuncts = rew.queries;
  const FactSet db = Facts("P(C)");
  const TermId c = vocab_.Constant("C");
  std::vector<std::vector<TermId>> answers = EvaluateUcq(vocab_, ucq, db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], (std::vector<TermId>{c, c}));
}

TEST_F(RewritingTest, RewritingIsUniqueAcrossBudgets) {
  // Exercise 14: rew(psi) is unique.  Saturating with different budgets
  // (hence different exploration orders getting cut off at different
  // points - both large enough to converge) must produce equivalent UCQs.
  Theory t_a = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  Rewriter rewriter(vocab_, t_a);
  ConjunctiveQuery q = Query("Mother(x,y), Human(y)");
  RewritingOptions small;
  small.max_iterations = 50;
  RewritingOptions large;
  large.max_iterations = 5000;
  RewritingResult a = rewriter.Rewrite(q, small);
  RewritingResult b = rewriter.Rewrite(q, large);
  ASSERT_EQ(a.status, RewritingStatus::kConverged);
  ASSERT_EQ(b.status, RewritingStatus::kConverged);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  // Every disjunct of a is equivalent to some disjunct of b.
  for (const ConjunctiveQuery& qa : a.queries) {
    bool matched = false;
    for (const ConjunctiveQuery& qb : b.queries) {
      if (EquivalentQueries(vocab_, qa, qb)) matched = true;
    }
    EXPECT_TRUE(matched) << QueryToString(vocab_, qa);
  }
}

TEST_F(RewritingTest, GuardedTheoryConverges) {
  Theory guarded = ParseT(R"(
    Person(x) -> exists y . HasParent(x,y)
    HasParent(x,y) -> Person(y)
  )");
  Rewriter rewriter(vocab_, guarded);
  ConjunctiveQuery q =
      Query("HasParent(x,y), HasParent(y,z), HasParent(z,w)");
  RewritingResult rew = rewriter.Rewrite(q);
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  for (const std::string db :
       {"Person(A)", "HasParent(A,B)", "HasParent(A,B), Person(B)"}) {
    CheckSoundness(guarded, q, rew, Facts(db), 8);
  }
}

TEST_F(RewritingTest, BudgetStopKeepsTheDisjunctsItCannotReplace) {
  // B(x) contains A(x),B(x) and would retire it, but the budget of one
  // admitted CQ refuses B(x): the refusal must not take the query down.
  Theory theory = ParseT("B(x) -> A(x)");
  Rewriter rewriter(vocab_, theory);
  ConjunctiveQuery q = Query("q(x) :- A(x), B(x)");
  RewritingOptions options;
  options.max_queries = 1;
  RewritingResult rew = rewriter.Rewrite(q, options);
  EXPECT_EQ(rew.status, RewritingStatus::kBudgetExhausted);
  ASSERT_EQ(rew.queries.size(), 1u);
  EXPECT_TRUE(EquivalentQueries(vocab_, rew.queries[0], q))
      << QueryToString(vocab_, rew.queries[0]);
}

TEST_F(RewritingTest, RulesThatCannotApplyMintNoVariables) {
  // No rule's head predicate occurs in the query, so no backward step
  // exists and nothing is freshened.
  Theory theory = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,y), E(y,z) -> F(x,z)
  )");
  Rewriter rewriter(vocab_, theory);
  ConjunctiveQuery q = Query("q(x) :- G(x,y), G(y,x)");
  const uint32_t terms_before = vocab_.NumTerms();
  RewritingResult rew = rewriter.Rewrite(q);
  EXPECT_EQ(rew.status, RewritingStatus::kConverged);
  EXPECT_EQ(rew.queries.size(), 1u);
  EXPECT_EQ(vocab_.NumTerms(), terms_before);
}

}  // namespace
}  // namespace frontiers
