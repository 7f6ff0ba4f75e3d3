#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/vocabulary.h"
#include "hom/query_ops.h"
#include "gaifman/dot.h"
#include "rewriting/ucq.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class UcqTest : public ::testing::Test {
 protected:
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }
  FactSet Facts(const std::string& text) {
    Result<FactSet> f = ParseFacts(vocab_, text);
    EXPECT_TRUE(f.ok()) << f.status().message();
    return f.value();
  }
  Vocabulary vocab_;
};

TEST_F(UcqTest, HoldsIfAnyDisjunctHolds) {
  Ucq ucq;
  ucq.disjuncts = {Query("E(x,y), E(y,x)"), Query("F(x,x)")};
  EXPECT_TRUE(HoldsBoolean(vocab_, ucq, Facts("F(A,A)")));
  EXPECT_TRUE(HoldsBoolean(vocab_, ucq, Facts("E(A,B), E(B,A)")));
  EXPECT_FALSE(HoldsBoolean(vocab_, ucq, Facts("E(A,B)")));
}

TEST_F(UcqTest, AlwaysTrueNeedsNonemptyInstance) {
  Ucq ucq;
  ucq.always_true = true;
  EXPECT_TRUE(HoldsBoolean(vocab_, ucq, Facts("E(A,B)")));
  EXPECT_FALSE(HoldsBoolean(vocab_, ucq, FactSet()));
}

TEST_F(UcqTest, EvaluateUnionsAnswers) {
  Ucq ucq;
  ucq.disjuncts = {Query("q(x) :- E(x,y)"), Query("q(x) :- F(x,y)")};
  FactSet db = Facts("E(A,B), F(C,D)");
  auto answers = EvaluateUcq(vocab_, ucq, db);
  ASSERT_EQ(answers.size(), 2u);
}

TEST_F(UcqTest, EvaluateMergesOverlappingDisjunctsSortedAndDistinct) {
  Ucq ucq;
  ucq.disjuncts = {Query("q(x,y) :- E(x,y)"), Query("q(x,y) :- F(x,y)"),
                   Query("q(x,y) :- E(y,x)"), Query("q(x,x) :- F(x,z)")};
  FactSet db = Facts("E(B,A), E(A,C), F(A,C), F(C,C), F(D,A)");
  std::set<std::vector<TermId>> expected;
  for (const ConjunctiveQuery& q : ucq.disjuncts) {
    for (const std::vector<TermId>& tuple : EvaluateQuery(vocab_, q, db)) {
      expected.insert(tuple);
    }
  }
  auto answers = EvaluateUcq(vocab_, ucq, db);
  EXPECT_EQ(answers, std::vector<std::vector<TermId>>(expected.begin(),
                                                       expected.end()));
  EXPECT_EQ(answers.size(), 8u);
}

TEST_F(UcqTest, InsertMinimalDropsSubsumed) {
  Ucq ucq;
  EXPECT_TRUE(InsertMinimal(vocab_, Query("E(x,y), E(y,z)"), &ucq));
  // The more general single-atom query replaces the path.
  EXPECT_TRUE(InsertMinimal(vocab_, Query("E(x,y)"), &ucq));
  EXPECT_EQ(ucq.size(), 1u);
  EXPECT_EQ(ucq.disjuncts[0].size(), 1u);
  // Re-inserting something the set already covers is a no-op.
  EXPECT_FALSE(InsertMinimal(vocab_, Query("E(u,v), E(v,w)"), &ucq));
  EXPECT_EQ(ucq.size(), 1u);
}

TEST_F(UcqTest, EquivalenceUpToContainment) {
  Ucq a;
  a.disjuncts = {Query("E(x,y)")};
  Ucq b;
  b.disjuncts = {Query("E(u,v)"), Query("E(u,v), E(v,w)")};
  EXPECT_TRUE(EquivalentUcqs(vocab_, a, b))
      << "the redundant longer disjunct changes nothing";
  Ucq c;
  c.disjuncts = {Query("E(x,y), E(y,z)")};
  EXPECT_FALSE(EquivalentUcqs(vocab_, a, c));
}

TEST_F(UcqTest, MaxDisjunctSizeAndPrinting) {
  Ucq ucq;
  ucq.disjuncts = {Query("E(x,y)"), Query("E(x,y), E(y,z), E(z,w)")};
  EXPECT_EQ(ucq.MaxDisjunctSize(), 3u);
  std::string text = UcqToString(vocab_, ucq);
  EXPECT_NE(text.find("E("), std::string::npos);
}

// ------------------------------------------------------------- DOT export --

TEST_F(UcqTest, DotExportContainsColouredEdges) {
  FactSet facts = Facts("R(A,B), G(B,C), P(A)");
  DotOptions options;
  options.highlight.insert(vocab_.Constant("A"));
  std::string dot = ToDot(vocab_, facts, options);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos) << "R maps to red";
  EXPECT_NE(dot.find("color=green"), std::string::npos) << "G maps to green";
  EXPECT_NE(dot.find("lightyellow"), std::string::npos) << "highlighting";
  EXPECT_NE(dot.find("// P(A)"), std::string::npos)
      << "non-binary atoms are listed as comments";
}

TEST_F(UcqTest, DotCustomColors) {
  FactSet facts = Facts("Edge(A,B)");
  DotOptions options;
  options.edge_colors["Edge"] = "black";
  std::string dot = ToDot(vocab_, facts, options);
  EXPECT_NE(dot.find("color=black"), std::string::npos);
}

}  // namespace
}  // namespace frontiers
