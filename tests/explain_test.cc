#include <gtest/gtest.h>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "chase/explain.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ChaseResult Chase(const std::string& rules, const std::string& facts,
                    uint32_t rounds, bool provenance = true) {
    Result<Theory> theory = ParseTheory(vocab_, rules, "t");
    EXPECT_TRUE(theory.ok()) << theory.status().message();
    theory_ = theory.value();
    Result<FactSet> db = ParseFacts(vocab_, facts);
    EXPECT_TRUE(db.ok()) << db.status().message();
    ChaseEngine engine(vocab_, theory_);
    ChaseOptions options;
    options.max_rounds = rounds;
    options.track_provenance = provenance;
    return engine.Run(db.value(), options);
  }
  Atom GroundAtom(const std::string& text) {
    Result<FactSet> atoms = ParseFacts(vocab_, text);
    EXPECT_TRUE(atoms.ok());
    return atoms.value().ToAtom(0);
  }
  Vocabulary vocab_;
  Theory theory_;
};

TEST_F(ExplainTest, TransitiveClosureDerivationTree) {
  ChaseResult chase = Chase("trans: E(x,y), E(y,z) -> E(x,z)",
                            "E(A,B), E(B,C), E(C,D)", 4);
  std::string explanation =
      ExplainAtom(vocab_, theory_, chase, GroundAtom("E(A,D)"));
  EXPECT_NE(explanation.find("E(A,D)"), std::string::npos);
  EXPECT_NE(explanation.find("rule trans"), std::string::npos);
  EXPECT_NE(explanation.find("[input]"), std::string::npos);
  // The tree bottoms out at all three input edges.
  EXPECT_NE(explanation.find("E(A,B)"), std::string::npos);
  EXPECT_NE(explanation.find("E(C,D)"), std::string::npos);
}

TEST_F(ExplainTest, InputAtomsAreLabelled) {
  ChaseResult chase = Chase("E(x,y) -> E(y,x)", "E(A,B)", 2);
  std::string explanation =
      ExplainAtom(vocab_, theory_, chase, GroundAtom("E(A,B)"));
  EXPECT_NE(explanation.find("[input]"), std::string::npos);
  EXPECT_EQ(explanation.find("rule"), std::string::npos);
}

TEST_F(ExplainTest, MissingAtomIsReported) {
  ChaseResult chase = Chase("E(x,y) -> E(y,x)", "E(A,B)", 2);
  std::string explanation =
      ExplainAtom(vocab_, theory_, chase, GroundAtom("E(A,A)"));
  EXPECT_NE(explanation.find("not in the chase"), std::string::npos);
}

TEST_F(ExplainTest, MissingProvenanceIsReported) {
  ChaseResult chase =
      Chase("E(x,y) -> E(y,x)", "E(A,B)", 2, /*provenance=*/false);
  std::string explanation =
      ExplainAtom(vocab_, theory_, chase, GroundAtom("E(B,A)"));
  EXPECT_NE(explanation.find("provenance not recorded"), std::string::npos);
}

TEST_F(ExplainTest, DepthCutOff) {
  ChaseResult chase = Chase("step: E(x,y) -> exists z . E(y,z)", "E(A,B)", 8);
  // Explain the deepest atom with a tiny depth budget.
  ExplainOptions options;
  options.max_depth = 2;
  std::string explanation = ExplainAtom(
      vocab_, theory_, chase,
      static_cast<uint32_t>(chase.facts.size() - 1), options);
  EXPECT_NE(explanation.find("..."), std::string::npos);
}

TEST_F(ExplainTest, DerivationParentsAreNeverTruncated) {
  // Regression: a missed IndexOf while recording provenance used to drop
  // the parent silently, leaving Derivation::parents shorter than the rule
  // body and silently under-reporting ancestors (Section 13).  A miss is
  // now a fatal engine error, so every recorded derivation must carry
  // exactly one parent per body atom — including rules whose body atoms
  // unify with each other and multi-round derivations.
  ChaseResult chase = Chase(R"(
    trans: E(x,y), E(y,z) -> E(x,z)
    pair: E(x,y), E(y,x) -> exists v . M(x,v)
  )",
                            "E(A,B), E(B,C), E(C,A), E(C,D)", 4);
  ASSERT_EQ(chase.first_derivation.size(), chase.facts.size());
  size_t derived = 0;
  for (size_t i = 0; i < chase.facts.size(); ++i) {
    if (!chase.first_derivation[i].has_value()) continue;
    ++derived;
    const Derivation& d = *chase.first_derivation[i];
    EXPECT_EQ(d.parents.size(), theory_.rules[d.rule_index].body.size())
        << "derivation of atom " << i << " lost parents";
    for (uint32_t parent : d.parents) {
      EXPECT_LT(parent, i) << "parents must precede the derived atom";
    }
  }
  EXPECT_GT(derived, 0u);
}

TEST_F(ExplainTest, AncestorTreeReachesEveryBodyAtom) {
  // The full parent lists make the derivation tree of E(A,D) bottom out in
  // *both* input edges, not just the first resolvable one.
  ChaseResult chase = Chase("trans: E(x,y), E(y,z) -> E(x,z)",
                            "E(A,B), E(B,C), E(C,D)", 4);
  std::string explanation =
      ExplainAtom(vocab_, theory_, chase, GroundAtom("E(A,D)"));
  EXPECT_NE(explanation.find("E(A,B)"), std::string::npos);
  EXPECT_NE(explanation.find("E(B,C)"), std::string::npos);
  EXPECT_NE(explanation.find("E(C,D)"), std::string::npos);
}

TEST_F(ExplainTest, OutOfRangeIndex) {
  ChaseResult chase = Chase("E(x,y) -> E(y,x)", "E(A,B)", 1);
  EXPECT_NE(ExplainAtom(vocab_, theory_, chase, 999)
                .find("out of range"),
            std::string::npos);
}

}  // namespace
}  // namespace frontiers
