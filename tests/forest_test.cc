// Tests for the Section 13 chase-forest structure (Observation 64).

#include <gtest/gtest.h>

#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "normalize/forest.h"
#include "normalize/normalize.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

ChaseResult RunWithProvenance(Vocabulary& vocab, const Theory& theory,
                              const FactSet& db, uint32_t rounds) {
  ChaseEngine engine(vocab, theory);
  ChaseOptions options;
  options.max_rounds = rounds;
  options.track_provenance = true;
  return engine.Run(db, options);
}

TEST(ForestTest, MotherChainIsASingleTree) {
  Vocabulary vocab;
  Theory t_a = MotherTheory(vocab);
  Result<FactSet> db = ParseFacts(vocab, "Human(Abel)");
  ASSERT_TRUE(db.ok());
  ChaseResult chase = RunWithProvenance(vocab, t_a, db.value(), 6);
  ChaseForest forest = BuildChaseForest(vocab, t_a, chase);
  EXPECT_TRUE(forest.forest_ok);
  // All Mother atoms are sensible; all Human atoms beyond depth 0 are
  // Datalog.
  PredicateId mother = vocab.FindPredicate("Mother").value();
  PredicateId human = vocab.FindPredicate("Human").value();
  for (uint32_t i = 0; i < chase.facts.size(); ++i) {
    if (chase.depth[i] == 0) continue;
    const Atom atom = chase.facts.ToAtom(i);
    if (atom.predicate == mother) {
      EXPECT_EQ(forest.atom_class[i], AtomClass::kSensible);
    }
    if (atom.predicate == human) {
      EXPECT_EQ(forest.atom_class[i], AtomClass::kDatalog);
    }
  }
  // One tree, rooted at the input constant, out-degree 1 (one
  // existential rule).
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_EQ(forest.roots[0], vocab.Constant("Abel"));
  EXPECT_EQ(forest.max_out_degree, 1u);
  EXPECT_EQ(forest.TreeAtoms(vocab.Constant("Abel")).size(),
            chase.complete_rounds > 0
                ? chase.facts.ByPredicate(mother).size()
                : 0u);
}

TEST(ForestTest, DetachedRuleStartsItsOwnTree) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, R"(
    spawn: P(x) -> exists y . Q(y)
    grow: Q(y) -> exists z . E(y,z)
  )");
  ASSERT_TRUE(theory.ok());
  Result<FactSet> db = ParseFacts(vocab, "P(A)");
  ASSERT_TRUE(db.ok());
  ChaseResult chase = RunWithProvenance(vocab, theory.value(), db.value(), 4);
  ChaseForest forest = BuildChaseForest(vocab, theory.value(), chase);
  EXPECT_TRUE(forest.forest_ok);
  // The Q atom is detached; the E atoms grow a tree under the detached
  // term, not under A.
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_TRUE(vocab.IsSkolem(forest.roots[0]));
  // Under the raw theory the detached atom still has P(A) as an ancestor
  // through its derivation.
  EXPECT_EQ(TreeAncestorInputs(vocab, chase, forest, forest.roots[0]), 1u);
}

TEST(ForestTest, NormalizedDetachedTreeHasNoConnectedAncestors) {
  // After normalization the detached rule's body is a single nullary atom
  // (Observation 69), so the detached tree has no *connected* ancestors -
  // Lemma 77's easy case.
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, R"(
    spawn: P(x) -> exists y . Q(y)
    grow: Q(y) -> exists z . E(y,z)
  )");
  ASSERT_TRUE(theory.ok());
  Result<NormalizationResult> nf = NormalizeTheory(vocab, theory.value());
  ASSERT_TRUE(nf.ok()) << nf.status().message();
  Result<FactSet> db = ParseFacts(vocab, "P(A)");
  ASSERT_TRUE(db.ok());
  ChaseResult chase =
      RunWithProvenance(vocab, nf.value().normalized, db.value(), 5);
  ChaseForest forest = BuildChaseForest(vocab, nf.value().normalized, chase);
  EXPECT_TRUE(forest.forest_ok);
  ASSERT_GE(forest.roots.size(), 1u);
  for (TermId root : forest.roots) {
    if (!vocab.IsSkolem(root)) continue;  // only detached trees
    EXPECT_EQ(TreeAncestorInputs(vocab, chase, forest, root), 0u);
  }
}

TEST(ForestTest, MultipleRootsForMultipleConstants) {
  Vocabulary vocab;
  Theory t_p = ForwardPathTheory(vocab);
  Result<FactSet> db = ParseFacts(vocab, "E(A,B), E(C,D)");
  ASSERT_TRUE(db.ok());
  ChaseResult chase = RunWithProvenance(vocab, t_p, db.value(), 4);
  ChaseForest forest = BuildChaseForest(vocab, t_p, chase);
  EXPECT_TRUE(forest.forest_ok);
  // Trees hang from B and D (the only constants that get successors).
  EXPECT_EQ(forest.roots.size(), 2u);
  EXPECT_EQ(forest.max_out_degree, 1u);
}

TEST(ForestTest, OutDegreeBoundedByExistentialRules) {
  // Observation 64: out-degree <= number of existential rules.
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, R"(
    a: P(x) -> exists y . E(x,y)
    b: P(x) -> exists y . F(x,y)
    c: E(x,y) -> P(y)
  )");
  ASSERT_TRUE(theory.ok());
  Result<FactSet> db = ParseFacts(vocab, "P(A)");
  ASSERT_TRUE(db.ok());
  ChaseResult chase = RunWithProvenance(vocab, theory.value(), db.value(), 4);
  ChaseForest forest = BuildChaseForest(vocab, theory.value(), chase);
  EXPECT_TRUE(forest.forest_ok);
  EXPECT_EQ(forest.max_out_degree, 2u) << "two existential rules";
}

TEST(ForestTest, Example66TreeAncestors) {
  // Under T (Example 66) the single sensible tree hangs from A1; with the
  // first-derivation parent function its connected ancestors stay small
  // (the adversarial blow-up needs the rotating chooser, see
  // normalize_test), but they are nonzero - the tree touches D.
  Vocabulary vocab;
  Theory ex66 = Example66Theory(vocab);
  FactSet db = Example66Instance(vocab, 4);
  ChaseResult chase = RunWithProvenance(vocab, ex66, db, 8);
  ChaseForest forest = BuildChaseForest(vocab, ex66, chase);
  EXPECT_TRUE(forest.forest_ok);
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_EQ(forest.roots[0], vocab.Constant("A1"));
  EXPECT_GE(TreeAncestorInputs(vocab, chase, forest, forest.roots[0]), 1u);
}

TEST(ForestTest, MissingProvenanceIsReported) {
  Vocabulary vocab;
  Theory t_p = ForwardPathTheory(vocab);
  Result<FactSet> db = ParseFacts(vocab, "E(A,B)");
  ASSERT_TRUE(db.ok());
  ChaseEngine engine(vocab, t_p);
  ChaseResult chase = engine.RunToDepth(db.value(), 3);  // no provenance
  ChaseForest forest = BuildChaseForest(vocab, t_p, chase);
  EXPECT_FALSE(forest.forest_ok);
}

}  // namespace
}  // namespace frontiers
