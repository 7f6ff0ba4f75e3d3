#include <gtest/gtest.h>

#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "normalize/ancestors.h"
#include "normalize/normalize.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// Atoms of `facts` with the given predicate name.
std::vector<Atom> AtomsOf(const Vocabulary& vocab, const FactSet& facts,
                          const std::string& predicate) {
  std::vector<Atom> out;
  auto pred = vocab.FindPredicate(predicate);
  if (!pred.has_value()) return out;
  for (uint32_t i : facts.ByPredicate(*pred)) {
    out.push_back(facts.ToAtom(i));
  }
  return out;
}

TEST(NormalizeTest, Example66Shape) {
  Vocabulary vocab;
  Theory ex66 = Example66Theory(vocab);
  Result<NormalizationResult> normalized = NormalizeTheory(vocab, ex66);
  ASSERT_TRUE(normalized.ok()) << normalized.status().message();
  const NormalizationResult& nf = normalized.value();
  // Every T_II rule carries exactly one nullary body atom.
  for (const Tgd& rule : nf.t_ii.rules) {
    int nullary = 0;
    for (const Atom& atom : rule.body) {
      if (vocab.PredicateArity(atom.predicate) == 0) ++nullary;
    }
    EXPECT_EQ(nullary, 1) << RuleToString(vocab, rule);
    EXPECT_FALSE(IsDatalogRule(rule));
  }
  // T_III rules are Datalog with nullary heads.
  for (const Tgd& rule : nf.t_iii.rules) {
    EXPECT_TRUE(IsDatalogRule(rule));
    EXPECT_EQ(vocab.PredicateArity(rule.head[0].predicate), 0u);
  }
  // The original Datalog rule (paint) lives in original_datalog, not T_NF.
  EXPECT_EQ(nf.original_datalog.rules.size(), 1u);
  // Some rule separated the P(z) component behind a nullary predicate.
  EXPECT_GE(nf.nullary_meaning.size(), 1u);
}

TEST(NormalizeTest, Lemma70ExistentialAtomsAgree) {
  // Ch_exists(T, D) = Ch_exists(T_NF, D) - here: the E-atoms agree (E is
  // the only existential predicate of Example 66; R-atoms are Datalog).
  Vocabulary vocab;
  Theory ex66 = Example66Theory(vocab);
  Result<NormalizationResult> normalized = NormalizeTheory(vocab, ex66);
  ASSERT_TRUE(normalized.ok()) << normalized.status().message();

  FactSet db = Example66Instance(vocab, 3);
  ChaseEngine original(vocab, ex66);
  ChaseEngine nf(vocab, normalized.value().normalized);
  // Lemma 75: Ch_{i,exists}(T) is inside Ch_{i+2}(T_NF); Lemma 72 only
  // bounds Ch_{k,exists}(T_NF) by the *full* Ch_exists(T).  T alternates
  // R- and E-rounds while T_NF produces an E-atom every round, so the
  // T-side reference must be chased about twice as deep.
  ChaseResult chase_t = original.RunToDepth(db, 16);
  ChaseResult chase_nf = nf.RunToDepth(db, 10);

  FactSet t_shallow = chase_t.PrefixAtDepth(6);
  for (const Atom& atom : AtomsOf(vocab, t_shallow, "E")) {
    EXPECT_TRUE(chase_nf.facts.Contains(atom))
        << "missing in T_NF: " << AtomToString(vocab, atom);
  }
  FactSet nf_shallow = chase_nf.PrefixAtDepth(6);
  for (const Atom& atom : AtomsOf(vocab, nf_shallow, "E")) {
    EXPECT_TRUE(chase_t.facts.Contains(atom))
        << "missing in T: " << AtomToString(vocab, atom);
  }
}

TEST(NormalizeTest, DetachedRuleSeparatesWholeBody) {
  Vocabulary vocab;
  Result<Theory> theory =
      ParseTheory(vocab, "det: P(x) -> exists y,z . E(y,z)");
  ASSERT_TRUE(theory.ok());
  Result<NormalizationResult> normalized =
      NormalizeTheory(vocab, theory.value());
  ASSERT_TRUE(normalized.ok()) << normalized.status().message();
  // Observation 69: the detached rule's body becomes a single nullary atom.
  ASSERT_EQ(normalized.value().t_ii.rules.size(), 1u);
  const Tgd& rule = normalized.value().t_ii.rules[0];
  ASSERT_EQ(rule.body.size(), 1u);
  EXPECT_EQ(vocab.PredicateArity(rule.body[0].predicate), 0u);
}

TEST(NormalizeTest, MultiHeadIsRejected) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  Result<NormalizationResult> normalized = NormalizeTheory(vocab, td);
  EXPECT_FALSE(normalized.ok());
}

TEST(NormalizeTest, NonBddTheoryExhaustsBudget) {
  Vocabulary vocab;
  Theory ex41 = Example41Theory(vocab);
  // Add an existential rule whose body mentions R with *both* arguments in
  // the frontier, so normalization must compute the non-converging atomic
  // rewriting of R under the non-BDD Datalog rule.  (With only one
  // argument in the frontier the rewriting actually converges - longer
  // backward chains are subsumed by shorter ones.)
  Result<Theory> extra =
      ParseTheory(vocab, "grow: R(x,y) -> exists z . S(x,y,z)");
  ASSERT_TRUE(extra.ok());
  Theory combined = ex41;
  combined.rules.push_back(extra.value().rules[0]);
  RewritingOptions tight;
  tight.max_iterations = 50;
  tight.max_queries = 30;
  Result<NormalizationResult> normalized =
      NormalizeTheory(vocab, combined, tight);
  EXPECT_FALSE(normalized.ok());
}

TEST(AncestorTest, Example66RotatingAdversaryBlowsUp) {
  // Example 66 / Lemma 65: under T, an adversarial parent choice makes
  // ancestor sets grow with the number of P-facts.
  auto max_ancestors = [](uint32_t paints) {
    Vocabulary vocab;
    Theory ex66 = Example66Theory(vocab);
    ChaseEngine engine(vocab, ex66);
    ChaseOptions options;
    options.max_rounds = 2 * paints + 2;
    options.record_all_derivations = true;
    ChaseResult chase = engine.Run(Example66Instance(vocab, paints), options);
    return MaxAncestorSetSize(vocab, chase, RotatingDerivation());
  };
  size_t small = max_ancestors(2);
  size_t big = max_ancestors(6);
  EXPECT_GT(big, small) << "ancestor sets must grow with |D|";
  EXPECT_GE(big, 6u);
}

TEST(AncestorTest, NormalizedConnectedAncestorsBounded) {
  // Lemma 77: under T_NF the *connected* ancestor sets stay bounded
  // regardless of the number of P-facts.
  auto max_connected = [](uint32_t paints) {
    Vocabulary vocab;
    Theory ex66 = Example66Theory(vocab);
    Result<NormalizationResult> normalized = NormalizeTheory(vocab, ex66);
    EXPECT_TRUE(normalized.ok()) << normalized.status().message();
    ChaseEngine engine(vocab, normalized.value().normalized);
    ChaseOptions options;
    options.max_rounds = 2 * paints + 2;
    options.record_all_derivations = true;
    ChaseResult chase = engine.Run(Example66Instance(vocab, paints), options);
    return MaxAncestorSetSize(vocab, chase, RotatingDerivation(),
                              /*connected_only=*/true);
  };
  size_t at3 = max_connected(3);
  size_t at6 = max_connected(6);
  EXPECT_EQ(at3, at6) << "connected ancestors must not grow with |D|";
  EXPECT_LE(at6, 3u);
}

TEST(AncestorTest, AncestorsOfInputAtomsAreThemselves) {
  Vocabulary vocab;
  Theory ex66 = Example66Theory(vocab);
  ChaseEngine engine(vocab, ex66);
  ChaseOptions options;
  options.max_rounds = 2;
  options.track_provenance = true;
  ChaseResult chase = engine.Run(Example66Instance(vocab, 2), options);
  std::vector<uint32_t> anc =
      AncestorInputs(vocab, chase, 0, FirstDerivation());
  ASSERT_EQ(anc.size(), 1u);
  EXPECT_EQ(anc[0], 0u);
}

}  // namespace
}  // namespace frontiers
