// The engine against the reference semi-oblivious chase
// (testing/reference_chase.h): on the catalog theories at small depths and
// on generated workloads, every stage the engine completes must equal the
// reference's as a set of rendered atoms with depths, at one and at four
// threads, semi-naive and naive.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "testing/generator.h"
#include "testing/reference_chase.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::CompareWithReference;

constexpr size_t kReferenceAtoms = 3000;

struct CatalogCase {
  const char* name;
  Theory (*theory)(Vocabulary&);
  FactSet (*instance)(Vocabulary&);
  uint32_t max_rounds;
};

FactSet HumanAbel(Vocabulary& vocab) {
  FactSet db;
  db.Insert(Atom(vocab.AddPredicate("Human", 1), {vocab.Constant("Abel")}));
  return db;
}
FactSet EPath5(Vocabulary& vocab) { return EdgePath(vocab, "E", 5, "a"); }
FactSet ECycle4(Vocabulary& vocab) { return EdgeCycle(vocab, "E", 4, "a"); }
FactSet GPath4(Vocabulary& vocab) { return EdgePath(vocab, "G", 4, "a"); }
FactSet I1Path3(Vocabulary& vocab) {
  return EdgePath(vocab, TdKPredicateName(1), 3, "a");
}
FactSet Star3(Vocabulary& vocab) { return Star39Instance(vocab, 3); }
FactSet Paints2(Vocabulary& vocab) { return Example66Instance(vocab, 2); }
Theory TdK2(Vocabulary& vocab) { return TdKTheory(vocab, 2); }
Theory TdK3(Vocabulary& vocab) { return TdKTheory(vocab, 3); }
Theory Levels3(Vocabulary& vocab) { return TruncatedInfiniteTheory(vocab, 3); }
FactSet E3Edge(Vocabulary& vocab) { return EdgePath(vocab, "E3", 1, "a"); }

// Example 41's rule over a chain of E3 atoms sharing one colour, with the
// colour painted on the chain's first element.
FactSet Ex41Chain(Vocabulary& vocab) {
  const PredicateId e3 = vocab.AddPredicate("E3", 3);
  const PredicateId r = vocab.AddPredicate("R", 2);
  FactSet db;
  const TermId colour = vocab.Constant("c");
  for (uint32_t i = 0; i < 5; ++i) {
    db.Insert(Atom(e3, {PathConstant(vocab, "a", i),
                        PathConstant(vocab, "a", i + 1), colour}));
  }
  db.Insert(Atom(r, {PathConstant(vocab, "a", 0), colour}));
  return db;
}

std::vector<CatalogCase> Catalog() {
  return {
      {"mother", MotherTheory, HumanAbel, 4},
      {"forward-path", ForwardPathTheory, EPath5, 4},
      {"exercise23", Exercise23Theory, EPath5, 3},
      {"levels3", Levels3, E3Edge, 4},
      {"Ex39", StickyExample39Theory, Star3, 3},
      {"Ex41", Example41Theory, Ex41Chain, 6},
      {"Ex42", TcTheory, ECycle4, 3},
      {"T_d", TdTheory, GPath4, 3},
      {"T_d^2", TdK2, I1Path3, 3},
      {"T_d^3", TdK3, I1Path3, 3},
      {"example66", Example66Theory, Paints2, 3},
  };
}

std::vector<ChaseOptions> Variants(uint32_t max_rounds) {
  std::vector<ChaseOptions> out;
  for (uint32_t threads : {1u, 4u}) {
    for (bool semi_naive : {true, false}) {
      ChaseOptions options;
      options.max_rounds = max_rounds;
      options.max_atoms = 20'000;
      options.threads = threads;
      options.semi_naive = semi_naive;
      out.push_back(options);
    }
  }
  return out;
}

std::string Label(const ChaseOptions& options) {
  return "threads=" + std::to_string(options.threads) +
         (options.semi_naive ? " semi-naive" : " naive");
}

TEST(ReferenceChase, CatalogTheoriesAgreeWithTheEngine) {
  for (const CatalogCase& c : Catalog()) {
    for (const ChaseOptions& options : Variants(c.max_rounds)) {
      Vocabulary vocab;
      const Theory theory = c.theory(vocab);
      const FactSet db = c.instance(vocab);
      const ChaseResult result = ChaseEngine(vocab, theory).Run(db, options);
      ASSERT_GT(result.complete_rounds, 0u) << c.name;
      // The reference reaches every round the engine completed.
      EXPECT_EQ(testing::ReferenceChase(vocab, theory, db,
                                        result.complete_rounds,
                                        kReferenceAtoms)
                    .rounds,
                result.complete_rounds)
          << c.name;
      for (const std::string& d :
           CompareWithReference(vocab, theory, db, result, kReferenceAtoms)) {
        ADD_FAILURE() << c.name << " " << Label(options) << ": " << d;
      }
    }
  }
}

TEST(ReferenceChase, GeneratedWorkloadsAgreeWithTheEngine) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Vocabulary vocab;
    const testing::GeneratedWorkload w = testing::GenerateWorkload(vocab, seed);
    ChaseOptions options;
    options.max_rounds = 6;
    options.max_atoms = 20'000;
    const ChaseResult result =
        ChaseEngine(vocab, w.theory).Run(w.instance, options);
    for (const std::string& d : CompareWithReference(
             vocab, w.theory, w.instance, result, kReferenceAtoms)) {
      ADD_FAILURE() << "seed " << seed << ": " << d;
    }
  }
}

// The reference stage is exactly the engine's prefix: depth by depth, not
// only in its final round.
TEST(ReferenceChase, StagesAgreeRoundByRound) {
  Vocabulary vocab;
  const Theory theory = TdTheory(vocab);
  const FactSet db = GPath4(vocab);
  const ChaseResult result = ChaseEngine(vocab, theory).RunToDepth(db, 3);
  for (uint32_t rounds = 0; rounds <= 3; ++rounds) {
    const testing::ReferenceStage ref =
        testing::ReferenceChase(vocab, theory, db, rounds, kReferenceAtoms);
    EXPECT_EQ(ref.rounds, rounds);
    EXPECT_EQ(ref.atoms, testing::RenderEngineStage(vocab, result, rounds))
        << "round " << rounds;
  }
}

// The comparison is not vacuous: a stage of a different theory, and a
// stage whose depths shift, are both reported.
TEST(ReferenceChase, ReportsDivergingStages) {
  Vocabulary vocab;
  Result<Theory> step = ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)", "s");
  Result<Theory> twice = ParseTheory(
      vocab, "E(x,y) -> exists z . E(y,z)\nE(x,y), E(y,z) -> F(x,z)", "t");
  ASSERT_TRUE(step.ok() && twice.ok());
  const FactSet db = EdgePath(vocab, "E", 2, "a");
  ChaseOptions options;
  options.max_rounds = 3;
  const ChaseResult result = ChaseEngine(vocab, step.value()).Run(db, options);
  EXPECT_TRUE(
      CompareWithReference(vocab, step.value(), db, result, kReferenceAtoms)
          .empty());
  EXPECT_FALSE(
      CompareWithReference(vocab, twice.value(), db, result, kReferenceAtoms)
          .empty());
  ChaseResult shifted = result;
  for (uint32_t& depth : shifted.depth) {
    if (depth == 2) depth = 1;
  }
  EXPECT_FALSE(
      CompareWithReference(vocab, step.value(), db, shifted, kReferenceAtoms)
          .empty());
}

}  // namespace
}  // namespace frontiers
