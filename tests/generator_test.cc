// Tests for the seeded workload generator: determinism, class membership
// (checked against the real classifiers, in release builds too — the
// generator itself only re-checks in debug builds), and round-trippability
// of every rendered artifact through the DSL parser.

#include <algorithm>
#include <string>

#include "gtest/gtest.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::GeneratedWorkload;
using testing::GenerateWorkload;
using testing::SplitMix64;
using testing::TheoryClass;
using testing::TheoryClassName;

TEST(RngTest, SplitMix64IsTheReferenceSequence) {
  // Reference values for seed 1234567 from the published SplitMix64
  // algorithm; pins cross-platform bit-reproducibility, which is what
  // makes torture seeds portable.
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng.Next(), 6457827717110365317ull);
  EXPECT_EQ(rng.Next(), 3203168211198807973ull);
  EXPECT_EQ(rng.Next(), 9817491932198370423ull);
}

TEST(RngTest, ForkDecorrelatesWithoutAdvancing) {
  SplitMix64 a(42), b(42);
  const uint64_t fork1 = a.Fork(1);
  EXPECT_EQ(fork1, b.Fork(1));
  EXPECT_NE(fork1, a.Fork(2));
  EXPECT_EQ(a.Next(), b.Next());  // forking did not advance the stream
}

TEST(GeneratorTest, DeterministicAcrossCalls) {
  for (uint64_t seed : {0ull, 1ull, 17ull, 123456789ull}) {
    Vocabulary v1, v2;
    const GeneratedWorkload a = GenerateWorkload(v1, seed);
    const GeneratedWorkload b = GenerateWorkload(v2, seed);
    EXPECT_EQ(a.theory_text, b.theory_text) << "seed " << seed;
    EXPECT_EQ(a.facts_text, b.facts_text) << "seed " << seed;
    EXPECT_EQ(a.query_text, b.query_text) << "seed " << seed;
  }
  Vocabulary v1, v2;
  EXPECT_NE(GenerateWorkload(v1, 3).theory_text,
            GenerateWorkload(v2, 7).theory_text);
}

TEST(GeneratorTest, EveryClassIsGeneratedAndClassifies) {
  bool seen[4] = {false, false, false, false};
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Vocabulary vocab;
    const GeneratedWorkload w = GenerateWorkload(vocab, seed);
    seen[static_cast<int>(w.theory_class)] = true;
    SCOPED_TRACE(std::string(TheoryClassName(w.theory_class)) + " seed " +
                 std::to_string(seed));
    switch (w.theory_class) {
      case TheoryClass::kLinear:
        EXPECT_TRUE(IsLinear(w.theory));
        break;
      case TheoryClass::kGuarded:
        EXPECT_TRUE(IsGuarded(vocab, w.theory));
        break;
      case TheoryClass::kSticky:
        EXPECT_TRUE(IsSticky(vocab, w.theory));
        break;
      case TheoryClass::kDatalog:
        EXPECT_TRUE(IsDatalog(w.theory));
        break;
    }
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(seen[c]) << TheoryClassName(static_cast<TheoryClass>(c));
  }
}

TEST(GeneratorTest, ArtifactsRoundTripThroughParser) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Vocabulary vocab;
    const GeneratedWorkload w = GenerateWorkload(vocab, seed);

    Vocabulary fresh;
    Result<Theory> theory = ParseTheory(fresh, w.theory_text, "rt");
    ASSERT_TRUE(theory.ok()) << theory.message();
    EXPECT_EQ(TheoryToString(fresh, theory.value()), w.theory_text);

    Result<FactSet> facts = ParseFacts(fresh, w.facts_text);
    ASSERT_TRUE(facts.ok()) << facts.message();
    EXPECT_EQ(testing::FactsToText(fresh, facts.value()), w.facts_text);
    EXPECT_EQ(facts.value().size(), w.instance.size());

    Result<ConjunctiveQuery> query = ParseQuery(fresh, w.query_text);
    ASSERT_TRUE(query.ok()) << query.message();
    EXPECT_EQ(QueryToString(fresh, query.value()), w.query_text);
  }
}

TEST(GeneratorTest, InstanceUsesTheTheorySignature) {
  Vocabulary vocab;
  const GeneratedWorkload w = GenerateWorkload(vocab, 5);
  const std::vector<PredicateId> signature =
      testing::TheorySignature(w.theory);
  for (const Atom& fact : w.instance.ToAtoms()) {
    EXPECT_NE(std::find(signature.begin(), signature.end(), fact.predicate),
              signature.end());
    for (TermId t : fact.args) EXPECT_TRUE(vocab.IsConstant(t));
  }
  for (const Atom& atom : w.query.atoms) {
    EXPECT_NE(std::find(signature.begin(), signature.end(), atom.predicate),
              signature.end());
  }
}

}  // namespace
}  // namespace frontiers
