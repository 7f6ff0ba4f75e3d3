// Seeded fuzzer for the TGD DSL parser.  Invariants:
//  - hostile input (truncated tokens, deep nesting, garbage bytes, huge
//    identifiers/arities) yields a positioned error Status — never a crash,
//    abort, or sanitizer finding;
//  - whenever a mutated input *does* parse, its rendering re-parses to the
//    identical rendering (round-trip stability).
//
// Iteration budget: FRONTIERS_FUZZ_ITERS (default 100000).  Seeds come from
// the checked-in corpus (FRONTIERS_CORPUS_DIR) plus generated theories and
// fact texts.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/fuzz.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::FuzzIterations;
using testing::ListCorpusFiles;
using testing::MutateBytes;
using testing::ReadFileBytes;
using testing::SplitMix64;

// Parse as facts, and when successful check that the FactsToText
// rendering re-parses to itself.  Returns true if the text parsed.
bool ParseFactsAndCheckStable(const std::string& text) {
  Vocabulary vocab;
  Result<FactSet> facts = ParseFacts(vocab, text);
  if (!facts.ok()) {
    EXPECT_FALSE(facts.message().empty());
    return false;
  }
  const std::string rendered = testing::FactsToText(vocab, facts.value());
  Vocabulary fresh;
  Result<FactSet> again = ParseFacts(fresh, rendered);
  EXPECT_TRUE(again.ok()) << "rendering of parsed facts must re-parse: "
                          << again.message() << "\n"
                          << rendered;
  if (again.ok()) {
    EXPECT_EQ(testing::FactsToText(fresh, again.value()), rendered);
  }
  return true;
}

// Parse, and when successful check render->parse->render stability.
// Returns true if the text parsed.
bool ParseAndCheckStable(const std::string& text) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, text, "fuzz");
  if (!theory.ok()) {
    EXPECT_FALSE(theory.message().empty());
    return false;
  }
  const std::string rendered = TheoryToString(vocab, theory.value());
  Vocabulary fresh;
  Result<Theory> again = ParseTheory(fresh, rendered, "fuzz");
  EXPECT_TRUE(again.ok()) << "rendering of a parsed theory must re-parse: "
                          << again.message() << "\n"
                          << rendered;
  if (again.ok()) {
    EXPECT_EQ(TheoryToString(fresh, again.value()), rendered);
  }
  return true;
}

TEST(ParserFuzzTest, DirectedHostileInputs) {
  const std::vector<std::string> cases = {
      "",
      "#",
      "# comment only\n",
      "P(",
      "P(x",
      "P(x,",
      "P(x) ->",
      "P(x) -> exists",
      "P(x) -> exists z",
      "P(x) -> exists z .",
      "label:",
      "label: ->",
      "->",
      ";;;;",
      "P(x) -> exists x . Q(x)",   // existential occurring in the body
      "P(x,x -> Q(x)",
      "P(x)) -> Q(x)",
      "P() -> Q()",
      "q( :- P(x)",
      std::string(100000, '('),
      std::string(100000, 'a'),
      "P(" + std::string(100000, 'x') + ")",
      std::string("P(x)\x00Q(y)", 9),
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    Vocabulary vocab;
    Result<Theory> theory = ParseTheory(vocab, cases[i], "fuzz");
    if (!theory.ok()) {
      EXPECT_FALSE(theory.message().empty());
    }
    Vocabulary vocab2;
    (void)ParseFacts(vocab2, cases[i]);
    Vocabulary vocab3;
    (void)ParseQuery(vocab3, cases[i]);
  }
}

TEST(ParserFuzzTest, EveryGarbageByteErrorsCleanly) {
  for (int b = 0; b < 256; ++b) {
    Vocabulary vocab;
    (void)ParseTheory(vocab, std::string(1, static_cast<char>(b)), "fuzz");
    Vocabulary vocab2;
    (void)ParseTheory(vocab2,
                      "P(x) -> Q(" + std::string(1, static_cast<char>(b)) +
                          ")",
                      "fuzz");
  }
}

TEST(ParserFuzzTest, ArityAndSizeCapsError) {
  // A 2000-ary atom exceeds the parser's arity cap with a positioned error.
  std::string wide = "P(x0";
  for (int i = 1; i < 2000; ++i) wide += ",x" + std::to_string(i);
  wide += ") -> Q(x0)";
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, wide, "fuzz");
  EXPECT_FALSE(theory.ok());
  EXPECT_NE(theory.message().find("arity"), std::string::npos)
      << theory.message();
}

TEST(ParserFuzzTest, SeededMutations) {
  // Seed pool: the corpus files plus a generated theory and fact text per
  // class.
  std::vector<std::string> pool;
  for (const std::string& path : ListCorpusFiles(FRONTIERS_CORPUS_DIR)) {
    std::string text;
    ASSERT_TRUE(ReadFileBytes(path, &text)) << path;
    pool.push_back(std::move(text));
  }
  ASSERT_FALSE(pool.empty()) << "corpus missing at " FRONTIERS_CORPUS_DIR;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Vocabulary vocab;
    const testing::GeneratedWorkload w = testing::GenerateWorkload(vocab, seed);
    pool.push_back(w.theory_text);
    pool.push_back(w.facts_text);
  }

  const uint64_t iterations = FuzzIterations(100000);
  SplitMix64 rng(0xf00dull);
  uint64_t parsed = 0, parsed_facts = 0;
  std::string data = pool[0];
  for (uint64_t i = 0; i < iterations; ++i) {
    // Restart from a fresh pool entry every 16 steps so mutations both
    // compound (deep corruption) and stay near valid inputs (shallow).
    if (i % 16 == 0) {
      data = pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    }
    data = MutateBytes(data, rng);
    // Cap runaway growth from repeated duplication.
    if (data.size() > 1 << 16) data.resize(1 << 16);
    if (ParseAndCheckStable(data)) ++parsed;
    if (ParseFactsAndCheckStable(data)) ++parsed_facts;
  }
  // The mutator stays near valid inputs often enough that some iterations
  // must parse — otherwise the fuzzer is only ever exercising the lexer's
  // first-error path.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(parsed_facts, 0u);
}

}  // namespace
}  // namespace frontiers
