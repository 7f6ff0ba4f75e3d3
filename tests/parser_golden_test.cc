// Golden digests of the DSL parser's observable behaviour.  Every family
// folds, per input text, the parse outcome (`ok` or the error message), the
// rendering of the result (FactsToText / TheoryToString / QueryToString) and
// the vocabulary's term and predicate names in id order into one FNV-1a
// hash.  A change to the lexer or parser that moves any error message, any
// error position, any TermId or PredicateId assignment, or what a failed
// parse leaves interned, moves a hash.
//
// Families:
//  - hostile: the directed texts of parser_fuzz_test plus edge cases of the
//    fact path (caps, variables before later errors, lexer errors after
//    parsed atoms), each through ParseFacts, ParseTheory and ParseQuery;
//  - facts / theory / query: 2,000 seeded MutateBytes mutations each, of
//    generated texts and the checked-in corpus, through the family's parser.
//
// On a mismatch the test prints the new hash.  Re-pin only for a change
// that is meant to alter what the parser accepts or reports.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "testing/fuzz.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::ListCorpusFiles;
using testing::MutateBytes;
using testing::ReadFileBytes;
using testing::SplitMix64;

class Fnv {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) Byte(c);
    Byte(0xff);  // field separator: "ab"+"c" and "a"+"bc" differ
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

void AddVocabulary(Fnv& fnv, const Vocabulary& vocab) {
  for (TermId t = 0; t < vocab.NumTerms(); ++t) {
    fnv.Add(vocab.IsVariable(t) ? "v" : "c");
    fnv.Add(vocab.TermToString(t));
  }
  for (PredicateId p = 0; p < vocab.NumPredicates(); ++p) {
    fnv.Add(vocab.PredicateName(p));
    fnv.Add(std::to_string(vocab.PredicateArity(p)));
  }
}

template <typename T, typename Render>
void AddParse(Fnv& fnv, const Vocabulary& vocab, const Result<T>& result,
              Render render) {
  if (result.ok()) {
    fnv.Add("ok");
    fnv.Add(render(vocab, result.value()));
  } else {
    fnv.Add("error");
    fnv.Add(result.message());
  }
  AddVocabulary(fnv, vocab);
}

void AddFacts(Fnv& fnv, const std::string& text) {
  Vocabulary vocab;
  AddParse(fnv, vocab, ParseFacts(vocab, text), testing::FactsToText);
}

void AddTheory(Fnv& fnv, const std::string& text) {
  Vocabulary vocab;
  AddParse(fnv, vocab, ParseTheory(vocab, text), TheoryToString);
}

void AddQuery(Fnv& fnv, const std::string& text) {
  Vocabulary vocab;
  AddParse(fnv, vocab, ParseQuery(vocab, text), QueryToString);
}

std::string Repeat(std::string_view atom, size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) out += ",";
    out += atom;
  }
  return out;
}

std::vector<std::string> HostileTexts() {
  std::vector<std::string> texts = {
      // The directed cases of ParserFuzzTest.DirectedHostileInputs.
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
      "P(x) -> exists x . Q(x)",
      "P(x,x -> Q(x)",
      "P(x)) -> Q(x)",
      "P() -> Q()",
      "q( :- P(x)",
      std::string(100000, '('),
      std::string(100000, 'a'),
      "P(" + std::string(100000, 'x') + ")",
      std::string("P(x)\x00Q(y)", 9),
      // Fact-path edges: error precedence and separators.
      "E(A,B), E(B,C)",
      "E(A,B),\nE(B,C),\n\nE(C,A)\n",
      "E(A,B)\nE(B,C)",
      "E(A,B),",
      "E(A,B),,E(B,C)",
      "E(A,B) E(B,C)",
      "P(A), Q(x), P(A,B)",
      "P(A), Q(x), P(A",
      "P(A), Q(x), @",
      "P(A), Q(x) R(B)",
      "P(A), Q(x), R(y)",
      "P(A), Q(B)\n\n@",
      "P(A), Q(B), " + std::string(5000, 'C') + "(A)",
      "P(A), Q(" + std::string(4097, 'C') + ")",
      "P(A), Q(" + std::string(4096, 'C') + ")",
      "P(A) # trailing comment\n, Q(B)",
      "P(A), P(A), Q(B), P(A)",
      "P(), P(), Q()",
      "P(A'), Q(B_1, 2c)",
      "q(x) :- P(x), @",
      "q(x,A) :- P(x)",
      "q(x :- P(x)",
      "q(x) :- P(y)",
      "q() :- P(A)",
      "true -> P(A)",
  };
  std::string wide = "P(A0";
  for (int i = 1; i < 1025; ++i) wide += ",A" + std::to_string(i);
  texts.push_back(wide + ")");
  texts.push_back(Repeat("P(A)", 65536));
  texts.push_back(Repeat("P(A)", 65537));
  texts.push_back(Repeat("P(A)", 65537) + ", Q(x)");
  texts.push_back("Q(x), " + Repeat("P(A)", 65537));
  return texts;
}

// `iterations` mutations of the pool, restarting from a fresh pool entry
// every 16 steps (as ParserFuzzTest.SeededMutations does); the unmutated
// pool entries come first.
template <typename AddOne>
uint64_t MutationDigest(const std::vector<std::string>& pool, uint64_t seed,
                        uint64_t iterations, AddOne add) {
  Fnv fnv;
  for (const std::string& text : pool) add(fnv, text);
  SplitMix64 rng(seed);
  std::string data;
  for (uint64_t i = 0; i < iterations; ++i) {
    if (i % 16 == 0) data = pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    data = MutateBytes(data, rng);
    if (data.size() > 1 << 16) data.resize(1 << 16);
    add(fnv, data);
  }
  return fnv.value();
}

std::vector<std::string> CorpusTexts(std::string_view suffix) {
  std::vector<std::string> texts;
  for (const std::string& path : ListCorpusFiles(FRONTIERS_CORPUS_DIR)) {
    if (path.size() < suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    std::string text;
    EXPECT_TRUE(ReadFileBytes(path, &text)) << path;
    texts.push_back(std::move(text));
  }
  EXPECT_FALSE(texts.empty()) << "no *" << suffix << " in corpus";
  return texts;
}

// A guarded-rewrite-shaped instance: 6 predicates, 100 constants, 600
// draws.
std::string GuardedInstanceText(uint64_t seed) {
  Vocabulary vocab;
  testing::TheoryGenOptions theory_options;
  theory_options.theory_class = testing::TheoryClass::kGuarded;
  theory_options.num_predicates = 6;
  const Theory theory = testing::GenerateTheory(vocab, seed, theory_options);
  testing::InstanceGenOptions instance;
  instance.num_constants = 100;
  instance.num_facts = 600;
  const FactSet facts = testing::GenerateInstance(
      vocab, testing::TheorySignature(theory), seed + 1, instance);
  return testing::FactsToText(vocab, facts);
}

constexpr uint64_t kMutations = 2000;

TEST(ParserGolden, HostileTexts) {
  Fnv fnv;
  for (const std::string& text : HostileTexts()) {
    AddFacts(fnv, text);
    AddTheory(fnv, text);
    AddQuery(fnv, text);
  }
  EXPECT_EQ(fnv.value(), 12522363428223846758ull)
      << "hostile digest: " << fnv.value();
}

TEST(ParserGolden, FactMutations) {
  std::vector<std::string> pool = CorpusTexts(".facts");
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Vocabulary vocab;
    pool.push_back(testing::GenerateWorkload(vocab, seed).facts_text);
  }
  pool.push_back(GuardedInstanceText(1));
  const uint64_t digest = MutationDigest(pool, 0xfac7ull, kMutations, AddFacts);
  EXPECT_EQ(digest, 978391753808806262ull) << "facts digest: " << digest;
}

TEST(ParserGolden, TheoryMutations) {
  std::vector<std::string> pool = CorpusTexts(".theory");
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Vocabulary vocab;
    pool.push_back(testing::GenerateWorkload(vocab, seed).theory_text);
  }
  const uint64_t digest =
      MutationDigest(pool, 0x7e0ull, kMutations, AddTheory);
  EXPECT_EQ(digest, 9517574766493515557ull) << "theory digest: " << digest;
}

TEST(ParserGolden, QueryMutations) {
  std::vector<std::string> pool = CorpusTexts(".cq");
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Vocabulary vocab;
    pool.push_back(testing::GenerateWorkload(vocab, seed).query_text);
  }
  const uint64_t digest = MutationDigest(pool, 0xc0ull, kMutations, AddQuery);
  EXPECT_EQ(digest, 4028001990142851213ull) << "query digest: " << digest;
}

}  // namespace
}  // namespace frontiers
