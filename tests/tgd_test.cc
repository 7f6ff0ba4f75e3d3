#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "base/vocabulary.h"
#include "testing/generator.h"
#include "tgd/classify.h"
#include "tgd/conjunctive_query.h"
#include "tgd/parser.h"
#include "tgd/substitution.h"
#include "tgd/tgd.h"

namespace frontiers {
namespace {

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, SimpleRule) {
  Vocabulary vocab;
  Result<Tgd> rule = ParseRule(vocab, "E(x,y) -> exists z . E(y,z)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  const Tgd& r = rule.value();
  EXPECT_EQ(r.body.size(), 1u);
  EXPECT_EQ(r.head.size(), 1u);
  ASSERT_EQ(r.existential_vars.size(), 1u);
  EXPECT_EQ(vocab.TermToString(r.existential_vars[0]), "z");
  ASSERT_EQ(r.frontier.size(), 1u);
  EXPECT_EQ(vocab.TermToString(r.frontier[0]), "y");
  EXPECT_TRUE(r.domain_vars.empty());
}

TEST(ParserTest, RuleWithLabelAndNoDot) {
  Vocabulary vocab;
  Result<Tgd> rule =
      ParseRule(vocab, "mother: Human(y) -> exists z Mother(y,z)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_EQ(rule.value().name, "mother");
}

TEST(ParserTest, DatalogRule) {
  Vocabulary vocab;
  Result<Tgd> rule = ParseRule(vocab, "Mother(x,y) -> Human(y)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_TRUE(IsDatalogRule(rule.value()));
  EXPECT_EQ(rule.value().frontier.size(), 1u);
}

TEST(ParserTest, TrueBodyWithDomainVariable) {
  // The paper's (pins)-style rule: forall x (true -> exists z R(x,z)).
  Vocabulary vocab;
  Result<Tgd> rule = ParseRule(vocab, "true -> exists z . R(x,z)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  const Tgd& r = rule.value();
  EXPECT_TRUE(r.body.empty());
  ASSERT_EQ(r.domain_vars.size(), 1u);
  EXPECT_EQ(vocab.TermToString(r.domain_vars[0]), "x");
  EXPECT_TRUE(r.frontier.empty());
}

TEST(ParserTest, MultiHeadRule) {
  Vocabulary vocab;
  Result<Tgd> rule =
      ParseRule(vocab, "true -> exists x . R(x,x), G(x,x)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_EQ(rule.value().head.size(), 2u);
  EXPECT_TRUE(rule.value().body.empty());
  EXPECT_TRUE(rule.value().domain_vars.empty());
}

TEST(ParserTest, ConstantsInRules) {
  Vocabulary vocab;
  Result<Tgd> rule = ParseRule(vocab, "Sibling(Abel,x) -> Human(x)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  EXPECT_TRUE(vocab.IsConstant(rule.value().body[0].args[0]));
  EXPECT_TRUE(vocab.IsVariable(rule.value().body[0].args[1]));
}

TEST(ParserTest, TheoryWithSeparatorsAndComments) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, R"(
    # The running example T_a of the paper (Example 1).
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y) ;
  )");
  ASSERT_TRUE(theory.ok()) << theory.status().message();
  EXPECT_EQ(theory.value().rules.size(), 2u);
}

TEST(ParserTest, ArityMismatchIsAnError) {
  Vocabulary vocab;
  Result<Theory> theory =
      ParseTheory(vocab, "E(x,y) -> E(y,x)\nE(x,y,z) -> E(y,x,z)");
  EXPECT_FALSE(theory.ok());
}

TEST(ParserTest, QueryWithAnswerVariables) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> query =
      ParseQuery(vocab, "q(x,y) :- R(x,z), G(z,y)");
  ASSERT_TRUE(query.ok()) << query.status().message();
  EXPECT_EQ(query.value().answer_vars.size(), 2u);
  EXPECT_EQ(query.value().size(), 2u);
  EXPECT_FALSE(query.value().IsBoolean());
}

TEST(ParserTest, BooleanQuery) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> query = ParseQuery(vocab, "R(x,z), G(z,y)");
  ASSERT_TRUE(query.ok()) << query.status().message();
  EXPECT_TRUE(query.value().IsBoolean());
  EXPECT_EQ(query.value().size(), 2u);
}

TEST(ParserTest, AnswerVariableMustOccurInBody) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> query = ParseQuery(vocab, "q(w) :- R(x,z)");
  EXPECT_FALSE(query.ok());
}

TEST(ParserTest, Facts) {
  Vocabulary vocab;
  Result<FactSet> facts = ParseFacts(vocab, "E(A,B), E(B,C), P(A)");
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  EXPECT_EQ(facts.value().size(), 3u);
}

TEST(ParserTest, FactsRejectVariables) {
  Vocabulary vocab;
  Result<FactSet> facts = ParseFacts(vocab, "E(A,x)");
  EXPECT_FALSE(facts.ok());
}

TEST(ParserTest, GarbageIsRejected) {
  Vocabulary vocab;
  EXPECT_FALSE(ParseRule(vocab, "E(x,y) ->").ok());
  EXPECT_FALSE(ParseRule(vocab, "-> E(x,y)").ok());
  EXPECT_FALSE(ParseQuery(vocab, "E(x,").ok());
  EXPECT_FALSE(ParseRule(vocab, "E(x,y) -> E(y,x) trailing").ok());
}

// ------------------------------------------------------------------- Tgd --

TEST(TgdTest, FrontierOfGridRule) {
  Vocabulary vocab;
  // The (grid) rule of T_d (Definition 45), single-head fragment.
  Result<Tgd> rule = ParseRule(
      vocab, "R(x,x1), G(x,u), G(u,u1) -> exists z . R(u1,z), G(x1,z)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  const Tgd& r = rule.value();
  // Frontier: u1 and x1 occur in both body and head.
  EXPECT_EQ(r.frontier.size(), 2u);
  EXPECT_EQ(r.head_universal_vars.size(), 2u);
  // head_universal_vars ordered by first occurrence in the head: u1, x1.
  EXPECT_EQ(vocab.TermToString(r.head_universal_vars[0]), "u1");
  EXPECT_EQ(vocab.TermToString(r.head_universal_vars[1]), "x1");
}

TEST(TgdTest, RuleToStringRoundTripsShape) {
  Vocabulary vocab;
  Result<Tgd> rule = ParseRule(vocab, "E(x,y) -> exists z . E(y,z)");
  ASSERT_TRUE(rule.ok());
  std::string s = RuleToString(vocab, rule.value());
  Result<Tgd> reparsed = ParseRule(vocab, s);
  ASSERT_TRUE(reparsed.ok()) << "printed form must reparse: " << s;
  EXPECT_EQ(reparsed.value().body, rule.value().body);
  EXPECT_EQ(reparsed.value().head, rule.value().head);
}

// ------------------------------------------------------- Skolemization ----

TEST(SkolemTest, PaperExampleHeadType) {
  // Definition 4's example: E(x,y,z), P(x) -> exists v . R(y,v,z,v).
  Vocabulary vocab;
  Result<Tgd> rule =
      ParseRule(vocab, "E(x,y,z), P(x) -> exists v . R(y,v,z,v)");
  ASSERT_TRUE(rule.ok()) << rule.status().message();
  // Head signature: R(u0,e0,u1,e0) - repeated existential visible in type.
  EXPECT_EQ(HeadTypeSignature(vocab, rule.value()), "R(u0,e0,u1,e0)");
  SkolemizedHead sh = Skolemize(vocab, rule.value());
  // Skolem function takes the two universal head variables (y,z).
  ASSERT_EQ(sh.fn_args.size(), 2u);
  EXPECT_EQ(vocab.TermToString(sh.fn_args[0]), "y");
  EXPECT_EQ(vocab.TermToString(sh.fn_args[1]), "z");
  EXPECT_EQ(sh.fn_of.size(), 1u);
}

TEST(SkolemTest, IsomorphicHeadsShareFunctions) {
  // Two rules with different bodies but isomorphic heads must use the same
  // Skolem function (Definition 4: f depends only on the head type).
  Vocabulary vocab;
  Result<Tgd> r1 = ParseRule(vocab, "P(y) -> exists z . E(y,z)");
  Result<Tgd> r2 = ParseRule(vocab, "Q(w), S(w,v) -> exists u . E(w,u)");
  ASSERT_TRUE(r1.ok() && r2.ok());
  SkolemizedHead s1 = Skolemize(vocab, r1.value());
  SkolemizedHead s2 = Skolemize(vocab, r2.value());
  ASSERT_EQ(s1.fn_of.size(), 1u);
  ASSERT_EQ(s2.fn_of.size(), 1u);
  EXPECT_EQ(s1.fn_of.begin()->second, s2.fn_of.begin()->second);
}

TEST(SkolemTest, NonIsomorphicHeadsGetDistinctFunctions) {
  Vocabulary vocab;
  Result<Tgd> r1 = ParseRule(vocab, "P(y) -> exists z . E(y,z)");
  Result<Tgd> r2 = ParseRule(vocab, "P(y) -> exists z . E(z,y)");
  Result<Tgd> r3 = ParseRule(vocab, "P(y) -> exists z . E(z,z)");
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  SkolemFnId f1 = Skolemize(vocab, r1.value()).fn_of.begin()->second;
  SkolemFnId f2 = Skolemize(vocab, r2.value()).fn_of.begin()->second;
  SkolemFnId f3 = Skolemize(vocab, r3.value()).fn_of.begin()->second;
  EXPECT_NE(f1, f2);
  EXPECT_NE(f1, f3);
  EXPECT_NE(f2, f3);
}

// ---------------------------------------------------- ConjunctiveQuery ----

TEST(QueryTest, VariablesInOrder) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> q = ParseQuery(vocab, "q(y) :- R(x,z), G(z,y)");
  ASSERT_TRUE(q.ok());
  std::vector<TermId> vars = QueryVariables(vocab, q.value());
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(vocab.TermToString(vars[0]), "y");  // answer var first
  std::vector<TermId> ex = ExistentialVariables(vocab, q.value());
  EXPECT_EQ(ex.size(), 2u);
}

TEST(QueryTest, Connectivity) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> conn = ParseQuery(vocab, "R(x,z), G(z,y)");
  Result<ConjunctiveQuery> disc = ParseQuery(vocab, "R(x,z), G(u,v)");
  ASSERT_TRUE(conn.ok() && disc.ok());
  EXPECT_TRUE(IsConnected(vocab, conn.value()));
  EXPECT_FALSE(IsConnected(vocab, disc.value()));
}

TEST(QueryTest, ConnectivityThroughConstants) {
  Vocabulary vocab;
  // Atoms sharing only the constant A are Gaifman-connected.
  Result<ConjunctiveQuery> q = ParseQuery(vocab, "R(x,A), G(A,y)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(IsConnected(vocab, q.value()));
}

TEST(QueryTest, QueryAsFactSet) {
  Vocabulary vocab;
  Result<ConjunctiveQuery> q = ParseQuery(vocab, "R(x,z), G(z,y), R(x,z)");
  ASSERT_TRUE(q.ok());
  FactSet f = QueryAsFactSet(q.value());
  EXPECT_EQ(f.size(), 2u) << "duplicate atoms collapse in the fact view";
}

// ------------------------------------------------------------- Classify ---

TEST(ClassifyTest, LinearAndDatalog) {
  Vocabulary vocab;
  Result<Theory> linear =
      ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)");
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE(IsLinear(linear.value()));
  EXPECT_FALSE(IsDatalog(linear.value()));

  Result<Theory> datalog = ParseTheory(vocab, "E(x,y), E(y,z) -> E(x,z)");
  ASSERT_TRUE(datalog.ok());
  EXPECT_FALSE(IsLinear(datalog.value()));
  EXPECT_TRUE(IsDatalog(datalog.value()));
}

TEST(ClassifyTest, Guarded) {
  Vocabulary vocab;
  Result<Theory> guarded = ParseTheory(
      vocab, "E(x,y,z), P(x) -> exists v . R(y,v)");  // E guards {x,y,z}
  ASSERT_TRUE(guarded.ok());
  EXPECT_TRUE(IsGuarded(vocab, guarded.value()));

  Result<Theory> unguarded =
      ParseTheory(vocab, "P(x), Q(y) -> R(x,y)");
  ASSERT_TRUE(unguarded.ok());
  EXPECT_FALSE(IsGuarded(vocab, unguarded.value()));
}

TEST(ClassifyTest, StickyExample39IsSticky) {
  // The one-rule theory of Example 39 is claimed sticky in the paper.
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(
      vocab, "E(x,y,y1,t), R(x,t1) -> exists y2 . E(x,y1,y2,t1)");
  ASSERT_TRUE(theory.ok());
  EXPECT_TRUE(IsSticky(vocab, theory.value()));
}

TEST(ClassifyTest, Example41IsNotSticky) {
  // Example 41: E(x,y,z), R(x,z) -> R(y,z) - joins on a marked position.
  Vocabulary vocab;
  Result<Theory> theory =
      ParseTheory(vocab, "E(x,y,z), R(x,z) -> R(y,z)");
  ASSERT_TRUE(theory.ok());
  EXPECT_FALSE(IsSticky(vocab, theory.value()));
}

TEST(ClassifyTest, TransitivityIsNotSticky) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, "E(x,y), E(y,z) -> E(x,z)");
  ASSERT_TRUE(theory.ok());
  // The join variable y is erased by the head... y does not occur in the
  // head, so its positions are marked and it occurs twice: not sticky.
  EXPECT_FALSE(IsSticky(vocab, theory.value()));
}

TEST(ClassifyTest, LinearTheoriesAreSticky) {
  Vocabulary vocab;
  Result<Theory> theory =
      ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)");
  ASSERT_TRUE(theory.ok());
  EXPECT_TRUE(IsSticky(vocab, theory.value()));
}

TEST(ClassifyTest, Connectivity) {
  Vocabulary vocab;
  Result<Theory> conn =
      ParseTheory(vocab, "E(x,y), R(y,z) -> exists w . E(z,w)");
  Result<Theory> disc =
      ParseTheory(vocab, "E(x,y), R(u,v) -> exists w . E(y,w)");
  ASSERT_TRUE(conn.ok() && disc.ok());
  EXPECT_TRUE(IsConnectedTheory(vocab, conn.value()));
  EXPECT_FALSE(IsConnectedTheory(vocab, disc.value()));
}

TEST(ClassifyTest, BinarySignature) {
  Vocabulary vocab;
  Result<Theory> binary = ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)");
  Result<Theory> ternary =
      ParseTheory(vocab, "T(x,y,z) -> exists w . T(y,z,w)");
  ASSERT_TRUE(binary.ok() && ternary.ok());
  EXPECT_TRUE(IsBinarySignature(vocab, binary.value()));
  EXPECT_FALSE(IsBinarySignature(vocab, ternary.value()));
}

TEST(ClassifyTest, DetachedRules) {
  Vocabulary vocab;
  Result<Tgd> detached =
      ParseRule(vocab, "P(x) -> exists y,z . E(y,z)");
  Result<Tgd> sensible = ParseRule(vocab, "P(x) -> exists y . E(x,y)");
  ASSERT_TRUE(detached.ok() && sensible.ok());
  EXPECT_TRUE(IsDetachedRule(detached.value()));
  EXPECT_FALSE(IsDetachedRule(sensible.value()));
}

TEST(ClassifyTest, DatalogAndExistentialSplit) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  ASSERT_TRUE(theory.ok());
  EXPECT_EQ(DatalogPart(theory.value()).rules.size(), 1u);
  EXPECT_EQ(ExistentialPart(theory.value()).rules.size(), 1u);
}

TEST(ClassifyTest, DescribeClassesMentionsExpectedTags) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)");
  ASSERT_TRUE(theory.ok());
  std::string desc = DescribeClasses(vocab, theory.value());
  EXPECT_NE(desc.find("linear"), std::string::npos);
  EXPECT_NE(desc.find("binary"), std::string::npos);
}

// ------------------------------------------------------------- File I/O ---

TEST(ParserTest, LoadTheoryAndFactsFiles) {
  const char* theory_path = "/tmp/frontiers_test_theory.rules";
  const char* facts_path = "/tmp/frontiers_test_facts.facts";
  {
    std::FILE* f = std::fopen(theory_path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# a theory file\nstep: E(x,y) -> exists z . E(y,z)\n", f);
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen(facts_path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# facts, newline separated\nE(A,B)\nE(B,C), E(C,D)\n\n", f);
    std::fclose(f);
  }
  Vocabulary vocab;
  Result<Theory> theory = LoadTheoryFile(vocab, theory_path);
  ASSERT_TRUE(theory.ok()) << theory.status().message();
  EXPECT_EQ(theory.value().rules.size(), 1u);
  Result<FactSet> facts = LoadFactsFile(vocab, facts_path);
  ASSERT_TRUE(facts.ok()) << facts.status().message();
  EXPECT_EQ(facts.value().size(), 3u);
}

// Writes `text` to a fresh file under the test temp dir; returns its path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

TEST(ParserTest, LoadFactsFileReadsTheCorpusInstance) {
  // small.facts is written one atom per line with trailing commas, the
  // FactsToText form.
  Vocabulary vocab;
  Result<FactSet> facts =
      LoadFactsFile(vocab, std::string(FRONTIERS_CORPUS_DIR) + "/small.facts");
  ASSERT_TRUE(facts.ok()) << facts.message();
  EXPECT_EQ(facts.value().size(), 6u);
}

TEST(ParserTest, LoadFactsFileReadsWhatFactsToTextWrites) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Vocabulary vocab;
    const std::string text = testing::GenerateWorkload(vocab, seed).facts_text;
    const std::string path = WriteTempFile("roundtrip.facts", text);
    Vocabulary loaded_vocab, parsed_vocab;
    Result<FactSet> loaded = LoadFactsFile(loaded_vocab, path);
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    Result<FactSet> parsed = ParseFacts(parsed_vocab, text);
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    EXPECT_EQ(testing::FactsToText(loaded_vocab, loaded.value()), text);
    EXPECT_EQ(loaded.value().ToAtoms(), parsed.value().ToAtoms());
    std::remove(path.c_str());
  }
}

TEST(ParserTest, LoadFactsFileCapsAtomsPerLineNotPerFile) {
  std::string text;
  for (int i = 0; i < 70000; ++i) {
    if (i > 0) text += ",\n";
    text += "P(C" + std::to_string(i) + ")";
  }
  text += "\n";
  const std::string path = WriteTempFile("many.facts", text);
  Vocabulary vocab;
  Result<FactSet> facts = LoadFactsFile(vocab, path);
  ASSERT_TRUE(facts.ok()) << facts.message();
  EXPECT_EQ(facts.value().size(), 70000u);
  // One conjunction of the same atoms still exceeds the cap.
  Vocabulary one_line_vocab;
  Result<FactSet> one_line = ParseFacts(one_line_vocab, text);
  ASSERT_FALSE(one_line.ok());
  EXPECT_NE(one_line.message().find("conjunction exceeds the maximum of "
                                    "65536 atoms"),
            std::string::npos)
      << one_line.message();
  std::remove(path.c_str());
}

TEST(ParserTest, LoadFactsFileReportsFileRelativePositions) {
  const std::string path =
      WriteTempFile("bad.facts", "# header\nE(A,B)\nE(B,)\n");
  Vocabulary vocab;
  Result<FactSet> facts = LoadFactsFile(vocab, path);
  ASSERT_FALSE(facts.ok());
  EXPECT_EQ(facts.message(), "expected term near position 20 (')')");
  std::remove(path.c_str());
}

TEST(ParserTest, LoadMissingFileFails) {
  Vocabulary vocab;
  EXPECT_FALSE(LoadTheoryFile(vocab, "/nonexistent/theory").ok());
  EXPECT_FALSE(LoadFactsFile(vocab, "/nonexistent/facts").ok());
}

// ---------------------------------------------------------- Substitution --

TEST(SubstitutionTest, ApplyToAtomsAndDefaults) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  TermId x = vocab.Variable("x");
  TermId y = vocab.Variable("y");
  TermId a = vocab.Constant("a");
  Substitution sub = {{x, a}};
  Atom atom(e, {x, y});
  Atom mapped = Apply(sub, atom);
  EXPECT_EQ(mapped.args[0], a);
  EXPECT_EQ(mapped.args[1], y) << "unmapped terms are fixed";
  std::vector<Atom> list = Apply(sub, std::vector<Atom>{atom, atom});
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], mapped);
}

}  // namespace
}  // namespace frontiers
