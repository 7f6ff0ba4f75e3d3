#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/atom.h"
#include "base/bignat.h"
#include "base/check.h"
#include "base/fact_set.h"
#include "base/status.h"
#include "base/vocabulary.h"

namespace frontiers {
namespace {

// ---------------------------------------------------------------- BigNat --

TEST(BigNatTest, ZeroAndSmallValues) {
  BigNat zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.ToString(), "0");
  BigNat one(1);
  EXPECT_FALSE(one.IsZero());
  EXPECT_EQ(one.ToString(), "1");
  EXPECT_EQ(one.ToUint64Saturating(), 1u);
}

TEST(BigNatTest, AdditionWithCarryAcrossLimbs) {
  BigNat a(0xffffffffull);
  BigNat b(1);
  a += b;
  EXPECT_EQ(a.ToUint64Saturating(), 0x100000000ull);
  EXPECT_EQ(a.ToString(), "4294967296");
}

TEST(BigNatTest, PowMatchesMachineArithmeticInRange) {
  for (uint32_t e = 0; e <= 40; ++e) {
    uint64_t expected = 1;
    for (uint32_t i = 0; i < e; ++i) expected *= 3;
    EXPECT_EQ(BigNat::Pow(3, e).ToUint64Saturating(), expected) << "e=" << e;
  }
}

TEST(BigNatTest, PowBeyondUint64IsExact) {
  // 3^50 = 717897987691852588770249.
  EXPECT_EQ(BigNat::Pow(3, 50).ToString(), "717897987691852588770249");
  EXPECT_EQ(BigNat::Pow(2, 100).ToString(), "1267650600228229401496703205376");
}

TEST(BigNatTest, ComparisonIsTotalOrder) {
  BigNat a = BigNat::Pow(3, 30);
  BigNat b = BigNat::Pow(3, 31);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_GE(a, a);
  EXPECT_EQ(a, BigNat::Pow(3, 30));
  BigNat c = a;
  c += a;
  c += a;
  EXPECT_EQ(c, b);  // 3 * 3^30 == 3^31
}

TEST(BigNatTest, MulSmallByZeroGivesZero) {
  BigNat a = BigNat::Pow(7, 20);
  a.MulSmall(0);
  EXPECT_TRUE(a.IsZero());
}

TEST(BigNatTest, SaturatingConversion) {
  EXPECT_EQ(BigNat::Pow(2, 64).ToUint64Saturating(), UINT64_MAX);
  EXPECT_EQ(BigNat::Pow(2, 63).ToUint64Saturating(), 1ull << 63);
}

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status e = Status::Error("boom");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.message(), "boom");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Error("no"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().message(), "no");
}

// ------------------------------------------------------------ Vocabulary --

TEST(VocabularyTest, PredicateInterning) {
  Vocabulary vocab;
  PredicateId e1 = vocab.AddPredicate("E", 2);
  PredicateId e2 = vocab.AddPredicate("E", 2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(vocab.PredicateName(e1), "E");
  EXPECT_EQ(vocab.PredicateArity(e1), 2u);
  EXPECT_FALSE(vocab.FindPredicate("R").has_value());
  PredicateId r = vocab.AddPredicate("R", 3);
  EXPECT_EQ(vocab.FindPredicate("R").value(), r);
  EXPECT_EQ(vocab.NumPredicates(), 2u);
}

TEST(VocabularyTest, ConstantsAndVariablesAreDistinctSpaces) {
  Vocabulary vocab;
  TermId c = vocab.Constant("a");
  TermId v = vocab.Variable("a");
  EXPECT_NE(c, v);
  EXPECT_TRUE(vocab.IsConstant(c));
  EXPECT_TRUE(vocab.IsVariable(v));
  EXPECT_EQ(vocab.Constant("a"), c);
  EXPECT_EQ(vocab.Variable("a"), v);
  EXPECT_EQ(vocab.TermName(c), "a");
}

TEST(VocabularyTest, FreshVariablesAreFresh) {
  Vocabulary vocab;
  TermId v1 = vocab.FreshVariable("x");
  TermId v2 = vocab.FreshVariable("x");
  EXPECT_NE(v1, v2);
  EXPECT_TRUE(vocab.IsVariable(v1));
}

TEST(VocabularyTest, SkolemTermsAreHashConsed) {
  Vocabulary vocab;
  SkolemFnId f = vocab.SkolemFunction("R(u0,e0)#e0", 1);
  TermId a = vocab.Constant("a");
  TermId fa1 = vocab.SkolemTerm(f, {a});
  TermId fa2 = vocab.SkolemTerm(f, {a});
  EXPECT_EQ(fa1, fa2) << "same function + args must give the same term";
  TermId b = vocab.Constant("b");
  EXPECT_NE(vocab.SkolemTerm(f, {b}), fa1);
  EXPECT_TRUE(vocab.IsSkolem(fa1));
  EXPECT_EQ(vocab.SkolemFn(fa1), f);
  ASSERT_EQ(vocab.SkolemArgs(fa1).size(), 1u);
  EXPECT_EQ(vocab.SkolemArgs(fa1)[0], a);
}

// `SkolemArgs` spans point into the vocabulary's argument arena, which
// `SkolemRow` grows; passing one back must still intern the right row.
TEST(VocabularyTest, SkolemRowAcceptsSkolemArgsSpan) {
  Vocabulary vocab;
  SkolemFnId g = vocab.SkolemFunction("g", 2);
  SkolemFnId f1 = vocab.SkolemFunction("R(u0,u1,e0,e1)#e0", 2);
  SkolemFnId f2 = vocab.SkolemFunction("R(u0,u1,e0,e1)#e1", 2);
  uint32_t block = vocab.SkolemBlock({f1, f2});
  std::vector<TermId> constants;
  for (int i = 0; i < 40; ++i) {
    constants.push_back(vocab.Constant("c" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 40; ++i) {
    const TermId x = constants[i];
    const TermId y = constants[i + 1];
    const TermId t = vocab.SkolemTerm(g, {x, y});
    const auto row = vocab.SkolemRow(block, vocab.SkolemArgs(t));
    const TermId r0 = row[0];
    const TermId r1 = row[1];
    for (TermId r : {r0, r1}) {
      ASSERT_EQ(vocab.SkolemArgs(r).size(), 2u);
      EXPECT_EQ(vocab.SkolemArgs(r)[0], x);
      EXPECT_EQ(vocab.SkolemArgs(r)[1], y);
      EXPECT_EQ(vocab.TermDepth(r), 1u);
    }
    EXPECT_EQ(vocab.SkolemTerm(f1, {x, y}), r0);
    EXPECT_EQ(vocab.SkolemTerm(f2, {x, y}), r1);
    // Interning the row again is idempotent: the same nulls, no new term.
    const size_t terms_before = vocab.NumTerms();
    const auto again = vocab.SkolemRow(block, vocab.SkolemArgs(t));
    EXPECT_EQ(again[0], r0);
    EXPECT_EQ(again[1], r1);
    EXPECT_EQ(vocab.NumTerms(), terms_before);
    // A hit through an aliasing span returns the same row.
    EXPECT_EQ(vocab.SkolemRow(block, vocab.SkolemArgs(r1))[0], r0);
  }
}

// A function's block follows from the function table alone: `Skolemize`'s
// "<type>#e<i>" signatures of one type, interned in order, share a block;
// any other signature starts its own.
TEST(VocabularyTest, SkolemBlocksFollowSignatures) {
  Vocabulary vocab;
  const SkolemFnId e0 = vocab.SkolemFunction("R(u0,e0,e1)#e0", 1);
  const SkolemFnId e1 = vocab.SkolemFunction("R(u0,e0,e1)#e1", 1);
  const SkolemFnId plain = vocab.SkolemFunction("plain", 1);
  const SkolemFnId late = vocab.SkolemFunction("R(u0,e0,e1)#e2", 1);
  const SkolemFnId orphan = vocab.SkolemFunction("S(e0,e1)#e1", 0);
  const SkolemFnId wide0 = vocab.SkolemFunction("T(u0,e0,e1)#e0", 1);
  const SkolemFnId wide1 = vocab.SkolemFunction("T(u0,e0,e1)#e1", 2);
  const uint32_t block = vocab.SkolemBlock({e0, e1});
  EXPECT_EQ(vocab.SkolemBlockSize(block), 2u);
  EXPECT_EQ(vocab.SkolemBlockFn(block, 1), e1);
  for (SkolemFnId f : {plain, late, orphan, wide0, wide1}) {
    EXPECT_EQ(vocab.SkolemBlockSize(vocab.SkolemFnBlock(f)), 1u)
        << vocab.SkolemFnSignature(f);
  }
  EXPECT_NE(vocab.SkolemFnBlock(plain), vocab.SkolemFnBlock(late));
  // The block's second null interns the whole row, on consecutive ids.
  const TermId a = vocab.Constant("a");
  const uint32_t terms_before = vocab.NumTerms();
  const TermId second = vocab.SkolemTerm(e1, {a});
  EXPECT_EQ(vocab.NumTerms(), terms_before + 2);
  EXPECT_EQ(second, terms_before + 1);
  EXPECT_EQ(vocab.SkolemTerm(e0, {a}), terms_before);
  EXPECT_EQ(vocab.NumSkolemRows(), 1u);
  EXPECT_EQ(vocab.SkolemRowBlock(0), block);
}

TEST(VocabularyDeathTest, SkolemBlockChecksTheBlockItsSignaturesImply) {
  Vocabulary vocab;
  const SkolemFnId r0 = vocab.SkolemFunction("R(u0,e0,e1)#e0", 1);
  const SkolemFnId r1 = vocab.SkolemFunction("R(u0,e0,e1)#e1", 1);
  const SkolemFnId s0 = vocab.SkolemFunction("S(u0,e0)#e0", 1);
  // No function joins two blocks.
  EXPECT_DEATH(vocab.SkolemBlock({r0, r1, s0}), "cannot join two blocks");
  // A registered block is the whole implied block, in order.
  EXPECT_DEATH(vocab.SkolemBlock({r0}), "differs from the block its "
                                        "signatures imply");
  EXPECT_DEATH(vocab.SkolemBlock({r1, r0}), "differs from the block its "
                                            "signatures imply");
  // A block with rows cannot grow.
  vocab.SkolemTerm(s0, {vocab.Constant("a")});
  EXPECT_TRUE(vocab.SkolemFunctionJoinsUsedBlock("S(u0,e0)#e1", 1));
  EXPECT_DEATH(vocab.SkolemFunction("S(u0,e0)#e1", 1),
               "would join a block that already has rows");
}

TEST(VocabularyTest, SkolemFunctionInterningBySignature) {
  Vocabulary vocab;
  SkolemFnId f1 = vocab.SkolemFunction("sig", 2);
  SkolemFnId f2 = vocab.SkolemFunction("sig", 2);
  EXPECT_EQ(f1, f2);
  EXPECT_NE(vocab.SkolemFunction("other", 2), f1);
  EXPECT_EQ(vocab.SkolemFnArity(f1), 2u);
  EXPECT_EQ(vocab.SkolemFnSignature(f1), "sig");
}

TEST(VocabularyTest, TermDepthTracksSkolemNesting) {
  Vocabulary vocab;
  SkolemFnId f = vocab.SkolemFunction("s", 1);
  TermId a = vocab.Constant("a");
  EXPECT_EQ(vocab.TermDepth(a), 0u);
  TermId fa = vocab.SkolemTerm(f, {a});
  EXPECT_EQ(vocab.TermDepth(fa), 1u);
  TermId ffa = vocab.SkolemTerm(f, {fa});
  EXPECT_EQ(vocab.TermDepth(ffa), 2u);
}

TEST(VocabularyTest, TermToStringNestsSkolems) {
  Vocabulary vocab;
  SkolemFnId f = vocab.SkolemFunction("s", 1);
  TermId a = vocab.Constant("a");
  TermId fa = vocab.SkolemTerm(f, {a});
  std::string s = vocab.TermToString(fa);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("("), std::string::npos);
}

// ------------------------------------------------------------------ Atom --

TEST(AtomTest, EqualityAndOrdering) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  PredicateId r = vocab.AddPredicate("R", 2);
  TermId a = vocab.Constant("a");
  TermId b = vocab.Constant("b");
  Atom eab(e, {a, b});
  Atom eab2(e, {a, b});
  Atom eba(e, {b, a});
  Atom rab(r, {a, b});
  EXPECT_EQ(eab, eab2);
  EXPECT_NE(eab, eba);
  EXPECT_NE(eab, rab);
  EXPECT_TRUE(eab < rab || rab < eab);
  EXPECT_FALSE(eab < eab2);
  EXPECT_EQ(AtomHash()(eab), AtomHash()(eab2));
}

TEST(AtomTest, ContainsTerm) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  TermId a = vocab.Constant("a");
  TermId b = vocab.Constant("b");
  TermId c = vocab.Constant("c");
  Atom atom(e, {a, b});
  EXPECT_TRUE(atom.ContainsTerm(a));
  EXPECT_TRUE(atom.ContainsTerm(b));
  EXPECT_FALSE(atom.ContainsTerm(c));
}

TEST(AtomTest, Printing) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  TermId a = vocab.Constant("a");
  TermId b = vocab.Constant("b");
  EXPECT_EQ(AtomToString(vocab, Atom(e, {a, b})), "E(a,b)");
  EXPECT_EQ(AtomsToString(vocab, {Atom(e, {a, b}), Atom(e, {b, a})}),
            "E(a,b), E(b,a)");
}

// --------------------------------------------------------------- FactSet --

class FactSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    e_ = vocab_.AddPredicate("E", 2);
    p_ = vocab_.AddPredicate("P", 1);
    a_ = vocab_.Constant("a");
    b_ = vocab_.Constant("b");
    c_ = vocab_.Constant("c");
  }
  Vocabulary vocab_;
  PredicateId e_ = 0, p_ = 0;
  TermId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(FactSetTest, InsertDeduplicates) {
  FactSet facts;
  EXPECT_TRUE(facts.Insert(Atom(e_, {a_, b_})));
  EXPECT_FALSE(facts.Insert(Atom(e_, {a_, b_})));
  EXPECT_EQ(facts.size(), 1u);
  EXPECT_TRUE(facts.Contains(Atom(e_, {a_, b_})));
  EXPECT_FALSE(facts.Contains(Atom(e_, {b_, a_})));
}

TEST_F(FactSetTest, DomainInFirstSeenOrder) {
  FactSet facts;
  facts.Insert(Atom(e_, {b_, a_}));
  facts.Insert(Atom(e_, {a_, c_}));
  std::vector<TermId> expected = {b_, a_, c_};
  EXPECT_EQ(facts.Domain(), expected);
  EXPECT_TRUE(facts.ContainsTerm(c_));
}

TEST_F(FactSetTest, PredicateIndex) {
  FactSet facts;
  facts.Insert(Atom(e_, {a_, b_}));
  facts.Insert(Atom(p_, {a_}));
  facts.Insert(Atom(e_, {b_, c_}));
  EXPECT_EQ(facts.ByPredicate(e_).size(), 2u);
  EXPECT_EQ(facts.ByPredicate(p_).size(), 1u);
}

TEST_F(FactSetTest, PositionIndex) {
  FactSet facts;
  facts.Insert(Atom(e_, {a_, b_}));
  facts.Insert(Atom(e_, {a_, c_}));
  facts.Insert(Atom(e_, {b_, c_}));
  EXPECT_EQ(facts.ByPredicatePositionTerm(e_, 0, a_).size(), 2u);
  EXPECT_EQ(facts.ByPredicatePositionTerm(e_, 1, c_).size(), 2u);
  EXPECT_EQ(facts.ByPredicatePositionTerm(e_, 0, c_).size(), 0u);
}

TEST_F(FactSetTest, SubsetAndEquality) {
  FactSet small, big;
  small.Insert(Atom(e_, {a_, b_}));
  big.Insert(Atom(e_, {a_, b_}));
  big.Insert(Atom(p_, {c_}));
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  FactSet big2;
  big2.Insert(Atom(p_, {c_}));
  big2.Insert(Atom(e_, {a_, b_}));
  EXPECT_TRUE(big.SetEquals(big2)) << "equality must be order-insensitive";
}

TEST_F(FactSetTest, InsertAllReturnsNumberOfNewAtoms) {
  FactSet x, y;
  x.Insert(Atom(e_, {a_, b_}));
  y.Insert(Atom(e_, {a_, b_}));
  y.Insert(Atom(e_, {b_, c_}));
  EXPECT_EQ(x.InsertAll(y), 1u);
  EXPECT_EQ(x.size(), 2u);
}

TEST_F(FactSetTest, InducedSubstructure) {
  FactSet facts;
  facts.Insert(Atom(e_, {a_, b_}));
  facts.Insert(Atom(e_, {b_, c_}));
  facts.Insert(Atom(p_, {a_}));
  FactSet induced = facts.InducedOn({a_, b_});
  EXPECT_EQ(induced.size(), 2u);
  EXPECT_TRUE(induced.Contains(Atom(e_, {a_, b_})));
  EXPECT_TRUE(induced.Contains(Atom(p_, {a_})));
  EXPECT_FALSE(induced.Contains(Atom(e_, {b_, c_})));
}

TEST_F(FactSetTest, AtomDegreeCountsIncidentAtomsOnce) {
  FactSet facts;
  facts.Insert(Atom(e_, {a_, a_}));  // self loop: one atom, counted once
  facts.Insert(Atom(e_, {a_, b_}));
  EXPECT_EQ(facts.AtomDegree(a_), 2u);
  EXPECT_EQ(facts.AtomDegree(b_), 1u);
  EXPECT_EQ(facts.AtomDegree(c_), 0u);
}

TEST(StatusTest, OkAndErrorBasics) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_TRUE(Status::Ok().message().empty());
  Status error = Status::Error("went sideways");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.message(), "went sideways");
}

TEST(ResultTest, HoldsValueOrError) {
  Result<int> good(41);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 41);
  EXPECT_EQ(good.value_or(-1), 41);
  EXPECT_TRUE(good.message().empty());

  Result<int> bad(Status::Error("no value"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(bad.message(), "no value");
}

TEST(ResultDeathTest, ConstructingFromOkStatusAborts) {
  // An OK status carries no value, so `Result<T>(Status::Ok())` would make
  // every later value() access UB; the constructor rejects it up front.
  EXPECT_DEATH(Result<int>{Status::Ok()}, "OK status carries no value");
}

TEST(CheckDeathTest, FailedCheckPrintsConditionAndMessage) {
  EXPECT_DEATH(FRONTIERS_CHECK(1 + 1 == 3, "arithmetic drifted"),
               "CHECK\\(1 \\+ 1 == 3\\) failed: arithmetic drifted");
  // The message expression is only evaluated on failure.
  bool evaluated = false;
  FRONTIERS_CHECK(true, (evaluated = true, "unused"));
  EXPECT_FALSE(evaluated);
}

}  // namespace
}  // namespace frontiers
