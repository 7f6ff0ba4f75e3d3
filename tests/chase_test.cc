#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/failpoint.h"
#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "hom/query_ops.h"
#include "rewriting/rewriter.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  FactSet Facts(const std::string& text) {
    Result<FactSet> facts = ParseFacts(vocab_, text);
    EXPECT_TRUE(facts.ok()) << facts.status().message();
    return facts.value();
  }
  Theory ParseT(const std::string& text) {
    Result<Theory> t = ParseTheory(vocab_, text);
    EXPECT_TRUE(t.ok()) << t.status().message();
    return t.value();
  }
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }
  Vocabulary vocab_;
};

TEST_F(ChaseTest, Example1MotherChain) {
  // Example 1 / Example 7 of the paper.
  Theory t_a = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  ChaseEngine engine(vocab_, t_a);
  ChaseResult result = engine.RunToDepth(Facts("Human(Abel)"), 4);
  // Ch_1 adds Mother(Abel, mum(Abel)); Ch_2 adds Human(mum) and then
  // Mother(mum, mum(mum)) at depth 3.
  EXPECT_EQ(result.PrefixAtDepth(0).size(), 1u);
  EXPECT_EQ(result.PrefixAtDepth(1).size(), 2u);
  ConjunctiveQuery grandmother =
      Query("Mother(Abel,y), Mother(y,z)");
  EXPECT_FALSE(HoldsBoolean(vocab_, grandmother, result.PrefixAtDepth(2)));
  EXPECT_TRUE(HoldsBoolean(vocab_, grandmother, result.PrefixAtDepth(3)));
}

TEST_F(ChaseTest, Observation8LiteralEquality) {
  // Chasing a chase prefix yields literally the same atoms (Skolem naming).
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  FactSet db = Facts("E(A,B)");
  ChaseResult full = engine.RunToDepth(db, 5);
  FactSet middle = engine.RunToDepth(db, 2).facts;
  ChaseResult from_middle = engine.RunToDepth(middle, 3);
  EXPECT_TRUE(from_middle.facts.SetEquals(full.facts))
      << "Ch_3(Ch_2(D)) must literally equal Ch_5(D)";
}

TEST_F(ChaseTest, FixpointDetection) {
  Theory sym = ParseT("E(x,y) -> E(y,x)");
  ChaseEngine engine(vocab_, sym);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B), E(B,D)"), 10);
  EXPECT_TRUE(result.Terminated());
  EXPECT_LE(result.complete_rounds, 2u);
  EXPECT_EQ(result.facts.size(), 4u);
}

TEST_F(ChaseTest, NonTerminatingChaseHitsRoundBudget) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 7);
  EXPECT_EQ(result.stop, ChaseStop::kRoundBudget);
  EXPECT_EQ(result.complete_rounds, 7u);
  EXPECT_EQ(result.facts.size(), 8u) << "one new edge per round";
}

TEST_F(ChaseTest, AtomBudgetStopsEarly) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseOptions options;
  options.max_rounds = 100;
  options.max_atoms = 5;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_EQ(result.stop, ChaseStop::kAtomBudget);
  EXPECT_LE(result.facts.size(), options.max_atoms);
}

TEST_F(ChaseTest, AtomBudgetIsEnforcedPerAtomNotPerApplication) {
  // Three-atom heads: the old per-application check let the result
  // overshoot the budget by up to the head size.
  Theory wide = ParseT("P(x) -> exists u . Q(x,u), R(x,u), S(x,u)");
  ChaseEngine engine(vocab_, wide);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 4;
  ChaseResult result =
      engine.Run(Facts("P(A), P(B), P(D)"), options);
  EXPECT_EQ(result.stop, ChaseStop::kAtomBudget);
  EXPECT_LE(result.facts.size(), options.max_atoms);
  EXPECT_EQ(result.facts.size(), 4u) << "budget headroom should be used";
}

TEST_F(ChaseTest, AtomBudgetExactFitReportsFixpoint) {
  // A chase that terminates at exactly max_atoms atoms is a fixpoint, not
  // a budget stop: duplicates and never-attempted inserts must not trip
  // the budget check.
  Theory sym = ParseT("E(x,y) -> E(y,x)");
  ChaseEngine engine(vocab_, sym);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 2;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 2u);
}

TEST_F(ChaseTest, MultiThreadedRunMatchesSequential) {
  Theory mixed = ParseT(R"(
    E(x,y), E(y,z) -> E(x,z)
    E(x,y) -> exists w . F(y,w)
    F(x,y) -> E(x,y)
    true -> exists z . R(x,z)
  )");
  ChaseEngine engine(vocab_, mixed);
  FactSet db = Facts("E(A,B), E(B,D), E(D,G)");
  ChaseOptions seq;
  seq.max_rounds = 4;
  ChaseOptions par = seq;
  par.threads = 4;
  ChaseResult r_seq = engine.Run(db, seq);
  ChaseResult r_par = engine.Run(db, par);
  // Byte-identical: same atoms in the same order, same depths.
  EXPECT_EQ(r_seq.facts.ToAtoms(), r_par.facts.ToAtoms());
  EXPECT_EQ(r_seq.depth, r_par.depth);
  EXPECT_EQ(r_seq.stop, r_par.stop);
}

TEST_F(ChaseTest, StatsCountRoundsAndPhases) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 3);
  ASSERT_EQ(result.stats.rounds.size(), 3u);
  // One new edge, hence one match/staging/commit, per round.
  for (const ChaseRoundStats& r : result.stats.rounds) {
    EXPECT_EQ(r.matches, 1u);
    EXPECT_EQ(r.staged, 1u);
    EXPECT_EQ(r.committed, 1u);
    EXPECT_EQ(r.atoms_inserted, 1u);
    EXPECT_EQ(r.preempted, 0u);
  }
  EXPECT_EQ(result.stats.TotalMatches(), 3u);
  EXPECT_GE(result.stats.total_seconds, 0.0);
}

TEST_F(ChaseTest, RestrictedStatsCountPreemptions) {
  // Two symmetric seeds stage two successor applications; the Datalog
  // symmetry atoms commit first and preempt both of them.
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,y) -> E(y,x)
  )");
  ChaseEngine engine(vocab_, t);
  ChaseOptions options;
  options.max_rounds = 6;
  options.variant = ChaseVariant::kRestricted;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_GE(result.stats.TotalPreempted(), 1u);
}

TEST_F(ChaseTest, SemiNaiveMatchesNaive) {
  Theory mixed = ParseT(R"(
    E(x,y), E(y,z) -> E(x,z)
    E(x,y) -> exists w . F(y,w)
    F(x,y) -> E(x,y)
  )");
  ChaseEngine engine(vocab_, mixed);
  FactSet db = Facts("E(A,B), E(B,D), E(D,G)");
  ChaseOptions naive;
  naive.max_rounds = 4;
  naive.semi_naive = false;
  ChaseOptions delta;
  delta.max_rounds = 4;
  delta.semi_naive = true;
  ChaseResult r_naive = engine.Run(db, naive);
  ChaseResult r_delta = engine.Run(db, delta);
  EXPECT_TRUE(r_naive.facts.SetEquals(r_delta.facts));
  // Depths must agree too (both compute the same Ch_i stages).
  for (const Atom& atom : r_naive.facts.ToAtoms()) {
    EXPECT_EQ(r_naive.DepthOf(atom), r_delta.DepthOf(atom));
  }
}

TEST_F(ChaseTest, SemiNaiveMatchesNaiveWithPins) {
  // Domain-variable rules are the delicate case for delta evaluation.
  Theory pins = ParseT(R"(
    true -> exists z . R(x,z)
    R(x,y), R(y,z) -> S(x,z)
  )");
  ChaseEngine engine(vocab_, pins);
  FactSet db = Facts("P(A), P(B)");
  ChaseOptions naive;
  naive.max_rounds = 3;
  naive.semi_naive = false;
  ChaseOptions delta;
  delta.max_rounds = 3;
  delta.semi_naive = true;
  ChaseResult r_naive = engine.Run(db, naive);
  ChaseResult r_delta = engine.Run(db, delta);
  EXPECT_TRUE(r_naive.facts.SetEquals(r_delta.facts));
  for (const Atom& atom : r_naive.facts.ToAtoms()) {
    EXPECT_EQ(r_naive.DepthOf(atom), r_delta.DepthOf(atom));
  }
}

TEST_F(ChaseTest, LoopRuleFiresOnceAndReachesFixpoint) {
  Theory loop = ParseT("true -> exists x . R(x,x), G(x,x)");
  ChaseEngine engine(vocab_, loop);
  ChaseResult result = engine.RunToDepth(FactSet(), 5);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 2u);
  // Both head atoms mention the same invented term.
  ASSERT_EQ(result.facts.Domain().size(), 1u);
}

TEST_F(ChaseTest, PinsRuleGrowsOneSuccessorPerTermPerRound) {
  Theory pins = ParseT("true -> exists z . R(x,z)");
  ChaseEngine engine(vocab_, pins);
  ChaseResult result = engine.RunToDepth(Facts("P(A)"), 3);
  // Round 1: R(A, f(A)).  Round 2: R(f(A), f(f(A))) (plus nothing for A:
  // semi-oblivious - f(A) already exists).  One new atom per round.
  EXPECT_EQ(result.facts.size(), 4u);
  EXPECT_EQ(result.PrefixAtDepth(1).size(), 2u);
  EXPECT_EQ(result.PrefixAtDepth(2).size(), 3u);
}

TEST_F(ChaseTest, BirthAtoms) {
  Theory t_a = ParseT("Human(y) -> exists z . Mother(y,z)");
  ChaseEngine engine(vocab_, t_a);
  ChaseResult result = engine.RunToDepth(Facts("Human(Abel)"), 1);
  std::vector<TermId> born;
  for (TermId t = 0; t < vocab_.NumTerms(); ++t) {
    if (result.BirthAtom(t) != ChaseResult::kNoAtom) born.push_back(t);
  }
  ASSERT_EQ(born.size(), 1u);
  const TermId term = born[0];
  EXPECT_TRUE(vocab_.IsSkolem(term));
  EXPECT_EQ(result.BirthAtom(vocab_.Constant("Abel")), ChaseResult::kNoAtom);
  const Atom birth = result.facts.ToAtom(result.BirthAtom(term));
  EXPECT_EQ(vocab_.PredicateName(birth.predicate), "Mother");
  EXPECT_EQ(birth.args[1], term);
}

TEST_F(ChaseTest, ProvenanceParents) {
  Theory trans = ParseT("E(x,y), E(y,z) -> E(x,z)");
  ChaseEngine engine(vocab_, trans);
  ChaseOptions options;
  options.max_rounds = 3;
  options.track_provenance = true;
  ChaseResult result = engine.Run(Facts("E(A,B), E(B,D)"), options);
  PredicateId e = vocab_.FindPredicate("E").value();
  Atom derived(e, {vocab_.Constant("A"), vocab_.Constant("D")});
  std::optional<uint32_t> idx = result.facts.IndexOf(derived);
  ASSERT_TRUE(idx.has_value());
  ASSERT_TRUE(result.first_derivation[*idx].has_value());
  const Derivation& d = *result.first_derivation[*idx];
  EXPECT_EQ(d.rule_index, 0u);
  ASSERT_EQ(d.parents.size(), 2u);
  EXPECT_EQ(result.facts.ToAtom(d.parents[0]),
            Atom(e, {vocab_.Constant("A"), vocab_.Constant("B")}));
}

TEST_F(ChaseTest, AllDerivationsRecorded) {
  // E(y,v) is derivable from either R-fact: both derivations recorded.
  Theory t = ParseT("E(x,y), R(z,y) -> exists v . E(y,v)");
  ChaseEngine engine(vocab_, t);
  ChaseOptions options;
  options.max_rounds = 1;
  options.record_all_derivations = true;
  ChaseResult result =
      engine.Run(Facts("E(A,B), R(C1,B), R(C2,B)"), options);
  // The invented atom E(B, f(B)) has two derivations (z = C1 and z = C2).
  ASSERT_EQ(result.facts.size(), 4u);
  EXPECT_EQ(result.all_derivations[3].size(), 2u);
}

TEST_F(ChaseTest, FilterSkipsApplications) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseOptions options;
  options.max_rounds = 5;
  options.filter = [](size_t, const Substitution&, const FactSet&) {
    return false;
  };
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 1u);
}

TEST_F(ChaseTest, Exercise23SelfLoopsAppear) {
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,x1), E(x1,x2) -> E(x1,x1)
  )");
  ChaseEngine engine(vocab_, t);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 3);
  PredicateId e = vocab_.FindPredicate("E").value();
  TermId b = vocab_.Constant("B");
  EXPECT_TRUE(result.facts.Contains(Atom(e, {b, b})))
      << "rule 2 must derive the self-loop E(B,B)";
}

TEST_F(ChaseTest, RunSharesSkolemAcrossSameFrontier) {
  Theory t = ParseT("E(x,y), P(x) -> exists v . F(y,v)");
  ChaseEngine engine(vocab_, t);
  // Two matches with the same frontier value y=B but different x must
  // produce the same skolemized head (semi-oblivious naming): one F atom
  // with one null.
  ChaseResult result =
      engine.RunToDepth(Facts("E(A,B), P(A), E(C,B), P(C)"), 1);
  EXPECT_EQ(result.stats.TotalMatches(), 2u);
  const PredicateId f = vocab_.FindPredicate("F").value();
  ASSERT_EQ(result.facts.ByPredicate(f).size(), 1u);
  const Atom head = result.facts.ToAtom(result.facts.ByPredicate(f)[0]);
  EXPECT_EQ(head.args[0], vocab_.Constant("B"));
  size_t nulls = 0;
  for (TermId term : result.facts.Domain()) nulls += vocab_.IsSkolem(term);
  EXPECT_EQ(nulls, 1u);
  EXPECT_TRUE(vocab_.IsSkolem(head.args[1]));
}

TEST_F(ChaseTest, MultiHeadSharedExistential) {
  Theory grid = ParseT(
      "R(x,x1), G(x,u), G(u,u1) -> exists z . R(u1,z), G(x1,z)");
  ChaseEngine engine(vocab_, grid);
  ChaseResult result =
      engine.RunToDepth(Facts("R(A,A1), G(A,B), G(B,B1)"), 1);
  EXPECT_EQ(result.facts.size(), 5u);
  // Both new atoms share the invented z term.
  const Atom new_r = result.facts.ToAtom(3);
  const Atom new_g = result.facts.ToAtom(4);
  EXPECT_EQ(new_r.args[1], new_g.args[1]);
  EXPECT_TRUE(vocab_.IsSkolem(new_r.args[1]));
}

TEST_F(ChaseTest, RestrictedChaseTerminatesWhereSemiObliviousDoesNot) {
  // E(x,y) -> exists z E(y,z) plus symmetry: the semi-oblivious chase
  // runs forever (fresh successors for every term), while the restricted
  // chase notices that E(y,x) already witnesses the head (footnote 19).
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,y) -> E(y,x)
  )");
  ChaseEngine engine(vocab_, t);
  FactSet db = Facts("E(A,B)");
  ChaseOptions semi;
  semi.max_rounds = 6;
  ChaseResult oblivious = engine.Run(db, semi);
  EXPECT_EQ(oblivious.stop, ChaseStop::kRoundBudget);

  ChaseOptions restricted;
  restricted.max_rounds = 6;
  restricted.variant = ChaseVariant::kRestricted;
  ChaseResult standard = engine.Run(db, restricted);
  EXPECT_TRUE(standard.Terminated());
  EXPECT_EQ(standard.facts.size(), 2u) << "E(A,B) and E(B,A) suffice";
}

TEST_F(ChaseTest, RestrictedChaseIsContainedInSemiOblivious) {
  Theory t = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  ChaseEngine engine(vocab_, t);
  FactSet db = Facts("Human(Abel)");
  ChaseOptions restricted;
  restricted.max_rounds = 4;
  restricted.variant = ChaseVariant::kRestricted;
  ChaseResult standard = engine.Run(db, restricted);
  ChaseResult oblivious = engine.RunToDepth(db, 4);
  EXPECT_TRUE(standard.facts.IsSubsetOf(oblivious.facts))
      << "restricted applications are a subset of semi-oblivious ones";
}

TEST_F(ChaseTest, DepthOfInputAndDerivedAtoms) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  FactSet db = Facts("E(A,B)");
  ChaseResult result = engine.RunToDepth(db, 3);
  EXPECT_EQ(result.DepthOf(db.ToAtom(0)), 0u);
  EXPECT_EQ(result.DepthOf(result.facts.ToAtom(2)), 2u);
  PredicateId e = vocab_.FindPredicate("E").value();
  EXPECT_FALSE(result
                   .DepthOf(Atom(e, {vocab_.Constant("Z"),
                                     vocab_.Constant("Z")}))
                   .has_value());
}

// --- Birth atoms ------------------------------------------------------------
// `BirthAtom(t)` must be the first atom that holds `t` at an existential
// head position of the rule that derived it, recomputed here by brute force
// over the stage and its provenance, at one and four threads and after an
// interrupt/resume.

struct BirthCase {
  const char* name;
  Theory (*theory)(Vocabulary&);
  FactSet (*instance)(Vocabulary&);
  uint32_t rounds;
};

FactSet Ex41Chain(Vocabulary& vocab) {
  const PredicateId e3 = vocab.AddPredicate("E3", 3);
  const PredicateId r = vocab.AddPredicate("R", 2);
  const TermId colour = vocab.Constant("c");
  FactSet db;
  for (uint32_t i = 0; i < 5; ++i) {
    db.Insert(Atom(e3, {PathConstant(vocab, "a", i),
                        PathConstant(vocab, "a", i + 1), colour}));
  }
  db.Insert(Atom(r, {PathConstant(vocab, "a", 0), colour}));
  return db;
}

std::vector<uint32_t> BruteForceBirths(const Vocabulary& vocab,
                                       const Theory& theory,
                                       const ChaseResult& result) {
  std::vector<uint32_t> births(vocab.NumTerms(), ChaseResult::kNoAtom);
  for (uint32_t i = 0; i < result.facts.size(); ++i) {
    const std::optional<Derivation>& d = result.first_derivation[i];
    if (!d.has_value()) continue;  // an input atom
    const Tgd& rule = theory.rules[d->rule_index];
    const Atom atom = result.facts.ToAtom(i);
    for (const Atom& head : rule.head) {
      if (head.predicate != atom.predicate) continue;
      for (uint32_t pos = 0; pos < head.args.size(); ++pos) {
        const bool existential =
            std::find(rule.existential_vars.begin(),
                      rule.existential_vars.end(),
                      head.args[pos]) != rule.existential_vars.end();
        const TermId t = atom.args[pos];
        if (existential && births[t] == ChaseResult::kNoAtom) births[t] = i;
      }
    }
  }
  return births;
}

TEST(BirthAtomOracle, MatchesBruteForceAcrossThreadsAndResume) {
  const BirthCase cases[] = {
      {"Ex39", StickyExample39Theory,
       [](Vocabulary& v) { return Star39Instance(v, 3); }, 3},
      {"Ex41", Example41Theory, Ex41Chain, 6},
      {"Ex42", TcTheory,
       [](Vocabulary& v) { return EdgeCycle(v, "E", 4, "a"); }, 3},
      {"T_d^3", [](Vocabulary& v) { return TdKTheory(v, 3); },
       [](Vocabulary& v) { return EdgePath(v, TdKPredicateName(1), 4, "a"); },
       3},
  };
  for (const BirthCase& c : cases) {
    Vocabulary vocab;
    const Theory theory = c.theory(vocab);
    const FactSet db = c.instance(vocab);
    const ChaseEngine engine(vocab, theory);
    ChaseOptions options;
    options.max_rounds = c.rounds;
    options.track_provenance = true;
    std::vector<ChaseResult> runs;
    for (uint32_t threads : {1u, 4u}) {
      options.threads = threads;
      runs.push_back(engine.Run(db, options));
    }
    ChaseOptions first_half = options;
    first_half.max_rounds = c.rounds / 2;
    const ChaseResult interrupted = engine.Run(db, first_half);
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, theory, interrupted, first_half);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
    runs.push_back(engine.Resume(snapshot.value(), options));

    const std::vector<uint32_t> expected =
        BruteForceBirths(vocab, theory, runs[0]);
    size_t born = 0;
    for (TermId t = 0; t < vocab.NumTerms(); ++t) {
      if (expected[t] != ChaseResult::kNoAtom) ++born;
      for (size_t run = 0; run < runs.size(); ++run) {
        EXPECT_EQ(runs[run].BirthAtom(t), expected[t])
            << c.name << " run " << run << " term " << t;
      }
    }
    // Example 41's one rule is Datalog; every other case invents terms.
    if (std::string(c.name) != "Ex41") {
      EXPECT_GT(born, 0u) << c.name << ": the chase invented no term";
    }
    EXPECT_EQ(runs[2].birth_atom, runs[0].birth_atom) << c.name;
  }
}

// The FRSN bytes of an Example 39 run are pinned: birth atoms, provenance,
// the memo and every other logical part of the encoding.  Timings and the
// two ledger figures are zeroed first, since they are measurements of the
// run, not chase state.
TEST(ChaseSnapshotBytes, Example39EncodingIsPinned) {
  Vocabulary vocab;
  const Theory theory = StickyExample39Theory(vocab);
  const FactSet db = Star39Instance(vocab, 3);
  ChaseOptions options;
  options.max_rounds = 3;
  options.track_provenance = true;
  const ChaseResult result = ChaseEngine(vocab, theory).Run(db, options);
  ASSERT_EQ(result.stop, ChaseStop::kRoundBudget);
  Result<ChaseSnapshot> snapshot = MakeSnapshot(vocab, theory, result, options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  ChaseSnapshot& snap = snapshot.value();
  for (ChaseRoundStats& round : snap.round_stats) {
    round.match_seconds = 0;
    round.commit_seconds = 0;
  }
  snap.total_seconds = 0;
  snap.approx_bytes = 0;
  snap.peak_bytes = 0;
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : EncodeSnapshot(snap)) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  EXPECT_FALSE(snap.birth_atoms.empty());
  EXPECT_EQ(hash, 0x0c7c7cddb0586208ull);
}


// The applied set of the semi-oblivious chase (Definition 6) is one
// application per (rule, frontier) pair.  The cases below pin what the
// commit phase's dedup must keep exact, whatever structure records it.

// Two rules with isomorphic existential heads share their Skolem
// functions (Definition 4), so they name the same nulls; each rule still
// fires once per frontier tuple, and the second rule's R(a, null) is a
// duplicate atom, not a deduped application.
TEST_F(ChaseTest, RulesSharingASkolemBlockDedupPerRule) {
  Theory t = ParseT(
      "E(x,y) -> exists z . R(x,z)\n"
      "F(x,y) -> exists z . R(x,z)\n"
      "R(x,z) -> E(z,x)");
  ChaseEngine engine(vocab_, t);
  ASSERT_EQ(vocab_.NumSkolemFns(), 1u);  // both heads name one function
  ChaseResult result =
      engine.RunToDepth(Facts("E(A,B), E(A,C), F(A,B), F(B,C), F(A,C)"), 4);
  const std::vector<uint64_t> deduped = {2, 0, 0, 0};
  const std::vector<uint64_t> committed = {3, 2, 2, 2};
  const std::vector<uint64_t> inserted = {2, 2, 2, 2};
  ASSERT_EQ(result.stats.rounds.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(result.stats.rounds[r].deduped, deduped[r]) << "round " << r;
    EXPECT_EQ(result.stats.rounds[r].committed, committed[r])
        << "round " << r;
    EXPECT_EQ(result.stats.rounds[r].atoms_inserted, inserted[r])
        << "round " << r;
  }
  EXPECT_EQ(result.AppliedKeys().size(), result.stats.TotalCommitted());
}

// A vocabulary outlives runs and is shared with the rewriter, so a row
// already interned by an earlier run (or by anything else) must not count
// as applied in a later one: the second run commits every application
// again and reaches the same stage.
TEST_F(ChaseTest, SecondRunOverASharedVocabularyCommitsEveryApplication) {
  const Theory theory = StickyExample39Theory(vocab_);
  const FactSet db = Star39Instance(vocab_, 3);
  const ChaseEngine engine(vocab_, theory);
  ChaseOptions options;
  options.max_rounds = 3;
  const ChaseResult first = engine.Run(db, options);

  Rewriter rewriter(vocab_, theory);
  RewritingOptions rewriting;
  rewriting.max_queries = 50;
  rewriting.max_iterations = 50;
  rewriter.RewriteAtomicQuery(theory.rules[0].head[0].predicate, rewriting);

  const uint32_t terms_before_second = vocab_.NumTerms();
  const ChaseResult second = engine.Run(db, options);
  // Every null the second run needs is already interned.
  EXPECT_EQ(vocab_.NumTerms(), terms_before_second);
  ASSERT_EQ(second.stats.rounds.size(), first.stats.rounds.size());
  EXPECT_GT(first.stats.TotalCommitted(), 0u);
  for (size_t r = 0; r < first.stats.rounds.size(); ++r) {
    EXPECT_EQ(second.stats.rounds[r].committed,
              first.stats.rounds[r].committed)
        << "round " << r;
    EXPECT_EQ(second.stats.rounds[r].deduped, first.stats.rounds[r].deduped)
        << "round " << r;
  }
  EXPECT_EQ(second.facts.ToAtoms(), first.facts.ToAtoms());
  EXPECT_EQ(second.AppliedKeys(), first.AppliedKeys());
}

// A batch refused mid-run rolls the applied set back to the previous
// round boundary, and resuming from that state (in the same vocabulary and
// in a fresh one rebuilt from the snapshot) reaches the uninterrupted run,
// applied set included.
TEST(AppliedSetTest, RefusedBatchRollsBackAndResumes) {
  struct DisarmOnExit {
    ~DisarmOnExit() { failpoint::DisarmAll(); }
  } guard;
  Vocabulary vocab;
  const Theory theory = StickyExample39Theory(vocab);
  const FactSet db = Star39Instance(vocab, 3);
  const ChaseEngine engine(vocab, theory);
  ChaseOptions options;
  options.max_rounds = 4;
  options.track_provenance = true;
  const ChaseResult full = engine.Run(db, options);
  ASSERT_EQ(full.stop, ChaseStop::kRoundBudget);

  failpoint::Arm("fact_set.insert_batch", /*fire_count=*/1, /*skip=*/2);
  const ChaseResult faulted = engine.Run(db, options);
  failpoint::DisarmAll();
  ASSERT_EQ(faulted.stop, ChaseStop::kInjectedFault);
  ASSERT_EQ(faulted.complete_rounds, 2u);

  // The faulted state is the two-round stage, applied set and content
  // bytes included.
  ChaseOptions two_rounds = options;
  two_rounds.max_rounds = 2;
  const ChaseResult stage = engine.Run(db, two_rounds);
  EXPECT_EQ(faulted.facts.ToAtoms(), stage.facts.ToAtoms());
  EXPECT_EQ(faulted.AppliedKeys(), stage.AppliedKeys());
  EXPECT_EQ(faulted.approx_bytes, stage.approx_bytes);

  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(vocab, theory, faulted, options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.message();
  const ChaseResult resumed = engine.Resume(snapshot.value(), options);
  EXPECT_EQ(resumed.stop, full.stop);
  EXPECT_EQ(resumed.facts.ToAtoms(), full.facts.ToAtoms());
  EXPECT_EQ(resumed.depth, full.depth);
  EXPECT_EQ(resumed.AppliedKeys(), full.AppliedKeys());
  EXPECT_EQ(resumed.approx_bytes, full.approx_bytes);
  ASSERT_EQ(resumed.stats.rounds.size(), full.stats.rounds.size());
  for (size_t r = 0; r < full.stats.rounds.size(); ++r) {
    EXPECT_EQ(resumed.stats.rounds[r].committed, full.stats.rounds[r].committed)
        << "round " << r;
    EXPECT_EQ(resumed.stats.rounds[r].deduped, full.stats.rounds[r].deduped)
        << "round " << r;
  }

  Result<ChaseSnapshot> decoded =
      DecodeSnapshot(EncodeSnapshot(snapshot.value()));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  Vocabulary fresh;
  ASSERT_TRUE(ApplySnapshotVocabulary(decoded.value(), fresh).ok());
  const Theory fresh_theory = StickyExample39Theory(fresh);
  const ChaseResult fresh_resumed =
      ChaseEngine(fresh, fresh_theory).Resume(decoded.value(), options);
  EXPECT_EQ(fresh_resumed.facts.ToAtoms(), full.facts.ToAtoms());
  EXPECT_EQ(fresh_resumed.AppliedKeys(), full.AppliedKeys());
  EXPECT_EQ(fresh_resumed.approx_bytes, full.approx_bytes);
}

// FNV-1a over the sorted applied keys, each preceded by its length.
uint64_t AppliedKeysDigest(const std::vector<std::string>& keys) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&](const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 0x100000001b3ull;
    }
  };
  for (const std::string& key : keys) {
    const uint64_t size = key.size();
    mix(reinterpret_cast<const char*>(&size), sizeof(size));
    mix(key.data(), key.size());
  }
  return hash;
}

// The applied set of every catalog workload is pinned (key count and
// digest), at one and four threads.
TEST(AppliedSetTest, CatalogAppliedKeysArePinned) {
  struct Case {
    const char* name;
    Theory (*theory)(Vocabulary&);
    FactSet (*instance)(Vocabulary&);
    uint32_t rounds;
    size_t keys;
    uint64_t digest;
  };
  const Case cases[] = {
      {"mother", MotherTheory,
       [](Vocabulary& v) {
         FactSet db;
         db.Insert(Atom(v.AddPredicate("Human", 1), {v.Constant("Abel")}));
         return db;
       },
       4, 4, 0xdcf8f695bf8319c3ull},
      {"forward-path", ForwardPathTheory,
       [](Vocabulary& v) { return EdgePath(v, "E", 6, "a"); },
       4, 24, 0x8757786f66e5dc85ull},
      {"exercise23", Exercise23Theory,
       [](Vocabulary& v) { return EdgePath(v, "E", 6, "a"); },
       3, 30, 0x96098cdad7359814ull},
      {"tc-cycle", TcTheory,
       [](Vocabulary& v) { return EdgeCycle(v, "E", 4, "a"); },
       3, 12, 0x1e8822f0131a1dbdull},
      {"sticky39", StickyExample39Theory,
       [](Vocabulary& v) { return Star39Instance(v, 3); },
       3, 39, 0x8828a46571ea60e7ull},
      {"example66", Example66Theory,
       [](Vocabulary& v) { return Example66Instance(v, 3); },
       3, 7, 0x01925701452abfe0ull},
      {"td-grid", TdTheory,
       [](Vocabulary& v) { return EdgePath(v, "G", 4, "a"); },
       3, 120, 0x6cf337d9fd702ab5ull},
      {"tdk3-tower", [](Vocabulary& v) { return TdKTheory(v, 3); },
       [](Vocabulary& v) {
         return EdgePath(v, TdKPredicateName(1), 4, "a");
       },
       3, 282, 0x84857f0cff8ef124ull},
  };
  for (const Case& c : cases) {
    for (uint32_t threads : {1u, 4u}) {
      Vocabulary vocab;
      const Theory theory = c.theory(vocab);
      const FactSet db = c.instance(vocab);
      ChaseOptions options;
      options.max_rounds = c.rounds;
      options.max_atoms = 20'000;
      options.threads = threads;
      const ChaseResult result = ChaseEngine(vocab, theory).Run(db, options);
      const std::vector<std::string> keys = result.AppliedKeys();
      EXPECT_EQ(keys.size(), c.keys) << c.name << " threads=" << threads;
      EXPECT_EQ(AppliedKeysDigest(keys), c.digest)
          << c.name << " threads=" << threads << " digest 0x" << std::hex
          << AppliedKeysDigest(keys);
    }
  }
}

// FNV-1a over the term table: each term's kind, then its name, or its
// function and arguments.
uint64_t TermTableDigest(const Vocabulary& vocab) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&](uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  };
  for (TermId t = 0; t < vocab.NumTerms(); ++t) {
    mix(static_cast<uint32_t>(vocab.Kind(t)));
    if (vocab.IsSkolem(t)) {
      mix(vocab.SkolemFn(t));
      for (TermId a : vocab.SkolemArgs(t)) mix(a);
    } else {
      mix(static_cast<uint32_t>(vocab.TermName(t).size()));
      for (char ch : vocab.TermName(t)) mix(static_cast<unsigned char>(ch));
    }
  }
  return hash;
}

// Every interned Skolem row agrees with its terms: each null's arguments
// are the row's, and `SkolemTerm` of the block's i-th function over them
// finds the row's i-th null without interning anything.  Rows cover every
// Skolem term, and the term table (count and digest) is pinned, over the
// catalog workloads at one and four threads.
TEST(SkolemRowTest, CatalogRowsAgreeWithTheirTerms) {
  struct Case {
    const char* name;
    Theory (*theory)(Vocabulary&);
    FactSet (*instance)(Vocabulary&);
    uint32_t rounds;
    uint32_t terms;
    uint64_t digest;
  };
  const Case cases[] = {
      {"mother", MotherTheory,
       [](Vocabulary& v) {
         FactSet db;
         db.Insert(Atom(v.AddPredicate("Human", 1), {v.Constant("Abel")}));
         return db;
       },
       4, 6, 0x7d031e7c7b870047ull},
      {"forward-path", ForwardPathTheory,
       [](Vocabulary& v) { return EdgePath(v, "E", 6, "a"); },
       4, 34, 0xa66776575c61d5faull},
      {"exercise23", Exercise23Theory,
       [](Vocabulary& v) { return EdgePath(v, "E", 6, "a"); },
       3, 30, 0x7349e83b21638f98ull},
      {"tc-cycle", TcTheory,
       [](Vocabulary& v) { return EdgeCycle(v, "E", 4, "a"); },
       3, 26, 0x20f87a6402f5780bull},
      {"sticky39", StickyExample39Theory,
       [](Vocabulary& v) { return Star39Instance(v, 3); },
       3, 51, 0x2d258656c67b4833ull},
      {"example66", Example66Theory,
       [](Vocabulary& v) { return Example66Instance(v, 3); },
       3, 10, 0xeee87d5e4c20d5deull},
      {"td-grid", TdTheory,
       [](Vocabulary& v) { return EdgePath(v, "G", 4, "a"); },
       3, 131, 0x603338e4bd9e1da8ull},
      {"tdk3-tower", [](Vocabulary& v) { return TdKTheory(v, 3); },
       [](Vocabulary& v) {
         return EdgePath(v, TdKPredicateName(1), 4, "a");
       },
       3, 292, 0x6427a352eb62a5a1ull},
  };
  for (const Case& c : cases) {
    for (uint32_t threads : {1u, 4u}) {
      Vocabulary vocab;
      const Theory theory = c.theory(vocab);
      const FactSet db = c.instance(vocab);
      ChaseOptions options;
      options.max_rounds = c.rounds;
      options.max_atoms = 20'000;
      options.threads = threads;
      ChaseEngine(vocab, theory).Run(db, options);
      const uint32_t terms = vocab.NumTerms();
      uint32_t row_nulls = 0;
      for (uint32_t r = 0; r < vocab.NumSkolemRows(); ++r) {
        const uint32_t block = vocab.SkolemRowBlock(r);
        const std::vector<TermId> args(vocab.SkolemRowArgs(r).begin(),
                                       vocab.SkolemRowArgs(r).end());
        for (uint32_t i = 0; i < vocab.SkolemBlockSize(block); ++i) {
          const TermId null = vocab.SkolemRowTerms(r)[i];
          EXPECT_TRUE(std::ranges::equal(vocab.SkolemArgs(null), args))
              << c.name << " row " << r << " null " << i;
          EXPECT_EQ(vocab.SkolemTerm(vocab.SkolemBlockFn(block, i), args),
                    null)
              << c.name << " row " << r << " null " << i;
          ++row_nulls;
        }
      }
      uint32_t skolem_terms = 0;
      for (TermId t = 0; t < terms; ++t) skolem_terms += vocab.IsSkolem(t);
      EXPECT_EQ(row_nulls, skolem_terms) << c.name;
      EXPECT_EQ(vocab.NumTerms(), terms) << c.name << ": SkolemTerm interned";
      EXPECT_EQ(terms, c.terms) << c.name << " threads=" << threads;
      EXPECT_EQ(TermTableDigest(vocab), c.digest)
          << c.name << " threads=" << threads << " digest 0x" << std::hex
          << TermTableDigest(vocab);
    }
  }
}

}  // namespace
}  // namespace frontiers
