#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/answer_table.h"
#include "hom/matcher.h"
#include "hom/query_ops.h"
#include "hom/structure_ops.h"
#include "obs/metrics.h"
#include "testing/generator.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class HomTest : public ::testing::Test {
 protected:
  FactSet Facts(const std::string& text) {
    Result<FactSet> facts = ParseFacts(vocab_, text);
    EXPECT_TRUE(facts.ok()) << facts.status().message();
    return facts.value();
  }
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }
  Theory ParseT(const std::string& text) {
    Result<Theory> t = ParseTheory(vocab_, text);
    EXPECT_TRUE(t.ok()) << t.status().message();
    return t.value();
  }
  TermId C(const std::string& name) { return vocab_.Constant(name); }
  Vocabulary vocab_;
};

// --------------------------------------------------------------- Matcher --

// The slot `x` of `plan` holds `value` (kNoTerm: unbound).
void ExpectSlot(const MatchPlan& plan, TermId x, TermId value) {
  const uint32_t slot = plan.SlotOf(x);
  ASSERT_NE(slot, MatchPlan::kNoSlot);
  EXPECT_EQ(plan.slots()[slot], value);
}

TEST_F(HomTest, SeedRollsBackPartialBindingsOnFailure) {
  // A mid-atom mismatch must not leave the bindings made before it: the
  // chase reuses one plan across every delta fact of a unit.
  FactSet facts = Facts("E(A,B), E(B,B)");
  TermId x = vocab_.Variable("x");
  TermId y = vocab_.Variable("y");
  const PredicateId e = vocab_.FindPredicate("E").value();
  MatchPlan plan(facts, {Atom(e, {x, x})}, {x, y});
  // Pattern E(x, x): seeding with E(A, B) binds x=A, then fails on B.
  EXPECT_FALSE(plan.Seed(0, 0));
  ExpectSlot(plan, x, kNoTerm);
  // The same plan must now accept E(B, B) with x=B.
  ASSERT_TRUE(plan.Seed(0, 1));
  ExpectSlot(plan, x, C("B"));
  EXPECT_EQ(plan.MatchedFact(0), 1u);
  plan.Unseed(0);
  ExpectSlot(plan, x, kNoTerm);
}

TEST_F(HomTest, SeedKeepsEarlierBindingsOnFailure) {
  FactSet facts = Facts("E(A,C), E(B,D)");
  TermId x = vocab_.Variable("x");
  TermId y = vocab_.Variable("y");
  TermId z = vocab_.Variable("z");
  const PredicateId e = vocab_.FindPredicate("E").value();
  MatchPlan plan(facts, {Atom(e, {x, z}), Atom(e, {y, x})}, {x, y, z});
  ASSERT_TRUE(plan.Seed(0, 0));  // x=A, z=C
  // E(y, x) against E(B, D): binds y=B, then x=A != D fails; the rollback
  // must unbind y but keep the first seed's x and z.
  EXPECT_FALSE(plan.Seed(1, 1));
  ExpectSlot(plan, x, C("A"));
  ExpectSlot(plan, y, kNoTerm);
  ExpectSlot(plan, z, C("C"));
  plan.Unseed(0);
  // A slot bound by Bind is kept the same way.
  plan.Bind(plan.SlotOf(x), C("A"));
  EXPECT_FALSE(plan.Seed(1, 1));
  ExpectSlot(plan, x, C("A"));
  ExpectSlot(plan, y, kNoTerm);
}

TEST_F(HomTest, SeedChecksRepeatedVariablesAndRigidTerms) {
  FactSet facts = Facts("E(A,B), E(D,D), E(B,A)");
  TermId x = vocab_.Variable("x");
  const PredicateId e = vocab_.FindPredicate("E").value();
  MatchPlan loop(facts, {Atom(e, {x, x})}, {x});
  EXPECT_FALSE(loop.Seed(0, 0));
  ASSERT_TRUE(loop.Seed(0, 1));
  ExpectSlot(loop, x, C("D"));
  // E(A, x): the rigid first position must match itself.
  MatchPlan rigid(facts, {Atom(e, {C("A"), x})}, {x});
  EXPECT_FALSE(rigid.Seed(0, 2));
  ExpectSlot(rigid, x, kNoTerm);
  ASSERT_TRUE(rigid.Seed(0, 0));
  ExpectSlot(rigid, x, C("B"));
}

TEST_F(HomTest, BooleanQueryOverPath) {
  FactSet path = Facts("E(A,B), E(B,D)");
  EXPECT_TRUE(HoldsBoolean(vocab_, Query("E(x,y), E(y,z)"), path));
  EXPECT_FALSE(HoldsBoolean(vocab_, Query("E(x,y), E(y,x)"), path));
}

TEST_F(HomTest, RigidConstantsMustMatchThemselves) {
  FactSet path = Facts("E(A,B)");
  EXPECT_TRUE(HoldsBoolean(vocab_, Query("E(A,x)"), path));
  EXPECT_FALSE(HoldsBoolean(vocab_, Query("E(B,x)"), path));
}

TEST_F(HomTest, AnswerTupleEvaluation) {
  FactSet path = Facts("E(A,B), E(B,D)");
  ConjunctiveQuery q = Query("q(x,z) :- E(x,y), E(y,z)");
  EXPECT_TRUE(Holds(vocab_, q, path, {C("A"), C("D")}));
  EXPECT_FALSE(Holds(vocab_, q, path, {C("A"), C("B")}));
  auto answers = EvaluateQuery(vocab_, q, path);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], (std::vector<TermId>{C("A"), C("D")}));
}

TEST_F(HomTest, RepeatedAnswerVariable) {
  FactSet facts = Facts("E(A,A), E(A,B)");
  ConjunctiveQuery q = Query("q(x,x) :- E(x,x)");
  EXPECT_TRUE(Holds(vocab_, q, facts, {C("A"), C("A")}));
  EXPECT_FALSE(Holds(vocab_, q, facts, {C("A"), C("B")}));
}

TEST_F(HomTest, WrongArityAnswerIsRejected) {
  FactSet facts = Facts("E(A,B)");
  ConjunctiveQuery q = Query("q(x) :- E(x,y)");
  EXPECT_FALSE(Holds(vocab_, q, facts, {C("A"), C("B")}));
}

TEST_F(HomTest, EnumerationVisitsAllMatches) {
  FactSet facts = Facts("E(A,B), E(A,D), E(B,D)");
  ConjunctiveQuery q = Query("q(x,y) :- E(x,y)");
  auto answers = EvaluateQuery(vocab_, q, facts);
  EXPECT_EQ(answers.size(), 3u);
}

TEST_F(HomTest, ProjectionTriesFewerCandidatesThanHomomorphisms) {
  // A product: x's component has 3 distinct answers among 5 E atoms, and
  // the answer-free F component has 4 matches, so there are 5 * 4 = 20
  // homomorphisms.  Projection checks F once and then tries each E atom
  // once: 1 + 5 candidates, and one complete match per check.
  FactSet facts = Facts(
      "E(A,B), E(A,D), E(B,D), E(D,A), E(D,B), "
      "F(A,A), F(A,B), F(B,D), F(D,D)");
  ConjunctiveQuery q = Query("q(x) :- E(x,y), F(z,w)");
  std::unordered_set<TermId> vars;
  for (TermId v : QueryVariables(vocab_, q)) vars.insert(v);
  uint64_t homomorphisms = 0;
  Matcher(vocab_, facts).ForEach(q.atoms, vars, {}, [&](const Substitution&) {
    ++homomorphisms;
    return true;
  });
  ASSERT_EQ(homomorphisms, 20u);

  auto counter = [](const char* name) {
    obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };
  const uint64_t candidates_before = counter("frontiers.hom.candidates");
  const uint64_t matches_before = counter("frontiers.hom.matches");
  auto answers = EvaluateQuery(vocab_, q, facts);
  const uint64_t candidates = counter("frontiers.hom.candidates") -
                              candidates_before;
  const uint64_t matches = counter("frontiers.hom.matches") - matches_before;
  EXPECT_EQ(answers.size(), 3u);
  EXPECT_LT(candidates, homomorphisms);
  EXPECT_EQ(candidates, 6u);
  EXPECT_EQ(matches, 1u + answers.size());
}

// One plan run N times publishes exactly the work of N one-shot ForEach
// calls: each run is one enumeration, with its own candidate and match
// counts.
TEST_F(HomTest, ReusedPlanCountsLikeRepeatedForEach) {
  FactSet facts = Facts(
      "E(A,B), E(A,D), E(B,D), E(D,A), E(D,B), "
      "F(A,A), F(A,B), F(B,D), F(D,D)");
  ConjunctiveQuery q = Query("q(x) :- E(x,y), F(y,z)");
  std::unordered_set<TermId> vars;
  for (TermId v : QueryVariables(vocab_, q)) vars.insert(v);
  auto counters = [] {
    obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
    std::vector<uint64_t> out;
    for (const char* name :
         {"frontiers.hom.enumerations", "frontiers.hom.candidates",
          "frontiers.hom.matches"}) {
      auto it = snapshot.counters.find(name);
      out.push_back(it == snapshot.counters.end() ? 0 : it->second);
    }
    return out;
  };
  auto delta = [](const std::vector<uint64_t>& after,
                  const std::vector<uint64_t>& before) {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < after.size(); ++i) {
      out.push_back(after[i] - before[i]);
    }
    return out;
  };
  constexpr int kRuns = 5;
  const Matcher matcher(vocab_, facts);
  const std::vector<uint64_t> before_calls = counters();
  for (int i = 0; i < kRuns; ++i) {
    matcher.ForEach(q.atoms, vars, {},
                    [](const Substitution&) { return true; });
  }
  const std::vector<uint64_t> calls = delta(counters(), before_calls);
  MatchPlan plan(facts, q.atoms, vars);
  const std::vector<uint64_t> before_runs = counters();
  for (int i = 0; i < kRuns; ++i) plan.Run([] { return true; });
  const std::vector<uint64_t> runs = delta(counters(), before_runs);
  EXPECT_EQ(runs, calls);
  EXPECT_EQ(runs[0], static_cast<uint64_t>(kRuns));
  EXPECT_GT(runs[2], 0u);
}

// ----------------------------------------------------- Enumeration order --

// The search as it stood before patterns were compiled into slots, kept as
// a test-only reference: substitutions in an unordered_map, fail-first
// atom choice over the same access paths.  The chase stages applications
// in the order Matcher::ForEach emits them, so ForEach must emit exactly
// this sequence.
struct ReferenceSearch {
  const FactSet& target;
  const std::vector<Atom>& pattern;
  const std::unordered_set<TermId>& mappable;
  Substitution sub;
  std::vector<bool> done;
  const std::function<bool(const Substitution&)>& callback;

  PostingList CandidatesFor(size_t i) const {
    const Atom& atom = pattern[i];
    PostingList best;
    bool constrained = false;
    size_t size = SIZE_MAX;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      TermId t = atom.args[pos];
      auto bound = sub.find(t);
      TermId value;
      if (bound != sub.end()) {
        value = bound->second;
      } else if (mappable.count(t) == 0) {
        value = t;
      } else {
        continue;
      }
      PostingList list =
          target.ByPredicatePositionTerm(atom.predicate, pos, value);
      if (list.size() < size) {
        size = list.size();
        best = list;
        constrained = true;
      }
    }
    if (!constrained) {
      const std::vector<uint32_t>& list = target.ByPredicate(atom.predicate);
      best = PostingList(list.data(), list.size());
    }
    return best;
  }

  bool Solve() {
    size_t best_atom = SIZE_MAX;
    PostingList best_candidates;
    size_t best_size = SIZE_MAX;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (done[i]) continue;
      PostingList candidates = CandidatesFor(i);
      if (candidates.size() < best_size) {
        best_size = candidates.size();
        best_candidates = candidates;
        best_atom = i;
        if (best_size == 0) break;
      }
    }
    if (best_atom == SIZE_MAX) return callback(sub);
    if (best_size == 0) return true;
    done[best_atom] = true;
    const Atom& atom = pattern[best_atom];
    const ColumnarSegment* seg = target.Segment(atom.predicate);
    const size_t arity = atom.args.size();
    if (seg == nullptr || seg->arity() != arity) {
      done[best_atom] = false;
      return true;
    }
    std::vector<TermId> bound_here;
    for (uint32_t idx : best_candidates) {
      const uint32_t row = target.LocalRow(idx);
      bound_here.clear();
      bool ok = true;
      for (size_t pos = 0; pos < arity && ok; ++pos) {
        TermId p = atom.args[pos];
        TermId f = seg->Term(row, static_cast<uint32_t>(pos));
        auto it = sub.find(p);
        if (it != sub.end()) {
          ok = (it->second == f);
        } else if (mappable.count(p) > 0) {
          sub.emplace(p, f);
          bound_here.push_back(p);
        } else {
          ok = (p == f);
        }
      }
      if (ok && !Solve()) {
        done[best_atom] = false;
        for (TermId t : bound_here) sub.erase(t);
        return false;
      }
      for (TermId t : bound_here) sub.erase(t);
    }
    done[best_atom] = false;
    return true;
  }
};

// The substitutions an enumeration emits, stopping after `limit`, and
// whether it ran to completion.
struct Emitted {
  std::vector<Substitution> subs;
  bool complete = false;
};

Emitted Enumerate(const FactSet& target, const std::vector<Atom>& pattern,
                  const std::unordered_set<TermId>& mappable,
                  const Substitution& initial, size_t limit, bool reference,
                  const Vocabulary& vocab) {
  Emitted out;
  std::function<bool(const Substitution&)> callback =
      [&](const Substitution& sub) {
        out.subs.push_back(sub);
        return out.subs.size() < limit;
      };
  if (reference) {
    ReferenceSearch search{target,  pattern, mappable, initial,
                           std::vector<bool>(pattern.size(), false),
                           callback};
    out.complete = search.Solve();
  } else {
    out.complete =
        Matcher(vocab, target).ForEach(pattern, mappable, initial, callback);
  }
  return out;
}

std::unordered_set<TermId> PatternVariables(const Vocabulary& vocab,
                                            const std::vector<Atom>& atoms) {
  std::unordered_set<TermId> vars;
  for (const Atom& atom : atoms) {
    for (TermId t : atom.args) {
      if (vocab.IsVariable(t)) vars.insert(t);
    }
  }
  return vars;
}

// Extends `sub` so that `pattern` becomes exactly `fact`, or returns false
// and leaves `sub` as it was: the delta-unit seed, computed the slow way.
bool Unify(const Atom& pattern, const Atom& fact,
           const std::unordered_set<TermId>& mappable, Substitution& sub) {
  if (pattern.predicate != fact.predicate ||
      pattern.args.size() != fact.args.size()) {
    return false;
  }
  Substitution extended = sub;
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const TermId p = pattern.args[i];
    auto bound = extended.find(p);
    if (bound != extended.end()) {
      if (bound->second != fact.args[i]) return false;
    } else if (mappable.count(p) > 0) {
      extended.emplace(p, fact.args[i]);
    } else if (p != fact.args[i]) {
      return false;
    }
  }
  sub = std::move(extended);
  return true;
}

// Runs `plan` under its current seeds, emitting each match as the
// substitution of every slot, and stopping after `limit`.  Every emitted
// match must map each pattern atom to the fact the plan reports for it.
Emitted RunPlan(MatchPlan& plan, const FactSet& target,
                const std::vector<Atom>& pattern, size_t limit) {
  Emitted out;
  out.complete = plan.Run([&] {
    Substitution sub;
    for (uint32_t s = 0; s < plan.slot_count(); ++s) {
      sub.emplace(plan.SlotVar(s), plan.slots()[s]);
    }
    for (uint32_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(target.ToAtom(plan.MatchedFact(j)), Apply(sub, pattern[j]));
    }
    out.subs.push_back(std::move(sub));
    return out.subs.size() < limit;
  });
  return out;
}

TEST(MatcherOrderTest, ForEachEmitsTheReferenceSequence) {
  size_t enumerations = 0;
  size_t emitted = 0;
  size_t seeded = 0;
  size_t plan_runs = 0;
  size_t stopped = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Vocabulary vocab;
    testing::TheoryGenOptions theory_options;
    theory_options.theory_class = testing::kAllTheoryClasses[seed % 4];
    theory_options.num_predicates = 3;
    Theory theory = testing::GenerateTheory(vocab, seed, theory_options);
    const std::vector<PredicateId> signature =
        testing::TheorySignature(theory);
    testing::InstanceGenOptions instance_options;
    instance_options.num_constants = 5;
    instance_options.num_facts = 40;
    instance_options.hub_chance = seed % 3;
    FactSet facts =
        testing::GenerateInstance(vocab, signature, seed, instance_options);
    ASSERT_FALSE(facts.empty());

    // Rule bodies and generated CQ bodies, plus each with its first
    // variable replaced by a domain constant (a rigid term).
    std::vector<std::vector<Atom>> patterns;
    for (const Tgd& rule : theory.rules) patterns.push_back(rule.body);
    for (uint64_t k = 0; k < 4; ++k) {
      patterns.push_back(
          testing::GenerateQuery(vocab, signature, seed * 31 + k).atoms);
    }
    const size_t plain = patterns.size();
    for (size_t i = 0; i < plain; ++i) {
      std::unordered_set<TermId> vars = PatternVariables(vocab, patterns[i]);
      if (vars.empty()) continue;
      const TermId victim = *std::min_element(vars.begin(), vars.end());
      const Substitution rigid = {
          {victim, facts.Domain()[seed % facts.Domain().size()]}};
      patterns.push_back(Apply(rigid, patterns[i]));
    }

    auto expect_same = [&](const std::vector<Atom>& pattern,
                           const std::unordered_set<TermId>& mappable,
                           const Substitution& initial, size_t limit) {
      Emitted want =
          Enumerate(facts, pattern, mappable, initial, limit, true, vocab);
      Emitted got =
          Enumerate(facts, pattern, mappable, initial, limit, false, vocab);
      ++enumerations;
      emitted += got.subs.size();
      stopped += got.complete ? 0 : 1;
      ASSERT_EQ(got.complete, want.complete) << "seed " << seed;
      ASSERT_EQ(got.subs.size(), want.subs.size()) << "seed " << seed;
      for (size_t m = 0; m < want.subs.size(); ++m) {
        ASSERT_EQ(got.subs[m], want.subs[m])
            << "seed " << seed << ", match " << m;
      }
    };

    for (const std::vector<Atom>& pattern : patterns) {
      const std::unordered_set<TermId> mappable =
          PatternVariables(vocab, pattern);
      // Full enumeration, and early stops after 1 and 3 matches.
      for (size_t limit : {SIZE_MAX, size_t{1}, size_t{3}}) {
        expect_same(pattern, mappable, {}, limit);
      }
      // The chase's delta-unit shape: one atom unified with a fact seeds
      // `initial`, and the rest of the pattern is enumerated from there —
      // by ForEach, and by one plan per seed position that is reused
      // across every fact, seeded straight from the fact's row.
      for (size_t p = 0; p < pattern.size(); ++p) {
        std::vector<Atom> rest;
        for (size_t k = 0; k < pattern.size(); ++k) {
          if (k != p) rest.push_back(pattern[k]);
        }
        MatchPlan plan(facts, pattern, mappable);
        const uint32_t seed_atom = static_cast<uint32_t>(p);
        const std::vector<uint32_t>& facts_of_p =
            facts.ByPredicate(pattern[p].predicate);
        for (size_t f = 0; f < facts_of_p.size(); f += 3) {
          Substitution initial;
          const bool fits = Unify(pattern[p], facts.ToAtom(facts_of_p[f]),
                                  mappable, initial);
          ASSERT_EQ(plan.Seed(seed_atom, facts_of_p[f]), fits)
              << "seed " << seed;
          if (!fits) continue;
          ++seeded;
          expect_same(rest, mappable, initial, SIZE_MAX);
          expect_same(rest, mappable, initial, 2);
          for (size_t limit : {SIZE_MAX, size_t{2}}) {
            const Emitted want =
                Enumerate(facts, rest, mappable, initial, limit, true, vocab);
            const Emitted got = RunPlan(plan, facts, pattern, limit);
            ++plan_runs;
            ASSERT_EQ(got.complete, want.complete) << "seed " << seed;
            ASSERT_EQ(got.subs, want.subs) << "seed " << seed;
          }
          plan.Unseed(seed_atom);
          for (uint32_t s = 0; s < plan.slot_count(); ++s) {
            ASSERT_EQ(plan.slots()[s], kNoTerm) << "seed " << seed;
          }
        }
      }
    }
  }
  // The sweep must exercise every shape, not pass vacuously.
  EXPECT_GT(enumerations, 1000u);
  EXPECT_GT(emitted, 10000u);
  EXPECT_GT(seeded, 300u);
  EXPECT_EQ(plan_runs, 2 * seeded);
  EXPECT_GT(stopped, 100u);
}

// ----------------------------------------------------------- Containment --

TEST_F(HomTest, ContainmentViaHomomorphism) {
  // phi = E(x,y) contains psi = E(x,y),E(y,z): every structure satisfying
  // psi satisfies phi.
  ConjunctiveQuery phi = Query("q(x) :- E(x,y)");
  ConjunctiveQuery psi = Query("q(x) :- E(x,y), E(y,z)");
  EXPECT_TRUE(Contains(vocab_, phi, psi));
  EXPECT_FALSE(Contains(vocab_, psi, phi));
}

TEST_F(HomTest, ContainmentFixesAnswerVariables) {
  ConjunctiveQuery phi = Query("q(x) :- E(x,y)");
  ConjunctiveQuery psi = Query("q(x) :- E(y,x)");
  EXPECT_FALSE(Contains(vocab_, phi, psi));
  EXPECT_FALSE(Contains(vocab_, psi, phi));
}

TEST_F(HomTest, EquivalenceOfRenamedQueries) {
  ConjunctiveQuery a = Query("q(x) :- E(x,y), E(y,z)");
  ConjunctiveQuery b = Query("q(u) :- E(u,v), E(v,w)");
  EXPECT_TRUE(EquivalentQueries(vocab_, a, b));
}

uint64_t Enumerations() {
  obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  auto it = snapshot.counters.find("frontiers.hom.enumerations");
  return it == snapshot.counters.end() ? uint64_t{0} : it->second;
}

TEST_F(HomTest, ContainmentOfPredicateDisjointQueriesRunsNoSearch) {
  ConjunctiveQuery phi = Query("q(x) :- E(x,y), E(y,z)");
  ConjunctiveQuery psi = Query("q(x) :- F(x,y), G(y,x)");
  const uint64_t before = Enumerations();
  EXPECT_FALSE(Contains(vocab_, phi, psi));
  EXPECT_FALSE(Contains(vocab_, psi, phi));
  EXPECT_EQ(Enumerations() - before, 0u);
}

// ----------------------------------------------------------- Minimization --

TEST_F(HomTest, MinimizeWithDistinctPredicatesRunsNoSearch) {
  // No atom shares a predicate with another, so none can fold away.
  ConjunctiveQuery q = Query("q(x) :- E(x,y), F(y,z), G(z,w), H(w,x)");
  const uint64_t before = Enumerations();
  EXPECT_EQ(MinimizeQuery(vocab_, q).size(), 4u);
  EXPECT_EQ(Enumerations() - before, 0u);
}

TEST_F(HomTest, MinimizeFoldsRedundantAtoms) {
  // E(x,y), E(x,z) folds to E(x,y) (z maps to y).
  ConjunctiveQuery q = Query("q(x) :- E(x,y), E(x,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(EquivalentQueries(vocab_, q, m));
}

TEST_F(HomTest, MinimizeKeepsCoreIntact) {
  ConjunctiveQuery q = Query("q(x) :- E(x,y), E(y,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(HomTest, MinimizeRespectsAnswerVariables) {
  // With both endpoints free, the path of length 2 via distinct middles
  // cannot fold the two atoms into one.
  ConjunctiveQuery q = Query("q(x,z) :- E(x,y), E(y,z), E(x,w), E(w,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 2u) << "w folds onto y but the path remains";
}

TEST_F(HomTest, MinimizeDropsLiteralDuplicates) {
  ConjunctiveQuery q = Query("E(x,y), E(x,y)");
  EXPECT_EQ(MinimizeQuery(vocab_, q).size(), 1u);
}

TEST_F(HomTest, MinimizeTriangleVersusSquare) {
  // The 4-cycle with free vertices folds onto an edge path when answer
  // variables permit; the directed triangle is its own core.
  ConjunctiveQuery triangle = Query("E(x,y), E(y,z), E(z,x)");
  EXPECT_EQ(MinimizeQuery(vocab_, triangle).size(), 3u);
  ConjunctiveQuery two_loop = Query("E(x,y), E(y,x), E(u,v), E(v,u)");
  EXPECT_EQ(MinimizeQuery(vocab_, two_loop).size(), 2u);
}

// ------------------------------------------------------ Structure homs ----

TEST_F(HomTest, StructureHomomorphismFolding) {
  FactSet source = Facts("E(A,B), E(A,D)");
  FactSet target = Facts("E(A,B)");
  // B, D mappable; A fixed.
  auto hom = StructureHomomorphism(vocab_, source, target, {C("A")});
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(Apply(*hom, C("D")), C("B"));
  // Fixing D makes it impossible.
  EXPECT_FALSE(
      StructureHomomorphism(vocab_, source, target, {C("A"), C("D")})
          .has_value());
}

TEST_F(HomTest, HomomorphicImage) {
  FactSet source = Facts("E(A,B), E(B,D)");
  PredicateId e = vocab_.FindPredicate("E").value();
  Substitution sub = {{C("D"), C("B")}, {C("B"), C("A")}};
  FactSet image = HomomorphicImage(sub, source);
  EXPECT_EQ(image.size(), 2u);
  EXPECT_TRUE(image.Contains(Atom(e, {C("A"), C("A")})));
  EXPECT_TRUE(image.Contains(Atom(e, {C("A"), C("B")})));
}

TEST_F(HomTest, CoreRetractOfFoldablePath) {
  // E(A,B), E(A,D): D folds onto B; core has 1 atom.
  FactSet facts = Facts("E(A,B), E(A,D)");
  FactSet core = CoreRetract(vocab_, facts, {C("A")});
  EXPECT_EQ(core.size(), 1u);
}

TEST_F(HomTest, CoreRetractKeepsFixedTerms) {
  FactSet facts = Facts("E(A,B), E(A,D)");
  FactSet core = CoreRetract(vocab_, facts, {C("A"), C("B"), C("D")});
  EXPECT_EQ(core.size(), 2u) << "fixing both leaves nothing to fold";
}

TEST_F(HomTest, CoreRetractOfRigidStructure) {
  FactSet path = Facts("E(A,B), E(B,D)");
  FactSet core = CoreRetract(vocab_, path, {C("A")});
  // Nothing folds: D cannot map anywhere (B has no outgoing edge image
  // except D itself... folding D onto B would need E(B,B)).
  EXPECT_EQ(core.size(), 2u);
}

// ----------------------------------------------------------- Model check --

TEST_F(HomTest, ModelCheckTransitivity) {
  Theory t = ParseT("E(x,y), E(y,z) -> E(x,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("E(A,B), E(B,D)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("E(A,B), E(B,D), E(A,D)"), t));
}

TEST_F(HomTest, ModelCheckExistentialHead) {
  Theory t = ParseT("Human(y) -> exists z . Mother(y,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("Human(Abel)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("Human(Abel), Mother(Abel,Eve)"), t));
}

TEST_F(HomTest, ModelCheckDomainVariableRule) {
  // forall x (true -> exists z R(x,z)): every domain element needs an
  // R-successor.
  Theory t = ParseT("true -> exists z . R(x,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("R(A,B)"), t))
      << "B lacks a successor";
  EXPECT_TRUE(IsModelOf(vocab_, Facts("R(A,B), R(B,B)"), t));
}

TEST_F(HomTest, ModelCheckLoopRule) {
  Theory t = ParseT("true -> exists x . R(x,x)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("R(A,B)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("R(A,A)"), t));
}

TEST_F(HomTest, FindViolationReportsRule) {
  Theory t = ParseT("E(x,y), E(y,z) -> E(x,z)");
  auto violation = FindViolation(vocab_, Facts("E(A,B), E(B,D)"), t);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule_index, 0u);
}

TEST_F(HomTest, EmptySetIsModelOfBodyRules) {
  Theory t = ParseT("E(x,y) -> exists z . E(y,z)");
  EXPECT_TRUE(IsModelOf(vocab_, FactSet(), t));
}

// AnswerTable::Sorted against a std::set oracle: the answers come out in
// std::vector's lexicographic order on unsigned TermIds, each once,
// whatever the insertion order.  The column kinds span the value ranges
// the sort has to handle: one value, a dense small range, a range that
// needs two byte digits, and one up to UINT32_MAX - 1 that needs all four.
enum class ColumnKind { kConstant, kDense, kMedium, kWide };

std::vector<std::vector<TermId>> MakeTuples(size_t width, size_t count,
                                            ColumnKind kind, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<TermId>> tuples(count, std::vector<TermId>(width));
  for (size_t c = 0; c < width; ++c) {
    // Wide tables put a dense column beside each wide one.
    const ColumnKind column = kind == ColumnKind::kWide && c % 2 == 1
                                  ? ColumnKind::kDense
                                  : kind;
    for (size_t i = 0; i < count; ++i) {
      TermId& t = tuples[i][c];
      switch (column) {
        case ColumnKind::kConstant: t = 7; break;
        case ColumnKind::kDense: t = 1000 + rng() % 40; break;
        case ColumnKind::kMedium: t = 300 + rng() % 5000; break;
        case ColumnKind::kWide:
          // The extremes first, so every table of two or more tuples has
          // max - min == UINT32_MAX - 1 in this column.
          t = i == 0   ? 0u
              : i == 1 ? UINT32_MAX - 1
                       : static_cast<TermId>(rng() % UINT32_MAX);
          break;
      }
    }
  }
  // Repeat every fifth tuple, so inserts of tuples already present are
  // interleaved with new ones.
  for (size_t i = 0; i < count; i += 5) tuples.push_back(tuples[i]);
  return tuples;
}

std::vector<std::vector<TermId>> SortedByTable(
    size_t width, const std::vector<std::vector<TermId>>& tuples) {
  AnswerTable table(width);
  std::set<std::vector<TermId>> seen;
  size_t wrong_inserts = 0;
  for (const std::vector<TermId>& tuple : tuples) {
    if (table.Insert(tuple.data()) != seen.insert(tuple).second ||
        !table.Contains(tuple.data())) {
      ++wrong_inserts;
    }
  }
  EXPECT_EQ(wrong_inserts, 0u);
  return table.Sorted();
}

TEST(AnswerTableTest, SortedMatchesSetOracle) {
  for (size_t width = 0; width <= 4; ++width) {
    for (size_t count : {0u, 1u, 2u, 53u, 50'000u}) {
      for (ColumnKind kind : {ColumnKind::kConstant, ColumnKind::kDense,
                              ColumnKind::kMedium, ColumnKind::kWide}) {
        SCOPED_TRACE(::testing::Message()
                     << "width " << width << " count " << count << " kind "
                     << static_cast<int>(kind));
        std::vector<std::vector<TermId>> tuples =
            MakeTuples(width, count, kind, static_cast<uint32_t>(count));
        const std::set<std::vector<TermId>> oracle(tuples.begin(),
                                                   tuples.end());
        const std::vector<std::vector<TermId>> expected(oracle.begin(),
                                                        oracle.end());
        EXPECT_EQ(SortedByTable(width, tuples), expected);
        // Two shuffled insertion orders give the same output.
        for (uint32_t shuffle_seed : {1u, 2u}) {
          std::mt19937 rng(shuffle_seed);
          std::shuffle(tuples.begin(), tuples.end(), rng);
          EXPECT_EQ(SortedByTable(width, tuples), expected);
        }
      }
    }
  }
}

}  // namespace
}  // namespace frontiers
