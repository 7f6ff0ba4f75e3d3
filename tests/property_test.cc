// Property-based suites (parameterized gtest): invariants of the chase,
// the matcher and the rewriter checked over sweeps of seeds, theories and
// instance families rather than hand-picked cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "hom/query_ops.h"
#include "hom/structure_ops.h"
#include "rewriting/rewriter.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// Catalog of small single-head theories used across the sweeps.
const char* TheoryText(const std::string& name) {
  if (name == "linear") return "E(x,y) -> exists z . E(y,z)";
  if (name == "two_step") {
    return "E(x,y) -> exists z . F(y,z)\nF(x,y) -> exists z . E(y,z)";
  }
  if (name == "datalog") return "E(x,y), E(y,z) -> E(x,z)";
  if (name == "symmetric") return "E(x,y) -> E(y,x)";
  if (name == "mixed") {
    return "E(x,y) -> E(y,x)\nE(x,y), E(y,z) -> exists w . F(z,w)";
  }
  return "";
}

// ---------------------------------------------------------------------
// Chase invariants over (theory, seed).
// ---------------------------------------------------------------------

class ChaseInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ChaseInvariantTest, StagesAreMonotone) {
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  ChaseResult result = engine.RunToDepth(db, 5);
  for (uint32_t i = 0; i < result.complete_rounds; ++i) {
    EXPECT_TRUE(result.PrefixAtDepth(i).IsSubsetOf(
        result.PrefixAtDepth(i + 1)))
        << name << " seed " << seed << " stage " << i;
  }
  EXPECT_TRUE(db.IsSubsetOf(result.facts));
}

TEST_P(ChaseInvariantTest, SemiNaiveEqualsNaive) {
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  ChaseOptions naive;
  naive.max_rounds = 4;
  naive.semi_naive = false;
  ChaseOptions delta;
  delta.max_rounds = 4;
  delta.semi_naive = true;
  ChaseResult a = engine.Run(db, naive);
  ChaseResult b = engine.Run(db, delta);
  ASSERT_TRUE(a.facts.SetEquals(b.facts)) << name << " seed " << seed;
  for (const Atom& atom : a.facts.ToAtoms()) {
    EXPECT_EQ(a.DepthOf(atom), b.DepthOf(atom));
  }
}

TEST_P(ChaseInvariantTest, SubInstanceChaseIsLiterallyContained) {
  // Observation 8 / the Skolem naming convention: F subset of D implies
  // Ch_i(F) subset of Ch_i(D), as literal atom sets.
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  if (db.size() < 2) return;
  ChaseResult full = engine.RunToDepth(db, 4);
  for (const FactSet& sub : SubsetsOfSize(db, db.size() - 1)) {
    ChaseResult partial = engine.RunToDepth(sub, 4);
    EXPECT_TRUE(
        partial.PrefixAtDepth(4).IsSubsetOf(full.PrefixAtDepth(4)))
        << name << " seed " << seed;
  }
}

TEST_P(ChaseInvariantTest, TerminatedChaseIsAModel) {
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 4, 5, seed);
  ChaseOptions options;
  options.max_rounds = 12;
  ChaseResult result = engine.Run(db, options);
  if (result.Terminated()) {
    EXPECT_TRUE(IsModelOf(vocab, result.facts, theory.value()))
        << name << " seed " << seed;
  }
}

TEST_P(ChaseInvariantTest, BirthAtomsAreConsistent) {
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  ChaseResult result = engine.RunToDepth(db, 4);
  for (TermId term = 0; term < vocab.NumTerms(); ++term) {
    const uint32_t atom_index = result.BirthAtom(term);
    if (atom_index == ChaseResult::kNoAtom) continue;
    EXPECT_TRUE(vocab.IsSkolem(term));
    EXPECT_TRUE(result.facts.ToAtom(atom_index).ContainsTerm(term));
    // The birth atom is the first atom (in depth order) mentioning term.
    uint32_t birth_depth = result.depth[atom_index];
    for (size_t i = 0; i < result.facts.size(); ++i) {
      if (result.facts.ToAtom(i).ContainsTerm(term)) {
        EXPECT_GE(result.depth[i], birth_depth);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaseInvariantTest,
    ::testing::Combine(::testing::Values("linear", "two_step", "datalog",
                                         "symmetric", "mixed"),
                       ::testing::Values(1, 2, 3, 7, 11, 23)),
    [](const ::testing::TestParamInfo<ChaseInvariantTest::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Rewriting invariants over (theory, seed).
// ---------------------------------------------------------------------

class RewritingInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(RewritingInvariantTest, AgreesWithChase) {
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  Rewriter rewriter(vocab, theory.value());
  Result<ConjunctiveQuery> query = ParseQuery(vocab, "E(x,y), E(y,z)");
  ASSERT_TRUE(query.ok());
  RewritingOptions options;
  options.max_iterations = 500;
  options.max_queries = 300;
  RewritingResult rew = rewriter.Rewrite(query.value(), options);
  if (rew.status != RewritingStatus::kConverged) {
    GTEST_SKIP() << "rewriting did not converge (non-BDD sweep member)";
  }
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  ChaseResult chase = engine.RunToDepth(db, 7);
  bool via_chase = HoldsBoolean(vocab, query.value(), chase.facts);
  bool via_rew = false;
  for (const ConjunctiveQuery& d : rew.queries) {
    if (HoldsBoolean(vocab, d, db)) via_rew = true;
  }
  EXPECT_EQ(via_chase, via_rew) << name << " seed " << seed;
}

TEST_P(RewritingInvariantTest, DisjunctsAreSound) {
  // Even without convergence, every produced disjunct must be *sound*:
  // D |= disjunct implies the chase satisfies the query.
  auto [name, seed] = GetParam();
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, TheoryText(name), name);
  ASSERT_TRUE(theory.ok());
  Rewriter rewriter(vocab, theory.value());
  Result<ConjunctiveQuery> query = ParseQuery(vocab, "E(x,y), E(y,z)");
  ASSERT_TRUE(query.ok());
  RewritingOptions options;
  options.max_iterations = 60;
  options.max_queries = 40;
  RewritingResult rew = rewriter.Rewrite(query.value(), options);
  ChaseEngine engine(vocab, theory.value());
  FactSet db = RandomBinaryInstance(vocab, {"E", "F"}, 5, 6, seed);
  ChaseResult chase = engine.RunToDepth(db, 8);
  for (const ConjunctiveQuery& d : rew.queries) {
    if (HoldsBoolean(vocab, d, db)) {
      EXPECT_TRUE(HoldsBoolean(vocab, query.value(), chase.facts))
          << name << " seed " << seed << " disjunct "
          << QueryToString(vocab, d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RewritingInvariantTest,
    ::testing::Combine(::testing::Values("linear", "two_step", "symmetric",
                                         "datalog"),
                       ::testing::Values(1, 5, 9, 13)),
    [](const ::testing::TestParamInfo<RewritingInvariantTest::ParamType>&
           info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Query minimization invariants over seeds.
// ---------------------------------------------------------------------

class MinimizeInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimizeInvariantTest, MinimizationPreservesEquivalence) {
  uint64_t seed = GetParam();
  Vocabulary vocab;
  // Build a random query out of a random instance's atoms with the
  // constants read as variables.
  FactSet shape = RandomBinaryInstance(vocab, {"E", "F"}, 4, 6, seed);
  ConjunctiveQuery query;
  for (const Atom& atom : shape.ToAtoms()) {
    Atom variable_atom = atom;
    for (TermId& t : variable_atom.args) {
      t = vocab.Variable("v" + vocab.TermToString(t));
    }
    query.atoms.push_back(std::move(variable_atom));
  }
  if (query.atoms.empty()) return;
  ConjunctiveQuery minimized = MinimizeQuery(vocab, query);
  EXPECT_LE(minimized.size(), query.size());
  EXPECT_TRUE(EquivalentQueries(vocab, query, minimized)) << seed;
  // Idempotence.
  ConjunctiveQuery twice = MinimizeQuery(vocab, minimized);
  EXPECT_EQ(twice.size(), minimized.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinimizeInvariantTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Containment and minimization against brute force.
// ---------------------------------------------------------------------

// A random CQ over E/2 and U/1 with up to 4 atoms over variables v0..v3
// and constants A, B, and an answer tuple of `arity` positions, each a
// body variable (repeats allowed) or a constant.
ConjunctiveQuery RandomQuery(Vocabulary& vocab, std::mt19937_64& rng,
                             size_t arity) {
  const PredicateId preds[] = {vocab.AddPredicate("E", 2),
                               vocab.AddPredicate("U", 1)};
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  auto constant = [&]() { return vocab.Constant(pick(2) == 0 ? "A" : "B"); };
  ConjunctiveQuery q;
  std::vector<TermId> vars;
  for (size_t n = 1 + pick(4); q.atoms.size() < n;) {
    Atom atom;
    atom.predicate = preds[pick(2)];
    for (uint32_t i = 0; i < vocab.PredicateArity(atom.predicate); ++i) {
      TermId t = pick(5) == 0
                     ? constant()
                     : vocab.Variable("v" + std::to_string(pick(4)));
      if (vocab.IsVariable(t)) vars.push_back(t);
      atom.args.push_back(t);
    }
    q.atoms.push_back(std::move(atom));
  }
  for (size_t i = 0; i < arity; ++i) {
    q.answer_vars.push_back(vars.empty() || pick(4) == 0
                                ? constant()
                                : vars[pick(vars.size())]);
  }
  return q;
}

// Tries every map from `phi`'s variables to `psi`'s terms.
bool BruteForceContains(const Vocabulary& vocab, const ConjunctiveQuery& phi,
                        const ConjunctiveQuery& psi) {
  if (phi.answer_vars.size() != psi.answer_vars.size()) return false;
  const std::vector<TermId> vars = QueryVariables(vocab, phi);
  std::vector<TermId> range = psi.answer_vars;
  for (const Atom& atom : psi.atoms) {
    range.insert(range.end(), atom.args.begin(), atom.args.end());
  }
  std::vector<size_t> choice(vars.size(), 0);
  while (true) {
    Substitution h;
    for (size_t i = 0; i < vars.size(); ++i) h[vars[i]] = range[choice[i]];
    bool maps = true;
    for (size_t i = 0; i < phi.answer_vars.size(); ++i) {
      maps = maps && Apply(h, phi.answer_vars[i]) == psi.answer_vars[i];
    }
    for (const Atom& atom : phi.atoms) {
      maps = maps && std::find(psi.atoms.begin(), psi.atoms.end(),
                               Apply(h, atom)) != psi.atoms.end();
    }
    if (maps) return true;
    size_t i = 0;
    while (i < choice.size() && ++choice[i] == range.size()) choice[i++] = 0;
    if (i == choice.size()) return false;
  }
}

class ContainmentOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainmentOracleTest, ContainsAgreesWithBruteForce) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  Vocabulary vocab;
  for (int pair = 0; pair < 100; ++pair) {
    const size_t arity = rng() % 3;
    ConjunctiveQuery phi = RandomQuery(vocab, rng, arity);
    ConjunctiveQuery psi = RandomQuery(vocab, rng, arity);
    const bool expected = BruteForceContains(vocab, phi, psi);
    std::optional<Substitution> hom = QueryHomomorphism(vocab, phi, psi);
    ASSERT_EQ(hom.has_value(), expected)
        << "seed " << seed << " pair " << pair << ": "
        << QueryToString(vocab, phi) << " into " << QueryToString(vocab, psi);
    ASSERT_EQ(Contains(vocab, phi, psi), expected);
    if (!hom.has_value()) continue;
    for (const Atom& atom : phi.atoms) {
      EXPECT_NE(std::find(psi.atoms.begin(), psi.atoms.end(),
                          Apply(*hom, atom)),
                psi.atoms.end());
    }
    for (size_t i = 0; i < arity; ++i) {
      EXPECT_EQ(Apply(*hom, phi.answer_vars[i]), psi.answer_vars[i]);
    }
  }
}

TEST_P(ContainmentOracleTest, MinimizeFindsTheSmallestEquivalentSubquery) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  Vocabulary vocab;
  for (int round = 0; round < 50; ++round) {
    ConjunctiveQuery q = RandomQuery(vocab, rng, rng() % 3);
    // The core is a smallest sub-query equivalent to q.
    size_t smallest = q.size();
    for (size_t mask = 1; mask < (size_t{1} << q.size()); ++mask) {
      ConjunctiveQuery sub;
      sub.answer_vars = q.answer_vars;
      for (size_t i = 0; i < q.size(); ++i) {
        if (mask & (size_t{1} << i)) sub.atoms.push_back(q.atoms[i]);
      }
      if (sub.size() < smallest && BruteForceContains(vocab, q, sub)) {
        smallest = sub.size();
      }
    }
    ConjunctiveQuery minimized = MinimizeQuery(vocab, q);
    EXPECT_EQ(minimized.size(), smallest)
        << "seed " << seed << ": " << QueryToString(vocab, q) << " became "
        << QueryToString(vocab, minimized);
    EXPECT_TRUE(BruteForceContains(vocab, q, minimized));
    EXPECT_TRUE(BruteForceContains(vocab, minimized, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Core retract invariants.
// ---------------------------------------------------------------------

class CoreInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreInvariantTest, RetractIsSubstructureAndFixesDomain) {
  uint64_t seed = GetParam();
  Vocabulary vocab;
  FactSet facts = RandomBinaryInstance(vocab, {"E"}, 5, 8, seed);
  if (facts.empty()) return;
  // Fix the first two domain elements.
  std::unordered_set<TermId> fixed;
  for (TermId t : facts.Domain()) {
    fixed.insert(t);
    if (fixed.size() == 2) break;
  }
  FactSet core = CoreRetract(vocab, facts, fixed);
  EXPECT_TRUE(core.IsSubsetOf(facts)) << seed;
  for (TermId t : fixed) {
    EXPECT_TRUE(core.ContainsTerm(t)) << seed;
  }
  // The retract admits a homomorphism from the original fixing `fixed`.
  EXPECT_TRUE(
      StructureHomomorphism(vocab, facts, core, fixed).has_value())
      << seed;
  // And it is its own core: no further folding possible.
  FactSet again = CoreRetract(vocab, core, fixed);
  EXPECT_TRUE(again.SetEquals(core)) << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoreInvariantTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace frontiers
