#ifndef FRONTIERS_TESTING_GENERATOR_H_
#define FRONTIERS_TESTING_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "tgd/conjunctive_query.h"
#include "tgd/tgd.h"

namespace frontiers::testing {

/// Seeded workload generator (DESIGN.md, "Torture subsystem").  Produces
/// theories inside each syntactic class the classifiers in tgd/classify.h
/// detect, plus instance families and queries over the same signature —
/// deterministically from a seed, and with every artifact round-trippable
/// through the DSL parser (TheoryToString / FactsToText / QueryToString
/// re-parse to the identical object), so any generated workload can be
/// dumped as a text repro and replayed.
///
/// All artifacts intern names into the given Vocabulary; because predicate
/// arities are drawn per seed, callers must use a *fresh* vocabulary per
/// seed (two seeds may give "P0" different arities).

/// The generated theory's target class.  Membership is guaranteed by
/// construction (and re-checked against the classifiers in debug builds):
///  - kLinear: every body has exactly one atom;
///  - kGuarded: every body contains a guard atom holding all body vars;
///  - kSticky: bodies are joinless (no variable occurs twice in a body),
///    which satisfies the sticky marking condition vacuously;
///  - kDatalog: no rule has existential variables.
enum class TheoryClass : uint8_t { kLinear, kGuarded, kSticky, kDatalog };

inline constexpr TheoryClass kAllTheoryClasses[] = {
    TheoryClass::kLinear, TheoryClass::kGuarded, TheoryClass::kSticky,
    TheoryClass::kDatalog};

/// Lowercase name ("linear", "guarded", "sticky", "datalog").
const char* TheoryClassName(TheoryClass c);

/// Knobs for theory generation.  Defaults give small theories whose chases
/// usually terminate within a modest round budget — the regime where the
/// differential oracle can compare certain answers.
struct TheoryGenOptions {
  TheoryClass theory_class = TheoryClass::kLinear;
  /// Relation symbols in the signature (named P0..P{n-1}).
  uint32_t num_predicates = 4;
  /// Arity of each predicate is drawn from [1, max_arity].
  uint32_t max_arity = 3;
  /// Rules in the theory (labelled r0..r{k-1}).
  uint32_t num_rules = 4;
  /// Body-size cap for the classes with multi-atom bodies.
  uint32_t max_body_atoms = 3;
  /// Chance (out of 8) that a head position holds an existential variable,
  /// for the classes that allow existentials.  Kept low by default so
  /// generated chases tend to reach fixpoints.
  uint32_t existential_chance = 2;
};

/// Knobs for instance generation.
struct InstanceGenOptions {
  /// Constants in the pool (named C0..C{n-1}).
  uint32_t num_constants = 6;
  /// Fact draws; duplicates collapse, so the instance may be smaller.
  uint32_t num_facts = 16;
  /// Chance (out of 8) that a fact's first argument is the hub constant
  /// C0: a high hub bias gives one term a long posting list and makes
  /// many rows agree on their first argument, the skewed blocks the batch
  /// insert oracle (columnar_test) and the matcher tests draw.  0
  /// (default) draws uniformly and keeps the rng stream of existing seeds
  /// unchanged.
  uint32_t hub_chance = 0;
  /// Chance (out of 8) that a fact uses the signature's first predicate
  /// instead of a uniform draw — the dominant-predicate skew.  0 (default)
  /// keeps existing seeds unchanged.
  uint32_t dominant_predicate_chance = 0;
};

/// Generates a theory of the requested class.  Deterministic in (seed,
/// options); the result always classifies into its target class and
/// round-trips through ParseTheory.
Theory GenerateTheory(Vocabulary& vocab, uint64_t seed,
                      const TheoryGenOptions& options);

/// The predicates used by a theory, in ascending id order.
std::vector<PredicateId> TheorySignature(const Theory& theory);

/// Generates an instance over `signature` (facts use only constants).
FactSet GenerateInstance(Vocabulary& vocab,
                         const std::vector<PredicateId>& signature,
                         uint64_t seed, const InstanceGenOptions& options);

/// Generates a small conjunctive query over `signature` with 0-2 answer
/// variables.  Round-trips through ParseQuery.
ConjunctiveQuery GenerateQuery(Vocabulary& vocab,
                               const std::vector<PredicateId>& signature,
                               uint64_t seed);

/// Renders an instance as DSL text (comma-separated atoms, one per line)
/// that ParseFacts accepts; the inverse of GenerateInstance's output for
/// repro files.  FactSet::ToString is *not* parseable — this is.
std::string FactsToText(const Vocabulary& vocab, const FactSet& facts);

/// A complete generated workload: theory + instance + query over one
/// vocabulary, plus their DSL renderings.
struct GeneratedWorkload {
  TheoryClass theory_class;
  Theory theory;
  FactSet instance;
  ConjunctiveQuery query;
  std::string theory_text;
  std::string facts_text;
  std::string query_text;
};

/// One-stop generation: derives the class and all sub-seeds from `seed`.
/// The vocabulary must be fresh.
GeneratedWorkload GenerateWorkload(Vocabulary& vocab, uint64_t seed);

}  // namespace frontiers::testing

#endif  // FRONTIERS_TESTING_GENERATOR_H_
