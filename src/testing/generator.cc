#include "testing/generator.h"

#include <algorithm>
#include <unordered_set>

#include "base/check.h"
#include "testing/rng.h"
#include "tgd/classify.h"

namespace frontiers::testing {

namespace {

std::string NumberedName(const char* prefix, uint32_t i) {
  return std::string(prefix) + std::to_string(i);
}

// Declares the signature P0..P{n-1} with per-predicate arities drawn from
// [1, max_arity].  Names follow the DSL's constant convention (uppercase
// initial), so rendered theories re-parse with the same predicate ids.
std::vector<PredicateId> MakeSignature(Vocabulary& vocab, SplitMix64& rng,
                                       const TheoryGenOptions& options) {
  std::vector<PredicateId> preds;
  const uint32_t n = std::max(1u, options.num_predicates);
  preds.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t arity = 1 + rng.Below(std::max(1u, options.max_arity));
    preds.push_back(vocab.AddPredicate(NumberedName("P", i), arity));
  }
  return preds;
}

// Picks a head argument: an existing body variable, or (for classes with
// existentials) a fresh-or-reused existential variable.  `existentials`
// accumulates the rule's existential variables in first-use order, which is
// the declaration order MakeTgd and the DSL's `exists` clause preserve.
TermId PickHeadArg(Vocabulary& vocab, SplitMix64& rng,
                   const std::vector<TermId>& body_vars,
                   std::vector<TermId>* existentials, uint32_t ex_chance) {
  if (ex_chance > 0 && rng.Chance(ex_chance, 8)) {
    if (!existentials->empty() && rng.Chance(1, 2)) {
      return (*existentials)[rng.Below(
          static_cast<uint32_t>(existentials->size()))];
    }
    const TermId fresh = vocab.Variable(
        NumberedName("z", static_cast<uint32_t>(existentials->size())));
    existentials->push_back(fresh);
    return fresh;
  }
  return body_vars[rng.Below(static_cast<uint32_t>(body_vars.size()))];
}

// Distinct variables of `atoms` in first-occurrence order.
std::vector<TermId> DistinctVars(const std::vector<Atom>& atoms) {
  std::vector<TermId> vars;
  std::unordered_set<TermId> seen;
  for (const Atom& atom : atoms) {
    for (TermId t : atom.args) {
      if (seen.insert(t).second) vars.push_back(t);
    }
  }
  return vars;
}

Atom MakeHead(Vocabulary& vocab, SplitMix64& rng,
              const std::vector<PredicateId>& preds,
              const std::vector<TermId>& body_vars,
              std::vector<TermId>* existentials, uint32_t ex_chance) {
  const PredicateId pred =
      preds[rng.Below(static_cast<uint32_t>(preds.size()))];
  std::vector<TermId> args;
  const uint32_t arity = vocab.PredicateArity(pred);
  args.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    args.push_back(
        PickHeadArg(vocab, rng, body_vars, existentials, ex_chance));
  }
  return Atom(pred, std::move(args));
}

Tgd MakeRule(Vocabulary& vocab, SplitMix64& rng,
             const std::vector<PredicateId>& preds,
             const TheoryGenOptions& options, uint32_t rule_index) {
  const uint32_t num_preds = static_cast<uint32_t>(preds.size());
  const uint32_t max_body = std::max(1u, options.max_body_atoms);
  std::vector<Atom> body;
  switch (options.theory_class) {
    case TheoryClass::kLinear: {
      // One body atom; variable repetition across its positions is allowed
      // (it does not affect linearity).
      const PredicateId pred = preds[rng.Below(num_preds)];
      const uint32_t arity = vocab.PredicateArity(pred);
      std::vector<TermId> args;
      for (uint32_t i = 0; i < arity; ++i) {
        args.push_back(vocab.Variable(NumberedName("x", rng.Below(arity))));
      }
      body.emplace_back(pred, std::move(args));
      break;
    }
    case TheoryClass::kGuarded: {
      // The guard comes first and fixes the rule's variable pool; every
      // other body atom draws from that pool, so the guard contains all
      // body variables by construction.
      const PredicateId guard = preds[rng.Below(num_preds)];
      const uint32_t guard_arity = vocab.PredicateArity(guard);
      std::vector<TermId> guard_args;
      for (uint32_t i = 0; i < guard_arity; ++i) {
        guard_args.push_back(
            vocab.Variable(NumberedName("x", rng.Below(guard_arity))));
      }
      body.emplace_back(guard, std::move(guard_args));
      const std::vector<TermId> pool = DistinctVars(body);
      const uint32_t extra = rng.Below(max_body);
      for (uint32_t a = 0; a < extra; ++a) {
        const PredicateId pred = preds[rng.Below(num_preds)];
        std::vector<TermId> args;
        const uint32_t arity = vocab.PredicateArity(pred);
        for (uint32_t i = 0; i < arity; ++i) {
          args.push_back(
              pool[rng.Below(static_cast<uint32_t>(pool.size()))]);
        }
        body.emplace_back(pred, std::move(args));
      }
      break;
    }
    case TheoryClass::kSticky: {
      // Joinless body: every position gets a fresh variable, so no
      // variable occurs twice in the body and the sticky marking
      // condition is satisfied vacuously (IsSticky's final test only
      // inspects body-repeated variables).
      const uint32_t atoms = 1 + rng.Below(max_body);
      uint32_t next_var = 0;
      for (uint32_t a = 0; a < atoms; ++a) {
        const PredicateId pred = preds[rng.Below(num_preds)];
        std::vector<TermId> args;
        const uint32_t arity = vocab.PredicateArity(pred);
        for (uint32_t i = 0; i < arity; ++i) {
          args.push_back(vocab.Variable(NumberedName("x", next_var++)));
        }
        body.emplace_back(pred, std::move(args));
      }
      break;
    }
    case TheoryClass::kDatalog: {
      // Multi-atom bodies with joins, heads built purely from body
      // variables — no existentials anywhere.
      const uint32_t pool_size = 2 + rng.Below(3);
      const uint32_t atoms = 1 + rng.Below(max_body);
      for (uint32_t a = 0; a < atoms; ++a) {
        const PredicateId pred = preds[rng.Below(num_preds)];
        std::vector<TermId> args;
        const uint32_t arity = vocab.PredicateArity(pred);
        for (uint32_t i = 0; i < arity; ++i) {
          args.push_back(
              vocab.Variable(NumberedName("x", rng.Below(pool_size))));
        }
        body.emplace_back(pred, std::move(args));
      }
      break;
    }
  }
  const std::vector<TermId> body_vars = DistinctVars(body);
  FRONTIERS_CHECK(!body_vars.empty(),
                  "generated rule body must bind at least one variable");
  std::vector<TermId> existentials;
  const uint32_t ex_chance = options.theory_class == TheoryClass::kDatalog
                                 ? 0
                                 : options.existential_chance;
  Atom head =
      MakeHead(vocab, rng, preds, body_vars, &existentials, ex_chance);
  return MakeTgd(vocab, std::move(body), {std::move(head)},
                 std::move(existentials), NumberedName("r", rule_index));
}

}  // namespace

const char* TheoryClassName(TheoryClass c) {
  switch (c) {
    case TheoryClass::kLinear:
      return "linear";
    case TheoryClass::kGuarded:
      return "guarded";
    case TheoryClass::kSticky:
      return "sticky";
    case TheoryClass::kDatalog:
      return "datalog";
  }
  return "?";
}

Theory GenerateTheory(Vocabulary& vocab, uint64_t seed,
                      const TheoryGenOptions& options) {
  SplitMix64 rng(seed);
  Theory theory;
  theory.name = std::string("gen-") + TheoryClassName(options.theory_class) +
                "-" + std::to_string(seed);
  const std::vector<PredicateId> preds = MakeSignature(vocab, rng, options);
  const uint32_t num_rules = std::max(1u, options.num_rules);
  theory.rules.reserve(num_rules);
  for (uint32_t r = 0; r < num_rules; ++r) {
    theory.rules.push_back(MakeRule(vocab, rng, preds, options, r));
  }
#ifndef NDEBUG
  // Class membership is guaranteed by construction; re-check against the
  // real classifiers in debug builds so generator drift becomes an abort
  // in the first test run rather than a silent oracle gap.
  switch (options.theory_class) {
    case TheoryClass::kLinear:
      FRONTIERS_CHECK(IsLinear(theory), "generated theory is not linear");
      break;
    case TheoryClass::kGuarded:
      FRONTIERS_CHECK(IsGuarded(vocab, theory),
                      "generated theory is not guarded");
      break;
    case TheoryClass::kSticky:
      FRONTIERS_CHECK(IsSticky(vocab, theory),
                      "generated theory is not sticky");
      break;
    case TheoryClass::kDatalog:
      FRONTIERS_CHECK(IsDatalog(theory), "generated theory is not datalog");
      break;
  }
#endif
  return theory;
}

std::vector<PredicateId> TheorySignature(const Theory& theory) {
  std::vector<PredicateId> preds;
  std::unordered_set<PredicateId> seen;
  for (const Tgd& rule : theory.rules) {
    for (const Atom& atom : rule.body) {
      if (seen.insert(atom.predicate).second) preds.push_back(atom.predicate);
    }
    for (const Atom& atom : rule.head) {
      if (seen.insert(atom.predicate).second) preds.push_back(atom.predicate);
    }
  }
  std::sort(preds.begin(), preds.end());
  return preds;
}

FactSet GenerateInstance(Vocabulary& vocab,
                         const std::vector<PredicateId>& signature,
                         uint64_t seed, const InstanceGenOptions& options) {
  SplitMix64 rng(seed);
  FactSet facts;
  if (signature.empty()) return facts;
  const uint32_t num_constants = std::max(1u, options.num_constants);
  std::vector<TermId> constants;
  constants.reserve(num_constants);
  for (uint32_t i = 0; i < num_constants; ++i) {
    constants.push_back(vocab.Constant(NumberedName("C", i)));
  }
  for (uint32_t f = 0; f < options.num_facts; ++f) {
    // Both skew knobs short-circuit when unset so the default options
    // consume exactly the historical rng stream (seed stability).
    const bool dominant = options.dominant_predicate_chance > 0 &&
                          rng.Chance(options.dominant_predicate_chance, 8);
    const PredicateId pred =
        dominant
            ? signature.front()
            : signature[rng.Below(static_cast<uint32_t>(signature.size()))];
    std::vector<TermId> args;
    const uint32_t arity = vocab.PredicateArity(pred);
    args.reserve(arity);
    for (uint32_t i = 0; i < arity; ++i) {
      if (i == 0 && options.hub_chance > 0 &&
          rng.Chance(options.hub_chance, 8)) {
        args.push_back(constants.front());
        continue;
      }
      args.push_back(constants[rng.Below(num_constants)]);
    }
    facts.Insert(Atom(pred, std::move(args)));
  }
  return facts;
}

ConjunctiveQuery GenerateQuery(Vocabulary& vocab,
                               const std::vector<PredicateId>& signature,
                               uint64_t seed) {
  SplitMix64 rng(seed);
  ConjunctiveQuery query;
  if (signature.empty()) return query;
  // Query variables get their own name space (y...) so a rendered query
  // re-parses to the same TermIds regardless of what the theory interned.
  const uint32_t pool_size = 2 + rng.Below(3);
  const uint32_t num_atoms = 1 + rng.Below(2);
  for (uint32_t a = 0; a < num_atoms; ++a) {
    const PredicateId pred =
        signature[rng.Below(static_cast<uint32_t>(signature.size()))];
    std::vector<TermId> args;
    const uint32_t arity = vocab.PredicateArity(pred);
    args.reserve(arity);
    for (uint32_t i = 0; i < arity; ++i) {
      args.push_back(vocab.Variable(NumberedName("y", rng.Below(pool_size))));
    }
    query.atoms.emplace_back(pred, std::move(args));
  }
  const std::vector<TermId> used = DistinctVars(query.atoms);
  const uint32_t max_answers =
      std::min<uint32_t>(2, static_cast<uint32_t>(used.size()));
  const uint32_t num_answers = rng.Below(max_answers + 1);
  query.answer_vars.assign(used.begin(), used.begin() + num_answers);
  return query;
}

std::string FactsToText(const Vocabulary& vocab, const FactSet& facts) {
  std::string out;
  for (uint32_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out += ",\n";
    out += AtomToString(vocab, facts.ToAtom(i));
  }
  out += "\n";
  return out;
}

GeneratedWorkload GenerateWorkload(Vocabulary& vocab, uint64_t seed) {
  SplitMix64 rng(seed);
  GeneratedWorkload w;
  w.theory_class = kAllTheoryClasses[seed % 4];

  TheoryGenOptions theory_options;
  theory_options.theory_class = w.theory_class;
  theory_options.num_predicates = 3 + rng.Below(3);
  theory_options.max_arity = 2 + rng.Below(2);
  theory_options.num_rules = 2 + rng.Below(4);
  theory_options.max_body_atoms = 2 + rng.Below(2);
  w.theory = GenerateTheory(vocab, rng.Fork(1), theory_options);

  InstanceGenOptions instance_options;
  instance_options.num_constants = 3 + rng.Below(4);
  instance_options.num_facts = 6 + rng.Below(12);
  const std::vector<PredicateId> signature = TheorySignature(w.theory);
  w.instance = GenerateInstance(vocab, signature, rng.Fork(2),
                                instance_options);
  w.query = GenerateQuery(vocab, signature, rng.Fork(3));

  w.theory_text = TheoryToString(vocab, w.theory);
  w.facts_text = FactsToText(vocab, w.instance);
  w.query_text = QueryToString(vocab, w.query);
  return w;
}

}  // namespace frontiers::testing
