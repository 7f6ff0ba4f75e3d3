#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "base/check.h"
#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "hom/matcher.h"
#include "testing/generator.h"
#include "tgd/parser.h"

namespace frontiers::e2e {

namespace {

using testing::SplitMix64;
using testing::TheoryClass;

// Seed of every workload's corpus.  It is fixed so that the theories, whose
// structure sets most of a task's cost, are the same in every run: seeds
// vary the data and the CQs (README.md, "Task selection").
constexpr uint64_t kCorpusSeed = 0x636f72707573;  // "corpus"

// Homomorphisms of `pattern` (its variables mappable) into `facts`;
// counting stops past `cap`.  The count is a property of the inputs, so it
// sizes a task the same way under any correct engine.  A disconnected
// pattern's count is the product of its connected components' counts, which
// avoids re-enumerating one component per match of another.
uint64_t HomCount(const Vocabulary& vocab, const std::vector<Atom>& pattern,
                  const FactSet& facts, uint64_t cap) {
  // Union-find over atoms: atoms sharing a variable are joined.
  std::vector<size_t> parent(pattern.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::unordered_map<TermId, size_t> first_atom;
  for (size_t i = 0; i < pattern.size(); ++i) {
    for (TermId t : pattern[i].args) {
      if (!vocab.IsVariable(t)) continue;
      const auto [it, inserted] = first_atom.emplace(t, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  uint64_t product = 1;
  const Matcher matcher(vocab, facts);
  for (size_t root = 0; root < pattern.size(); ++root) {
    if (find(root) != root) continue;
    std::vector<Atom> component;
    std::unordered_set<TermId> vars;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (find(i) != root) continue;
      component.push_back(pattern[i]);
      for (TermId t : pattern[i].args) {
        if (vocab.IsVariable(t)) vars.insert(t);
      }
    }
    // Enough matches of this component to push the product past `cap`.
    const uint64_t limit = cap / product + 1;
    uint64_t count = 0;
    matcher.ForEach(component, vars, {}, [&](const Substitution&) {
      return ++count < limit;
    });
    if (count == 0) return 0;
    if (count >= limit) return cap + 1;
    product *= count;
  }
  return product;
}

// A theory with the vocabulary it lives in, and its instance.
struct Inputs {
  Vocabulary vocab;
  Theory theory;
  std::vector<PredicateId> signature;
  FactSet instance;
};

// Generates a corpus theory and a reference instance into `in`.
void GenerateTheoryAndInstance(SplitMix64& rng,
                               const testing::TheoryGenOptions& theory_options,
                               const testing::InstanceGenOptions& instance,
                               Inputs* in, TaskText* task) {
  in->theory = testing::GenerateTheory(in->vocab, rng.Next(), theory_options);
  in->signature = testing::TheorySignature(in->theory);
  in->instance = testing::GenerateInstance(in->vocab, in->signature,
                                           rng.Next(), instance);
  task->theory = TheoryToString(in->vocab, in->theory);
  task->facts = testing::FactsToText(in->vocab, in->instance);
}

// Parses the corpus theory `theory` into `in` and draws a fresh instance
// for it; returns the instance as DSL text.
std::string RedrawInstance(SplitMix64& rng,
                           const testing::InstanceGenOptions& options,
                           const std::string& theory, Inputs* in) {
  Result<Theory> parsed = ParseTheory(in->vocab, theory);
  FRONTIERS_CHECK(parsed.ok(), "corpus theory does not parse");
  in->theory = std::move(parsed).value();
  in->signature = testing::TheorySignature(in->theory);
  in->instance =
      testing::GenerateInstance(in->vocab, in->signature, rng.Next(), options);
  return testing::FactsToText(in->vocab, in->instance);
}

// Draws up to kQueryDraws CQs (only connected ones when `connected`) and
// keeps the kQueriesPerTask whose homomorphism counts into `facts` are
// closest to `target`, so a task's evaluation work is set by design rather
// than by the luck of the draw.  False when too few CQs match at all.
constexpr uint32_t kQueryDraws = 24;

bool PickQueries(Inputs& in, const FactSet& facts, SplitMix64& rng,
                 double target, bool connected, TaskText* task) {
  // (distance from the target, draw index, text)
  std::vector<std::tuple<double, uint32_t, std::string>> drawn;
  const uint64_t cap = static_cast<uint64_t>(4 * target);
  for (uint32_t d = 0; d < kQueryDraws; ++d) {
    const ConjunctiveQuery query =
        testing::GenerateQuery(in.vocab, in.signature, rng.Next());
    if (connected && !IsConnected(in.vocab, query)) continue;
    const uint64_t homs = HomCount(in.vocab, query.atoms, facts, cap);
    if (homs == 0 || homs > cap) continue;
    drawn.emplace_back(std::abs(std::log(static_cast<double>(homs) / target)),
                       d, QueryToString(in.vocab, query));
  }
  if (drawn.size() < kQueriesPerTask) return false;
  std::sort(drawn.begin(), drawn.end());
  task->queries.clear();
  for (uint32_t q = 0; q < kQueriesPerTask; ++q) {
    task->queries.push_back(std::move(std::get<2>(drawn[q])));
  }
  return true;
}

// Chases `in.instance` as the chase route does; false when the atom cap
// stopped it.
bool CapChase(Inputs& in, uint32_t max_rounds, size_t max_atoms,
              ChaseResult* result) {
  ChaseOptions options;
  options.max_rounds = max_rounds;
  options.max_atoms = max_atoms;
  *result = ChaseEngine(in.vocab, in.theory).Run(in.instance, options);
  return result->stop != ChaseStop::kAtomBudget;
}

// --- linear-chase ----------------------------------------------------------
// Linear theories materialised over an instance, with CQs whose
// homomorphism counts into the corpus's materialisation are near
// kLinearHomsTarget, so CQ evaluation is the largest cost.  The CQs are
// part of the corpus: evaluation cost follows the matcher's search, which
// the CQ's shape sets more than its count does, so seeds vary the instance
// only.  The CQs are not filtered for connectivity: most heavy CQs are
// products, and bounding their count bounds their cost (one CQ of an
// unbounded draw took 15.7 s of an 18.4 s pass).  Corpus size: atoms of the
// materialisation.
constexpr uint32_t kLinearRounds = 16;
constexpr size_t kLinearMaxAtoms = 100'000;
constexpr double kLinearHomsTarget = 16'000;

testing::InstanceGenOptions LinearInstance() {
  testing::InstanceGenOptions instance;
  instance.num_constants = 150;
  instance.num_facts = 1500;
  return instance;
}

bool DrawLinearChase(SplitMix64& rng, TaskText* task, double* size) {
  testing::TheoryGenOptions theory;
  theory.theory_class = TheoryClass::kLinear;
  theory.num_predicates = 8;
  theory.max_arity = 3;
  theory.num_rules = 12;
  theory.existential_chance = 2;
  Inputs in;
  GenerateTheoryAndInstance(rng, theory, LinearInstance(), &in, task);
  ChaseResult chase;
  if (!CapChase(in, kLinearRounds, kLinearMaxAtoms, &chase)) return false;
  *size = static_cast<double>(chase.facts.size());
  return PickQueries(in, chase.facts, rng, kLinearHomsTarget,
                     /*connected=*/false, task);
}

bool InstantiateLinearChase(SplitMix64& rng, double, TaskText* task) {
  Inputs in;
  task->facts = RedrawInstance(rng, LinearInstance(), task->theory, &in);
  ChaseResult chase;
  return CapChase(in, kLinearRounds, kLinearMaxAtoms, &chase);
}

// --- guarded-rewrite -------------------------------------------------------
// Guarded theories with CQs of two generated CQs joined on shared variable
// names, kept when all four CQs have complete rewritings, so the oracle can
// demand equal answers.  The corpus fixes the CQs as well, since rewriting
// never reads the instance; seeds draw the instance.  Candidates are
// rewritten under SmallRewritingBudget, so non-converging ones are dropped
// quickly.  Corpus size: atoms over all disjuncts of the four rewritings
// (Theorem 1's minimal UCQs, so fixed by the inputs).
testing::InstanceGenOptions GuardedInstance() {
  testing::InstanceGenOptions instance;
  instance.num_constants = 100;
  instance.num_facts = 600;
  return instance;
}

bool DrawGuardedRewrite(SplitMix64& rng, TaskText* task, double* size) {
  testing::TheoryGenOptions theory;
  theory.theory_class = TheoryClass::kGuarded;
  theory.num_predicates = 6;
  theory.num_rules = 8;
  theory.max_body_atoms = 3;
  Inputs in;
  GenerateTheoryAndInstance(rng, theory, GuardedInstance(), &in, task);
  const Rewriter rewriter(in.vocab, in.theory);
  double atoms = 0;
  for (uint32_t q = 0; q < kQueriesPerTask; ++q) {
    ConjunctiveQuery query;
    do {
      query = testing::GenerateQuery(in.vocab, in.signature, rng.Next());
      const ConjunctiveQuery more =
          testing::GenerateQuery(in.vocab, in.signature, rng.Next());
      query.atoms.insert(query.atoms.end(), more.atoms.begin(),
                         more.atoms.end());
    } while (!IsConnected(in.vocab, query));
    const RewritingResult rewriting =
        rewriter.Rewrite(query, SmallRewritingBudget());
    if (rewriting.status != RewritingStatus::kConverged) return false;
    for (const ConjunctiveQuery& d : rewriting.queries) atoms += d.size();
    task->queries.push_back(QueryToString(in.vocab, query));
  }
  *size = atoms;
  return true;
}

bool InstantiateGuardedRewrite(SplitMix64& rng, double, TaskText* task) {
  Inputs in;
  task->facts = RedrawInstance(rng, GuardedInstance(), task->theory, &in);
  return true;
}

// --- datalog-chase ---------------------------------------------------------
// Datalog theories with join bodies: the chase's match phase enumerates far
// more body matches than it yields new atoms.  Corpus size: body matches of
// all rules in the fixpoint, the work a semi-naive evaluation enumerates.
constexpr uint32_t kDatalogRounds = 16;
constexpr double kDatalogMatchesHi = 30'000;
constexpr double kDatalogHomsTarget = 1'000;

testing::InstanceGenOptions DatalogInstance() {
  testing::InstanceGenOptions instance;
  instance.num_constants = 100;
  instance.num_facts = 600;
  return instance;
}

// Body matches of every rule in `facts`; counting stops past `cap`.
uint64_t BodyMatches(const Inputs& in, const FactSet& facts, uint64_t cap) {
  uint64_t matches = 0;
  for (const Tgd& rule : in.theory.rules) {
    matches += HomCount(in.vocab, rule.body, facts,
                        cap - std::min(cap, matches));
    if (matches > cap) break;
  }
  return matches;
}

// The fixpoint's body matches, or cap + 1.  Round i+1 enumerates at most
// the body matches in stage i, so chasing one more round only while those
// stay under the cap bounds the work spent on inputs too large to keep.
uint64_t FixpointMatches(Inputs& in, uint64_t cap, ChaseResult* chase) {
  uint64_t matches = BodyMatches(in, in.instance, cap);
  const ChaseEngine engine(in.vocab, in.theory);
  for (uint32_t rounds = 1; matches <= cap; ++rounds) {
    ChaseOptions options;
    options.max_rounds = rounds;
    *chase = engine.Run(in.instance, options);
    matches = BodyMatches(in, chase->facts, cap);
    if (chase->Terminated() || rounds == kDatalogRounds) break;
  }
  return matches;
}

bool DrawDatalogChase(SplitMix64& rng, TaskText* task, double* size) {
  testing::TheoryGenOptions theory;
  theory.theory_class = TheoryClass::kDatalog;
  theory.num_predicates = 6;
  theory.num_rules = 8;
  theory.max_body_atoms = 3;
  Inputs in;
  GenerateTheoryAndInstance(rng, theory, DatalogInstance(), &in, task);
  const uint64_t cap = static_cast<uint64_t>(kDatalogMatchesHi);
  ChaseResult chase;
  const uint64_t matches = FixpointMatches(in, cap, &chase);
  *size = static_cast<double>(matches);
  return matches <= cap;
}

// Draws kDatalogInstanceDraws instances and keeps the one whose fixpoint
// work is closest to the corpus size: with the theory fixed, the data is
// what still moves a task's cost between seeds.
constexpr uint32_t kDatalogInstanceDraws = 3;

bool InstantiateDatalogChase(SplitMix64& rng, double size, TaskText* task) {
  const uint64_t cap = static_cast<uint64_t>(2 * kDatalogMatchesHi);
  double best = HUGE_VAL;
  TaskText kept;
  for (uint32_t d = 0; d < kDatalogInstanceDraws; ++d) {
    Inputs in;
    TaskText drawn;
    drawn.theory = task->theory;
    drawn.facts = RedrawInstance(rng, DatalogInstance(), task->theory, &in);
    ChaseResult chase;
    const uint64_t matches = FixpointMatches(in, cap, &chase);
    if (matches == 0 || matches > cap) continue;
    const double distance = std::abs(std::log(matches / size));
    if (distance >= best ||
        !PickQueries(in, chase.facts, rng, kDatalogHomsTarget,
                     /*connected=*/true, &drawn)) {
      continue;
    }
    best = distance;
    kept = std::move(drawn);
  }
  if (best == HUGE_VAL) return false;
  *task = std::move(kept);
  return true;
}

// --- sticky-fanout ---------------------------------------------------------
// Example 39 on the star with `colors` R-edges: every round multiplies the
// E4 atoms by the number of colors, so commit work grows as colors^round.
// Seeds draw the CQs, near a sixteenth of the chase's atoms in
// homomorphisms each, which keeps evaluation a small share.  Corpus size:
// colors, in [7, 12].
constexpr uint32_t kStickyRounds = 4;

bool DrawStickyFanout(SplitMix64& rng, TaskText* task, double* size) {
  Vocabulary vocab;
  const uint32_t colors = 7 + rng.Below(6);
  task->theory = TheoryToString(vocab, StickyExample39Theory(vocab));
  task->facts = testing::FactsToText(vocab, Star39Instance(vocab, colors));
  *size = colors;
  return true;
}

bool InstantiateStickyFanout(SplitMix64& rng, double, TaskText* task) {
  Inputs in;
  Result<Theory> theory = ParseTheory(in.vocab, task->theory);
  Result<FactSet> facts = ParseFacts(in.vocab, task->facts);
  FRONTIERS_CHECK(theory.ok() && facts.ok(), "corpus task does not parse");
  in.theory = std::move(theory).value();
  in.instance = std::move(facts).value();
  in.signature = testing::TheorySignature(in.theory);
  ChaseResult chase;
  return CapChase(in, kStickyRounds, SIZE_MAX, &chase) &&
         PickQueries(in, chase.facts, rng,
                     static_cast<double>(chase.facts.size()) / 16,
                     /*connected=*/true, task);
}

// The digests are the timed route's answers at kDefaultSeed with
// kDefaultTasks tasks; any change to task generation must re-pin them.
constexpr Workload kWorkloads[] = {
    {"linear-chase", Route::kChase, kLinearRounds, DrawLinearChase, 1'500,
     6'000, InstantiateLinearChase, 668686, 0x2e27dae09e96c186},
    {"guarded-rewrite", Route::kRewrite, 16, DrawGuardedRewrite, 12, 96,
     InstantiateGuardedRewrite, 3310, 0xd637bbd3bbd762f5},
    {"datalog-chase", Route::kChase, kDatalogRounds, DrawDatalogChase, 1'000,
     kDatalogMatchesHi, InstantiateDatalogChase, 41106, 0x2353fe7ec97885bb},
    {"sticky-fanout", Route::kChase, kStickyRounds, DrawStickyFanout, 6.5,
     12.5, InstantiateStickyFanout, 1505, 0xe72e250987cce57e},
};

// A corpus draws kPoolPerTask kept candidates per task (giving up after
// kDrawsPerTask draws per task) and picks one per target.
constexpr uint32_t kPoolPerTask = 2;
constexpr uint32_t kDrawsPerTask = 20;
// Fresh data for a corpus task is redrawn this often before a run gives up.
constexpr uint32_t kInstantiateAttempts = 16;

// Picks one pool entry per target, both sorted ascending, minimising the
// summed |log target - log size| over order-preserving matchings (dynamic
// programming over target i, pool entry j).  Returns pool indices.
std::vector<size_t> MatchTargets(const std::vector<double>& targets,
                                 const std::vector<double>& sizes) {
  const size_t n = targets.size();
  const size_t m = sizes.size();
  constexpr double kInf = 1e300;
  // cost[i][j]: best cost of matching targets [0, i) within pool [0, j).
  std::vector<std::vector<double>> cost(n + 1,
                                        std::vector<double>(m + 1, kInf));
  for (size_t j = 0; j <= m; ++j) cost[0][j] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = i; j <= m; ++j) {
      const double take = cost[i - 1][j - 1] +
                          std::abs(std::log(targets[i - 1] / sizes[j - 1]));
      cost[i][j] = std::min(cost[i][j - 1], take);
    }
  }
  std::vector<size_t> picked(n);
  for (size_t i = n, j = m; i > 0; --j) {
    if (cost[i][j] != cost[i][j - 1] || j == i) {
      picked[--i] = j - 1;
    }
  }
  return picked;
}

}  // namespace

RewritingOptions SmallRewritingBudget() {
  RewritingOptions options;
  options.max_queries = 30;
  options.max_atoms_per_query = 8;
  options.max_iterations = 100;
  return options;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

Selection SelectTasks(const Workload& workload, uint64_t seed,
                      uint32_t tasks) {
  Selection selection;
  std::vector<std::pair<double, TaskText>> pool;
  SplitMix64 corpus(kCorpusSeed);
  while (pool.size() < uint64_t{kPoolPerTask} * tasks &&
         selection.candidates < uint64_t{kDrawsPerTask} * tasks) {
    ++selection.candidates;
    SplitMix64 rng(corpus.Next());
    TaskText task;
    double size = 0.0;
    if (workload.draw(rng, &task, &size) && size > 0.0) {
      pool.emplace_back(size, std::move(task));
    }
  }
  if (pool.size() < tasks) return selection;
  // Stable: equal sizes keep draw order, so the selection is deterministic.
  std::stable_sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<double> sizes;
  for (const auto& entry : pool) sizes.push_back(entry.first);
  // Targets log-spaced over [size_lo, size_hi], one per task.
  std::vector<double> targets(tasks);
  for (uint32_t i = 0; i < tasks; ++i) {
    targets[i] = workload.size_lo *
                 std::pow(workload.size_hi / workload.size_lo,
                          (i + 0.5) / tasks);
  }
  SplitMix64 stream(seed);
  for (size_t j : MatchTargets(targets, sizes)) {
    TaskText task = std::move(pool[j].second);
    SplitMix64 rng(stream.Next());
    uint32_t attempt = 0;
    while (attempt < kInstantiateAttempts &&
           !workload.instantiate(rng, pool[j].first, &task)) {
      ++attempt;
    }
    if (attempt == kInstantiateAttempts) return selection;
    selection.sizes.push_back(pool[j].first);
    selection.tasks.push_back(std::move(task));
  }
  selection.complete = true;
  return selection;
}

}  // namespace frontiers::e2e
