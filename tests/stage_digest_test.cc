// Golden stage digests: one 64-bit hash per (workload family, chase mode)
// over everything a chase run commits, in index order — every atom with its
// TermIds and depth, its derivations, every vocabulary term (names and
// Skolem structure), the per-round counters and the stop.  The parity
// suite compares the engine with itself, and the end-to-end digests
// hash sorted answers, so neither notices a change in atom order, TermId
// assignment or staging counts that every path shares.  These constants do.
//
// Every family also runs its semi-oblivious modes interrupted and resumed
// in a fresh vocabulary, the way a restarted process would; those runs must
// digest exactly like the uninterrupted ones.
//
// A mismatch means the chase's observable output moved.  That is only
// acceptable for a change that means to move it; such a change re-pins the
// constants and says why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "testing/generator.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& text) {
    Add(text.size());
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddDerivation(Digest& d, const Derivation& derivation) {
  d.Add(derivation.rule_index);
  d.Add(derivation.parents.size());
  for (uint32_t p : derivation.parents) d.Add(p);
}

void AddRun(Digest& d, const Vocabulary& vocab, const ChaseResult& result) {
  d.Add(static_cast<uint64_t>(result.stop));
  d.Add(result.complete_rounds);
  const std::vector<Atom> atoms = result.facts.ToAtoms();
  d.Add(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    d.Add(atoms[i].predicate);
    d.Add(atoms[i].args.size());
    for (TermId t : atoms[i].args) d.Add(t);
    d.Add(result.depth[i]);
    if (i < result.first_derivation.size()) {
      const std::optional<Derivation>& first = result.first_derivation[i];
      d.Add(first.has_value() ? 1 : 0);
      if (first.has_value()) AddDerivation(d, *first);
    }
    if (i < result.all_derivations.size()) {
      d.Add(result.all_derivations[i].size());
      for (const Derivation& each : result.all_derivations[i]) {
        AddDerivation(d, each);
      }
    }
  }
  d.Add(vocab.NumTerms());
  for (TermId t = 0; t < vocab.NumTerms(); ++t) {
    d.Add(static_cast<uint64_t>(vocab.Kind(t)));
    if (!vocab.IsSkolem(t)) {
      d.Add(vocab.TermName(t));
      continue;
    }
    d.Add(vocab.SkolemFnSignature(vocab.SkolemFn(t)));
    for (TermId arg : vocab.SkolemArgs(t)) d.Add(arg);
  }
  d.Add(result.stats.rounds.size());
  for (const ChaseRoundStats& round : result.stats.rounds) {
    d.Add(round.matches);
    d.Add(round.staged);
    d.Add(round.deduped);
    d.Add(round.preempted);
    d.Add(round.atoms_inserted);
  }
}

struct Mode {
  const char* name;
  ChaseOptions options;
  // Runs without a byte budget: their digests do not depend on how the
  // ledger counts bytes, only on what the chase commits.
  bool budget_free = false;
  // Also run interrupted and resumed (AddResumedRun), digesting like the
  // uninterrupted runs.
  bool resumed = false;
};

// Every budgeted run carries a byte budget, stepped by the run's index
// within its family so that some runs of every family stop on it and some
// reach their fixpoint or round budget.
size_t ByteBudget(const Mode& mode, uint64_t run) {
  return mode.budget_free ? 0 : (8 + 3 * (run % 8)) * 1024;
}

std::vector<Mode> Modes(uint32_t max_rounds) {
  ChaseOptions base;
  base.max_rounds = max_rounds;
  base.max_atoms = 20'000;
  std::vector<Mode> modes;
  modes.push_back({"semi-oblivious", base, false, true});
  ChaseOptions naive = base;
  naive.semi_naive = false;
  modes.push_back({"naive", naive});
  ChaseOptions provenance = base;
  provenance.track_provenance = true;
  modes.push_back({"provenance", provenance});
  ChaseOptions all = base;
  all.record_all_derivations = true;
  modes.push_back({"all-derivations", all});
  ChaseOptions restricted = provenance;
  restricted.variant = ChaseVariant::kRestricted;
  modes.push_back({"restricted", restricted});
  ChaseOptions threaded = provenance;
  threaded.threads = 4;
  modes.push_back({"threads=4", threaded});
  modes.push_back({"semi-oblivious, no byte budget", base, true, true});
  modes.push_back({"provenance, no byte budget", provenance, true});
  return modes;
}

// One family's digest per mode, the digest of each resumed mode's resumed
// runs (0 for the other modes), and how many of its budgeted runs hit the
// byte budget.
struct FamilyDigests {
  std::vector<uint64_t> digests;
  std::vector<uint64_t> resumed;
  // Resumed runs that went on to execute at least one round.
  size_t resumed_rounds = 0;
  size_t runs = 0;
  size_t byte_budget_stops = 0;
};

// A theory and an instance, built into a given vocabulary.
struct Workload {
  Theory theory;
  FactSet db;
};

// The round after which a resumed run is interrupted.
constexpr uint32_t kInterruptRound = 1;

// Adds the run of `options` over `build`'s workload to `d`, reached the way
// a restarted process reaches it: a round budget interrupts the run after
// kInterruptRound, its snapshot goes through the wire format, and a fresh
// vocabulary (the workload rebuilt, then the snapshot's vocabulary
// replayed) resumes it under `options`.  A run that stops on the atom
// budget by then is not resumable and is added as it stands, since the
// uninterrupted run stops in the same place.  Returns true if the resumed
// run executed at least one round.
template <typename Build>
bool AddResumedRun(Digest& d, const Build& build, const ChaseOptions& options) {
  std::string wire;
  {
    ChaseOptions interrupted = options;
    interrupted.max_rounds = std::min(options.max_rounds, kInterruptRound);
    Vocabulary vocab;
    const Workload w = build(vocab);
    const ChaseEngine engine(vocab, w.theory);
    const ChaseResult result = engine.Run(w.db, interrupted);
    if (!IsResumableStop(result.stop)) {
      AddRun(d, vocab, result);
      return false;
    }
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, w.theory, result, interrupted);
    EXPECT_TRUE(snapshot.ok()) << snapshot.message();
    if (!snapshot.ok()) return false;
    wire = EncodeSnapshot(snapshot.value());
  }
  Result<ChaseSnapshot> snapshot = DecodeSnapshot(wire);
  EXPECT_TRUE(snapshot.ok()) << snapshot.message();
  if (!snapshot.ok()) return false;
  Vocabulary vocab;
  const Workload w = build(vocab);
  const Status replayed = ApplySnapshotVocabulary(snapshot.value(), vocab);
  EXPECT_TRUE(replayed.ok()) << replayed.message();
  if (!replayed.ok()) return false;
  const ChaseEngine engine(vocab, w.theory);
  const ChaseResult result = engine.Resume(snapshot.value(), options);
  AddRun(d, vocab, result);
  return result.stats.rounds.size() > snapshot.value().round_stats.size();
}

// A catalog workload: theory, instance and round budget, built into a
// fresh vocabulary.
struct CatalogCase {
  const char* name;
  Theory (*theory)(Vocabulary&);
  FactSet (*instance)(Vocabulary&);
  uint32_t max_rounds;
};

FactSet GPath4(Vocabulary& vocab) { return EdgePath(vocab, "G", 4, "a"); }
FactSet I1Path4(Vocabulary& vocab) {
  return EdgePath(vocab, TdKPredicateName(1), 4, "a");
}
Theory TdK3(Vocabulary& vocab) { return TdKTheory(vocab, 3); }
FactSet Star3(Vocabulary& vocab) { return Star39Instance(vocab, 3); }
FactSet ECycle4(Vocabulary& vocab) { return EdgeCycle(vocab, "E", 4, "a"); }

// Example 41's rule over a chain of E3 triangles sharing one colour, with
// the colour painted on the chain's first element.
FactSet Ex41Chain(Vocabulary& vocab) {
  const PredicateId e3 = vocab.AddPredicate("E3", 3);
  const PredicateId r = vocab.AddPredicate("R", 2);
  FactSet db;
  const TermId colour = vocab.Constant("c");
  for (uint32_t i = 0; i < 6; ++i) {
    db.Insert(Atom(e3, {PathConstant(vocab, "a", i),
                        PathConstant(vocab, "a", i + 1), colour}));
  }
  db.Insert(Atom(r, {PathConstant(vocab, "a", 0), colour}));
  return db;
}

// A join, an existential over the join's output, and a rule with both a
// body and a domain variable (re-enumerated naively every round).
Theory JoinWithDomainVar(Vocabulary& vocab) {
  Result<Theory> theory = ParseTheory(vocab,
                                      "E(x,y), E(y,z) -> E(x,z)\n"
                                      "E(x,y) -> exists z . F(y,z)\n"
                                      "F(x,y) -> G(x,w)\n",
                                      "join-domain");
  EXPECT_TRUE(theory.ok()) << theory.status().message();
  return theory.ok() ? theory.value() : Theory();
}
FactSet EPath4(Vocabulary& vocab) { return EdgePath(vocab, "E", 4, "a"); }

std::vector<CatalogCase> Catalog() {
  return {
      {"T_d", TdTheory, GPath4, 3},
      {"T_d^3", TdK3, I1Path4, 3},
      {"Ex39", StickyExample39Theory, Star3, 3},
      {"Ex41", Example41Theory, Ex41Chain, 6},
      {"Ex42", TcTheory, ECycle4, 3},
      {"join-domain", JoinWithDomainVar, EPath4, 4},
  };
}

constexpr uint64_t kGeneratedSeeds = 400;
constexpr uint32_t kGeneratedRounds = 8;

// Generated workloads of `theory_class`: the seeds below kGeneratedSeeds
// whose class it is (GenerateWorkload cycles the four classes by seed).
FamilyDigests GeneratedFamily(testing::TheoryClass theory_class) {
  const std::vector<Mode> modes = Modes(kGeneratedRounds);
  FamilyDigests out;
  for (const Mode& mode : modes) {
    Digest d;
    Digest resumed;
    for (uint64_t seed = 0; seed < kGeneratedSeeds; ++seed) {
      Vocabulary vocab;
      const testing::GeneratedWorkload w =
          testing::GenerateWorkload(vocab, seed);
      if (w.theory_class != theory_class) continue;
      ChaseOptions options = mode.options;
      // The family's runs are every fourth seed: stepping by the seed
      // would give each family only two of the eight budgets.
      options.max_bytes = ByteBudget(mode, seed / 4);
      const ChaseEngine engine(vocab, w.theory);
      const ChaseResult result = engine.Run(w.instance, options);
      if (!mode.budget_free) {
        ++out.runs;
        if (result.stop == ChaseStop::kByteBudget) ++out.byte_budget_stops;
      }
      AddRun(d, vocab, result);
      if (mode.resumed) {
        out.resumed_rounds += AddResumedRun(
            resumed,
            [seed](Vocabulary& fresh) {
              testing::GeneratedWorkload g =
                  testing::GenerateWorkload(fresh, seed);
              return Workload{std::move(g.theory), std::move(g.instance)};
            },
            options);
      }
    }
    out.digests.push_back(d.value());
    out.resumed.push_back(mode.resumed ? resumed.value() : 0);
  }
  return out;
}

FamilyDigests CatalogFamily() {
  FamilyDigests out;
  bool td_resumed_round = false;
  const std::vector<Mode> modes = Modes(0);
  for (const Mode& mode : modes) {
    Digest d;
    Digest resumed;
    const std::vector<CatalogCase> catalog = Catalog();
    for (size_t i = 0; i < catalog.size(); ++i) {
      const CatalogCase& c = catalog[i];
      Vocabulary vocab;
      const Theory theory = c.theory(vocab);
      const FactSet db = c.instance(vocab);
      ChaseOptions options = mode.options;
      options.max_rounds = c.max_rounds;
      options.max_bytes = ByteBudget(mode, i);
      const ChaseEngine engine(vocab, theory);
      const ChaseResult result = engine.Run(db, options);
      if (!mode.budget_free) {
        ++out.runs;
        if (result.stop == ChaseStop::kByteBudget) ++out.byte_budget_stops;
      }
      AddRun(d, vocab, result);
      if (mode.resumed) {
        const bool resumed_round = AddResumedRun(
            resumed,
            [&c](Vocabulary& fresh) {
              Theory theory = c.theory(fresh);
              return Workload{std::move(theory), c.instance(fresh)};
            },
            options);
        out.resumed_rounds += resumed_round;
        if (std::string_view(c.name) == "T_d") {
          td_resumed_round |= resumed_round;
        }
      }
    }
    out.digests.push_back(d.value());
    out.resumed.push_back(mode.resumed ? resumed.value() : 0);
  }
  // T_d's body-free (pins) rules enumerate the active domain in every
  // round, and a resumed round stages only the tuples with a term the
  // previous round added.
  EXPECT_TRUE(td_resumed_round) << "T_d never resumed into a round";
  return out;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Pinned digests, one per mode in Modes() order: semi-oblivious, naive,
// provenance, all-derivations, restricted, threads=4, then the two
// budget-free modes.  A change to how the ledger counts bytes may move
// where a budgeted run stops, and so its pin; it never moves the last two.
void ExpectPinned(const char* family, const FamilyDigests& actual,
                  const std::vector<uint64_t>& pinned) {
  const std::vector<Mode> modes = Modes(0);
  ASSERT_EQ(actual.digests.size(), pinned.size()) << family;
  for (size_t m = 0; m < pinned.size(); ++m) {
    EXPECT_EQ(Hex(actual.digests[m]), Hex(pinned[m]))
        << family << " under " << modes[m].name;
  }
  // threads=4 runs the provenance mode's options on four workers: the
  // parallel pipeline's output is byte-identical by contract.
  EXPECT_EQ(actual.digests[5], actual.digests[2]) << family;
  // Interrupting and resuming a run never changes what it commits.
  for (size_t m = 0; m < modes.size(); ++m) {
    if (!modes[m].resumed) continue;
    EXPECT_EQ(Hex(actual.resumed[m]), Hex(actual.digests[m]))
        << family << " under " << modes[m].name << ", resumed after round "
        << kInterruptRound;
  }
  EXPECT_GT(actual.resumed_rounds, 0u)
      << family << ": no resumed run executed a round";
  EXPECT_GT(actual.byte_budget_stops, 0u)
      << family << ": no run stopped on the byte budget";
  EXPECT_LT(actual.byte_budget_stops, actual.runs)
      << family << ": every run stopped on the byte budget";
}

TEST(StageDigest, GeneratedLinear) {
  ExpectPinned("linear", GeneratedFamily(testing::TheoryClass::kLinear),
               {0x349c0d72a7cf1117ull, 0x328528e66c078ec9ull,
                0x445bb0fcf4c26942ull, 0x02eab5c394ae0014ull,
                0xaf30647cdbfe04c1ull, 0x445bb0fcf4c26942ull,
                0x349c0d72a7cf1117ull, 0x3f3a5ebab4d293f8ull});
}

TEST(StageDigest, GeneratedGuarded) {
  ExpectPinned("guarded", GeneratedFamily(testing::TheoryClass::kGuarded),
               {0x616a0ee90d4e4093ull, 0xfc93300ac74deb0cull,
                0xe714337510f8417dull, 0xde6dd1b69b43b692ull,
                0x6cdb69a17933ac81ull, 0xe714337510f8417dull,
                0x879d03071dd6c02eull, 0x2df438cc6e7880b4ull});
}

TEST(StageDigest, GeneratedSticky) {
  ExpectPinned("sticky", GeneratedFamily(testing::TheoryClass::kSticky),
               {0x51009994f6d5a1f9ull, 0x42e0890d94a540c7ull,
                0xe96da938659c8199ull, 0x39ea4476dbee35f8ull,
                0xbcec44cec57be1e5ull, 0xe96da938659c8199ull,
                0x40ca00c5d306d871ull, 0xf3cc3a462b64780aull});
}

TEST(StageDigest, GeneratedDatalog) {
  ExpectPinned("datalog", GeneratedFamily(testing::TheoryClass::kDatalog),
               {0xc35baf4b665ef28cull, 0x7c881918650a3637ull,
                0xd32dfc0fa7e6234full, 0x66befdbb1e494594ull,
                0xd705cfdb00a61bbfull, 0xd32dfc0fa7e6234full,
                0x7f96180625696f31ull, 0x361a2de7fef63673ull});
}

TEST(StageDigest, CatalogTheories) {
  ExpectPinned("catalog", CatalogFamily(),
               {0x255bf8f9b6720ddeull, 0x54947ac15a3c8f1bull,
                0x8c2deeb187db06bdull, 0xf668de2684027c85ull,
                0x09080bcd0737bb2full, 0x8c2deeb187db06bdull,
                0x1a429f3b9166e9ceull, 0x0f4fb4961050ca49ull});
}

}  // namespace
}  // namespace frontiers
