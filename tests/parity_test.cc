// Parity suite for the parallel chase engine: on every catalog
// theory/instance pair, the chase must produce
//
//  * byte-identical results (atom order, depths, birth atoms, provenance,
//    stop reason) across worker-thread counts, for both evaluation modes
//    and both variants — the determinism guarantee of the parallel round
//    pipeline (DESIGN.md), and
//  * stage-identical results (same fact *sets*, same per-atom depths)
//    across naive vs semi-naive evaluation — both compute the same Ch_i;
//    their insertion order inside a round is not part of the contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "testing/generator.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

struct ParityCase {
  std::string name;
  Theory (*theory)(Vocabulary&);
  FactSet (*instance)(Vocabulary&);
  uint32_t max_rounds;
};

FactSet MotherInstance(Vocabulary& vocab) {
  FactSet db;
  db.Insert(Atom(vocab.AddPredicate("Human", 1), {vocab.Constant("Abel")}));
  return db;
}

FactSet EPath6(Vocabulary& vocab) { return EdgePath(vocab, "E", 6, "a"); }

FactSet ECycle4(Vocabulary& vocab) { return EdgeCycle(vocab, "E", 4, "a"); }

FactSet GPath4(Vocabulary& vocab) { return EdgePath(vocab, "G", 4, "a"); }

FactSet I1Path4(Vocabulary& vocab) {
  return EdgePath(vocab, TdKPredicateName(1), 4, "a");
}

FactSet Star3(Vocabulary& vocab) { return Star39Instance(vocab, 3); }

FactSet Paints3(Vocabulary& vocab) { return Example66Instance(vocab, 3); }

Theory TdK3(Vocabulary& vocab) { return TdKTheory(vocab, 3); }

std::vector<ParityCase> Catalog() {
  return {
      {"mother", MotherTheory, MotherInstance, 4},
      {"forward-path", ForwardPathTheory, EPath6, 4},
      {"exercise23", Exercise23Theory, EPath6, 3},
      {"tc-cycle", TcTheory, ECycle4, 3},
      {"sticky39", StickyExample39Theory, Star3, 3},
      {"example66", Example66Theory, Paints3, 3},
      {"td-grid", TdTheory, GPath4, 3},
      {"tdk3-tower", TdK3, I1Path4, 3},
  };
}

// Byte-identical comparison of two runs over the same vocabulary.
void ExpectIdentical(const ChaseResult& a, const ChaseResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.facts.ToAtoms(), b.facts.ToAtoms()) << label << ": atom order";
  EXPECT_EQ(a.depth, b.depth) << label << ": depths";
  EXPECT_EQ(a.stop, b.stop) << label << ": stop reason";
  EXPECT_EQ(a.complete_rounds, b.complete_rounds) << label << ": rounds";
  EXPECT_EQ(a.birth_atom, b.birth_atom) << label << ": birth atoms";
  ASSERT_EQ(a.first_derivation.size(), b.first_derivation.size()) << label;
  for (size_t i = 0; i < a.first_derivation.size(); ++i) {
    ASSERT_EQ(a.first_derivation[i].has_value(),
              b.first_derivation[i].has_value())
        << label << ": derivation presence of atom " << i;
    if (!a.first_derivation[i].has_value()) continue;
    EXPECT_EQ(a.first_derivation[i]->rule_index,
              b.first_derivation[i]->rule_index)
        << label << ": rule of atom " << i;
    EXPECT_EQ(a.first_derivation[i]->parents, b.first_derivation[i]->parents)
        << label << ": parents of atom " << i;
  }
}

// Same chase stages, order-insensitive (the naive/semi-naive contract).
void ExpectSameStages(const ChaseResult& a, const ChaseResult& b,
                      const std::string& label) {
  EXPECT_TRUE(a.facts.SetEquals(b.facts)) << label << ": fact sets differ";
  EXPECT_EQ(a.stop, b.stop) << label << ": stop reason";
  EXPECT_EQ(a.complete_rounds, b.complete_rounds) << label << ": rounds";
  for (const Atom& atom : a.facts.ToAtoms()) {
    EXPECT_EQ(a.DepthOf(atom), b.DepthOf(atom)) << label << ": atom depth";
  }
}

// Per-round counter parity (timings are excluded: they are measurements,
// not part of the determinism contract).
void ExpectSameRoundCounters(const ChaseStats& a, const ChaseStats& b,
                             const std::string& label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label << ": round count";
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].matches, b.rounds[i].matches)
        << label << ": matches of round " << i;
    EXPECT_EQ(a.rounds[i].staged, b.rounds[i].staged)
        << label << ": staged of round " << i;
    EXPECT_EQ(a.rounds[i].committed, b.rounds[i].committed)
        << label << ": committed of round " << i;
    EXPECT_EQ(a.rounds[i].preempted, b.rounds[i].preempted)
        << label << ": preempted of round " << i;
    EXPECT_EQ(a.rounds[i].deduped, b.rounds[i].deduped)
        << label << ": deduped of round " << i;
    EXPECT_EQ(a.rounds[i].atoms_inserted, b.rounds[i].atoms_inserted)
        << label << ": inserted of round " << i;
  }
}

// A budget-stopped result must be a well-formed chase stage: the facts are
// exactly Ch_{complete_rounds}, a prefix of the uninterrupted run.
void ExpectValidPartialResult(const ChaseResult& partial,
                              const ChaseResult& reference,
                              const std::string& label) {
  EXPECT_TRUE(IsResumableStop(partial.stop)) << label;
  ASSERT_EQ(partial.depth.size(), partial.facts.size()) << label;
  ASSERT_LE(partial.facts.size(), reference.facts.size()) << label;
  for (size_t i = 0; i < partial.facts.size(); ++i) {
    EXPECT_EQ(partial.facts.ToAtom(i), reference.facts.ToAtom(i))
        << label << ": atom " << i << " is not a prefix of the reference";
    EXPECT_EQ(partial.depth[i], reference.depth[i])
        << label << ": depth of atom " << i;
  }
  uint32_t last_depth = 0;
  for (size_t i = 0; i < partial.depth.size(); ++i) {
    EXPECT_GE(partial.depth[i], last_depth)
        << label << ": depths are not monotone at atom " << i;
    EXPECT_LE(partial.depth[i], partial.complete_rounds)
        << label << ": atom " << i << " is deeper than the complete rounds";
    last_depth = partial.depth[i];
  }
  EXPECT_TRUE(
      partial.PrefixAtDepth(partial.complete_rounds).SetEquals(partial.facts))
      << label << ": facts are not the stage at complete_rounds";
  EXPECT_EQ(partial.stats.rounds.size(), partial.complete_rounds)
      << label << ": a discarded in-flight round leaked into the stats";
}

ChaseOptions Options(const ParityCase& pc, bool semi_naive, uint32_t threads,
                     ChaseVariant variant) {
  ChaseOptions options;
  options.max_rounds = pc.max_rounds;
  options.max_atoms = 20'000;
  options.semi_naive = semi_naive;
  options.threads = threads;
  options.variant = variant;
  options.track_provenance = true;
  return options;
}

TEST(ParityTest, ThreadCountsAreByteIdentical) {
  for (const ParityCase& pc : Catalog()) {
    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
      for (bool semi_naive : {true, false}) {
        Vocabulary vocab;
        Theory theory = pc.theory(vocab);
        FactSet db = pc.instance(vocab);
        ChaseEngine engine(vocab, theory);
        ChaseResult one =
            engine.Run(db, Options(pc, semi_naive, 1, variant));
        for (uint32_t threads : {2u, 4u, 8u}) {
          ChaseResult many =
              engine.Run(db, Options(pc, semi_naive, threads, variant));
          ExpectIdentical(
              one, many,
              pc.name + (semi_naive ? "/semi-naive" : "/naive") +
                  (variant == ChaseVariant::kRestricted ? "/restricted"
                                                        : "/oblivious") +
                  "/threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(ParityTest, NaiveAndSemiNaiveComputeTheSameStages) {
  for (const ParityCase& pc : Catalog()) {
    for (uint32_t threads : {1u, 4u}) {
      Vocabulary vocab;
      Theory theory = pc.theory(vocab);
      FactSet db = pc.instance(vocab);
      ChaseEngine engine(vocab, theory);
      ChaseResult naive = engine.Run(
          db, Options(pc, false, threads, ChaseVariant::kSemiOblivious));
      ChaseResult delta = engine.Run(
          db, Options(pc, true, threads, ChaseVariant::kSemiOblivious));
      ExpectSameStages(naive, delta,
                       pc.name + "/threads=" + std::to_string(threads));
    }
  }
}

TEST(ParityTest, RestrictedVariantIsDeterministicUnderMergedCommitOrder) {
  // The restricted variant's commit-time preemption depends on commit
  // order; the merged order must make repeated multi-threaded runs (and
  // the sequential run) agree byte-for-byte.
  for (const ParityCase& pc : Catalog()) {
    Vocabulary vocab;
    Theory theory = pc.theory(vocab);
    FactSet db = pc.instance(vocab);
    ChaseEngine engine(vocab, theory);
    ChaseResult first =
        engine.Run(db, Options(pc, true, 4, ChaseVariant::kRestricted));
    ChaseResult second =
        engine.Run(db, Options(pc, true, 4, ChaseVariant::kRestricted));
    ChaseResult sequential =
        engine.Run(db, Options(pc, true, 1, ChaseVariant::kRestricted));
    ExpectIdentical(first, second, pc.name + "/repeat");
    ExpectIdentical(first, sequential, pc.name + "/vs-sequential");
  }
}

TEST(ParityTest, ThreadsZeroResolvesToAtLeastOneWorker) {
  // hardware_concurrency() may legally return 0; the resolved worker count
  // must never be 0 (a zero-worker pool would deadlock the round loop).
  EXPECT_GE(ResolveWorkerCount(0), 1u);
  EXPECT_EQ(ResolveWorkerCount(1), 1u);
  EXPECT_EQ(ResolveWorkerCount(7), 7u);
  const ParityCase pc = Catalog()[1];  // forward-path
  Vocabulary vocab;
  Theory theory = pc.theory(vocab);
  FactSet db = pc.instance(vocab);
  ChaseEngine engine(vocab, theory);
  ChaseResult one =
      engine.Run(db, Options(pc, true, 1, ChaseVariant::kSemiOblivious));
  ChaseResult all =
      engine.Run(db, Options(pc, true, 0, ChaseVariant::kSemiOblivious));
  ExpectIdentical(one, all, "threads=0");
}

// Wide rounds with the serial fallback off, so every round's match phase
// runs on the pool: a 1,500-atom input that each rule fires on once per
// atom, and generated hub-heavy, dominant-predicate instances of every
// theory class, where most rows agree on their predicate and first term.
TEST(ParityTest, WideAndSkewedRoundsAreByteIdenticalAcrossThreads) {
  const auto check = [](Vocabulary& vocab, const Theory& theory,
                        const FactSet& db, ChaseOptions options,
                        const std::string& name) {
    options.track_provenance = true;
    options.serial_round_threshold = 0;
    ChaseEngine engine(vocab, theory);
    options.threads = 1;
    const ChaseResult one = engine.Run(db, options);
    for (uint32_t threads : {2u, 4u, 8u}) {
      options.threads = threads;
      const ChaseResult many = engine.Run(db, options);
      const std::string label = name + "/threads=" + std::to_string(threads);
      ExpectIdentical(one, many, label);
      EXPECT_EQ(one.AppliedKeys(), many.AppliedKeys()) << label;
    }
  };
  {
    Vocabulary vocab;
    const Theory theory = ParseTheory(vocab,
                                      "P(x) -> exists z . Q(x,z)\n"
                                      "Q(x,z) -> R(z,x)\n"
                                      "R(z,x), P(x) -> S(z)",
                                      "wide")
                              .value();
    const PredicateId p = vocab.FindPredicate("P").value();
    FactSet db;
    for (uint32_t i = 0; i < 1500; ++i) {
      db.Insert(Atom(p, {vocab.Constant("C" + std::to_string(i))}));
    }
    ChaseOptions options;
    options.max_rounds = 6;
    check(vocab, theory, db, options, "wide");
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Vocabulary vocab;
    testing::TheoryGenOptions theory_options;
    theory_options.theory_class = testing::kAllTheoryClasses[seed % 4];
    const Theory theory = testing::GenerateTheory(vocab, seed, theory_options);
    testing::InstanceGenOptions instance_options;
    instance_options.num_constants = 8;
    instance_options.num_facts = 96;
    instance_options.hub_chance = 6;
    instance_options.dominant_predicate_chance = 6;
    const FactSet db = testing::GenerateInstance(
        vocab, testing::TheorySignature(theory), seed * 7919,
        instance_options);
    ChaseOptions options;
    options.max_rounds = 4;
    options.max_atoms = 20'000;
    check(vocab, theory, db, options, "skewed seed " + std::to_string(seed));
  }
}

// The serial-fallback heuristic (ChaseOptions::serial_round_threshold)
// changes only ChaseRoundStats::used_threads, never the result.
TEST(ParityTest, SerialFallbackIsPerfOnly) {
  Vocabulary vocab;
  const Theory theory =
      ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)", "rig").value();
  const FactSet db = ParseFacts(vocab, "E(A,B)").value();
  ChaseEngine engine(vocab, theory);

  ChaseOptions options;
  options.max_rounds = 8;
  options.threads = 4;
  // One staged application per round: far below the default threshold, so
  // every round must have fallen back to the calling thread.
  const ChaseResult fallback = engine.Run(db, options);
  for (const ChaseRoundStats& r : fallback.stats.rounds) {
    EXPECT_EQ(r.used_threads, 1u);
  }
  EXPECT_EQ(fallback.stats.ParallelRounds(), 0u);

  options.serial_round_threshold = 0;
  const ChaseResult forced = engine.Run(db, options);
  for (const ChaseRoundStats& r : forced.stats.rounds) {
    EXPECT_EQ(r.used_threads, 4u);
  }
  EXPECT_EQ(forced.stats.ParallelRounds(), forced.stats.rounds.size());
  EXPECT_EQ(forced.facts.ToAtoms(), fallback.facts.ToAtoms());
  EXPECT_EQ(forced.depth, fallback.depth);
}

TEST(ParityTest, RoundBudgetChainedResumeMatchesSingleRun) {
  // Deterministic interrupt: run one round, snapshot, resume to the full
  // budget — the result must be byte-identical to the uninterrupted run,
  // counters included, at every thread count.
  for (const ParityCase& pc : Catalog()) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      const std::string label =
          pc.name + "/round-resume/threads=" + std::to_string(threads);
      Vocabulary vocab;
      Theory theory = pc.theory(vocab);
      FactSet db = pc.instance(vocab);
      ChaseEngine engine(vocab, theory);
      ChaseResult reference =
          engine.Run(db, Options(pc, true, threads, ChaseVariant::kSemiOblivious));

      ChaseOptions slice =
          Options(pc, true, threads, ChaseVariant::kSemiOblivious);
      slice.max_rounds = 1;
      ChaseResult partial = engine.Run(db, slice);
      Result<ChaseSnapshot> snapshot =
          MakeSnapshot(vocab, theory, partial, slice);
      ASSERT_TRUE(snapshot.ok()) << label << ": " << snapshot.message();
      ChaseResult resumed = engine.Resume(
          snapshot.value(),
          Options(pc, true, threads, ChaseVariant::kSemiOblivious));
      ExpectIdentical(reference, resumed, label);
      ExpectSameRoundCounters(reference.stats, resumed.stats, label);
      EXPECT_EQ(reference.approx_bytes, resumed.approx_bytes) << label;
    }
  }
}

TEST(ParityTest, DeadlineStopYieldsValidPartialResultAndResumes) {
  const ParityCase pc = Catalog()[3];  // tc-cycle
  for (uint32_t threads : {1u, 4u}) {
    const std::string label =
        pc.name + "/deadline/threads=" + std::to_string(threads);
    Vocabulary vocab;
    Theory theory = pc.theory(vocab);
    FactSet db = pc.instance(vocab);
    ChaseEngine engine(vocab, theory);
    ChaseResult reference =
        engine.Run(db, Options(pc, true, threads, ChaseVariant::kSemiOblivious));

    ChaseOptions expired =
        Options(pc, true, threads, ChaseVariant::kSemiOblivious);
    expired.deadline_seconds = 1e-9;  // already elapsed at the first check
    ChaseResult partial = engine.Run(db, expired);
    EXPECT_EQ(partial.stop, ChaseStop::kDeadline) << label;
    ExpectValidPartialResult(partial, reference, label);

    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, theory, partial, expired);
    ASSERT_TRUE(snapshot.ok()) << label << ": " << snapshot.message();
    ChaseResult resumed = engine.Resume(
        snapshot.value(),
        Options(pc, true, threads, ChaseVariant::kSemiOblivious));
    ExpectIdentical(reference, resumed, label);
    ExpectSameRoundCounters(reference.stats, resumed.stats, label);
  }
}

TEST(ParityTest, ByteBudgetStopIsDeterministicAndResumes) {
  const ParityCase pc = Catalog()[6];  // td-grid: several growing rounds
  Vocabulary ref_vocab;
  Theory ref_theory = pc.theory(ref_vocab);
  FactSet ref_db = pc.instance(ref_vocab);
  ChaseEngine ref_engine(ref_vocab, ref_theory);
  ChaseResult reference = ref_engine.Run(
      ref_db, Options(pc, true, 1, ChaseVariant::kSemiOblivious));
  ASSERT_GT(reference.approx_bytes, 0u);
  const size_t budget = reference.approx_bytes / 2;

  ChaseResult first_partial;
  bool have_first = false;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string label =
        pc.name + "/byte-budget/threads=" + std::to_string(threads);
    Vocabulary vocab;
    Theory theory = pc.theory(vocab);
    FactSet db = pc.instance(vocab);
    ChaseEngine engine(vocab, theory);
    ChaseOptions capped = Options(pc, true, threads, ChaseVariant::kSemiOblivious);
    capped.max_bytes = budget;
    ChaseResult partial = engine.Run(db, capped);
    EXPECT_EQ(partial.stop, ChaseStop::kByteBudget) << label;
    EXPECT_LT(partial.complete_rounds, reference.complete_rounds) << label;
    ExpectValidPartialResult(partial, reference, label);
    if (!have_first) {
      first_partial = partial;
      have_first = true;
    } else {
      // The byte budget is enforced at deterministic points only, so the
      // trip round must not depend on the thread count.
      ExpectIdentical(first_partial, partial, label + "/vs-first-trip");
      ExpectSameRoundCounters(first_partial.stats, partial.stats, label);
    }

    Result<ChaseSnapshot> snapshot = MakeSnapshot(vocab, theory, partial, capped);
    ASSERT_TRUE(snapshot.ok()) << label << ": " << snapshot.message();
    ChaseResult resumed = engine.Resume(
        snapshot.value(),
        Options(pc, true, threads, ChaseVariant::kSemiOblivious));
    ExpectIdentical(reference, resumed, label + "/resumed");
    ExpectSameRoundCounters(reference.stats, resumed.stats, label);
    EXPECT_EQ(reference.approx_bytes, resumed.approx_bytes) << label;
  }
}

TEST(ParityTest, CancellationViaTokenStopsAtRoundBoundaryAndResumes) {
  const ParityCase pc = Catalog()[1];  // forward-path
  for (uint32_t threads : {1u, 4u}) {
    const std::string label =
        pc.name + "/cancel/threads=" + std::to_string(threads);
    Vocabulary vocab;
    Theory theory = pc.theory(vocab);
    FactSet db = pc.instance(vocab);
    ChaseEngine engine(vocab, theory);
    // The reference also installs an (always-true) filter: filter presence
    // changes unit planning, and resuming checks it matches the snapshot.
    ChaseOptions ref_options =
        Options(pc, true, threads, ChaseVariant::kSemiOblivious);
    ref_options.filter = [](size_t, const Substitution&, const FactSet&) {
      return true;
    };
    ChaseResult reference = engine.Run(db, ref_options);

    // A token pre-cancelled before the run starts: nothing may execute.
    auto dead_on_arrival = std::make_shared<CancelToken>();
    dead_on_arrival->Cancel();
    ChaseOptions cancelled = ref_options;
    cancelled.cancel = dead_on_arrival;
    ChaseResult nothing = engine.Run(db, cancelled);
    EXPECT_EQ(nothing.stop, ChaseStop::kCancelled) << label;
    EXPECT_EQ(nothing.complete_rounds, 0u) << label;
    EXPECT_EQ(nothing.facts.size(), db.size()) << label;

    // A token tripped from inside the match phase (the filter doubles as
    // the external canceller); workers must drain at the next poll and the
    // in-flight round must be discarded whole.
    auto token = std::make_shared<CancelToken>();
    auto calls = std::make_shared<std::atomic<uint64_t>>(0);
    ChaseOptions midway = ref_options;
    midway.cancel = token;
    midway.filter = [token, calls](size_t, const Substitution&,
                                   const FactSet&) {
      if (calls->fetch_add(1, std::memory_order_relaxed) == 0) {
        token->Cancel();
      }
      return true;
    };
    ChaseResult partial = engine.Run(db, midway);
    EXPECT_EQ(partial.stop, ChaseStop::kCancelled) << label;
    ExpectValidPartialResult(partial, reference, label);

    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, theory, partial, midway);
    ASSERT_TRUE(snapshot.ok()) << label << ": " << snapshot.message();
    ChaseResult resumed = engine.Resume(snapshot.value(), ref_options);
    ExpectIdentical(reference, resumed, label + "/resumed");
    ExpectSameRoundCounters(reference.stats, resumed.stats, label);
  }
}

TEST(ParityTest, InterruptResumeParityOnTdK3Tower) {
  // The acceptance scenario: the T_d^3 tower chase (witness strategy over
  // an I_1-path) interrupted by a deadline and by a byte budget,
  // snapshotted through a file, resumed — byte-identical to the
  // uninterrupted run at every thread count.
  Vocabulary ref_vocab;
  Theory ref_tdk = TdKTheory(ref_vocab, 3);
  FactSet ref_db = I1Path4(ref_vocab);
  ChaseEngine ref_engine(ref_vocab, ref_tdk);
  ChaseOptions ref_options;
  ref_options.max_rounds = 12;
  ref_options.max_atoms = 100'000;
  ref_options.track_provenance = true;
  ref_options.filter = TdKWitnessStrategy(ref_vocab, ref_tdk, 3, ref_db);
  ChaseResult reference = ref_engine.Run(ref_db, ref_options);
  ASSERT_GT(reference.complete_rounds, 2u);

  const std::string path = "parity_tdk3_tower.frsnap";
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const bool use_deadline : {true, false}) {
      const std::string label = std::string("tdk3-tower/") +
                                (use_deadline ? "deadline" : "byte-budget") +
                                "/threads=" + std::to_string(threads);
      Vocabulary vocab;
      Theory tdk = TdKTheory(vocab, 3);
      FactSet db = I1Path4(vocab);
      ChaseEngine engine(vocab, tdk);
      ChaseOptions options = ref_options;
      options.threads = threads;
      options.filter = TdKWitnessStrategy(vocab, tdk, 3, db);
      ChaseOptions capped = options;
      if (use_deadline) {
        capped.deadline_seconds = 1e-9;
      } else {
        capped.max_bytes = reference.approx_bytes / 2;
      }
      ChaseResult partial = engine.Run(db, capped);
      EXPECT_EQ(partial.stop, use_deadline ? ChaseStop::kDeadline
                                           : ChaseStop::kByteBudget)
          << label;
      ExpectValidPartialResult(partial, reference, label);

      // Round-trip the snapshot through the on-disk codec.
      Result<ChaseSnapshot> snapshot =
          MakeSnapshot(vocab, tdk, partial, capped);
      ASSERT_TRUE(snapshot.ok()) << label << ": " << snapshot.message();
      Status written = WriteSnapshotFile(path, snapshot.value());
      ASSERT_TRUE(written.ok()) << label << ": " << written.message();
      Result<ChaseSnapshot> reloaded = ReadSnapshotFile(path);
      ASSERT_TRUE(reloaded.ok()) << label << ": " << reloaded.message();

      ChaseResult resumed = engine.Resume(reloaded.value(), options);
      ExpectIdentical(reference, resumed, label + "/resumed");
      ExpectSameRoundCounters(reference.stats, resumed.stats, label);
      EXPECT_EQ(reference.approx_bytes, resumed.approx_bytes) << label;
    }
  }
  // Keep the snapshot on disk when something failed: CI uploads *.frsnap
  // as a debugging artifact.
  if (!::testing::Test::HasFailure()) std::remove(path.c_str());
}

}  // namespace
}  // namespace frontiers
