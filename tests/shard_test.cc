// Tests for the sharded fact store (DESIGN.md §5, "Sharded commit
// pipeline"): the parallel batch insert must be indistinguishable from the
// serial global-oracle path on any workload, the chase must stay
// byte-identical at every thread and shard count, and snapshots must be
// shard-invariant on the wire.

#include <cstdint>
#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "base/worker_pool.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "gtest/gtest.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::GenerateInstance;
using testing::GenerateTheory;
using testing::InstanceGenOptions;
using testing::SplitMix64;
using testing::TheoryClass;
using testing::TheoryGenOptions;
using testing::TheorySignature;

// Rebuilds `src` atom by atom into a store with the given shard count.
// Insertion order is preserved, so the two stores are logically identical
// and differ only in their internal dedup layout.
FactSet Resharded(const FactSet& src, uint32_t shards) {
  FactSet out(shards);
  for (const Atom& atom : src.ToAtoms()) out.Insert(atom);
  return out;
}

void ExpectSameStore(const FactSet& got, const FactSet& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.ToAtoms(), want.ToAtoms());
  EXPECT_EQ(got.Domain(), want.Domain());
}

// A mixed-predicate RowBlock drawn from `facts` with deliberate in-batch
// duplicates: roughly every third appended row repeats an earlier one, the
// case where the shard dedup must hand out the first occurrence's id.
RowBlock BlockWithDuplicates(const FactSet& facts, uint64_t seed) {
  SplitMix64 rng(seed);
  RowBlock block;
  const std::vector<Atom> atoms = facts.ToAtoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Atom& atom = atoms[i];
    block.Append(atom.predicate, atom.args.data(),
                 static_cast<uint32_t>(atom.args.size()));
    if (i > 0 && rng.Chance(1, 3)) {
      const Atom& dup = atoms[rng.Below(static_cast<uint32_t>(i))];
      block.Append(dup.predicate, dup.args.data(),
                   static_cast<uint32_t>(dup.args.size()));
    }
  }
  return block;
}

// Per-shard parallel insert == the serial one-row-at-a-time oracle, across
// shard counts, pool sizes, and skewed (hub-heavy, dominant-predicate)
// randomized workloads.
TEST(ShardTest, ParallelInsertMatchesGlobalOracle) {
  WorkerPool pool(4);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Vocabulary vocab;
    TheoryGenOptions theory_options;
    theory_options.theory_class =
        testing::kAllTheoryClasses[seed % 4];
    Theory theory = GenerateTheory(vocab, seed, theory_options);
    const std::vector<PredicateId> signature = TheorySignature(theory);

    InstanceGenOptions instance_options;
    instance_options.num_constants = 8;
    instance_options.num_facts = 96;
    // Odd seeds stress shard imbalance: most first arguments collapse onto
    // the hub constant and most rows onto one predicate, so a few shards
    // receive nearly the whole batch.
    if (seed % 2 == 1) {
      instance_options.hub_chance = 6;
      instance_options.dominant_predicate_chance = 6;
    }
    const FactSet source =
        GenerateInstance(vocab, signature, seed * 7919, instance_options);
    const RowBlock block = BlockWithDuplicates(source, seed * 31);

    // Oracle: strictly serial row-at-a-time inserts into a 1-shard store.
    FactSet oracle(1);
    std::vector<FactSet::InsertOutcome> oracle_outcomes;
    for (size_t r = 0; r < block.rows(); ++r) {
      oracle_outcomes.push_back(
          oracle.InsertRow(block.predicates[r], block.Terms(r),
                           block.Arity(r)));
    }

    for (uint32_t shards : {1u, 4u, 16u}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      FactSet sharded(shards);
      EXPECT_EQ(sharded.shard_count(), shards);
      std::vector<FactSet::InsertOutcome> outcomes;
      FactSet::BatchStats stats;
      const size_t added = sharded.InsertBatchParallel(
          block, &outcomes, &pool, SIZE_MAX, /*timings=*/nullptr, &stats);
      EXPECT_EQ(added, oracle.size());
      ExpectSameStore(sharded, oracle);
      ASSERT_EQ(outcomes.size(), oracle_outcomes.size());
      for (size_t r = 0; r < outcomes.size(); ++r) {
        EXPECT_EQ(outcomes[r].index, oracle_outcomes[r].index);
        EXPECT_EQ(outcomes[r].inserted, oracle_outcomes[r].inserted);
      }
      EXPECT_EQ(stats.new_atoms, added);
      EXPECT_GE(stats.shards_touched, 1u);
      EXPECT_LE(stats.shards_touched, shards);

      // Second identical batch: every row is a store hit now, and the
      // store must not change.
      outcomes.clear();
      EXPECT_EQ(sharded.InsertBatchParallel(block, &outcomes, &pool), 0u);
      ExpectSameStore(sharded, oracle);
    }
  }
}

// The resolved result of the chase — atom order, depths, stats counters —
// is identical at every thread count crossed with every shard count, on a
// workload wide enough to take the parallel expand + commit paths.
TEST(ShardTest, ChaseByteIdenticalAcrossThreadsAndShards) {
  Vocabulary vocab;
  const Theory theory = ParseTheory(vocab,
                                    "P(x) -> exists z . Q(x,z)\n"
                                    "Q(x,z) -> R(z,x)\n"
                                    "R(z,x), P(x) -> S(z)",
                                    "wide").value();
  const PredicateId p = vocab.FindPredicate("P").value();
  FactSet db;
  for (uint32_t i = 0; i < 1500; ++i) {
    const TermId c = vocab.Constant("C" + std::to_string(i));
    db.Insert(Atom(p, {c}));
  }

  ChaseOptions options;
  options.max_rounds = 6;
  options.track_provenance = true;
  // Force every round through the parallel pipeline regardless of size;
  // the serial-fallback heuristic is exercised separately below.
  options.serial_round_threshold = 0;

  ChaseEngine engine(vocab, theory);
  ChaseResult baseline;
  bool have_baseline = false;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (uint32_t shards : {1u, 4u, 16u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " shards " +
                   std::to_string(shards));
      options.threads = threads;
      ChaseResult result = engine.Run(Resharded(db, shards), options);
      EXPECT_EQ(result.facts.shard_count(), shards);
      if (!have_baseline) {
        baseline = std::move(result);
        have_baseline = true;
        continue;
      }
      EXPECT_EQ(result.stop, baseline.stop);
      EXPECT_EQ(result.facts.ToAtoms(), baseline.facts.ToAtoms());
      EXPECT_EQ(result.depth, baseline.depth);
      EXPECT_EQ(result.birth_atom, baseline.birth_atom);
      EXPECT_EQ(result.seen_applications, baseline.seen_applications);
    }
  }
}

// The serial-fallback heuristic (ChaseOptions::serial_round_threshold)
// changes only ChaseRoundStats::used_threads, never the result.
TEST(ShardTest, SerialFallbackIsPerfOnly) {
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

// Snapshots are canonical over the logical state: the encoded bytes do not
// depend on the store's shard count, and a snapshot taken from an N-shard
// run decodes and resumes into byte-identical results from an M-shard
// store.
TEST(ShardTest, SnapshotRoundTripAcrossShardCounts) {
  Vocabulary vocab;
  const Theory theory =
      ParseTheory(vocab, "E(x,y) -> exists z . E(y,z)", "rig").value();
  const FactSet db = ParseFacts(vocab, "E(A,B), E(B,C)").value();
  ChaseEngine engine(vocab, theory);

  ChaseOptions options;
  options.max_rounds = 4;
  options.track_provenance = true;

  std::string first_encoding;
  ChaseOptions full_options = options;
  full_options.max_rounds = 9;
  const ChaseResult full = engine.Run(db, full_options);

  for (uint32_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const ChaseResult partial = engine.Run(Resharded(db, shards), options);
    ASSERT_EQ(partial.stop, ChaseStop::kRoundBudget);
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(vocab, theory, partial, options);
    ASSERT_TRUE(snapshot.ok()) << snapshot.message();
    {
      // Wire bytes are shard-invariant once the run's wall-clock timings
      // (the only legitimately run-dependent snapshot content) are zeroed.
      ChaseSnapshot normalized = snapshot.value();
      normalized.total_seconds = 0.0;
      for (ChaseRoundStats& r : normalized.round_stats) {
        r.match_seconds = 0.0;
        r.commit_seconds = 0.0;
      }
      const std::string canonical = EncodeSnapshot(normalized);
      if (first_encoding.empty()) {
        first_encoding = canonical;
      } else {
        EXPECT_EQ(canonical, first_encoding);
      }
    }
    Result<ChaseSnapshot> decoded =
        DecodeSnapshot(EncodeSnapshot(snapshot.value()));
    ASSERT_TRUE(decoded.ok()) << decoded.message();
    const ChaseResult resumed = engine.Resume(decoded.value(), full_options);
    EXPECT_EQ(resumed.facts.ToAtoms(), full.facts.ToAtoms());
    EXPECT_EQ(resumed.depth, full.depth);
  }
}

// Copies of a sharded store are fully independent: same contents, same
// shard layout, fresh internal state (a torture run mutating the copy must
// never write through to the original).
TEST(ShardTest, CopyKeepsShardLayoutAndIndependence) {
  Vocabulary vocab;
  const PredicateId p = vocab.AddPredicate("P", 2);
  const TermId a = vocab.Constant("A");
  const TermId b = vocab.Constant("B");
  FactSet original(4);
  original.Insert(Atom(p, {a, b}));

  FactSet copy(original);
  EXPECT_EQ(copy.shard_count(), 4u);
  ExpectSameStore(copy, original);

  copy.Insert(Atom(p, {b, a}));
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(original.size(), 1u);
  EXPECT_TRUE(original.FindRow(p, copy.ToAtom(1).args.data(), 2) ==
              std::nullopt);

  FactSet assigned(1);
  assigned = original;
  EXPECT_EQ(assigned.shard_count(), 4u);
  ExpectSameStore(assigned, original);
}

}  // namespace
}  // namespace frontiers
