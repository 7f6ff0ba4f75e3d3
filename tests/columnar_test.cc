// Property tests for the columnar fact store: the struct-of-arrays
// segments, id-keyed dedup, posting-list indexes (however late a position
// is indexed), and the batch-insert path must behave exactly like a naive
// row-store oracle, and the set-at-a-time commit must keep the chase
// byte-identical across worker thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/atom.h"
#include "base/columnar.h"
#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "base/worker_pool.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "testing/generator.h"
#include "testing/rng.h"

namespace frontiers {
namespace {

// Deterministic pseudo-random stream (no global rand state).
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

// A naive reference implementation of the FactSet contract: a duplicate-
// free atom list plus indexes recomputed the obvious way.
struct RowStoreOracle {
  std::vector<Atom> atoms;

  bool Insert(const Atom& atom) {
    if (std::find(atoms.begin(), atoms.end(), atom) != atoms.end()) {
      return false;
    }
    atoms.push_back(atom);
    return true;
  }

  std::vector<TermId> Domain() const {
    std::vector<TermId> out;
    std::unordered_set<TermId> seen;
    for (const Atom& atom : atoms) {
      for (TermId t : atom.args) {
        if (seen.insert(t).second) out.push_back(t);
      }
    }
    return out;
  }

  uint32_t AtomDegree(TermId t) const {
    uint32_t degree = 0;
    for (const Atom& atom : atoms) {
      if (std::find(atom.args.begin(), atom.args.end(), t) !=
          atom.args.end()) {
        ++degree;
      }
    }
    return degree;
  }

  std::vector<uint32_t> ByPredicate(PredicateId p) const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      if (atoms[i].predicate == p) out.push_back(i);
    }
    return out;
  }

  std::vector<uint32_t> ByPredicatePositionTerm(PredicateId p, uint32_t pos,
                                                TermId t) const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      if (atoms[i].predicate == p && pos < atoms[i].args.size() &&
          atoms[i].args[pos] == t) {
        out.push_back(i);
      }
    }
    return out;
  }
};

std::vector<uint32_t> Materialize(const PostingList& list) {
  std::vector<uint32_t> out;
  out.reserve(list.size());
  for (uint32_t v : list) out.push_back(v);
  return out;
}

// A workload mixing small term/predicate universes (lots of duplicate
// atoms and repeated terms within one atom) across arities 1..3.
std::vector<Atom> RandomAtoms(Vocabulary& vocab, size_t count,
                              uint64_t seed) {
  std::vector<PredicateId> preds = {
      vocab.AddPredicate("ColA", 1), vocab.AddPredicate("ColB", 2),
      vocab.AddPredicate("ColC", 3), vocab.AddPredicate("ColD", 2)};
  std::vector<TermId> terms;
  for (int i = 0; i < 12; ++i) {
    terms.push_back(vocab.Constant("c" + std::to_string(i)));
  }
  Lcg rng{seed};
  std::vector<Atom> out;
  for (size_t i = 0; i < count; ++i) {
    PredicateId p = preds[rng.Next(static_cast<uint32_t>(preds.size()))];
    std::vector<TermId> args(vocab.PredicateArity(p));
    for (TermId& a : args) {
      a = terms[rng.Next(static_cast<uint32_t>(terms.size()))];
    }
    out.push_back(Atom(p, args));
  }
  return out;
}

TEST(ColumnarStore, AgreesWithRowStoreOracleUnderDuplicateHeavyInserts) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 2000, 0xC0FFEE);
  FactSet store;
  RowStoreOracle oracle;
  for (const Atom& atom : workload) {
    EXPECT_EQ(store.Insert(atom), oracle.Insert(atom));
  }
  ASSERT_EQ(store.size(), oracle.atoms.size());
  EXPECT_EQ(store.ToAtoms(), oracle.atoms) << "insertion order must match";
  EXPECT_EQ(store.Domain(), oracle.Domain()) << "first-occurrence order";

  for (TermId t = 0; t < 64; ++t) {
    EXPECT_EQ(store.AtomDegree(t), oracle.AtomDegree(t)) << "term " << t;
    EXPECT_EQ(store.ContainsTerm(t), oracle.AtomDegree(t) > 0) << "term " << t;
  }
  for (PredicateId p = 0; p < 4; ++p) {
    EXPECT_EQ(store.ByPredicate(p), oracle.ByPredicate(p));
    for (uint32_t pos = 0; pos < vocab.PredicateArity(p); ++pos) {
      for (TermId t = 0; t < 16; ++t) {
        EXPECT_EQ(Materialize(store.ByPredicatePositionTerm(p, pos, t)),
                  oracle.ByPredicatePositionTerm(p, pos, t))
            << "p=" << p << " pos=" << pos << " t=" << t;
      }
    }
  }
  // Lookup round-trips: every stored atom is found at its own index, and
  // the columnar segment mirrors the row store term for term.
  for (uint32_t i = 0; i < store.size(); ++i) {
    const Atom atom = store.ToAtom(i);
    EXPECT_EQ(store.IndexOf(atom), std::optional<uint32_t>(i));
    const ColumnarSegment* seg = store.Segment(atom.predicate);
    ASSERT_NE(seg, nullptr);
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      EXPECT_EQ(seg->Term(store.LocalRow(i), pos), atom.args[pos]);
    }
  }
}

// --- The batch insert against row-at-a-time inserts -------------------------
// `InsertBatch` must leave the store, and report the outcomes, exactly as
// `InsertRow` row by row would, with the cap applied the same way: at the
// cap only duplicates pass, and the first new row ends the batch without
// being consumed.

// Row-at-a-time reference for `InsertBatch(block, &outcomes, cap)`.
size_t ReferenceBatch(FactSet& store, const RowBlock& block, size_t cap,
                      std::vector<FactSet::InsertOutcome>* outcomes) {
  size_t added = 0;
  for (size_t row = 0; row < block.rows(); ++row) {
    const PredicateId p = block.predicates[row];
    if (store.size() >= cap) {
      std::optional<uint32_t> existing =
          store.FindRow(p, block.Terms(row), block.Arity(row));
      if (!existing.has_value()) break;
      outcomes->push_back({*existing, false});
      continue;
    }
    outcomes->push_back(store.InsertRow(p, block.Terms(row), block.Arity(row)));
    if (outcomes->back().inserted) ++added;
  }
  return added;
}

// Commits `block` into a copy of `seed` with one batch and into another
// copy row by row, and checks both copies and both outcome lists agree.
void ExpectBatchMatchesReference(const FactSet& seed, const RowBlock& block,
                                 size_t cap, const std::string& label) {
  FactSet reference = seed;
  std::vector<FactSet::InsertOutcome> ref_outcomes;
  const size_t ref_added = ReferenceBatch(reference, block, cap, &ref_outcomes);

  FactSet batched = seed;
  std::vector<FactSet::InsertOutcome> outcomes;
  EXPECT_EQ(batched.InsertBatch(block, &outcomes, cap), ref_added) << label;
  ASSERT_EQ(outcomes.size(), ref_outcomes.size()) << label;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, ref_outcomes[i].index)
        << label << " row " << i;
    EXPECT_EQ(outcomes[i].inserted, ref_outcomes[i].inserted)
        << label << " row " << i;
  }
  EXPECT_EQ(batched.ToAtoms(), reference.ToAtoms()) << label;
  EXPECT_EQ(batched.Domain(), reference.Domain()) << label;
  for (uint32_t id = 0; id < batched.size(); ++id) {
    const Atom atom = batched.ToAtom(id);
    EXPECT_EQ(batched.IndexOf(atom), std::optional<uint32_t>(id))
        << label << " id " << id;
    EXPECT_EQ(batched.ByPredicate(atom.predicate),
              reference.ByPredicate(atom.predicate))
        << label << " id " << id;
  }
}

RowBlock BlockOf(const std::vector<Atom>& atoms) {
  RowBlock block;
  for (const Atom& atom : atoms) {
    block.Append(atom.predicate, atom.args.data(), atom.args.size());
  }
  return block;
}

// A mixed-predicate block drawn from `facts` with in-batch duplicates:
// roughly every third appended row repeats an earlier one, so a row's
// first occurrence in the batch must hand its id to the later copies.
RowBlock BlockWithDuplicates(const FactSet& facts, uint64_t seed) {
  testing::SplitMix64 rng(seed);
  RowBlock block;
  const std::vector<Atom> atoms = facts.ToAtoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Atom& atom = atoms[i];
    block.Append(atom.predicate, atom.args.data(), atom.args.size());
    if (i > 0 && rng.Chance(1, 3)) {
      const Atom& dup = atoms[rng.Below(static_cast<uint32_t>(i))];
      block.Append(dup.predicate, dup.args.data(), dup.args.size());
    }
  }
  return block;
}

TEST(ColumnarStore, InsertBatchMatchesSequentialInsertRow) {
  {
    Vocabulary vocab;
    std::vector<Atom> workload = RandomAtoms(vocab, 1500, 0xBEEF);
    // Nullary rows, the first of them new and the rest its duplicates.
    const PredicateId nullary = vocab.AddPredicate("Nullary", 0);
    for (size_t i : {0u, 1u, 700u, 1499u}) {
      workload.insert(workload.begin() + i, Atom(nullary, {}));
    }
    const RowBlock block = BlockOf(workload);
    ExpectBatchMatchesReference(FactSet(), block, SIZE_MAX, "random");
    // The same block again: every row is a store hit now.
    FactSet filled;
    filled.InsertBatch(block, nullptr);
    ExpectBatchMatchesReference(filled, block, SIZE_MAX, "random, again");
  }
  // Generated skewed blocks: odd seeds put most first arguments on the hub
  // constant and most rows on one predicate.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string label = "generated seed " + std::to_string(seed);
    Vocabulary vocab;
    testing::TheoryGenOptions theory_options;
    theory_options.theory_class = testing::kAllTheoryClasses[seed % 4];
    const Theory theory = testing::GenerateTheory(vocab, seed, theory_options);
    testing::InstanceGenOptions instance_options;
    instance_options.num_constants = 8;
    instance_options.num_facts = 96;
    if (seed % 2 == 1) {
      instance_options.hub_chance = 6;
      instance_options.dominant_predicate_chance = 6;
    }
    const FactSet source = testing::GenerateInstance(
        vocab, testing::TheorySignature(theory), seed * 7919,
        instance_options);
    const RowBlock block = BlockWithDuplicates(source, seed * 31);
    ExpectBatchMatchesReference(FactSet(), block, SIZE_MAX, label);
    ExpectBatchMatchesReference(source, block, SIZE_MAX, label + ", again");
    // Half of the rows already stored, the other half new.
    FactSet half;
    for (uint32_t id = 0; id < source.size(); id += 2) {
      half.Insert(source.ToAtom(id));
    }
    ExpectBatchMatchesReference(half, block, SIZE_MAX, label + ", half");
    ExpectBatchMatchesReference(half, block, half.size() + source.size() / 4,
                                label + ", half capped");
  }
}

TEST(ColumnarStore, InsertBatchStopsAtTheCapButStillRecordsDuplicates) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 600, 0xFACADE);
  const size_t cap = 40;
  {
    FactSet capped;
    std::vector<FactSet::InsertOutcome> outcomes;
    capped.InsertBatch(BlockOf(workload), &outcomes, cap);
    EXPECT_EQ(capped.size(), cap);
    EXPECT_LT(outcomes.size(), workload.size()) << "the batch must truncate";
  }
  ExpectBatchMatchesReference(FactSet(), BlockOf(workload), cap, "random");

  // In-batch duplicates on both sides of the truncation row.  The first
  // `cap` distinct atoms fill the store; then come duplicates of rows of
  // this same batch (they pass at the cap), a nullary row that is new (the
  // truncation row), and more duplicates, which are never reached.
  std::vector<Atom> distinct;
  for (const Atom& atom : workload) {
    if (std::find(distinct.begin(), distinct.end(), atom) == distinct.end()) {
      distinct.push_back(atom);
    }
  }
  ASSERT_GT(distinct.size(), cap + 1);
  const PredicateId nullary = vocab.AddPredicate("Nullary", 0);
  std::vector<Atom> rows;
  for (size_t i = 0; i < cap; ++i) {
    rows.push_back(distinct[i]);
    if (i % 3 == 2) rows.push_back(distinct[i / 2]);  // before the cap
  }
  for (size_t i = 0; i < cap; i += 7) rows.push_back(distinct[i]);  // at it
  rows.push_back(Atom(nullary, {}));  // the truncation row
  for (size_t i = 1; i < cap; i += 5) rows.push_back(distinct[i]);
  rows.push_back(distinct[cap]);
  const RowBlock block = BlockOf(rows);
  for (size_t c : {size_t{0}, size_t{1}, cap - 1, cap, cap + 1, cap + 2}) {
    ExpectBatchMatchesReference(FactSet(), block, c,
                                "both sides, cap " + std::to_string(c));
  }
  // A store already at the cap: only duplicates of stored rows pass.
  FactSet full;
  for (size_t i = 0; i < cap; i += 2) full.Insert(distinct[i]);
  ExpectBatchMatchesReference(full, block, full.size(), "store at the cap");
  // The nullary row stored before, the truncation row is the next new one.
  FactSet with_nullary;
  with_nullary.Insert(Atom(nullary, {}));
  ExpectBatchMatchesReference(with_nullary, block, cap, "nullary stored");
}

// A copy is fully independent: inserting into it never writes through to
// the original, and the original's lookups keep their answers.
TEST(ColumnarStore, CopiesAreIndependent) {
  Vocabulary vocab;
  const PredicateId p = vocab.AddPredicate("P", 2);
  const TermId a = vocab.Constant("A");
  const TermId b = vocab.Constant("B");
  FactSet original;
  original.Insert(Atom(p, {a, b}));

  FactSet copy(original);
  EXPECT_EQ(copy.ToAtoms(), original.ToAtoms());
  copy.Insert(Atom(p, {b, a}));
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(original.size(), 1u);
  EXPECT_EQ(original.FindRow(p, copy.ToAtom(1).args.data(), 2),
            std::nullopt);

  FactSet assigned;
  assigned = original;
  EXPECT_EQ(assigned.ToAtoms(), original.ToAtoms());
  EXPECT_EQ(assigned.Domain(), original.Domain());
}

TEST(ColumnarStore, PostingListFrontAndOrderFollowInsertion) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  TermId hub = vocab.Constant("hub");
  FactSet store;
  std::vector<uint32_t> expected;
  for (int i = 0; i < 50; ++i) {
    TermId leaf = vocab.Constant("leaf" + std::to_string(i));
    TermId args[2] = {hub, leaf};
    expected.push_back(store.InsertRow(e, args, 2).index);
  }
  PostingList list = store.ByPredicatePositionTerm(e, 0, hub);
  ASSERT_EQ(list.size(), expected.size());
  EXPECT_EQ(list.front(), expected.front());
  EXPECT_EQ(Materialize(list), expected);
  EXPECT_TRUE(store.ByPredicatePositionTerm(e, 1, hub).empty());
  EXPECT_TRUE(store.ByPredicatePositionTerm(e, 7, hub).empty())
      << "out-of-range position is empty, not UB";
}

// The set-at-a-time (batch) commit must not disturb the determinism
// contract: identical bytes at every worker count on catalog workloads.
TEST(ColumnarStore, BatchCommitIsByteIdenticalAcrossThreadCounts) {
  struct Workload {
    const char* name;
    Theory (*theory)(Vocabulary&);
    FactSet (*instance)(Vocabulary&);
  };
  const Workload workloads[] = {
      {"sticky39",
       StickyExample39Theory,
       [](Vocabulary& v) { return Star39Instance(v, 3); }},
      {"td-grid", TdTheory,
       [](Vocabulary& v) { return EdgePath(v, "G", 4, "a"); }},
  };
  for (const Workload& w : workloads) {
    ChaseResult baseline;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      Vocabulary vocab;
      Theory theory = w.theory(vocab);
      FactSet db = w.instance(vocab);
      ChaseOptions options;
      options.max_rounds = 3;
      options.threads = threads;
      ChaseEngine engine(vocab, theory);
      ChaseResult result = engine.Run(db, options);
      if (threads == 1) {
        baseline = std::move(result);
        continue;
      }
      EXPECT_EQ(result.facts.ToAtoms(), baseline.facts.ToAtoms())
          << w.name << " threads=" << threads;
      EXPECT_EQ(result.depth, baseline.depth)
          << w.name << " threads=" << threads;
      EXPECT_EQ(result.birth_atom, baseline.birth_atom)
          << w.name << " threads=" << threads;
    }
  }
}

// --- Row access by id -------------------------------------------------------
// Reading a row back by its id — its predicate, and its terms as an owned
// atom — must give the oracle's row at that id, whichever insert path
// filled the store, and after a copy or `ClearIndexes`.

void ExpectRowsMatchOracle(const FactSet& store, const RowStoreOracle& oracle,
                           const std::string& label) {
  ASSERT_EQ(store.size(), oracle.atoms.size()) << label;
  for (uint32_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.PredicateOf(id), oracle.atoms[id].predicate)
        << label << " id " << id;
    EXPECT_EQ(store.ToAtom(id), oracle.atoms[id]) << label << " id " << id;
  }
}

enum class RowPath { kInsert, kInsertRow, kBatch };

TEST(RowAccess, EveryIdReadsBackTheOracleRow) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 1200, 0xA70B);
  // Nullary rows have no column to read the predicate from.
  const PredicateId nullary = vocab.AddPredicate("Nullary", 0);
  for (size_t i : {0u, 400u, 401u, 1100u}) {
    workload.insert(workload.begin() + i, Atom(nullary, {}));
  }
  RowStoreOracle oracle;
  for (const Atom& atom : workload) oracle.Insert(atom);
  constexpr size_t kBatches = 3;
  std::vector<RowBlock> blocks(kBatches);
  for (size_t i = 0; i < workload.size(); ++i) {
    const Atom& atom = workload[i];
    blocks[i * kBatches / workload.size()].Append(
        atom.predicate, atom.args.data(), atom.args.size());
  }

  for (RowPath path :
       {RowPath::kInsert, RowPath::kInsertRow, RowPath::kBatch}) {
    const std::string label = "path " + std::to_string(static_cast<int>(path));
    FactSet store;
    switch (path) {
      case RowPath::kInsert:
        for (const Atom& atom : workload) store.Insert(atom);
        break;
      case RowPath::kInsertRow:
        for (const Atom& atom : workload) {
          store.InsertRow(atom.predicate, atom.args.data(),
                          static_cast<uint32_t>(atom.args.size()));
        }
        break;
      case RowPath::kBatch:
        for (const RowBlock& block : blocks) store.InsertBatch(block, nullptr);
        break;
    }
    ExpectRowsMatchOracle(store, oracle, label);
    const FactSet copy = store;
    ExpectRowsMatchOracle(copy, oracle, label + " copy");
    store.ClearIndexes();
    ExpectRowsMatchOracle(store, oracle, label + " cleared");
  }
}

// --- Indexed positions ------------------------------------------------------
// A position gets postings only once declared or first read.  Whenever that
// happens, and whichever insert path filled the store, every posting list
// must be the one the row-store oracle (an eagerly indexed store) gives.

enum class InsertPath { kRow, kBatch };
enum class DeclareAt { kBeforeFirstInsert, kBetweenBatches, kAfterLastInsert };

// The positions the lazy-index tests declare: position 0 of every
// predicate and the last position of ColC; every other position is left to
// be built on its first read.
void DeclareSome(FactSet& store, const Vocabulary& vocab) {
  for (PredicateId p = 0; p < 4; ++p) store.Declare(p, 0);
  store.Declare(2, vocab.PredicateArity(2) - 1);
}

TEST(LazyIndexes, EveryPostingListEqualsTheEagerOne) {
  Vocabulary vocab;
  const std::vector<Atom> workload = RandomAtoms(vocab, 1200, 0x1A2B3C);
  RowStoreOracle oracle;
  for (const Atom& atom : workload) oracle.Insert(atom);
  constexpr size_t kBatches = 4;
  std::vector<RowBlock> blocks(kBatches);
  for (size_t i = 0; i < workload.size(); ++i) {
    const Atom& atom = workload[i];
    blocks[i * kBatches / workload.size()].Append(
        atom.predicate, atom.args.data(), atom.args.size());
  }
  uint32_t positions = 0;
  for (PredicateId p = 0; p < 4; ++p) positions += vocab.PredicateArity(p);

  for (InsertPath path : {InsertPath::kRow, InsertPath::kBatch}) {
    for (DeclareAt at :
         {DeclareAt::kBeforeFirstInsert, DeclareAt::kBetweenBatches,
          DeclareAt::kAfterLastInsert}) {
      const std::string label =
          "path " + std::to_string(static_cast<int>(path)) + " declared at " +
          std::to_string(static_cast<int>(at));
      FactSet store;
      if (at == DeclareAt::kBeforeFirstInsert) DeclareSome(store, vocab);
      for (size_t b = 0; b < kBatches; ++b) {
        if (b == 2 && at == DeclareAt::kBetweenBatches) {
          DeclareSome(store, vocab);
        }
        const RowBlock& block = blocks[b];
        switch (path) {
          case InsertPath::kRow:
            for (size_t row = 0; row < block.rows(); ++row) {
              store.InsertRow(block.predicates[row], block.Terms(row),
                              block.Arity(row));
            }
            break;
          case InsertPath::kBatch:
            store.InsertBatch(block, nullptr);
            break;
        }
      }
      if (at == DeclareAt::kAfterLastInsert) DeclareSome(store, vocab);
      ASSERT_EQ(store.ToAtoms(), oracle.atoms) << label;
      for (PredicateId p = 0; p < 4; ++p) {
        EXPECT_TRUE(store.Indexed(p, 0)) << label;
      }
      EXPECT_FALSE(store.Indexed(1, 1)) << label;

      // A copy keeps exactly the declared set, and nothing it builds on
      // read reaches the original.
      const FactSet copy = store;
      for (PredicateId p = 0; p < 4; ++p) {
        for (uint32_t pos = 0; pos < vocab.PredicateArity(p); ++pos) {
          EXPECT_EQ(copy.Indexed(p, pos), store.Indexed(p, pos))
              << label << " p=" << p << " pos=" << pos;
        }
      }
      const FactSet* readers[] = {&store, &copy};
      for (const FactSet* reader : readers) {
        for (PredicateId p = 0; p < 4; ++p) {
          for (uint32_t pos = 0; pos < vocab.PredicateArity(p); ++pos) {
            for (TermId t = 0; t < 16; ++t) {
              EXPECT_EQ(Materialize(reader->ByPredicatePositionTerm(p, pos, t)),
                        oracle.ByPredicatePositionTerm(p, pos, t))
                  << label << " p=" << p << " pos=" << pos << " t=" << t;
            }
          }
        }
        // Declared positions are never built on read; the rest once.
        EXPECT_EQ(reader->positions_built_on_read(), positions - 5) << label;
      }
    }
  }
}

TEST(LazyIndexes, ClearIndexesKeepsRowsAndForgetsPositions) {
  Vocabulary vocab;
  const std::vector<Atom> workload = RandomAtoms(vocab, 300, 0xD1CE);
  FactSet store;
  for (const Atom& atom : workload) store.Insert(atom);
  DeclareSome(store, vocab);
  store.Declare(vocab.AddPredicate("Absent", 2), 1);
  const std::vector<Atom> rows = store.ToAtoms();
  store.ClearIndexes();
  EXPECT_EQ(store.ToAtoms(), rows);
  for (PredicateId p = 0; p < 5; ++p) EXPECT_FALSE(store.Indexed(p, 0));
  EXPECT_FALSE(store.Indexed(4, 1));
  // Reads rebuild what they need, from the columns.
  RowStoreOracle oracle;
  for (const Atom& atom : workload) oracle.Insert(atom);
  for (TermId t = 0; t < 16; ++t) {
    EXPECT_EQ(Materialize(store.ByPredicatePositionTerm(2, 1, t)),
              oracle.ByPredicatePositionTerm(2, 1, t));
  }
  EXPECT_EQ(store.positions_built_on_read(), 1u);
}

// Concurrent first reads of one unindexed position build it once, under
// the store's index mutex, and every reader sees the whole list.
TEST(LazyIndexes, ConcurrentFirstReadsBuildEachPositionOnce) {
  Vocabulary vocab;
  const std::vector<Atom> workload = RandomAtoms(vocab, 800, 0x5EED);
  RowStoreOracle oracle;
  FactSet store;
  for (const Atom& atom : workload) {
    oracle.Insert(atom);
    store.Insert(atom);
  }
  uint32_t positions = 0;
  for (PredicateId p = 0; p < 4; ++p) positions += vocab.PredicateArity(p);
  constexpr size_t kReaders = 16;
  std::vector<size_t> mismatches(kReaders, 0);
  WorkerPool pool(4);
  pool.Run(kReaders, [&](size_t reader) {
    for (PredicateId p = 0; p < 4; ++p) {
      for (uint32_t pos = 0; pos < vocab.PredicateArity(p); ++pos) {
        for (TermId t = 0; t < 16; ++t) {
          if (Materialize(store.ByPredicatePositionTerm(p, pos, t)) !=
              oracle.ByPredicatePositionTerm(p, pos, t)) {
            ++mismatches[reader];
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches, std::vector<size_t>(kReaders, 0));
  EXPECT_EQ(store.positions_built_on_read(), positions);
}

}  // namespace
}  // namespace frontiers
