// Tests for the chase checkpoint codec (src/chase/snapshot.h): capture,
// binary round-trip, hostile-input robustness, vocabulary replay, and the
// full fresh-process resume workflow.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/fact_set.h"
#include "base/status.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"

namespace frontiers {
namespace {

// A small workload with Skolem terms, provenance, and several rounds.
struct Workload {
  Vocabulary vocab;
  Theory theory;
  FactSet db;

  Workload() : theory(ForwardPathTheory(vocab)) {
    db = EdgePath(vocab, "E", 6, "a");
  }

  static ChaseOptions Options(uint32_t max_rounds) {
    ChaseOptions options;
    options.max_rounds = max_rounds;
    options.max_atoms = 20'000;
    options.track_provenance = true;
    return options;
  }
};

ChaseSnapshot InterruptedSnapshot(Workload& w, uint32_t rounds = 2) {
  ChaseEngine engine(w.vocab, w.theory);
  ChaseOptions options = Workload::Options(rounds);
  ChaseResult result = engine.Run(w.db, options);
  EXPECT_EQ(result.stop, ChaseStop::kRoundBudget);
  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(w.vocab, w.theory, result, options);
  EXPECT_TRUE(snapshot.ok()) << snapshot.message();
  return snapshot.value();
}

void ExpectSnapshotsEqual(const ChaseSnapshot& a, const ChaseSnapshot& b) {
  ASSERT_EQ(a.predicates.size(), b.predicates.size());
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    EXPECT_EQ(a.predicates[i].name, b.predicates[i].name);
    EXPECT_EQ(a.predicates[i].arity, b.predicates[i].arity);
  }
  ASSERT_EQ(a.skolem_fns.size(), b.skolem_fns.size());
  for (size_t i = 0; i < a.skolem_fns.size(); ++i) {
    EXPECT_EQ(a.skolem_fns[i].signature, b.skolem_fns[i].signature);
    EXPECT_EQ(a.skolem_fns[i].arity, b.skolem_fns[i].arity);
  }
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].kind, b.terms[i].kind) << "term " << i;
    EXPECT_EQ(a.terms[i].name, b.terms[i].name) << "term " << i;
    EXPECT_EQ(a.terms[i].fn, b.terms[i].fn) << "term " << i;
    EXPECT_EQ(a.terms[i].args, b.terms[i].args) << "term " << i;
  }
  EXPECT_EQ(a.atoms, b.atoms);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.next_round, b.next_round);
  EXPECT_EQ(a.stop, b.stop);
  ASSERT_EQ(a.first_derivation.size(), b.first_derivation.size());
  for (size_t i = 0; i < a.first_derivation.size(); ++i) {
    ASSERT_EQ(a.first_derivation[i].has_value(),
              b.first_derivation[i].has_value())
        << "derivation " << i;
    if (!a.first_derivation[i].has_value()) continue;
    EXPECT_EQ(a.first_derivation[i]->rule_index,
              b.first_derivation[i]->rule_index);
    EXPECT_EQ(a.first_derivation[i]->parents, b.first_derivation[i]->parents);
  }
  EXPECT_EQ(a.all_derivations.size(), b.all_derivations.size());
  EXPECT_EQ(a.birth_atoms, b.birth_atoms);
  EXPECT_EQ(a.seen_applications, b.seen_applications);
  ASSERT_EQ(a.round_stats.size(), b.round_stats.size());
  for (size_t i = 0; i < a.round_stats.size(); ++i) {
    EXPECT_EQ(a.round_stats[i].matches, b.round_stats[i].matches);
    EXPECT_EQ(a.round_stats[i].committed, b.round_stats[i].committed);
    EXPECT_EQ(a.round_stats[i].atoms_inserted, b.round_stats[i].atoms_inserted);
  }
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.semi_naive, b.semi_naive);
  EXPECT_EQ(a.track_provenance, b.track_provenance);
  EXPECT_EQ(a.record_all_derivations, b.record_all_derivations);
  EXPECT_EQ(a.has_filter, b.has_filter);
  EXPECT_EQ(a.theory_name, b.theory_name);
  EXPECT_EQ(a.theory_fingerprint, b.theory_fingerprint);
}

TEST(SnapshotTest, MakeSnapshotRejectsNonResumableStop) {
  Workload w;
  ChaseEngine engine(w.vocab, w.theory);
  ChaseOptions options = Workload::Options(50);
  options.max_atoms = w.db.size() + 1;  // truncates a round mid-commit
  ChaseResult result = engine.Run(w.db, options);
  ASSERT_EQ(result.stop, ChaseStop::kAtomBudget);
  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(w.vocab, w.theory, result, options);
  EXPECT_FALSE(snapshot.ok());
  EXPECT_NE(snapshot.message().find("atom-budget"), std::string::npos)
      << snapshot.message();
}

TEST(SnapshotTest, EncodeDecodeRoundTripPreservesEveryField) {
  Workload w;
  ChaseSnapshot original = InterruptedSnapshot(w);
  EXPECT_GT(original.terms.size(), 0u);
  EXPECT_GT(original.atoms.size(), w.db.size());  // chase made progress
  EXPECT_GT(original.seen_applications.size(), 0u);

  const std::string wire = EncodeSnapshot(original);
  ASSERT_GE(wire.size(), 6u);
  EXPECT_EQ(wire.substr(0, 4), "FRSN");

  Result<ChaseSnapshot> decoded = DecodeSnapshot(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  ExpectSnapshotsEqual(original, decoded.value());
}

// Version 3 meters approx_bytes over the flat frontier memo and the Skolem
// argument arena; a version-2 snapshot's total would no longer match what
// Resume reconstructs, so the decoder refuses it with a Status instead of
// letting Resume abort on the mismatch.
TEST(SnapshotTest, VersionTwoHeaderIsRejectedWithAStatus) {
  Workload w;
  const std::string wire = EncodeSnapshot(InterruptedSnapshot(w));
  ASSERT_GE(wire.size(), 6u);
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), 4u);
  EXPECT_EQ(static_cast<uint8_t>(wire[5]), 0u);
  // Versions 2 and 3 meter the ledger total differently, so Resume could
  // not reproduce it: both are refused at the header.
  for (const uint8_t version : {2, 3}) {
    std::string old = wire;
    old[4] = static_cast<char>(version);
    Result<ChaseSnapshot> decoded = DecodeSnapshot(old);
    ASSERT_FALSE(decoded.ok()) << "version " << int{version};
    EXPECT_NE(decoded.message().find("unsupported snapshot version " +
                                     std::to_string(version)),
              std::string::npos)
        << decoded.message();
  }
}

// A memo key whose bindings name a term the snapshot does not have is
// rejected with a Status: Resume would intern it as a Skolem row.
TEST(SnapshotTest, MemoKeyWithAnUnknownTermIsRejectedWithAStatus) {
  Workload w;
  ChaseSnapshot snapshot = InterruptedSnapshot(w);
  ASSERT_FALSE(snapshot.seen_applications.empty());
  std::string& key = snapshot.seen_applications.back();
  ASSERT_GT(key.size(), sizeof(size_t));
  const TermId unknown = static_cast<TermId>(snapshot.terms.size());
  std::memcpy(key.data() + sizeof(size_t), &unknown, sizeof(unknown));
  Result<ChaseSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.message().find("names an unknown term"),
            std::string::npos)
      << decoded.message();
}

TEST(SnapshotTest, EveryTruncationIsRejectedWithoutCrashing) {
  Workload w;
  const std::string wire = EncodeSnapshot(InterruptedSnapshot(w));
  for (size_t len = 0; len < wire.size(); ++len) {
    Result<ChaseSnapshot> decoded =
        DecodeSnapshot(std::string_view(wire).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeSnapshot(wire).ok());
}

TEST(SnapshotTest, CorruptedBytesNeverCrashTheDecoder) {
  Workload w;
  const std::string wire = EncodeSnapshot(InterruptedSnapshot(w));

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(bad_magic).ok());

  std::string bad_version = wire;
  bad_version[4] = '\xff';
  EXPECT_FALSE(DecodeSnapshot(bad_version).ok());

  std::string trailing = wire + "garbage";
  EXPECT_FALSE(DecodeSnapshot(trailing).ok());

  // Single-byte corruption at every offset must either fail cleanly or
  // decode (the flipped byte may land in a value the format cannot
  // distinguish from honest data) — but never read out of bounds; run
  // under asan/ubsan this is a memory-safety fuzz of the whole format.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string mutated = wire;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    Result<ChaseSnapshot> decoded = DecodeSnapshot(mutated);
    (void)decoded;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  Workload w;
  ChaseSnapshot original = InterruptedSnapshot(w);
  const std::string path = "snapshot_test_roundtrip.frsnap";
  Status written = WriteSnapshotFile(path, original);
  ASSERT_TRUE(written.ok()) << written.message();
  Result<ChaseSnapshot> reloaded = ReadSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.message();
  ExpectSnapshotsEqual(original, reloaded.value());
  if (!::testing::Test::HasFailure()) std::remove(path.c_str());

  EXPECT_FALSE(ReadSnapshotFile("does/not/exist.frsnap").ok());
}

TEST(SnapshotTest, VocabularyReplayReproducesIdenticalIds) {
  Workload w;
  ChaseSnapshot snapshot = InterruptedSnapshot(w);

  Vocabulary fresh;
  Status applied = ApplySnapshotVocabulary(snapshot, fresh);
  ASSERT_TRUE(applied.ok()) << applied.message();
  ASSERT_EQ(fresh.NumTerms(), w.vocab.NumTerms());
  ASSERT_EQ(fresh.NumPredicates(), w.vocab.NumPredicates());
  ASSERT_EQ(fresh.NumSkolemFns(), w.vocab.NumSkolemFns());
  for (TermId t = 0; t < fresh.NumTerms(); ++t) {
    EXPECT_EQ(fresh.TermToString(t), w.vocab.TermToString(t)) << "term " << t;
    EXPECT_EQ(fresh.Kind(t), w.vocab.Kind(t)) << "term " << t;
  }
  for (PredicateId p = 0; p < fresh.NumPredicates(); ++p) {
    EXPECT_EQ(fresh.PredicateName(p), w.vocab.PredicateName(p));
    EXPECT_EQ(fresh.PredicateArity(p), w.vocab.PredicateArity(p));
  }

  // Idempotent: replaying into an already-populated vocabulary verifies.
  EXPECT_TRUE(ApplySnapshotVocabulary(snapshot, fresh).ok());
  EXPECT_TRUE(ApplySnapshotVocabulary(snapshot, w.vocab).ok());
}

TEST(SnapshotTest, VocabularyReplayRejectsDivergentPopulation) {
  Workload w;
  ChaseSnapshot snapshot = InterruptedSnapshot(w);

  // A vocabulary whose id 0 is already taken by a different term cannot
  // reproduce the snapshot's ids; the replay must say so, not abort.
  Vocabulary diverged;
  diverged.Constant("not-in-the-snapshot");
  Status applied = ApplySnapshotVocabulary(snapshot, diverged);
  EXPECT_FALSE(applied.ok());

  // Same for a predicate name clash at a fixed id.
  Vocabulary bad_predicate;
  bad_predicate.AddPredicate("WrongName", 1);
  EXPECT_FALSE(ApplySnapshotVocabulary(snapshot, bad_predicate).ok());
}

// An interrupted T_c run: its `start` rule's two nulls form one Skolem
// row.  Returns the snapshot and the id of the first null of such a row.
ChaseSnapshot TwoNullRowSnapshot(uint32_t* row_start) {
  Vocabulary vocab;
  const Theory theory = TcTheory(vocab);
  const FactSet db = EdgePath(vocab, "E", 4, "a");
  const ChaseOptions options = Workload::Options(2);
  const ChaseResult result = ChaseEngine(vocab, theory).Run(db, options);
  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(vocab, theory, result, options);
  EXPECT_TRUE(snapshot.ok()) << snapshot.message();
  *row_start = 0;
  for (uint32_t t = 0; t < vocab.NumTerms(); ++t) {
    if (vocab.IsSkolem(t) &&
        vocab.SkolemBlockSize(vocab.SkolemFnBlock(vocab.SkolemFn(t))) == 2) {
      *row_start = t;
      break;
    }
  }
  EXPECT_GT(*row_start, 0u);
  return snapshot.value();
}

// A replay interns Skolem terms a row at a time, so a term list whose row
// is split (another term between its nulls, or the list ending inside it)
// is rejected with a Status.
TEST(SnapshotTest, SplitSkolemRowIsRejectedWithAStatus) {
  uint32_t first = 0;
  const ChaseSnapshot snapshot = TwoNullRowSnapshot(&first);
  {
    Vocabulary fresh;
    ASSERT_TRUE(ApplySnapshotVocabulary(snapshot, fresh).ok());
  }
  ChaseSnapshot split = snapshot;
  ChaseSnapshot::TermEntry wedge;
  wedge.kind = TermKind::kConstant;
  wedge.name = "wedge";
  split.terms.insert(split.terms.begin() + first + 1, wedge);
  Vocabulary fresh;
  const Status applied = ApplySnapshotVocabulary(split, fresh);
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.message().find("whole row"), std::string::npos)
      << applied.message();

  ChaseSnapshot truncated = snapshot;
  truncated.terms.resize(first + 1);
  Vocabulary again;
  EXPECT_FALSE(ApplySnapshotVocabulary(truncated, again).ok());
}

// A row's nulls must come in the order of their block's functions.
TEST(SnapshotTest, ReorderedSkolemRowIsRejectedWithAStatus) {
  uint32_t first = 0;
  ChaseSnapshot snapshot = TwoNullRowSnapshot(&first);
  std::swap(snapshot.terms[first], snapshot.terms[first + 1]);
  Vocabulary fresh;
  const Status applied = ApplySnapshotVocabulary(snapshot, fresh);
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.message().find("whole row"), std::string::npos)
      << applied.message();
}

// A snapshot whose function table would grow a block that already has rows
// in the target vocabulary is rejected with a Status, not an abort.
TEST(SnapshotTest, FunctionJoiningAUsedBlockIsRejectedWithAStatus) {
  Vocabulary vocab;
  const SkolemFnId e0 = vocab.SkolemFunction("R(u0,e0,e1)#e0", 1);
  vocab.SkolemTerm(e0, {vocab.Constant("a")});
  ChaseSnapshot snapshot;
  snapshot.skolem_fns = {{"R(u0,e0,e1)#e0", 1}, {"R(u0,e0,e1)#e1", 1}};
  const Status applied = ApplySnapshotVocabulary(snapshot, vocab);
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.message().find("already has rows"), std::string::npos)
      << applied.message();
  EXPECT_EQ(vocab.NumSkolemFns(), 1u);
}

TEST(SnapshotDeathTest, ResumeRefusesDecreasingDepths) {
  // Resume finds the previous round's atoms as the store's suffix, which
  // holds only if depths never decrease.  The decoder rejects such bytes; a
  // snapshot built in process never passes through it, so Resume checks.
  Workload w;
  ChaseSnapshot snapshot = InterruptedSnapshot(w);
  ASSERT_GT(snapshot.depth.size(), 1u);
  ASSERT_EQ(snapshot.depth[1], 0u);
  snapshot.depth.front() = snapshot.next_round;
  ChaseEngine engine(w.vocab, w.theory);
  EXPECT_DEATH(engine.Resume(snapshot, Workload::Options(4)),
               "snapshot depths decrease at atom 1");
}

TEST(SnapshotTest, FreshProcessResumeMatchesUninterruptedRun) {
  // The full workflow: interrupt, serialize, "restart" (fresh vocabulary,
  // theory and instance rebuilt from scratch), replay, resume — chained
  // one round at a time.  The forward-path chase never fixpoints, so both
  // sides run to the same round budget and must agree byte-for-byte.
  constexpr uint32_t kTargetRounds = 6;
  ChaseResult reference;
  {
    Workload w;
    ChaseEngine engine(w.vocab, w.theory);
    reference = engine.Run(w.db, Workload::Options(kTargetRounds));
    ASSERT_EQ(reference.stop, ChaseStop::kRoundBudget);
    ASSERT_EQ(reference.complete_rounds, kTargetRounds);
  }

  std::string wire;
  {
    Workload w;
    wire = EncodeSnapshot(InterruptedSnapshot(w, 1));
  }
  uint32_t restarts = 0;
  ChaseResult resumed;
  for (;;) {
    ++restarts;
    ASSERT_LT(restarts, 64u) << "resume chain did not converge";
    Workload w;  // nothing survives the "restart" but `wire`
    Result<ChaseSnapshot> snapshot = DecodeSnapshot(wire);
    ASSERT_TRUE(snapshot.ok()) << snapshot.message();
    ASSERT_TRUE(ApplySnapshotVocabulary(snapshot.value(), w.vocab).ok());
    ChaseEngine engine(w.vocab, w.theory);
    ChaseOptions slice = Workload::Options(snapshot.value().next_round + 1);
    resumed = engine.Resume(snapshot.value(), slice);
    ASSERT_EQ(resumed.stop, ChaseStop::kRoundBudget);
    if (resumed.complete_rounds >= kTargetRounds) break;
    Result<ChaseSnapshot> next =
        MakeSnapshot(w.vocab, w.theory, resumed, slice);
    ASSERT_TRUE(next.ok()) << next.message();
    wire = EncodeSnapshot(next.value());
  }
  EXPECT_GT(restarts, 1u);
  EXPECT_EQ(resumed.stop, reference.stop);
  EXPECT_EQ(resumed.facts.ToAtoms(), reference.facts.ToAtoms());
  EXPECT_EQ(resumed.depth, reference.depth);
  EXPECT_EQ(resumed.complete_rounds, reference.complete_rounds);
  EXPECT_EQ(resumed.birth_atom, reference.birth_atom);
  ASSERT_EQ(resumed.first_derivation.size(), reference.first_derivation.size());
  for (size_t i = 0; i < resumed.first_derivation.size(); ++i) {
    ASSERT_EQ(resumed.first_derivation[i].has_value(),
              reference.first_derivation[i].has_value());
    if (!resumed.first_derivation[i].has_value()) continue;
    EXPECT_EQ(resumed.first_derivation[i]->rule_index,
              reference.first_derivation[i]->rule_index);
    EXPECT_EQ(resumed.first_derivation[i]->parents,
              reference.first_derivation[i]->parents);
  }
}

}  // namespace
}  // namespace frontiers
