// Tests for the fault-injection layer (base/failpoint.h) and for every
// engine site wired with FRONTIERS_FAILPOINT: arming a point makes the
// engine degrade to a clean error Status or a resumable stop, and resuming
// from the last good snapshot reconverges byte-identically with the
// uninterrupted run.

#include <cstdio>
#include <string>

#include "base/failpoint.h"
#include "base/fact_set.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "gtest/gtest.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

// Every failpoint test disarms on scope exit so a failing EXPECT cannot
// leak an armed point into later tests.
struct DisarmOnExit {
  ~DisarmOnExit() { failpoint::DisarmAll(); }
};

TEST(FailpointTest, DisabledByDefaultAndArmSchedules) {
  DisarmOnExit guard;
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.basic"));

  const uint64_t fired_before = failpoint::FiredCount("failpoint_test.basic");
  failpoint::Arm("failpoint_test.basic", /*fire_count=*/2, /*skip=*/1);
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.basic"));  // skipped
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.basic"));   // fire 1
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.basic"));   // fire 2
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.basic"));  // self-disarmed
  EXPECT_EQ(failpoint::FiredCount("failpoint_test.basic"), fired_before + 2);
  EXPECT_GE(failpoint::HitCount("failpoint_test.basic"), 3u);
}

TEST(FailpointTest, DisarmStopsFiring) {
  DisarmOnExit guard;
  failpoint::Arm("failpoint_test.disarm", /*fire_count=*/100);
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.disarm"));
  failpoint::Disarm("failpoint_test.disarm");
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.disarm"));
}

TEST(FailpointTest, ArmFromSpec) {
  DisarmOnExit guard;
  // Two valid entries (one with a schedule), one malformed (skipped).
  EXPECT_EQ(failpoint::ArmFromSpec(
                "failpoint_test.a;failpoint_test.b=2@1,failpoint_test.c=x"),
            2u);
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.a"));
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.a"));  // fire_count 1
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.b"));  // skip 1
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.b"));
  EXPECT_TRUE(FRONTIERS_FAILPOINT("failpoint_test.b"));
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.b"));
  EXPECT_FALSE(FRONTIERS_FAILPOINT("failpoint_test.c"));
  EXPECT_EQ(failpoint::ArmFromSpec(""), 0u);
  // Empty names and unparseable schedules are malformed and skipped.
  EXPECT_EQ(failpoint::ArmFromSpec("=3;zz=@;yy=1@x"), 0u);
}

// Shared fixture: a linear theory whose chase grows one atom per round
// forever, so any round budget is hit and every intermediate state is a
// proper prefix of the uninterrupted run.
struct ChaseRig {
  Vocabulary vocab;
  Theory theory;
  FactSet db;
  ChaseOptions options;

  explicit ChaseRig(const char* theory_text = "E(x,y) -> exists z . E(y,z)",
                    const char* facts_text = "E(A,B)") {
    theory = ParseTheory(vocab, theory_text, "rig").value();
    db = ParseFacts(vocab, facts_text).value();
    options.max_rounds = 6;
    options.track_provenance = true;
  }
};

void ExpectIdenticalRuns(const ChaseResult& a, const ChaseResult& b) {
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.complete_rounds, b.complete_rounds);
  EXPECT_EQ(a.facts.ToAtoms(), b.facts.ToAtoms());
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.birth_atom, b.birth_atom);
  EXPECT_EQ(a.AppliedKeys(), b.AppliedKeys());
  ASSERT_EQ(a.first_derivation.size(), b.first_derivation.size());
  for (size_t i = 0; i < a.first_derivation.size(); ++i) {
    ASSERT_EQ(a.first_derivation[i].has_value(),
              b.first_derivation[i].has_value());
    if (a.first_derivation[i].has_value()) {
      EXPECT_EQ(a.first_derivation[i]->rule_index,
                b.first_derivation[i]->rule_index);
      EXPECT_EQ(a.first_derivation[i]->parents,
                b.first_derivation[i]->parents);
    }
  }
}

// A chase-level failpoint fires exactly once when armed, stops the run with
// a resumable kInjectedFault at a round boundary, and the run resumed from
// the snapshot of the faulted state is byte-identical to the uninterrupted
// one.
void CheckChaseFailpoint(const char* point, uint64_t skip) {
  SCOPED_TRACE(point);
  DisarmOnExit guard;
  ChaseRig rig;
  ChaseEngine engine(rig.vocab, rig.theory);
  const ChaseResult full = engine.Run(rig.db, rig.options);
  ASSERT_EQ(full.stop, ChaseStop::kRoundBudget);

  const uint64_t fired_before = failpoint::FiredCount(point);
  failpoint::Arm(point, /*fire_count=*/1, skip);
  const ChaseResult faulted = engine.Run(rig.db, rig.options);
  failpoint::DisarmAll();

  EXPECT_EQ(failpoint::FiredCount(point), fired_before + 1);
  ASSERT_EQ(faulted.stop, ChaseStop::kInjectedFault);
  EXPECT_TRUE(IsResumableStop(faulted.stop));
  EXPECT_LT(faulted.complete_rounds, full.complete_rounds);
  // The faulted state is a complete chase stage: exactly the atoms of the
  // uninterrupted run up to its round boundary.
  ASSERT_LE(faulted.facts.size(), full.facts.size());
  for (size_t i = 0; i < faulted.facts.size(); ++i) {
    EXPECT_EQ(faulted.facts.ToAtom(i), full.facts.ToAtom(i));
  }

  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(rig.vocab, rig.theory, faulted, rig.options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.message();
  Result<ChaseSnapshot> decoded =
      DecodeSnapshot(EncodeSnapshot(snapshot.value()));
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  ExpectIdenticalRuns(engine.Resume(decoded.value(), rig.options), full);
}

TEST(FailpointTest, ChaseCommitFaultIsResumable) {
  CheckChaseFailpoint("chase.commit", /*skip=*/0);
  CheckChaseFailpoint("chase.commit", /*skip=*/3);
}

TEST(FailpointTest, ChaseSkolemAllocFaultIsResumable) {
  CheckChaseFailpoint("chase.skolem_alloc", /*skip=*/2);
}

TEST(FailpointTest, InsertBatchFaultIsResumableNotAtomBudget) {
  CheckChaseFailpoint("fact_set.insert_batch", /*skip=*/0);
  CheckChaseFailpoint("fact_set.insert_batch", /*skip=*/2);
}

TEST(FailpointTest, InsertBatchRefusesBatchWhenArmed) {
  DisarmOnExit guard;
  Vocabulary vocab;
  const PredicateId p = vocab.AddPredicate("P", 1);
  const TermId a = vocab.Constant("A");
  const TermId b = vocab.Constant("B");
  RowBlock block;
  block.Append(p, &a, 1);
  block.Append(p, &b, 1);

  FactSet facts;
  const uint64_t fired_before =
      failpoint::FiredCount("fact_set.insert_batch");
  failpoint::Arm("fact_set.insert_batch");
  std::vector<FactSet::InsertOutcome> outcomes;
  EXPECT_FALSE(facts.InsertBatch(block, &outcomes).has_value());
  EXPECT_TRUE(outcomes.empty());
  EXPECT_TRUE(facts.empty());  // store untouched
  EXPECT_EQ(failpoint::FiredCount("fact_set.insert_batch"),
            fired_before + 1);
  // Fire consumed: the next batch goes through.
  EXPECT_EQ(facts.InsertBatch(block, &outcomes), 2u);
  EXPECT_EQ(facts.size(), 2u);
}

// ParseFacts commits its rows with one InsertBatch, so a refused batch is
// an error status, never a silently empty fact set.
TEST(FailpointTest, ParseFactsReportsARefusedBatch) {
  DisarmOnExit guard;
  Vocabulary vocab;
  failpoint::Arm("fact_set.insert_batch");
  Result<FactSet> refused = ParseFacts(vocab, "P(A), P(B)");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.message(),
            "injected failure at failpoint 'fact_set.insert_batch'");
  Result<FactSet> parsed = ParseFacts(vocab, "P(A), P(B)");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().size(), 2u);
}

TEST(FailpointTest, SnapshotWriteFailpointsReturnErrorStatus) {
  DisarmOnExit guard;
  ChaseRig rig;
  ChaseEngine engine(rig.vocab, rig.theory);
  const ChaseResult run = engine.Run(rig.db, rig.options);
  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(rig.vocab, rig.theory, run, rig.options);
  ASSERT_TRUE(snapshot.ok());
  const std::string path =
      ::testing::TempDir() + "/failpoint_snapshot.frsnap";

  for (const char* point :
       {"snapshot.encode", "snapshot.write_open", "snapshot.write_io"}) {
    SCOPED_TRACE(point);
    const uint64_t fired_before = failpoint::FiredCount(point);
    failpoint::Arm(point);
    const Status status = WriteSnapshotFile(path, snapshot.value());
    EXPECT_FALSE(status.ok());
    // The write failpoints take the same recovery path as a real I/O
    // failure, so the message is the site's descriptive error (it names
    // the file), not the failpoint.
    EXPECT_FALSE(status.message().empty());
    EXPECT_EQ(failpoint::FiredCount(point), fired_before + 1);
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(WriteSnapshotFile(path, snapshot.value()).ok());

  for (const char* point :
       {"snapshot.read_open", "snapshot.read_io", "snapshot.decode"}) {
    SCOPED_TRACE(point);
    const uint64_t fired_before = failpoint::FiredCount(point);
    failpoint::Arm(point);
    Result<ChaseSnapshot> read = ReadSnapshotFile(path);
    EXPECT_FALSE(read.ok());
    EXPECT_EQ(failpoint::FiredCount(point), fired_before + 1);
  }
  failpoint::DisarmAll();
  Result<ChaseSnapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.message();
  ExpectIdenticalRuns(engine.Resume(read.value(), rig.options), run);
  std::remove(path.c_str());
}

TEST(FailpointTest, FaultedRunTripsBenchBudgetAccounting) {
  // bench/report.h counts kInjectedFault as a tripped budget so a faulted
  // bench row can never masquerade as a clean result; checked here via the
  // stop reason contract (report.h is header-only over ChaseStop).
  EXPECT_TRUE(IsResumableStop(ChaseStop::kInjectedFault));
  EXPECT_STREQ(ChaseStopName(ChaseStop::kInjectedFault), "injected-fault");
}

}  // namespace
}  // namespace frontiers
