// Tests for the memory-observability pillar (DESIGN.md §9): the two-mode
// ledger (content vs capacity), the `frontiers-mem-v1` stream's
// byte-identical-across-threads contract, the counting-allocator oracle
// that audits ledger coverage, the disabled-cost guarantee, and
// regression tests for the content-mode invariance bugs the round-boundary
// asserts flushed out (Skolem caches, dedup shard skeleton).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <malloc.h>  // malloc_usable_size, for the byte-tracking oracle
#endif

#include "base/fact_set.h"
#include "base/failpoint.h"
#include "base/mem_ledger.h"
#include "base/obs_hooks.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "obs/mem_stream.h"
#include "tgd/parser.h"

// Binary-wide allocator instrumentation, mirroring tests/obs_test.cc: the
// replaced operator new counts allocations while `g_count_allocations` is
// up (the disabled-cost test) and tracks net live heap bytes while
// `g_track_bytes` is up (the ledger-coverage oracle).  With both flags
// down the override is inert for the rest of the suite.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocation_count{0};
std::atomic<bool> g_track_bytes{false};
std::atomic<long long> g_net_bytes{0};

long long UsableSize(void* p) {
#if defined(__linux__)
  return static_cast<long long>(malloc_usable_size(p));
#else
  (void)p;
  return 0;
#endif
}
}  // namespace

// GCC flags free() inside a replaced operator delete as a new/delete
// mismatch; the pairing is correct (the replaced operator new below is
// malloc-based too).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_track_bytes.load(std::memory_order_relaxed)) {
    g_net_bytes.fetch_add(UsableSize(p), std::memory_order_relaxed);
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr && g_track_bytes.load(std::memory_order_relaxed)) {
    g_net_bytes.fetch_sub(UsableSize(p), std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr && g_track_bytes.load(std::memory_order_relaxed)) {
    g_net_bytes.fetch_sub(UsableSize(p), std::memory_order_relaxed);
  }
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace frontiers {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- ledger vs allocator oracle --------------------------------------------

// The E17a workload: T_d over the path instance G^n under the witness
// strategy (Section 10) — the same configuration exp_parallel_scaling
// benches.  Unfiltered T_d pins fresh Skolems forever; the strategy is
// what makes the grid tower finite.
ChaseResult RunTd(Vocabulary& vocab, uint32_t path_length, uint32_t threads,
                  uint32_t max_rounds = 80) {
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", path_length, "a");
  ChaseOptions options;
  options.max_rounds = max_rounds;
  options.max_atoms = 2'000'000;
  options.threads = threads;
  options.filter = TdWitnessStrategy(vocab, td);
  ChaseEngine engine(vocab, td);
  return engine.Run(db, options);
}

// Capacity-mode ledger audited against a counting-allocator oracle: the
// net live-heap delta of building a vocabulary and chasing E17a must be
// explained (>= 80%) by the ledger's grand total.  The uncovered tail is
// real but bounded: per-allocation malloc rounding, the run's stats
// vectors, and small fixed engine bookkeeping — none of which scale with
// the instance.  The upper bound checks the ledger never *over*-claims
// beyond allocator rounding.
TEST(MemOracle, CapacityLedgerCoversNetHeapDelta) {
#if !defined(__linux__)
  GTEST_SKIP() << "malloc_usable_size oracle requires glibc";
#endif
  // Warm-up: first chase initializes lazy process-wide state (metrics
  // registry, interned literals) whose allocations must stay outside the
  // tracked window.
  {
    Vocabulary warm;
    RunTd(warm, 64, 1);
  }
  g_net_bytes.store(0);
  g_track_bytes.store(true);
  auto vocab = std::make_unique<Vocabulary>();
  ChaseResult result;
  {
    // Theory, instance, and engine are destroyed inside the tracked
    // window, so their allocations cancel out of the net figure; what
    // remains live is exactly the vocabulary plus the chase result —
    // the state the ledger claims to account.
    result = RunTd(*vocab, 64, 1);
  }
  const long long net = g_net_bytes.load();
  g_track_bytes.store(false);
  ASSERT_GT(result.facts.size(), 64u);
  ASSERT_GT(net, 0);

  const MemTotals capacity =
      ComputeChaseMemTotals(result, *vocab, MemAccounting::kCapacity);
  const double coverage =
      static_cast<double>(capacity.GrandTotal()) / static_cast<double>(net);
  EXPECT_GE(coverage, 0.80) << "ledger " << capacity.GrandTotal()
                            << " bytes, allocator net " << net << " bytes";
  EXPECT_LE(coverage, 1.10) << "ledger over-claims: " << capacity.GrandTotal()
                            << " bytes vs allocator net " << net << " bytes";

  // Content <= capacity mode, component by component: sizes never exceed
  // reservations.
  const MemTotals content =
      ComputeChaseMemTotals(result, *vocab, MemAccounting::kContent);
  for (size_t i = 0; i < kMemComponentCount; ++i) {
    EXPECT_LE(content.bytes[i], capacity.bytes[i])
        << MemComponentName(static_cast<MemComponent>(i));
  }
  // And the published result figures agree with the authoritative walk.
  EXPECT_EQ(result.approx_bytes, content.TrackedTotal());
  EXPECT_GE(result.peak_bytes, capacity.TrackedTotal());
}

// --- frontiers-mem-v1 stream -----------------------------------------------

// Strips the meta row and the diag rows — the only lines allowed to differ
// across thread counts (rss_bytes is sampled, scratch_bytes is
// thread-dependent).
std::string DeterministicLines(const std::string& stream) {
  std::istringstream in(stream);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"meta\"") != std::string::npos) continue;
    if (line.find("\"kind\":\"diag\"") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

// The stream contract (DESIGN.md §9): component and round rows are
// byte-identical across thread counts.  E17c's sticky star fan-out keeps
// the rounds wide enough that the pool genuinely engages.
TEST(MemStream, DeterministicRowsAreByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string path = ::testing::TempDir() + "frontiers_mem_t" +
                             std::to_string(threads) + ".jsonl";
    std::remove(path.c_str());
    ASSERT_TRUE(obs::MemStreamSession::Start(path).ok());
    ASSERT_TRUE(obs::MemStreamSession::Active());
    {
      Vocabulary vocab;
      Theory sticky = StickyExample39Theory(vocab);
      FactSet db = Star39Instance(vocab, 8);
      ChaseOptions options;
      options.max_rounds = 6;
      options.max_atoms = 500'000;
      options.threads = threads;
      options.serial_round_threshold = 0;  // pool engages on wide rounds
      ChaseEngine engine(vocab, sticky);
      ChaseResult result = engine.Run(db, options);
      ASSERT_GT(result.facts.size(), db.size());
    }
    ASSERT_TRUE(obs::MemStreamSession::Stop().ok());
    ASSERT_FALSE(obs::MemStreamSession::Active());

    const std::string stream = ReadAll(path);
    ASSERT_FALSE(stream.empty());
    // Well-formed frame: the meta row leads, and at least one round row
    // follows.
    EXPECT_EQ(stream.rfind("{\"schema\":\"frontiers-mem-v1\"", 0), 0u);
    EXPECT_NE(stream.find("\"kind\":\"round\""), std::string::npos);
    const std::string deterministic = DeterministicLines(stream);
    ASSERT_FALSE(deterministic.empty());
    if (threads == 1) {
      reference = deterministic;
    } else {
      EXPECT_EQ(deterministic, reference) << "threads=" << threads;
    }
    std::remove(path.c_str());
  }
}

// --- disabled cost ---------------------------------------------------------

namespace memhook_counters {
std::atomic<size_t> calls{0};
uint64_t OnRun() {
  calls.fetch_add(1, std::memory_order_relaxed);
  return 1;
}
void OnRow(const obs::memhooks::MemRowRecord&) {
  calls.fetch_add(1, std::memory_order_relaxed);
}
void OnRound(const obs::memhooks::MemRoundRecord&) {
  calls.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace memhook_counters

// The disabled cost of memory telemetry, mirroring the task-stream test in
// obs_test.cc: with no session active the chase never reaches the mem
// hooks (every site gates on the one relaxed MemEnabled() load), and the
// always-on round-boundary accounting walk performs no allocations.
TEST(MemStream, DisabledTelemetryAllocatesNothingAndCallsNoHooks) {
  ASSERT_FALSE(obs::MemStreamSession::Active());
  ASSERT_FALSE(obs::memhooks::MemEnabled());
  // Install counting hooks WITHOUT raising the span-mask bit: if any
  // chase-side branch forgets the MemEnabled() gate, the counters catch
  // it.
  memhook_counters::calls.store(0);
  obs::memhooks::SetMemHooks(&memhook_counters::OnRun,
                             &memhook_counters::OnRow,
                             &memhook_counters::OnRound);
  Vocabulary vocab;
  ChaseResult result = RunTd(vocab, 32, 1);
  ASSERT_GT(result.facts.size(), 32u);
  EXPECT_EQ(memhook_counters::calls.load(), 0u)
      << "mem hooks must be unreachable while the span-mask bit is down";

  // The per-boundary cost that remains when telemetry is off: the rollup
  // walk itself.  It must build its fixed-size MemTotals without touching
  // the allocator, in both modes.
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const MemTotals content =
      ComputeChaseMemTotals(result, vocab, MemAccounting::kContent);
  const MemTotals capacity =
      ComputeChaseMemTotals(result, vocab, MemAccounting::kCapacity);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "the round-boundary accounting walk must not allocate";
  EXPECT_GT(content.TrackedTotal(), 0u);
  EXPECT_GE(capacity.TrackedTotal(), content.TrackedTotal());
  obs::memhooks::SetMemHooks(nullptr, nullptr, nullptr);
}

// --- content-mode invariance regressions -----------------------------------

// A small workload with Skolem terms and provenance (as in
// tests/snapshot_test.cc): ForwardPath never fixpoints, so interrupted and
// uninterrupted runs are comparable at any round budget.
struct ResumeWorkload {
  Vocabulary vocab;
  Theory theory;
  FactSet db;

  ResumeWorkload() : theory(ForwardPathTheory(vocab)) {
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

// Regression for the Skolem-cache under-count: the vocabulary's block/row
// caches are interned during a run but never replayed by a fresh-process
// resume, so counting them in content mode broke the resume-equivalence
// assert (snapshot approx_bytes 5168 vs reconstructed 5140 — exactly one
// arity-1 Skolem row).  Content mode must therefore exclude them:
// capacity > content on kVocabSkolem for any run that interned rows, and
// content still covers the replayable part (> 0 with Skolem terms live).
TEST(MemRegression, SkolemRowCachesAreCapacityOnly) {
  ResumeWorkload w;
  ChaseEngine engine(w.vocab, w.theory);
  ChaseResult result = engine.Run(w.db, ResumeWorkload::Options(4));
  ASSERT_EQ(result.stop, ChaseStop::kRoundBudget);
  const MemTotals content =
      ComputeChaseMemTotals(result, w.vocab, MemAccounting::kContent);
  const MemTotals capacity =
      ComputeChaseMemTotals(result, w.vocab, MemAccounting::kCapacity);
  EXPECT_GT(content.Get(MemComponent::kVocabSkolem), 0u);
  EXPECT_GT(capacity.Get(MemComponent::kVocabSkolem),
            content.Get(MemComponent::kVocabSkolem))
      << "the interned block/row caches must be visible to capacity mode "
         "and invisible to content mode";
}

// Regression for the shard-skeleton over-count: the dedup shard array and
// its mutexes scale with the shard count — a pure performance knob — so a
// resume that reconstructs the store under a different shard count
// reported a different "content" total (5564 vs 6124 across a 1->16 shard
// change).  Content mode now excludes the skeleton: two stores with equal
// rows but different shard counts must report identical content bytes.
TEST(MemRegression, ContentBytesIgnoreTheDedupShardCount) {
  Vocabulary vocab;
  const FactSet source = EdgePath(vocab, "E", 40, "a");
  uint64_t reference = 0;
  for (uint32_t shards : {1u, 4u, 64u}) {
    FactSet facts(shards);
    // Same insert sequence into every store.
    for (const Atom& atom : source.atoms()) facts.Insert(atom);
    MemTotals content_totals, capacity_totals;
    facts.AccountHeap(content_totals, MemAccounting::kContent);
    facts.AccountHeap(capacity_totals, MemAccounting::kCapacity);
    const uint64_t content = content_totals.TrackedTotal();
    const uint64_t capacity = capacity_totals.TrackedTotal();
    EXPECT_GE(capacity, content);
    if (shards == 1) {
      reference = content;
    } else {
      EXPECT_EQ(content, reference) << "shards=" << shards;
    }
  }
}

// The E18 satellite: an interrupted, serialized, fresh-process-resumed
// run must reconstruct the same content-mode ledger byte-for-byte — both
// against the snapshot's own figure (asserted inside Resume) and against
// the uninterrupted reference run.
TEST(MemRegression, ResumeReconstructsTheContentLedgerByteForByte) {
  constexpr uint32_t kTargetRounds = 5;
  ChaseResult reference;
  {
    ResumeWorkload w;
    ChaseEngine engine(w.vocab, w.theory);
    reference = engine.Run(w.db, ResumeWorkload::Options(kTargetRounds));
    ASSERT_EQ(reference.stop, ChaseStop::kRoundBudget);
    EXPECT_EQ(reference.approx_bytes,
              ComputeChaseMemTotals(reference, w.vocab,
                                    MemAccounting::kContent)
                  .TrackedTotal());
  }

  std::string wire;
  {
    ResumeWorkload w;
    ChaseEngine engine(w.vocab, w.theory);
    ChaseOptions options = ResumeWorkload::Options(2);
    ChaseResult interrupted = engine.Run(w.db, options);
    ASSERT_EQ(interrupted.stop, ChaseStop::kRoundBudget);
    Result<ChaseSnapshot> snapshot =
        MakeSnapshot(w.vocab, w.theory, interrupted, options);
    ASSERT_TRUE(snapshot.ok()) << snapshot.message();
    EXPECT_EQ(snapshot.value().approx_bytes, interrupted.approx_bytes);
    wire = EncodeSnapshot(snapshot.value());
  }

  // "Restart": nothing survives but the wire bytes.
  ResumeWorkload w;
  Result<ChaseSnapshot> snapshot = DecodeSnapshot(wire);
  ASSERT_TRUE(snapshot.ok()) << snapshot.message();
  ASSERT_TRUE(ApplySnapshotVocabulary(snapshot.value(), w.vocab).ok());
  ChaseEngine engine(w.vocab, w.theory);
  ChaseResult resumed =
      engine.Resume(snapshot.value(), ResumeWorkload::Options(kTargetRounds));
  ASSERT_EQ(resumed.stop, ChaseStop::kRoundBudget);
  ASSERT_EQ(resumed.complete_rounds, reference.complete_rounds);
  EXPECT_EQ(resumed.approx_bytes, reference.approx_bytes);
  EXPECT_EQ(resumed.approx_bytes,
            ComputeChaseMemTotals(resumed, w.vocab, MemAccounting::kContent)
                .TrackedTotal());
}

// An injected commit fault abandons the in-flight round whole; the
// published approx_bytes must still equal the authoritative content walk
// of the surviving stage (the incremental counters roll back with the
// round).
TEST(MemRegression, InjectedCommitFaultLeavesTheLedgerConsistent) {
  ResumeWorkload w;
  failpoint::Arm("chase.commit", /*fire_count=*/1, /*skip=*/2);
  ChaseEngine engine(w.vocab, w.theory);
  ChaseResult result = engine.Run(w.db, ResumeWorkload::Options(8));
  failpoint::DisarmAll();
  ASSERT_EQ(result.stop, ChaseStop::kInjectedFault);
  ASSERT_GT(result.complete_rounds, 0u);
  EXPECT_EQ(result.approx_bytes,
            ComputeChaseMemTotals(result, w.vocab, MemAccounting::kContent)
                .TrackedTotal());
}

// --- allocation regressions --------------------------------------------------

// Heap allocations per staged application over one whole `Run`.  Staging
// writes into per-unit arenas and the frontier memo appends to one word
// arena, so what remains is per-round and per-seed overhead, not
// per-application objects.
struct AllocationsPerStaged {
  double ratio = 0;
  ChaseResult result;
};

AllocationsPerStaged MeasureRun(Vocabulary& vocab, const Theory& theory,
                                const FactSet& db,
                                const ChaseOptions& options) {
  ChaseEngine engine(vocab, theory);
  AllocationsPerStaged out;
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  out.result = engine.Run(db, options);
  g_count_allocations.store(false);
  const uint64_t staged = out.result.stats.TotalStaged();
  out.ratio = staged == 0 ? 0.0
                          : static_cast<double>(g_allocation_count.load()) /
                                static_cast<double>(staged);
  ::testing::Test::RecordProperty("allocations_per_staged",
                                  std::to_string(out.ratio));
  return out;
}

TEST(AllocationRegression, DatalogCycleStagesWithoutPerApplicationHeap) {
  Vocabulary vocab;
  Result<Theory> theory = ParseTheory(vocab, "E(x,y), E(y,z) -> E(x,z)");
  ASSERT_TRUE(theory.ok()) << theory.status().message();
  const FactSet db = EdgeCycle(vocab, "E", 60);
  ChaseOptions options;
  options.threads = 1;
  const AllocationsPerStaged run =
      MeasureRun(vocab, theory.value(), db, options);
  ASSERT_EQ(run.result.stop, ChaseStop::kFixpoint);
  EXPECT_EQ(run.result.stats.TotalStaged(), 283'500u);
  EXPECT_EQ(run.result.stats.TotalDeduped(), 279'900u);
  // Three heap objects per staged application (binding vector, memo key
  // string, memo node) would put this well above 2.
  EXPECT_LE(run.ratio, 0.5) << "allocations per staged application";
}

TEST(AllocationRegression, Example39StarStagesWithLittlePerApplicationHeap) {
  Vocabulary vocab;
  const Theory theory = StickyExample39Theory(vocab);
  const FactSet db = Star39Instance(vocab, 10);
  ChaseOptions options;
  options.threads = 1;
  options.max_rounds = 4;
  const AllocationsPerStaged run = MeasureRun(vocab, theory, db, options);
  ASSERT_GT(run.result.stats.TotalStaged(), 0u);
  EXPECT_LE(run.ratio, 6.0) << "allocations per staged application";
}

}  // namespace
}  // namespace frontiers
