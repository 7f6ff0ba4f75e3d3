// Tests for the memory-observability pillar (DESIGN.md §9) and the round
// stream that reports it: the two-mode ledger (content vs capacity), the
// `frontiers-rounds-v1` stream's byte-identical-across-threads contract,
// its agreement with ChaseStats and its ETA rule, the counting-allocator
// oracle that audits ledger coverage, the disabled-cost guarantee, and
// regression tests for the content-mode invariance bugs the round-boundary
// asserts flushed out (Skolem caches).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <malloc.h>  // malloc_usable_size, for the byte-tracking oracle
#include <sys/resource.h>  // getrusage, for the heap-reuse check
#endif

#include "base/fact_set.h"
#include "base/failpoint.h"
#include "base/mem_ledger.h"
#include "base/vocabulary.h"
#include "catalog/instances.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "obs/json.h"
#include "obs/round_stream.h"
#include "testing/generator.h"
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
// The nothrow form (std::stable_partition's temporary buffer, which the
// restricted variant's commit uses) must come from the same malloc as the
// deletes below, or sanitizer builds report an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr && g_track_bytes.load(std::memory_order_relaxed)) {
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
void operator delete(void* p, const std::nothrow_t&) noexcept {
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

// --- frontiers-rounds-v1 stream -------------------------------------------

// Runs `body` under a round-stream session and returns the stream's text.
std::string Streamed(const std::string& name,
                     const std::function<void()>& body) {
  const std::string path = ::testing::TempDir() + "frontiers_rounds_" + name +
                           ".jsonl";
  std::remove(path.c_str());
  EXPECT_TRUE(obs::RoundStreamSession::Start(path).ok());
  EXPECT_FALSE(obs::RoundStreamSession::Start(path).ok())
      << "one session at a time";
  body();
  EXPECT_TRUE(obs::RoundStreamSession::Stop().ok());
  EXPECT_FALSE(obs::RoundStreamSession::Stop().ok()) << "already stopped";
  const std::string stream = ReadAll(path);
  std::remove(path.c_str());
  return stream;
}

// The stream's rows of one kind, parsed.
std::vector<obs::JsonValue> Rows(const std::string& stream,
                                 const std::string& kind) {
  std::vector<obs::JsonValue> rows;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    Result<obs::JsonValue> row = obs::ParseJson(line);
    EXPECT_TRUE(row.ok()) << row.message() << ": " << line;
    if (row.ok() && row.value().Find("kind")->string == kind) {
      rows.push_back(std::move(row).value());
    }
  }
  return rows;
}

uint64_t Field(const obs::JsonValue& row, const char* key) {
  const obs::JsonValue* value = row.Find(key);
  EXPECT_TRUE(value != nullptr && value->IsNumber()) << key;
  return value != nullptr ? static_cast<uint64_t>(value->number) : 0;
}

// Strips the meta row and the diag rows — the only lines allowed to differ
// across thread counts (rss_bytes is sampled, scratch_bytes is
// thread-dependent, the rest is wall-clock progress).
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

// The stream contract (DESIGN.md §9): component, round and stop rows are
// byte-identical across thread counts.  E17c's sticky star fan-out keeps
// the rounds wide enough that the pool genuinely engages.
TEST(RoundStream, DeterministicRowsAreByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string stream =
        Streamed("t" + std::to_string(threads), [threads] {
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
        });
    // Well-formed frame: the meta row leads, round rows follow, and the
    // run ends in one stop row.
    EXPECT_EQ(stream.rfind("{\"schema\":\"frontiers-rounds-v1\"", 0), 0u);
    EXPECT_EQ(Rows(stream, "round").size(), 7u) << "opening + 6 rounds";
    EXPECT_EQ(Rows(stream, "diag").size(), 7u);
    ASSERT_EQ(Rows(stream, "stop").size(), 1u);
    EXPECT_FALSE(Rows(stream, "component").empty());
    const std::string deterministic = DeterministicLines(stream);
    if (threads == 1) {
      reference = deterministic;
    } else {
      EXPECT_EQ(deterministic, reference) << "threads=" << threads;
    }
  }
}

// Sums of the round-row counters of one run.  The opening boundary closes
// no round and carries zeros, so it only shows up in `boundaries`.
struct StreamTotals {
  uint64_t boundaries = 0, matches = 0, staged = 0, committed = 0,
           preempted = 0, deduped = 0, atoms_inserted = 0;
};

std::map<uint64_t, StreamTotals> TotalsByRun(const std::string& stream) {
  std::map<uint64_t, StreamTotals> totals;
  for (const obs::JsonValue& row : Rows(stream, "round")) {
    StreamTotals& t = totals[Field(row, "run")];
    ++t.boundaries;
    t.matches += Field(row, "matches");
    t.staged += Field(row, "staged");
    t.committed += Field(row, "committed");
    t.preempted += Field(row, "preempted");
    t.deduped += Field(row, "deduped");
    t.atoms_inserted += Field(row, "atoms_inserted");
  }
  return totals;
}

// The round rows of the listed runs together are exactly `stats`' round
// records: one closing boundary per record, equal counter sums.
void ExpectStreamMatchesStats(const std::map<uint64_t, StreamTotals>& runs,
                              const ChaseStats& stats) {
  StreamTotals sum;
  for (const auto& [run, t] : runs) {
    sum.boundaries += t.boundaries - 1;  // minus the opening boundary
    sum.matches += t.matches;
    sum.staged += t.staged;
    sum.committed += t.committed;
    sum.preempted += t.preempted;
    sum.deduped += t.deduped;
    sum.atoms_inserted += t.atoms_inserted;
  }
  EXPECT_EQ(sum.boundaries, stats.rounds.size());
  EXPECT_EQ(sum.matches, stats.TotalMatches());
  EXPECT_EQ(sum.staged, stats.TotalStaged());
  EXPECT_EQ(sum.committed, stats.TotalCommitted());
  EXPECT_EQ(sum.preempted, stats.TotalPreempted());
  EXPECT_EQ(sum.deduped, stats.TotalDeduped());
  EXPECT_EQ(sum.atoms_inserted, stats.TotalInserted());
}

// The stop row closes the run with its result, and the last round row
// describes the state it returned.
void ExpectStopRowMatchesResult(const std::string& stream,
                                const ChaseResult& result) {
  const std::vector<obs::JsonValue> stops = Rows(stream, "stop");
  ASSERT_FALSE(stops.empty());
  EXPECT_EQ(stops.back().Find("stop")->string, ChaseStopName(result.stop));
  EXPECT_EQ(Field(stops.back(), "round"), result.complete_rounds);
  const std::vector<obs::JsonValue> rounds = Rows(stream, "round");
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(Field(rounds.back(), "atoms"), result.facts.size());
  EXPECT_EQ(Field(rounds.back(), "live_bytes"), result.approx_bytes);
}

// The stream view of a run agrees with its ChaseStats for every way a run
// can end, the cases the registry is checked on in tests/obs_test.cc: a
// plain run of each variant, a resumed run, a byte-budget stop that
// abandons a round mid-match, and an injected batch fault that abandons a
// round mid-commit.
TEST(RoundStream, RoundRowCountersSumToChaseStats) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 6, "a");
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 100'000;
  options.filter = TdWitnessStrategy(vocab, td);
  ChaseEngine engine(vocab, td);

  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
    SCOPED_TRACE(variant == ChaseVariant::kRestricted ? "restricted"
                                                      : "semi-oblivious");
    ChaseOptions variant_options = options;
    variant_options.variant = variant;
    ChaseResult result;
    const std::string stream = Streamed("variant", [&] {
      result = engine.Run(db, variant_options);
    });
    ASSERT_FALSE(result.stats.rounds.empty());
    const auto runs = TotalsByRun(stream);
    ASSERT_EQ(runs.size(), 1u);
    ExpectStreamMatchesStats(runs, result.stats);
    ExpectStopRowMatchesResult(stream, result);
  }

  {
    // Resume from a round-budget snapshot: the resumed stats carry the
    // first run's rounds, so both runs of the stream sum to them.
    SCOPED_TRACE("resume");
    ChaseOptions first_options = options;
    first_options.max_rounds = 2;
    ChaseResult resumed;
    const std::string stream = Streamed("resume", [&] {
      ChaseResult first = engine.Run(db, first_options);
      ASSERT_EQ(first.stop, ChaseStop::kRoundBudget);
      Result<ChaseSnapshot> snapshot =
          MakeSnapshot(vocab, td, first, first_options);
      ASSERT_TRUE(snapshot.ok()) << snapshot.message();
      resumed = engine.Resume(snapshot.value(), options);
    });
    const auto runs = TotalsByRun(stream);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_GT(resumed.stats.rounds.size(), 2u);
    ExpectStreamMatchesStats(runs, resumed.stats);
    ExpectStopRowMatchesResult(stream, resumed);
    // The resumed run opens at the snapshot's boundary.
    for (const obs::JsonValue& row : Rows(stream, "round")) {
      if (Field(row, "run") == 2) {
        EXPECT_EQ(Field(row, "round"), 2u);
        break;
      }
    }
  }

  {
    // A byte budget just above the content total after `k` rounds trips
    // while round k stages, so that round is abandoned and never streamed.
    SCOPED_TRACE("byte budget");
    const uint32_t k = 2;
    ChaseOptions probe_options = options;
    probe_options.max_rounds = k;
    ChaseResult probe = engine.Run(db, probe_options);
    ASSERT_EQ(probe.stop, ChaseStop::kRoundBudget);
    ChaseOptions budget_options = options;
    budget_options.max_bytes = probe.approx_bytes + 1;
    ChaseResult result;
    const std::string stream = Streamed("bytes", [&] {
      result = engine.Run(db, budget_options);
    });
    ASSERT_EQ(result.stop, ChaseStop::kByteBudget);
    EXPECT_EQ(result.stats.rounds.size(), k);
    ExpectStreamMatchesStats(TotalsByRun(stream), result.stats);
    ExpectStopRowMatchesResult(stream, result);
  }

  {
    // An injected batch fault abandons the round in mid-commit.
    SCOPED_TRACE("injected fault");
    ChaseResult result;
    const std::string stream = Streamed("fault", [&] {
      failpoint::Arm("fact_set.insert_batch", /*fire_count=*/1, /*skip=*/2);
      result = engine.Run(db, options);
      failpoint::DisarmAll();
    });
    ASSERT_EQ(result.stop, ChaseStop::kInjectedFault);
    ExpectStreamMatchesStats(TotalsByRun(stream), result.stats);
    ExpectStopRowMatchesResult(stream, result);
  }
}

// The diag row's ETA is the minimum over every active budget's projection.
// With a generous deadline and a huge atom budget the deadline's remaining
// time binds, so every boundary has an ETA no later than the deadline;
// without a deadline the remaining-time field is null.
TEST(RoundStream, EtaIsMinimumOverActiveBudgets) {
  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  FactSet db = EdgePath(vocab, "G", 8, "a");
  ChaseOptions options;
  options.max_rounds = 16;
  options.filter = TdWitnessStrategy(vocab, td);
  options.max_atoms = 100'000'000;
  ChaseEngine engine(vocab, td);

  ChaseOptions deadline_options = options;
  deadline_options.deadline_seconds = 3600.0;
  const std::vector<obs::JsonValue> diags = Rows(
      Streamed("eta", [&] { engine.Run(db, deadline_options); }), "diag");
  ASSERT_GE(diags.size(), 2u);
  for (size_t i = 0; i < diags.size(); ++i) {
    const obs::JsonValue* left = diags[i].Find("budget_remaining_seconds");
    const obs::JsonValue* eta = diags[i].Find("eta_seconds");
    ASSERT_TRUE(left->IsNumber()) << "row " << i;
    ASSERT_TRUE(eta->IsNumber()) << "row " << i;
    EXPECT_GE(left->number, 0.0) << "row " << i;
    EXPECT_GE(eta->number, 0.0) << "row " << i;
    // The remaining deadline is one of the budgets the ETA minimizes over,
    // read from the same clock reading.
    EXPECT_LE(eta->number, left->number) << "row " << i;
  }

  const std::vector<obs::JsonValue> bare =
      Rows(Streamed("bare", [&] { engine.Run(db, options); }), "diag");
  ASSERT_GE(bare.size(), 2u);
  for (const obs::JsonValue& diag : bare) {
    EXPECT_TRUE(diag.Find("budget_remaining_seconds")->IsNull());
  }
  // The opening boundary has no rate yet, so only the deadline could have
  // given it an ETA.
  EXPECT_TRUE(bare.front().Find("eta_seconds")->IsNull());
}

// --- disabled cost ---------------------------------------------------------

// The disabled cost of memory telemetry: with no session active a chase
// run claims no stream ordinal (one relaxed load), so it writes no rows,
// and the always-on round-boundary accounting walk performs no
// allocations.
TEST(RoundStream, DisabledTelemetryAllocatesNothing) {
  ASSERT_EQ(obs::RoundStreamSession::BeginRun(), 0u);
  Vocabulary vocab;
  ChaseResult result = RunTd(vocab, 32, 1);
  ASSERT_GT(result.facts.size(), 32u);

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

// A dead chase's heap stays with the process for the next run: fact_set.cc
// starts glibc's thresholds where its dynamic rule settles, so a repeated
// chase reuses the pages the last one freed instead of faulting them in
// again.  Measured on the 12-colour Example 39 star at 4 rounds (about
// 9 MiB of heap): about 1,800 minor faults per repeat under glibc's default
// thresholds, at most 165 with them raised.
TEST(MemRegression, RepeatedChaseReusesTheFreedHeap) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "counts page faults under glibc's own allocator";
#else
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables != nullptr && std::strstr(tunables, "glibc.malloc.")) {
    GTEST_SKIP() << "malloc tunables set in the environment win";
  }
  const auto chase_faults = [] {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    {
      Vocabulary vocab;
      const Theory theory = StickyExample39Theory(vocab);
      const FactSet db = Star39Instance(vocab, 12);
      ChaseOptions options;
      options.threads = 1;
      options.max_rounds = 4;
      ChaseEngine engine(vocab, theory);
      EXPECT_EQ(engine.Run(db, options).facts.size(), 22'633u);
    }
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    return after.ru_minflt - before.ru_minflt;
  };
  chase_faults();  // the first run grows the heap
  long repeat_faults = 0;
  for (int run = 0; run < 3; ++run) repeat_faults += chase_faults();
  EXPECT_LT(repeat_faults, 1'000) << "minor faults over three repeated chases";
#endif
}

// The Skolem ledger's two modes.  Every Skolem term belongs to exactly one
// row and a snapshot replay interns whole rows, so a fresh-process resume
// rebuilds the blocks and rows exactly: content mode counts each row's one
// copy of its arguments and its row record.  The row index holds one slot
// per row, a probe structure over the same rows, so only capacity mode
// counts it (content mode counts each row once).  Capacity > content on
// kVocabSkolem for any run that interned rows, and content covers the
// replayable part (> 0 with Skolem terms live).  Counting anything a
// fresh-process resume does not rebuild exactly in content mode breaks the
// resume-equivalence assert.
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
      << "the row index must be visible to capacity mode and invisible to "
         "content mode";
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
  // string, memo node) would put this well above 2, and a seed
  // substitution per delta fact above 0.2.  Measured: 0.042 with one
  // seeded match plan per unit, 0.017 once a row's predicate index is
  // looked up before one is constructed, 0.0038 with rows kept only in
  // the columns, 0.0028 with one serial batch insert.
  EXPECT_LE(run.ratio, 0.01) << "allocations per staged application";
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
  // Measured: 0.138 with one serial batch insert (0.148 through the
  // pipelined twin; 1.15 with a heap `Atom` per row beside them; 2.15
  // with postings at every position and a hash-map node per invented
  // null; 4.16 with a throwaway predicate index per committed row; 5.56
  // with a seed substitution and a compiled search per delta fact).  A row
  // now costs no heap object of its own: its terms go into the
  // predicate's columns and its id into the dense per-row table, both
  // grown geometrically.
  EXPECT_LE(run.ratio, 0.2) << "allocations per staged application";
}

// Heap allocations per fact parsed by `ParseFacts`, on a guarded-rewrite
// shaped instance (6 predicates, 100 constants, 600 draws) parsed into a
// vocabulary that already holds the theory, as a task's setup does.
TEST(AllocationRegression, ParseFactsPerFact) {
  std::string theory_text, facts_text;
  {
    Vocabulary vocab;
    testing::TheoryGenOptions theory_options;
    theory_options.theory_class = testing::TheoryClass::kGuarded;
    theory_options.num_predicates = 6;
    const Theory theory = testing::GenerateTheory(vocab, 7, theory_options);
    testing::InstanceGenOptions instance;
    instance.num_constants = 100;
    instance.num_facts = 600;
    theory_text = TheoryToString(vocab, theory);
    facts_text = testing::FactsToText(
        vocab, testing::GenerateInstance(
                   vocab, testing::TheorySignature(theory), 8, instance));
  }
  Vocabulary vocab;
  ASSERT_TRUE(ParseTheory(vocab, theory_text).ok());
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  Result<FactSet> facts = ParseFacts(vocab, facts_text);
  g_count_allocations.store(false);
  ASSERT_TRUE(facts.ok()) << facts.message();
  ASSERT_GT(facts.value().size(), 300u);
  const double per_fact = static_cast<double>(g_allocation_count.load()) /
                          static_cast<double>(facts.value().size());
  ::testing::Test::RecordProperty("allocations_per_fact",
                                  std::to_string(per_fact));
  // Measured: 0.483 with the batch grown once per predicate (0.746 with a
  // reserve per dedup shard; 1.75 with a heap `Atom` per row beside them;
  // 1.94 with postings at every position; 5.17 with a token vector, an
  // Atom per fact, one Insert per row and a throwaway predicate index per
  // row).  A parsed row costs no heap object
  // of its own any more: the count is now below one per fact.
  EXPECT_LE(per_fact, 0.8) << "allocations per parsed fact";
}

}  // namespace
}  // namespace frontiers
