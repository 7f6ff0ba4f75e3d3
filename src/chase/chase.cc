#include "chase/chase.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>

#include "base/check.h"
#include "base/failpoint.h"
#include "base/obs_hooks.h"
#include "base/worker_pool.h"
#include "chase/snapshot.h"
#include "hom/matcher.h"
#include "hom/structure_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

// Registry handles for the chase's metrics, resolved once per process.
// ChaseStats remains the per-run view of the same quantities; these
// aggregate across runs/threads under `frontiers.chase.*` (DESIGN.md §7).
struct ChaseMetrics {
  obs::Counter& runs;
  obs::Counter& rounds;
  obs::Counter& matches;
  obs::Counter& staged;
  obs::Counter& committed;
  obs::Counter& preempted;
  obs::Counter& deduped;
  obs::Counter& atoms_inserted;
  obs::Counter& budget_stops;
  // Sharded-commit observability: batches committed through the pipelined
  // path, rounds the small-round serial fallback kept on one thread, and
  // per-batch shard occupancy (rows routed to the busiest dedup shard /
  // shards touched — the contention picture of DESIGN.md §5).
  obs::Counter& shard_commits;
  obs::Counter& serial_rounds;
  // Thread-usage decisions per round, so heartbeat/metrics-only consumers
  // see the serial_round_threshold fallback engaging without reading
  // ChaseRoundStats: every round lands in exactly one of these two.
  obs::Counter& rounds_parallel;
  obs::Counter& rounds_serial;
  obs::Gauge& live_bytes;
  // Ledger-backed memory observability (DESIGN.md §9): the capacity-mode
  // tracked total at the last round boundary and its process-lifetime
  // high-water mark, published under `frontiers.mem.*` alongside the
  // per-component gauges below.
  obs::Gauge& mem_total_bytes;
  obs::Gauge& mem_peak_bytes;
  // Shard contention per batch commit (wait = blocked acquiring a shard
  // mutex, hold = productive time under it) and the latest batch's
  // max/mean shard-row imbalance.
  obs::Gauge& shard_imbalance;
  obs::Histogram& match_seconds;
  obs::Histogram& commit_seconds;
  obs::Histogram& commit_expand_seconds;
  obs::Histogram& commit_dedup_seconds;
  obs::Histogram& commit_index_seconds;
  obs::Histogram& shard_max_rows;
  obs::Histogram& shards_touched;
  obs::Histogram& shard_wait_seconds;
  obs::Histogram& shard_hold_seconds;
  obs::Histogram& run_seconds;
  // One gauge per ledger component (`frontiers.mem.<component>_bytes`),
  // capacity mode, set at every round boundary.  Filled after the
  // aggregate init below (names are composed, not literals).
  std::array<obs::Gauge*, kMemComponentCount> mem_components{};

  static ChaseMetrics& Get() {
    static ChaseMetrics* metrics = [] {
      obs::Registry& reg = obs::DefaultRegistry();
      const std::vector<double> phase_buckets = {1e-4, 1e-3, 1e-2, 0.1,
                                                 1.0,  10.0, 100.0};
      const std::vector<double> row_buckets = {1.0,  10.0, 100.0, 1e3,
                                               1e4,  1e5,  1e6};
      const std::vector<double> shard_buckets = {1.0, 2.0, 4.0, 8.0, 16.0,
                                                 32.0, 64.0, 128.0, 256.0};
      ChaseMetrics* m = new ChaseMetrics{
          reg.GetCounter("frontiers.chase.runs"),
          reg.GetCounter("frontiers.chase.rounds"),
          reg.GetCounter("frontiers.chase.matches"),
          reg.GetCounter("frontiers.chase.staged"),
          reg.GetCounter("frontiers.chase.committed"),
          reg.GetCounter("frontiers.chase.preempted"),
          reg.GetCounter("frontiers.chase.deduped"),
          reg.GetCounter("frontiers.chase.atoms_inserted"),
          reg.GetCounter("frontiers.chase.budget_stops"),
          reg.GetCounter("frontiers.chase.shard_commits"),
          reg.GetCounter("frontiers.chase.serial_rounds"),
          reg.GetCounter("frontiers.chase.rounds_parallel"),
          reg.GetCounter("frontiers.chase.rounds_serial"),
          reg.GetGauge("frontiers.chase.live_bytes"),
          reg.GetGauge("frontiers.mem.total_bytes"),
          reg.GetGauge("frontiers.mem.peak_bytes"),
          reg.GetGauge("frontiers.chase.shard_imbalance"),
          reg.GetHistogram("frontiers.chase.match_seconds", phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_seconds", phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_expand_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_dedup_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_index_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.shard_max_rows", row_buckets),
          reg.GetHistogram("frontiers.chase.shards_touched", shard_buckets),
          reg.GetHistogram("frontiers.chase.shard_wait_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.shard_hold_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.run_seconds", phase_buckets)};
      for (size_t c = 0; c < kMemComponentCount; ++c) {
        m->mem_components[c] = &reg.GetGauge(
            std::string("frontiers.mem.") +
            MemComponentName(static_cast<MemComponent>(c)) + "_bytes");
      }
      return m;
    }();
    return *metrics;
  }
};

// --- Ledger-backed live-memory accounting ----------------------------------
// Every owning container self-reports exact bytes from its own bookkeeping
// (base/mem_ledger.h); the chase rolls them up at round boundaries.  Two
// components live outside FactSet/Vocabulary and are accounted here: the
// frontier memo (seen_applications), which reports its own bytes, and
// provenance.  Provenance's *inner* heap — Derivation::parents vectors — is
// carried by running counters in RunState (a walk per boundary would be
// O(atoms)); the walk below recomputes it from scratch for Resume
// initialization and for the debug-build incremental-vs-recomputed assert.

uint64_t ProvInnerBytes(const ChaseResult& result, MemAccounting mode) {
  uint64_t sum = 0;
  for (const std::optional<Derivation>& d : result.first_derivation) {
    if (d.has_value()) sum += VectorHeapBytes(d->parents, mode);
  }
  for (const std::vector<Derivation>& list : result.all_derivations) {
    sum += VectorHeapBytes(list, mode);
    for (const Derivation& d : list) sum += VectorHeapBytes(d.parents, mode);
  }
  return sum;
}

// Full ledger of a chase state, with the provenance inner bytes supplied
// by the caller (either the incremental counters or the walk above).
// Everything except kScratch, which belongs to an engine's in-flight round.
MemTotals ChaseMemTotalsFromParts(const ChaseResult& result,
                                  const Vocabulary& vocab, MemAccounting mode,
                                  uint64_t prov_inner_bytes) {
  MemTotals totals;
  result.facts.AccountHeap(totals, mode);
  vocab.AccountHeap(totals, mode);
  totals.Add(MemComponent::kFrontierMemo,
             result.seen_applications.HeapBytes(mode));
  totals.Add(
      MemComponent::kProvenance,
      prov_inner_bytes + VectorHeapBytes(result.depth, mode) +
          VectorHeapBytes(result.first_derivation, mode) +
          VectorHeapBytes(result.all_derivations, mode) +
          UnorderedOverheadBytes(result.birth_atom.bucket_count(),
                                 result.birth_atom.size(),
                                 sizeof(std::pair<const TermId, uint32_t>),
                                 mode));
  // The run's own diagnostics (per-round counters and timings) are real
  // heap bytes but not chase state: attribute them to kScratch so the
  // audit walk is complete over ChaseResult (the allocator oracle in
  // tests/mem_test.cc checks GrandTotal against net heap growth) while
  // TrackedTotal — budgets, live_bytes, the stream's total — ignores them.
  totals.Add(MemComponent::kScratch,
             VectorHeapBytes(result.stats.rounds, mode));
  return totals;
}

}  // namespace

MemTotals ComputeChaseMemTotals(const ChaseResult& result,
                                const Vocabulary& vocab, MemAccounting mode) {
  return ChaseMemTotalsFromParts(result, vocab, mode,
                                 ProvInnerBytes(result, mode));
}

const char* ChaseStopName(ChaseStop stop) {
  switch (stop) {
    case ChaseStop::kFixpoint:
      return "fixpoint";
    case ChaseStop::kRoundBudget:
      return "round-budget";
    case ChaseStop::kAtomBudget:
      return "atom-budget";
    case ChaseStop::kDeadline:
      return "deadline";
    case ChaseStop::kByteBudget:
      return "byte-budget";
    case ChaseStop::kCancelled:
      return "cancelled";
    case ChaseStop::kInjectedFault:
      return "injected-fault";
  }
  return "?";
}

std::string ChaseHeartbeat::ToJsonLine() const {
  char buffer[256];
  std::string line;
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"schema\":\"frontiers-heartbeat-v1\",\"round\":%u,\"facts\":%llu,"
      "\"facts_per_sec\":%.6g,\"bytes\":%llu,\"peak_bytes\":%llu,"
      "\"elapsed_seconds\":%.6f",
      round, static_cast<unsigned long long>(facts), facts_per_second,
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(peak_bytes), elapsed_seconds);
  line = buffer;
  if (budget_remaining_seconds >= 0) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\"budget_remaining_seconds\":%.6f",
                  budget_remaining_seconds);
    line += buffer;
  } else {
    line += ",\"budget_remaining_seconds\":null";
  }
  if (eta_seconds >= 0) {
    std::snprintf(buffer, sizeof(buffer), ",\"eta_seconds\":%.6f",
                  eta_seconds);
    line += buffer;
  } else {
    line += ",\"eta_seconds\":null";
  }
  if (stop != nullptr) {
    // Stop names are fixed lowercase literals (ChaseStopName); no escaping.
    line += ",\"stop\":\"";
    line += stop;
    line += "\"";
  } else {
    line += ",\"stop\":null";
  }
  line += "}";
  return line;
}

bool IsResumableStop(ChaseStop stop) {
  // kAtomBudget is enforced per inserted atom and may truncate a round
  // mid-head; every other stop lands on a round boundary.
  return stop != ChaseStop::kAtomBudget;
}

uint32_t ResolveWorkerCount(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t ChaseStats::ParallelRounds() const {
  return static_cast<uint64_t>(std::count_if(
      rounds.begin(), rounds.end(),
      [](const ChaseRoundStats& r) { return r.used_threads > 1; }));
}

double ChaseStats::TotalSeconds() const {
#ifndef NDEBUG
  // Phases are sub-intervals of the run, measured with the same steady
  // clock, so their sum can only exceed the wall time by measurement
  // granularity.  Tolerance: 1ms absolute plus 1% relative.
  const double phases = MatchSeconds() + CommitSeconds();
  FRONTIERS_CHECK(phases <= total_seconds + 1e-3 + 0.01 * total_seconds,
                  "chase phase times exceed the run wall time: match+commit=" +
                      std::to_string(phases) +
                      "s, total=" + std::to_string(total_seconds) + "s");
#endif
  return total_seconds;
}

std::string ChaseStats::Summary() const {
  const double match = MatchSeconds();
  const double commit = CommitSeconds();
  const double total = TotalSeconds();
  const double other = total > match + commit ? total - match - commit : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "rounds=%zu matches=%llu staged=%llu deduped=%llu committed=%llu "
      "preempted=%llu inserted=%llu match=%.3fs commit=%.3fs "
      "(expand=%.3fs dedup=%.3fs index=%.3fs) other=%.3fs total=%.3fs",
      rounds.size(), static_cast<unsigned long long>(TotalMatches()),
      static_cast<unsigned long long>(TotalStaged()),
      static_cast<unsigned long long>(TotalDeduped()),
      static_cast<unsigned long long>(TotalCommitted()),
      static_cast<unsigned long long>(TotalPreempted()),
      static_cast<unsigned long long>(TotalInserted()), match, commit,
      CommitExpandSeconds(), CommitDedupSeconds(), CommitIndexSeconds(), other,
      total);
  std::string out = buffer;
  if (!rounds.empty()) {
    // Ledger figures (capacity mode, DESIGN.md §9): the last boundary's
    // component breakdown plus the per-round high-water of this stats view.
    const MemTotals& t = rounds.back().mem;
    uint64_t peak = 0;
    for (const ChaseRoundStats& r : rounds) {
      peak = std::max<uint64_t>(peak, r.mem.TrackedTotal());
    }
    const uint64_t store = t.Get(MemComponent::kColumns) +
                           t.Get(MemComponent::kPostings) +
                           t.Get(MemComponent::kDedup) +
                           t.Get(MemComponent::kFactMeta);
    const uint64_t vocab = t.Get(MemComponent::kVocabTerms) +
                           t.Get(MemComponent::kVocabSkolem);
    std::snprintf(
        buffer, sizeof(buffer),
        " mem=%llu (store=%llu vocab=%llu prov=%llu memo=%llu scratch=%llu) "
        "mem_peak=%llu",
        static_cast<unsigned long long>(t.TrackedTotal()),
        static_cast<unsigned long long>(store),
        static_cast<unsigned long long>(vocab),
        static_cast<unsigned long long>(t.Get(MemComponent::kProvenance)),
        static_cast<unsigned long long>(t.Get(MemComponent::kFrontierMemo)),
        static_cast<unsigned long long>(t.Get(MemComponent::kScratch)),
        static_cast<unsigned long long>(peak));
    out += buffer;
  }
  return out;
}

std::string ChaseStats::ToString() const {
  std::string out =
      "round    matches     staged    deduped  committed  preempted   "
      "inserted  match_s   commit_s\n";
  char line[192];
  for (size_t i = 0; i < rounds.size(); ++i) {
    const ChaseRoundStats& r = rounds[i];
    std::snprintf(line, sizeof(line),
                  "%5zu %10llu %10llu %10llu %10llu %10llu %10llu %8.4f "
                  "%10.4f\n",
                  i, static_cast<unsigned long long>(r.matches),
                  static_cast<unsigned long long>(r.staged),
                  static_cast<unsigned long long>(r.deduped),
                  static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.preempted),
                  static_cast<unsigned long long>(r.atoms_inserted),
                  r.match_seconds, r.commit_seconds);
    out += line;
  }
  return out;
}

FactSet ChaseResult::PrefixAtDepth(uint32_t i) const {
  FactSet out;
  for (size_t k = 0; k < facts.atoms().size(); ++k) {
    if (depth[k] <= i) out.Insert(facts.atoms()[k]);
  }
  return out;
}

std::optional<uint32_t> ChaseResult::DepthOf(const Atom& atom) const {
  std::optional<uint32_t> idx = facts.IndexOf(atom);
  if (!idx.has_value()) return std::nullopt;
  return depth[*idx];
}

ChaseEngine::ChaseEngine(Vocabulary& vocab, const Theory& theory)
    : vocab_(vocab), theory_(theory) {
  const size_t n = theory_.rules.size();
  skolemized_.reserve(n);
  commit_layouts_.reserve(n);
  existential_positions_.reserve(n);
  head_existentials_.reserve(n);
  needs_naive_.assign(n, false);
  for (size_t r = 0; r < n; ++r) {
    const Tgd& rule = theory_.rules[r];
    skolemized_.push_back(Skolemize(vocab_, rule));
    std::unordered_set<TermId> ex(rule.existential_vars.begin(),
                                  rule.existential_vars.end());
    std::vector<std::vector<bool>> per_atom;
    per_atom.reserve(rule.head.size());
    for (const Atom& head_atom : rule.head) {
      std::vector<bool> positions(head_atom.args.size(), false);
      for (size_t i = 0; i < head_atom.args.size(); ++i) {
        positions[i] = ex.count(head_atom.args[i]) > 0;
      }
      per_atom.push_back(std::move(positions));
    }
    existential_positions_.push_back(std::move(per_atom));
    head_existentials_.push_back(std::move(ex));
    if (!rule.body.empty() && !rule.domain_vars.empty()) {
      needs_naive_[r] = true;
    }

    // Flatten the skolemized head into the set-at-a-time commit layout.
    const SkolemizedHead& sh = skolemized_[r];
    CommitLayout layout;
    layout.commit_vars = rule.head_universal_vars;
    std::unordered_map<TermId, uint32_t> slot_of;
    for (uint32_t i = 0; i < layout.commit_vars.size(); ++i) {
      slot_of.emplace(layout.commit_vars[i], i);
    }
    layout.fn_arg_slots.reserve(sh.fn_args.size());
    for (TermId v : sh.fn_args) {
      auto it = slot_of.find(v);
      FRONTIERS_CHECK(it != slot_of.end(),
                      "Skolem argument of rule '" + rule.name +
                          "' is not a head-universal variable");
      layout.fn_arg_slots.push_back(it->second);
    }
    // Existential order = first occurrence in the head, the same order the
    // lazy per-atom interning produced, so TermId assignment is unchanged.
    std::unordered_map<TermId, uint32_t> ex_index;
    std::vector<SkolemFnId> block_fns;
    layout.head.reserve(rule.head.size());
    for (const Atom& head_atom : rule.head) {
      HeadAtomLayout atom_layout;
      atom_layout.predicate = head_atom.predicate;
      atom_layout.slots.reserve(head_atom.args.size());
      for (TermId t : head_atom.args) {
        auto fn = sh.fn_of.find(t);
        if (fn != sh.fn_of.end()) {
          auto [it, fresh] =
              ex_index.emplace(t, static_cast<uint32_t>(block_fns.size()));
          if (fresh) block_fns.push_back(fn->second);
          atom_layout.slots.push_back(
              {HeadSlot::kExistential, it->second});
        } else if (auto slot = slot_of.find(t); slot != slot_of.end()) {
          atom_layout.slots.push_back({HeadSlot::kBinding, slot->second});
        } else {
          atom_layout.slots.push_back({HeadSlot::kRigid, t});
        }
      }
      layout.head.push_back(std::move(atom_layout));
    }
    if (!block_fns.empty()) {
      layout.skolem_block = vocab_.SkolemBlock(block_fns);
    }
    commit_layouts_.push_back(std::move(layout));
  }
}

void ChaseEngine::ExpandHead(size_t rule_index, const TermId* bindings,
                             std::vector<TermId>& fn_args_scratch,
                             RowBlock* out) const {
  const CommitLayout& layout = commit_layouts_[rule_index];
  const TermId* nulls = nullptr;
  if (layout.skolem_block != kNoSkolemBlock) {
    fn_args_scratch.clear();
    for (uint32_t slot : layout.fn_arg_slots) {
      fn_args_scratch.push_back(bindings[slot]);
    }
    // One probe interns (or finds) every null of this application.  The
    // returned pointer stays valid through the row appends below: nothing
    // mutates the vocabulary until the next ExpandHead call.
    nulls = vocab_.SkolemRow(layout.skolem_block, fn_args_scratch);
  }
  AppendHeadRows(rule_index, bindings, nulls, out);
}

void ChaseEngine::AppendHeadRows(size_t rule_index, const TermId* bindings,
                                 const TermId* nulls, RowBlock* out) const {
  const CommitLayout& layout = commit_layouts_[rule_index];
  for (const HeadAtomLayout& atom_layout : layout.head) {
    const size_t arity = atom_layout.slots.size();
    const size_t offset = out->terms.size();
    out->terms.resize(offset + arity);
    TermId* row = out->terms.data() + offset;
    for (size_t pos = 0; pos < arity; ++pos) {
      const HeadSlot slot = atom_layout.slots[pos];
      switch (slot.kind) {
        case HeadSlot::kBinding:
          row[pos] = bindings[slot.index];
          break;
        case HeadSlot::kRigid:
          row[pos] = slot.index;
          break;
        case HeadSlot::kExistential:
          row[pos] = nulls[slot.index];
          break;
      }
    }
    if (out->offsets.empty()) out->offsets.push_back(0);
    out->predicates.push_back(atom_layout.predicate);
    out->offsets.push_back(static_cast<uint32_t>(out->terms.size()));
  }
}

std::vector<Atom> ChaseEngine::ApplyRule(size_t rule_index,
                                         const Substitution& sigma) const {
  const Tgd& rule = theory_.rules[rule_index];
  const SkolemizedHead& sh = skolemized_[rule_index];
  // Skolem argument tuple: sigma applied to the universal head variables.
  std::vector<TermId> fn_args;
  fn_args.reserve(sh.fn_args.size());
  for (TermId v : sh.fn_args) fn_args.push_back(Apply(sigma, v));

  std::vector<Atom> out;
  out.reserve(rule.head.size());
  std::unordered_map<TermId, TermId> skolem_value;
  for (const Atom& head_atom : rule.head) {
    Atom atom;
    atom.predicate = head_atom.predicate;
    atom.args.reserve(head_atom.args.size());
    for (TermId t : head_atom.args) {
      auto fn = sh.fn_of.find(t);
      if (fn != sh.fn_of.end()) {
        auto cached = skolem_value.find(t);
        if (cached == skolem_value.end()) {
          cached =
              skolem_value.emplace(t, vocab_.SkolemTerm(fn->second, fn_args))
                  .first;
        }
        atom.args.push_back(cached->second);
      } else {
        atom.args.push_back(Apply(sigma, t));
      }
    }
    out.push_back(std::move(atom));
  }
  return out;
}

namespace {

// The rule applications staged while scanning one round — per match unit,
// then merged into one round-wide set.  The head is *not* yet instantiated:
// committing interns Skolem terms in the shared Vocabulary, so it is
// deferred to the single-threaded commit phase (see DESIGN.md, "Parallel
// round pipeline").  The match substitution is projected onto the rule's
// head-universal variables (`commit_vars`), which is all the commit phase
// needs: the frontier memo entry, the Skolem arguments, the head expansion
// and the restricted recheck.  Each application is three words; its
// binding tuple and (with provenance) its body-atom parents live in two
// flat arenas, so staging allocates nothing per application.
struct StagedApplications {
  struct App {
    uint32_t rule_index;
    uint32_t bindings;  // offset of the commit_vars values in `bindings`
    uint32_t parents;   // offset of the body-atom indices in `parents`
  };
  std::vector<App> apps;
  std::vector<TermId> bindings;
  std::vector<uint32_t> parents;
};

// One unit of match-enumeration work.  Units are planned in the sequential
// engine's staging order; concatenating their buffers in unit order
// therefore reproduces that order exactly, for any worker count.
struct MatchUnit {
  enum Kind : uint8_t {
    kDomain,  // body-free rule: enumerate domain-variable assignments
    kNaive,   // full body re-enumeration against the current stage
    kDelta,   // semi-naive: seed body atom `seed_pos` with delta atoms
  };
  size_t rule_index = 0;
  Kind kind = kNaive;
  bool use_delta = false;  // kDomain: only stage tuples touching new terms
  size_t seed_pos = 0;     // kDelta: which body atom is seeded
  // kDelta: the round's delta atom ids of the seed's predicate (grouped
  // once per round, order-preserving), and the chunk this unit covers.
  const std::vector<uint32_t>* seed_list = nullptr;
  size_t delta_begin = 0;
  size_t delta_end = 0;
};

// Output of one MatchUnit, written by exactly one worker.
struct UnitBuffer {
  StagedApplications staged;
  uint64_t matches = 0;
};

// Placeholder TermIds for Skolem rows not yet interned during a parallel
// head expansion live above this bit; real ids stay below it.
constexpr uint32_t kLocalTermBit = 0x80000000u;

}  // namespace

// Mutable chase state threaded through the round loop.  `Run` builds it
// from a database, `Resume` from a snapshot; `RunFromState` consumes it.
// `result.facts`/`depth`/provenance always describe a complete chase stage
// on entry, `round` is the next round to execute, `delta_*` the previous
// round's additions, and `live_bytes` the content-mode ledger total at the
// last round boundary (the byte-budget quantity).
struct ChaseEngine::RunState {
  ChaseResult result;
  std::vector<uint32_t> delta_atoms;
  std::vector<TermId> delta_terms;
  uint32_t round = 0;
  size_t live_bytes = 0;
  // Capacity-mode high-water over all round boundaries of the *logical*
  // run (restored from the snapshot on resume).
  uint64_t peak_bytes = 0;
  // Incremental inner heap of the provenance component, kept exactly in
  // sync with the derivation vectors (asserted against a full walk at
  // every boundary in debug builds).
  uint64_t prov_inner_capacity = 0;
  uint64_t prov_inner_content = 0;
};

ChaseResult ChaseEngine::Run(const FactSet& db,
                             const ChaseOptions& options) const {
  RunState state;
  state.result.facts = db;
  state.result.depth.assign(db.size(), 0);
  const bool provenance =
      options.track_provenance || options.record_all_derivations;
  if (provenance) {
    state.result.first_derivation.assign(db.size(), std::nullopt);
  }
  if (options.record_all_derivations) {
    state.result.all_derivations.assign(db.size(), {});
  }
  state.delta_atoms.resize(db.size());
  for (uint32_t i = 0; i < db.size(); ++i) state.delta_atoms[i] = i;
  state.delta_terms = db.Domain();
  // live_bytes and the ledger counters are zero here; RunFromState accounts
  // the initial boundary (the input database) before the first round.
  return RunFromState(std::move(state), options);
}

ChaseResult ChaseEngine::Resume(const ChaseSnapshot& snapshot,
                                const ChaseOptions& options) const {
  FRONTIERS_CHECK(IsResumableStop(snapshot.stop),
                  std::string("snapshot stopped by '") +
                      ChaseStopName(snapshot.stop) +
                      "' is not resumable: its last round is truncated");
  // Resuming under a different evaluation regime would silently diverge
  // from the uninterrupted run the snapshot promises to reproduce.
  FRONTIERS_CHECK(snapshot.variant == options.variant,
                  "snapshot was taken under a different chase variant");
  FRONTIERS_CHECK(snapshot.semi_naive == options.semi_naive,
                  "snapshot was taken under a different semi-naive mode");
  FRONTIERS_CHECK(snapshot.track_provenance == options.track_provenance,
                  "snapshot was taken under a different provenance mode");
  FRONTIERS_CHECK(
      snapshot.record_all_derivations == options.record_all_derivations,
      "snapshot was taken under a different derivation-recording mode");
  FRONTIERS_CHECK(snapshot.has_filter == static_cast<bool>(options.filter),
                  "snapshot filter presence does not match the resume "
                  "options (filters cannot be serialized; the caller must "
                  "reinstall the same strategy)");
  FRONTIERS_CHECK(
      snapshot.theory_fingerprint == TheoryFingerprint(vocab_, theory_),
      "snapshot was taken over a different theory than this engine's ('" +
          snapshot.theory_name + "' vs '" + theory_.name + "')");
  // The vocabulary must already contain the snapshot's terms with the
  // snapshot's ids — either it is the original vocabulary, or a fresh one
  // rebuilt via ApplySnapshotVocabulary (which verifies in depth).  Spot-
  // check here so a mismatched vocabulary fails loudly instead of decoding
  // atoms under the wrong ids.
  FRONTIERS_CHECK(vocab_.NumTerms() >= snapshot.terms.size(),
                  "engine vocabulary is missing snapshot terms; run "
                  "ApplySnapshotVocabulary first");
  FRONTIERS_CHECK(vocab_.NumPredicates() >= snapshot.predicates.size(),
                  "engine vocabulary is missing snapshot predicates");
  for (uint32_t p = 0; p < snapshot.predicates.size(); ++p) {
    FRONTIERS_CHECK(vocab_.PredicateName(p) == snapshot.predicates[p].name,
                    "engine vocabulary disagrees with the snapshot on "
                    "predicate " + std::to_string(p));
  }
  for (uint32_t t = 0; t < snapshot.terms.size(); ++t) {
    FRONTIERS_CHECK(vocab_.Kind(t) == snapshot.terms[t].kind,
                    "engine vocabulary disagrees with the snapshot on the "
                    "kind of term " + std::to_string(t));
  }
  FRONTIERS_CHECK(snapshot.depth.size() == snapshot.atoms.size(),
                  "snapshot depth/atom size mismatch");

  RunState state;
  ChaseResult& result = state.result;
  for (const Atom& atom : snapshot.atoms) {
    const bool inserted = result.facts.Insert(atom);
    FRONTIERS_CHECK(inserted, "snapshot contains a duplicate atom");
  }
  result.depth = snapshot.depth;
  const bool provenance =
      options.track_provenance || options.record_all_derivations;
  if (provenance) {
    FRONTIERS_CHECK(snapshot.first_derivation.size() == snapshot.atoms.size(),
                    "snapshot is missing provenance for some atoms");
    result.first_derivation = snapshot.first_derivation;
  }
  if (options.record_all_derivations) {
    FRONTIERS_CHECK(snapshot.all_derivations.size() == snapshot.atoms.size(),
                    "snapshot is missing derivation lists for some atoms");
    result.all_derivations = snapshot.all_derivations;
  }
  for (const auto& [term, atom] : snapshot.birth_atoms) {
    result.birth_atom.emplace(term, atom);
  }
  for (const std::string& key : snapshot.seen_applications) {
    result.seen_applications.InsertKey(key);
  }
  result.stats.rounds = snapshot.round_stats;
  result.stats.total_seconds = snapshot.total_seconds;
  state.round = snapshot.next_round;

  // Rebuild the incremental provenance counters from the reconstructed
  // state with one walk each (kept in sync incrementally from here on), and
  // restore the logical run's capacity high-water mark from the snapshot.
  state.prov_inner_capacity = ProvInnerBytes(result, MemAccounting::kCapacity);
  state.prov_inner_content = ProvInnerBytes(result, MemAccounting::kContent);
  state.live_bytes =
      ChaseMemTotalsFromParts(result, vocab_, MemAccounting::kContent,
                              state.prov_inner_content)
          .TrackedTotal();
  state.peak_bytes = snapshot.peak_bytes;
  // Content-mode accounting is a pure function of logical state, so the
  // reconstruction must land on the snapshotted figure byte-for-byte —
  // the determinism contract of DESIGN.md §9.
  FRONTIERS_CHECK(snapshot.approx_bytes == state.live_bytes,
                  "snapshot approx_bytes (" +
                      std::to_string(snapshot.approx_bytes) +
                      ") disagrees with the reconstructed ledger total (" +
                      std::to_string(state.live_bytes) + ")");

  // A fixpoint run is already complete; re-entering the loop would append a
  // spurious empty round to the stats.
  if (snapshot.stop == ChaseStop::kFixpoint) {
    result.stop = ChaseStop::kFixpoint;
    result.complete_rounds = snapshot.next_round;
    result.approx_bytes = state.live_bytes;
    const uint64_t cap_total =
        ChaseMemTotalsFromParts(result, vocab_, MemAccounting::kCapacity,
                                state.prov_inner_capacity)
            .TrackedTotal();
    result.peak_bytes = std::max(state.peak_bytes, cap_total);
    return std::move(result);
  }

  // Reconstruct the previous round's delta from the depths: atoms inserted
  // during round r-1 carry depth r == next_round, and depth is monotone in
  // atom index, so index order here matches the original insertion order.
  for (uint32_t i = 0; i < result.depth.size(); ++i) {
    if (result.depth[i] == state.round) state.delta_atoms.push_back(i);
  }
  std::unordered_set<TermId> known;
  for (uint32_t i = 0; i < result.facts.atoms().size(); ++i) {
    const Atom& atom = result.facts.atoms()[i];
    const bool in_delta = result.depth[i] == state.round;
    for (TermId t : atom.args) {
      if (known.insert(t).second && in_delta) {
        state.delta_terms.push_back(t);
      }
    }
  }
  return RunFromState(std::move(state), options);
}

// The round loop of one Run/Resume call.  RunFromState drives the phases
// of DESIGN.md §5 — PlanUnits, MatchRound, CommitSemiOblivious or
// CommitRestricted, CloseRound — once per round; everything runs on the
// calling thread except the match units and commit tasks handed to the
// pool.  The round boundary is the only place that reports a round:
// CloseRound appends the round's record to ChaseStats and feeds the same
// record to the registry, the mem stream and the periodic heartbeat, and
// Finish reuses the boundary accounting (without a record) for the state
// the run returns.
//
// Tracing and metrics are pure observation: workers never publish spans
// into shared chase state and the registry is write-only here, so the
// byte-identity guarantees across thread counts are untouched (asserted
// by tests/obs_test.cc).
class ChaseEngine::RoundLoop {
 public:
  RoundLoop(const ChaseEngine& engine, RunState state,
            const ChaseOptions& options);

  RoundLoop(const RoundLoop&) = delete;
  RoundLoop& operator=(const RoundLoop&) = delete;

  /// The next round to execute (= complete rounds so far).
  uint32_t round() const { return state_.round; }

  /// Workers the next round uses: the small-round serial fallback keeps a
  /// thin round on the calling thread, because dispatching it to the pool
  /// costs more than the round itself.
  uint32_t RoundThreads() const {
    return num_threads_ > 1 && work_hint_ < options_.serial_round_threshold
               ? 1
               : num_threads_;
  }

  /// Budget and cancellation checks at a round boundary, in fixed priority
  /// order.  The byte check reads only `live_bytes`, a deterministic
  /// function of the committed state, so byte-budget trips land on the
  /// same round at every thread count.
  std::optional<ChaseStop> BoundaryStop() const;

  /// Plan: the round's match units, in the sequential engine's staging
  /// order.
  std::vector<MatchUnit> PlanUnits(uint32_t round_threads);

  /// Match: enumerates every unit (on the pool when the round is wide) and
  /// merges the per-unit buffers in unit order.  Returns the stop of a
  /// mid-round budget or cancellation trip instead; the round is then
  /// abandoned whole.
  std::variant<StagedApplications, ChaseStop> MatchRound(
      const std::vector<MatchUnit>& units, ChaseRoundStats& record);

  /// Commit, one per variant.  Both return nullopt for a complete round,
  /// kAtomBudget for a round truncated by the atom budget (it still
  /// closes), or kInjectedFault for a faulted round the caller must
  /// abandon (the state is left at the previous round boundary).
  std::optional<ChaseStop> CommitSemiOblivious(const StagedApplications& staged,
                                               ChaseRoundStats& record);
  std::optional<ChaseStop> CommitRestricted(StagedApplications& staged,
                                            ChaseRoundStats& record);

  /// Close: the round boundary.  Accounts the ledger, appends `record`,
  /// publishes it, and either returns the stop the round ended in
  /// (kAtomBudget, kFixpoint) or advances to the next round and decides
  /// the periodic heartbeat.
  std::optional<ChaseStop> CloseRound(ChaseRoundStats& record,
                                      bool atom_budget_hit);

  /// Stops the run at the current round boundary and returns its result.
  ChaseResult Finish(ChaseStop stop);

 private:
  // Boundary accounting: recomputes both ledger modes from the containers'
  // own bookkeeping, refreshes live_bytes, the peak and the
  // `frontiers.mem.*` gauges, and (with `emit_mem_rows`) writes the
  // boundary's frontiers-mem-v1 rows.  Returns the capacity-mode totals.
  MemTotals AccountBoundary(uint32_t completed_rounds, bool emit_mem_rows);
  void PublishRound(const ChaseRoundStats& record);
  void EmitHeartbeat(uint32_t completed_rounds, const char* stop_name);

  // One match unit, run by exactly one worker into its own buffer.
  void RunUnit(const MatchUnit& unit, const Matcher& matcher,
               const std::unordered_set<TermId>& new_terms, UnitBuffer& out);
  // Parallel head expansion of the surviving applications into `pending_`.
  void ExpandParallel(const StagedApplications& staged,
                      uint32_t round_threads);
  // Bookkeeping for one head row's insert outcome — depth, delta,
  // provenance, births — shared by both commit paths.
  void RecordRow(const StagedApplications& staged,
                 const StagedApplications::App& app, size_t head_atom,
                 FactSet::InsertOutcome out, const TermId* terms,
                 uint32_t arity, ChaseRoundStats& record);

  // Mid-round governance.  Workers poll cooperatively; the first trip wins
  // the CAS and every worker drains at its next poll.  An aborted round is
  // discarded *whole* — staged buffers and this round's counters are
  // dropped, leaving the result at the previous round boundary — so a
  // mid-match trip and a boundary trip produce the same result, which
  // keeps budget stops deterministic across thread counts: a partial
  // staged-bytes sum over the budget implies the full (thread-count-
  // independent) sum is over it too.
  bool Aborting() const {
    return abort_reason_.load(std::memory_order_relaxed) != -1;
  }
  void RequestAbort(ChaseStop stop) {
    int expected = -1;
    abort_reason_.compare_exchange_strong(expected, static_cast<int>(stop),
                                          std::memory_order_relaxed);
  }
  void PollGovernor();

  const ChaseEngine& engine_;
  const ChaseOptions& options_;
  RunState state_;
  ChaseMetrics& metrics_;
  const Clock::time_point run_start_;
  const Clock::time_point deadline_;
  const bool provenance_;
  // Governance (budget/cancellation checks) is off the hot path entirely
  // when no budget is installed.
  const bool governed_;
  const uint32_t num_threads_;
  // One persistent worker pool per run (not per round): spawning threads
  // every round cost more than the match work itself on thin-round
  // workloads (the E17a 2-thread regression), so workers park on a
  // condition variable between rounds.  The pool executes both the match
  // units and the commit pipeline's shard/index tasks.
  std::optional<WorkerPool> pool_;
  const uint64_t mem_run_;
  // Work hint for the small-round serial fallback: the input delta for the
  // first round, then the previous round's matches + staged applications.
  // A pure execution heuristic — it gates *who* computes, never what.
  uint64_t work_hint_;

  // Per-round state.  The delta atoms grouped by predicate (order-
  // preserving; the planned units point into it), the domain size before
  // commit, the atoms this round inserted, and the governance flags.
  std::unordered_map<PredicateId, std::vector<uint32_t>> delta_by_pred_;
  size_t domain_before_ = 0;
  std::vector<uint32_t> next_delta_atoms_;
  std::atomic<int> abort_reason_{-1};
  std::atomic<size_t> staged_bytes_{0};

  // Commit-phase scratch, reused across rounds so big rounds don't pay a
  // fresh geometric-growth allocation chain every round.  Reported under
  // kScratch at every boundary.
  RowBlock pending_;
  std::vector<uint32_t> surviving_;
  std::vector<FactSet::InsertOutcome> outcomes_;
  std::vector<TermId> fn_args_scratch_;

  // Heartbeats run on the calling thread at round boundaries only, reading
  // committed state; they are pure observation like tracing and profiling.
  const bool heartbeat_on_;
  const Clock::duration heartbeat_interval_;
  Clock::time_point next_heartbeat_;
  Clock::time_point last_heartbeat_time_;
  uint64_t last_heartbeat_facts_ = 0;
  uint64_t last_heartbeat_bytes_ = 0;
};

ChaseEngine::RoundLoop::RoundLoop(const ChaseEngine& engine, RunState state,
                                  const ChaseOptions& options)
    : engine_(engine),
      options_(options),
      state_(std::move(state)),
      metrics_(ChaseMetrics::Get()),
      run_start_(Clock::now()),
      deadline_(options.deadline_seconds > 0
                    ? run_start_ + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           options.deadline_seconds))
                    : Clock::time_point::max()),
      provenance_(options.track_provenance || options.record_all_derivations),
      governed_(options.deadline_seconds > 0 || options.max_bytes > 0 ||
                options.cancel != nullptr),
      num_threads_(ResolveWorkerCount(options.threads)),
      mem_run_(obs::memhooks::MemEnabled() ? obs::memhooks::BeginMemRun()
                                           : 0),
      work_hint_(state_.delta_atoms.size()),
      heartbeat_on_(options.heartbeat_seconds > 0),
      heartbeat_interval_(
          heartbeat_on_ ? std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  options.heartbeat_seconds))
                        : Clock::duration::zero()),
      next_heartbeat_(run_start_ + heartbeat_interval_),
      last_heartbeat_time_(run_start_) {
  metrics_.runs.Add();
  if (num_threads_ > 1) pool_.emplace(num_threads_);
  // Initial boundary: the state this call starts from (the input database
  // for Run, the reconstructed stage for Resume).
  AccountBoundary(state_.round, /*emit_mem_rows=*/true);
  last_heartbeat_facts_ = state_.result.facts.size();
  last_heartbeat_bytes_ = state_.live_bytes;
}

MemTotals ChaseEngine::RoundLoop::AccountBoundary(uint32_t completed_rounds,
                                                  bool emit_mem_rows) {
  // The content total becomes `live_bytes` (the byte-budget quantity —
  // thread- and resume-invariant), the capacity total feeds the peak, the
  // gauges and the stream.  The provenance inner bytes come from
  // RunState's incremental counters; debug builds assert them against a
  // full walk here (the incremental == recomputed contract of DESIGN.md
  // §9).
  const ChaseResult& result = state_.result;
  const Vocabulary& vocab = engine_.vocab_;
  MemTotals cap = ChaseMemTotalsFromParts(
      result, vocab, MemAccounting::kCapacity, state_.prov_inner_capacity);
  // The chase's own persistent scratch, on top of FactSet's batch scratch
  // (already under kScratch): thread-dependent, diagnostic only.
  cap.Add(MemComponent::kScratch,
          pending_.HeapBytes(MemAccounting::kCapacity) +
              VectorHeapBytes(surviving_, MemAccounting::kCapacity) +
              VectorHeapBytes(outcomes_, MemAccounting::kCapacity) +
              VectorHeapBytes(fn_args_scratch_, MemAccounting::kCapacity) +
              VectorHeapBytes(state_.delta_atoms, MemAccounting::kCapacity) +
              VectorHeapBytes(state_.delta_terms, MemAccounting::kCapacity));
  const MemTotals con = ChaseMemTotalsFromParts(
      result, vocab, MemAccounting::kContent, state_.prov_inner_content);
  state_.live_bytes = con.TrackedTotal();
  const uint64_t tracked = cap.TrackedTotal();
  if (tracked > state_.peak_bytes) state_.peak_bytes = tracked;
#ifndef NDEBUG
  // Incremental-vs-recomputed: the counters RunState carries must agree
  // with a from-scratch walk of the same state, component by component, in
  // both modes (kScratch excluded — the walk cannot see round-local
  // buffers).
  const MemTotals cap_walk =
      ComputeChaseMemTotals(result, vocab, MemAccounting::kCapacity);
  const MemTotals con_walk =
      ComputeChaseMemTotals(result, vocab, MemAccounting::kContent);
  for (size_t c = 0; c < kMemComponentCount; ++c) {
    if (c == static_cast<size_t>(MemComponent::kScratch)) continue;
    FRONTIERS_CHECK(
        cap.bytes[c] == cap_walk.bytes[c] && con.bytes[c] == con_walk.bytes[c],
        std::string("chase mem ledger diverged from a full recompute for "
                    "component '") +
            MemComponentName(static_cast<MemComponent>(c)) + "'");
  }
#endif
  metrics_.mem_total_bytes.Set(static_cast<double>(tracked));
  metrics_.mem_peak_bytes.Set(static_cast<double>(state_.peak_bytes));
  for (size_t c = 0; c < kMemComponentCount; ++c) {
    metrics_.mem_components[c]->Set(static_cast<double>(cap.bytes[c]));
  }
  if (emit_mem_rows && mem_run_ != 0 && obs::memhooks::MemEnabled()) {
    // Per-predicate attribution rows (component-major, predicate-id
    // order), then the global components in fixed order — deterministic
    // values only, so the stream is byte-identical across thread counts.
    MemLedger ledger;
    result.facts.AccountLedger(ledger, MemAccounting::kCapacity);
    for (const MemLedgerRow& row : ledger.rows) {
      obs::memhooks::EmitMemRow(
          {mem_run_, completed_rounds, MemComponentName(row.component),
           row.predicate == UINT32_MAX
               ? ""
               : vocab.PredicateName(row.predicate).c_str(),
           row.bytes});
    }
    for (MemComponent c :
         {MemComponent::kVocabTerms, MemComponent::kVocabSkolem,
          MemComponent::kProvenance, MemComponent::kFrontierMemo}) {
      if (cap.Get(c) != 0) {
        obs::memhooks::EmitMemRow(
            {mem_run_, completed_rounds, MemComponentName(c), "", cap.Get(c)});
      }
    }
    obs::memhooks::EmitMemRound({mem_run_, completed_rounds,
                                 result.facts.size(), tracked,
                                 state_.peak_bytes,
                                 cap.Get(MemComponent::kScratch)});
  }
  return cap;
}

void ChaseEngine::RoundLoop::PublishRound(const ChaseRoundStats& record) {
  metrics_.rounds.Add();
  metrics_.matches.Add(record.matches);
  metrics_.staged.Add(record.staged);
  metrics_.committed.Add(record.committed);
  metrics_.preempted.Add(record.preempted);
  metrics_.deduped.Add(record.deduped);
  metrics_.atoms_inserted.Add(record.atoms_inserted);
  metrics_.match_seconds.Observe(record.match_seconds);
  metrics_.commit_seconds.Observe(record.commit_seconds);
  metrics_.commit_expand_seconds.Observe(record.commit_expand_seconds);
  metrics_.commit_dedup_seconds.Observe(record.commit_dedup_seconds);
  metrics_.commit_index_seconds.Observe(record.commit_index_seconds);
  if (options_.variant == ChaseVariant::kSemiOblivious) {
    // Every semi-oblivious round commits through one batch insert.
    metrics_.shard_commits.Add();
    metrics_.shard_max_rows.Observe(static_cast<double>(record.shard_max_rows));
    metrics_.shards_touched.Observe(static_cast<double>(record.shards_touched));
    metrics_.shard_wait_seconds.Observe(record.shard_wait_seconds);
    metrics_.shard_hold_seconds.Observe(record.shard_hold_seconds);
    metrics_.shard_imbalance.Set(record.shard_imbalance);
  }
  if (num_threads_ > 1 && record.used_threads == 1) {
    metrics_.serial_rounds.Add();
  }
  // Every round lands in exactly one bucket: the pair answers "did the
  // used_threads / serial_round_threshold decision engage" without reading
  // ChaseRoundStats.
  if (record.used_threads > 1) {
    metrics_.rounds_parallel.Add();
  } else {
    metrics_.rounds_serial.Add();
  }
}

void ChaseEngine::RoundLoop::EmitHeartbeat(uint32_t completed_rounds,
                                           const char* stop_name) {
  const Clock::time_point now = Clock::now();
  const size_t live_bytes = state_.live_bytes;
  ChaseHeartbeat hb;
  hb.round = completed_rounds;
  hb.facts = state_.result.facts.size();
  const double dt = Seconds(now - last_heartbeat_time_);
  hb.facts_per_second =
      dt > 0 ? static_cast<double>(hb.facts - last_heartbeat_facts_) / dt
             : 0.0;
  hb.bytes = live_bytes;
  hb.peak_bytes = state_.peak_bytes;
  hb.elapsed_seconds = Seconds(now - run_start_);
  if (options_.deadline_seconds > 0) {
    hb.budget_remaining_seconds =
        std::max(0.0, options_.deadline_seconds - hb.elapsed_seconds);
  }
  // ETA: the minimum over every *active* budget's projection — atom budget
  // at the current fact rate, deadline remaining, byte budget at the
  // current byte rate.  Stays null only when no budget gives a basis (e.g.
  // a fixpoint-bound run with no observed progress).
  auto consider_eta = [&hb](double candidate) {
    if (candidate >= 0 && (hb.eta_seconds < 0 || candidate < hb.eta_seconds)) {
      hb.eta_seconds = candidate;
    }
  };
  if (hb.facts_per_second > 0 && options_.max_atoms > hb.facts) {
    consider_eta(static_cast<double>(options_.max_atoms - hb.facts) /
                 hb.facts_per_second);
  }
  if (options_.deadline_seconds > 0) {
    consider_eta(hb.budget_remaining_seconds);
  }
  if (options_.max_bytes > 0) {
    if (live_bytes >= options_.max_bytes) {
      consider_eta(0.0);
    } else if (dt > 0 && live_bytes > last_heartbeat_bytes_) {
      const double bytes_per_second =
          static_cast<double>(live_bytes - last_heartbeat_bytes_) / dt;
      consider_eta(static_cast<double>(options_.max_bytes - live_bytes) /
                   bytes_per_second);
    }
  }
  hb.stop = stop_name;
  if (options_.heartbeat_sink) {
    options_.heartbeat_sink(hb);
  } else {
    std::fprintf(stderr, "%s\n", hb.ToJsonLine().c_str());
  }
  last_heartbeat_time_ = now;
  last_heartbeat_facts_ = hb.facts;
  last_heartbeat_bytes_ = live_bytes;
}

std::optional<ChaseStop> ChaseEngine::RoundLoop::BoundaryStop() const {
  if (!governed_) return std::nullopt;
  if (options_.cancel && options_.cancel->Cancelled()) {
    return ChaseStop::kCancelled;
  }
  if (Clock::now() >= deadline_) return ChaseStop::kDeadline;
  if (options_.max_bytes > 0 && state_.live_bytes > options_.max_bytes) {
    return ChaseStop::kByteBudget;
  }
  return std::nullopt;
}

void ChaseEngine::RoundLoop::PollGovernor() {
  if (Aborting()) return;
  if (options_.cancel && options_.cancel->Cancelled()) {
    RequestAbort(ChaseStop::kCancelled);
    return;
  }
  if (Clock::now() >= deadline_) {
    RequestAbort(ChaseStop::kDeadline);
    return;
  }
  if (options_.max_bytes > 0 &&
      state_.live_bytes + staged_bytes_.load(std::memory_order_relaxed) >
          options_.max_bytes) {
    RequestAbort(ChaseStop::kByteBudget);
  }
}

std::vector<MatchUnit> ChaseEngine::RoundLoop::PlanUnits(
    uint32_t round_threads) {
  const ChaseResult& result = state_.result;
  const uint32_t round = state_.round;
  // Group the round's delta atoms by predicate once (order-preserving), so
  // each seeded unit scans only the rows its body atom can match instead
  // of skipping wrong-predicate atoms one by one.  Grouping preserves the
  // per-predicate delta order, so the concatenated staging order is
  // unchanged.
  delta_by_pred_.clear();
  if (options_.semi_naive && round > 0) {
    for (uint32_t idx : state_.delta_atoms) {
      delta_by_pred_[result.facts.atoms()[idx].predicate].push_back(idx);
    }
  }
  // Chunking delta seeds bounds the serial tail; the chunk size affects
  // only unit *boundaries*, never the concatenated staging order.
  std::vector<MatchUnit> units;
  for (size_t r = 0; r < engine_.theory_.rules.size(); ++r) {
    const Tgd& rule = engine_.theory_.rules[r];
    // Stage-dependent filters can start accepting an application that they
    // rejected in an earlier round; delta evaluation would never re-offer
    // it.  Domain-variable rules (pins) are therefore re-enumerated naively
    // whenever a filter is installed (they are cheap: one candidate per
    // domain tuple).  Body-match rules stay delta-driven; filters must be
    // monotone-accepting for them (all catalog strategies decide body
    // rules statically).
    const bool filter_forces_naive =
        options_.filter && rule.body.empty() && !rule.domain_vars.empty();
    const bool use_delta = options_.semi_naive && round > 0 &&
                           !engine_.needs_naive_[r] && !filter_forces_naive;

    MatchUnit unit;
    unit.rule_index = r;
    if (rule.body.empty()) {
      if (rule.domain_vars.empty()) {
        // Fires identically in every round; once is enough.
        if (round > 0) continue;
      }
      unit.kind = MatchUnit::kDomain;
      unit.use_delta = use_delta;
      units.push_back(unit);
      continue;
    }
    if (!use_delta) {
      unit.kind = MatchUnit::kNaive;
      units.push_back(unit);
      continue;
    }
    // Semi-naive: seed each body atom with each delta atom of its predicate
    // in turn, then complete the match against the full current stage.
    // Matches seen through several seeds stage duplicate applications,
    // which collapse at insertion.
    unit.kind = MatchUnit::kDelta;
    for (size_t j = 0; j < rule.body.size(); ++j) {
      auto seeds = delta_by_pred_.find(rule.body[j].predicate);
      if (seeds == delta_by_pred_.end()) continue;
      const std::vector<uint32_t>& seed_list = seeds->second;
      const size_t chunk =
          round_threads > 1
              ? std::max<size_t>(1, (seed_list.size() + round_threads * 4 - 1) /
                                        (round_threads * 4))
              : seed_list.size();
      unit.seed_pos = j;
      unit.seed_list = &seed_list;
      for (size_t begin = 0; begin < seed_list.size(); begin += chunk) {
        unit.delta_begin = begin;
        unit.delta_end = std::min(begin + chunk, seed_list.size());
        units.push_back(unit);
      }
    }
  }
  return units;
}

void ChaseEngine::RoundLoop::RunUnit(
    const MatchUnit& unit, const Matcher& matcher,
    const std::unordered_set<TermId>& new_terms, UnitBuffer& out) {
  // Per-unit span, recorded into the worker's own trace buffer.
  obs::Span unit_span("chase.unit", "chase");
  const ChaseResult& result = state_.result;
  const Tgd& rule = engine_.theory_.rules[unit.rule_index];
  const CommitLayout& layout = engine_.commit_layouts_[unit.rule_index];
  uint64_t poll_counter = 0;
  // Returns false to stop the enumeration early (budget trip or
  // cancellation); the partially filled buffer is discarded with the
  // round, so early exits never affect the committed state.
  auto stage_match = [&](const Substitution& sigma) -> bool {
    if (governed_) {
      if ((++poll_counter & 0x1FF) == 0) PollGovernor();
      if (Aborting()) return false;
    }
    ++out.matches;
    if (options_.filter &&
        !options_.filter(unit.rule_index, sigma, result.facts)) {
      return true;
    }
    StagedApplications& staged = out.staged;
    const StagedApplications::App app = {
        static_cast<uint32_t>(unit.rule_index),
        static_cast<uint32_t>(staged.bindings.size()),
        static_cast<uint32_t>(staged.parents.size())};
    // Project sigma onto the head-universal tuple once; everything the
    // commit phase needs is derived from this flat tuple.
    for (TermId v : layout.commit_vars) {
      staged.bindings.push_back(Apply(sigma, v));
    }
    if (options_.variant == ChaseVariant::kRestricted) {
      // Fire only when the head is not already witnessed in the stage;
      // re-checked at commit time so applications earlier in the same
      // round can preempt later ones (the sequential-chase behaviour).
      Substitution head_initial;
      for (size_t i = 0; i < layout.commit_vars.size(); ++i) {
        head_initial.emplace(layout.commit_vars[i],
                             staged.bindings[app.bindings + i]);
      }
      if (matcher.Exists(rule.head, engine_.head_existentials_[unit.rule_index],
                         head_initial)) {
        staged.bindings.resize(app.bindings);
        return true;
      }
    }
    if (provenance_) {
      for (const Atom& body_atom : rule.body) {
        Atom instantiated = Apply(sigma, body_atom);
        std::optional<uint32_t> idx = result.facts.IndexOf(instantiated);
        if (!idx.has_value()) {
          // A body match maps every body atom to a stage fact by
          // construction; a miss would silently truncate
          // Derivation::parents and corrupt ancestor reconstruction
          // (Section 13), so it is a fatal engine bug.
          FRONTIERS_FATAL("instantiated body atom of rule '" + rule.name +
                          "' not found in the stage while recording "
                          "provenance");
        }
        staged.parents.push_back(*idx);
      }
    }
    if (governed_) {
      // Byte estimate of one staged application, for the mid-round budget
      // check: a fixed per-application charge, the binding and parent
      // tuples, and the memo key in its `FrontierMemo::Key` encoding when
      // dedup is on.
      const size_t n = layout.commit_vars.size();
      const size_t key_bytes =
          options_.record_all_derivations ? 0 : 8 + 4 * n;
      staged_bytes_.fetch_add(
          96 + 8 * n + 4 * (staged.parents.size() - app.parents) + key_bytes,
          std::memory_order_relaxed);
    }
    staged.apps.push_back(app);
    return true;
  };

  switch (unit.kind) {
    case MatchUnit::kDomain: {
      // Pins-style rule: enumerate domain-variable assignments.  Under
      // delta evaluation only tuples touching a new term are fresh.
      const std::vector<TermId>& full_domain = result.facts.Domain();
      std::function<bool(Substitution&, size_t, bool)> enumerate =
          [&](Substitution& sub, size_t i, bool used_new) -> bool {
        if (i == rule.domain_vars.size()) {
          if (!unit.use_delta || used_new) return stage_match(sub);
          return true;
        }
        for (TermId t : full_domain) {
          sub[rule.domain_vars[i]] = t;
          const bool keep = enumerate(
              sub, i + 1,
              used_new || (unit.use_delta && new_terms.count(t) > 0));
          if (!keep) {
            sub.erase(rule.domain_vars[i]);
            return false;
          }
        }
        sub.erase(rule.domain_vars[i]);
        return true;
      };
      Substitution sub;
      enumerate(sub, 0, false);
      break;
    }
    case MatchUnit::kNaive: {
      ForEachBodyMatch(engine_.vocab_, rule, result.facts,
                       [&](const Substitution& sigma) {
                         return stage_match(sigma);
                       });
      break;
    }
    case MatchUnit::kDelta: {
      const std::unordered_set<TermId> mappable(rule.body_vars.begin(),
                                                rule.body_vars.end());
      std::vector<Atom> rest;
      rest.reserve(rule.body.size() - 1);
      for (size_t k = 0; k < rule.body.size(); ++k) {
        if (k != unit.seed_pos) rest.push_back(rule.body[k]);
      }
      for (size_t di = unit.delta_begin; di < unit.delta_end; ++di) {
        if (governed_ && Aborting()) break;
        // seed_list holds only atoms of the seed's predicate.
        const Atom& fact = result.facts.atoms()[(*unit.seed_list)[di]];
        Substitution seed;
        if (!UnifyAtomWithFact(rule.body[unit.seed_pos], fact, mappable,
                               seed)) {
          continue;
        }
        matcher.ForEach(rest, mappable, seed, [&](const Substitution& sigma) {
          return stage_match(sigma);
        });
      }
      break;
    }
  }
}

std::variant<StagedApplications, ChaseStop> ChaseEngine::RoundLoop::MatchRound(
    const std::vector<MatchUnit>& units, ChaseRoundStats& record) {
  const ChaseResult& result = state_.result;
  // Workers only read: the stage, the vocabulary, the delta, and the shared
  // Matcher are all frozen until commit.  Each unit writes to its own
  // buffer, so no synchronization beyond the unit counter is needed.
  domain_before_ = result.facts.Domain().size();
  const Matcher matcher(engine_.vocab_, result.facts);
  const std::unordered_set<TermId> new_terms(state_.delta_terms.begin(),
                                             state_.delta_terms.end());
  abort_reason_.store(-1, std::memory_order_relaxed);
  staged_bytes_.store(0, std::memory_order_relaxed);

  std::vector<UnitBuffer> buffers(units.size());
  const size_t workers = std::min<size_t>(record.used_threads, units.size());
  if (workers > 1 && pool_.has_value()) {
    // The persistent pool claims units off an atomic counter; each unit's
    // buffer is written by exactly one worker, and Run rethrows the first
    // worker exception after every thread quiesced.
    pool_->Run(units.size(), [&](size_t i) {
      if (governed_ && Aborting()) return;
      RunUnit(units[i], matcher, new_terms, buffers[i]);
    });
  } else {
    for (size_t i = 0; i < units.size(); ++i) {
      if (governed_ && Aborting()) break;
      RunUnit(units[i], matcher, new_terms, buffers[i]);
    }
  }
  if (governed_) {
    // Final deterministic check: all workers have quiesced, so for a run
    // that finished the match phase `staged_bytes_` is the full staged
    // total — identical at every thread count.
    PollGovernor();
    if (Aborting()) {
      return static_cast<ChaseStop>(
          abort_reason_.load(std::memory_order_relaxed));
    }
  }

  // Merge per-unit buffers in unit order: this is exactly the order the
  // one-thread engine stages in, so everything downstream (commit order,
  // atom indices, depths, provenance) is thread-count independent.  The
  // first staging unit's buffer is moved in; every later one is appended
  // with its arena offsets rebased.
  obs::Span merge_span("chase.merge", "chase");
  StagedApplications staged;
  size_t total_apps = 0;
  size_t total_bindings = 0;
  size_t total_parents = 0;
  for (const UnitBuffer& buffer : buffers) {
    record.matches += buffer.matches;
    total_apps += buffer.staged.apps.size();
    total_bindings += buffer.staged.bindings.size();
    total_parents += buffer.staged.parents.size();
  }
  FRONTIERS_CHECK(total_bindings < UINT32_MAX && total_parents < UINT32_MAX,
                  "chase: one round staged more than 2^32 arena words");
  for (UnitBuffer& buffer : buffers) {
    if (buffer.staged.apps.empty()) continue;
    if (staged.apps.empty()) {
      staged = std::move(buffer.staged);
      staged.apps.reserve(total_apps);
      staged.bindings.reserve(total_bindings);
      staged.parents.reserve(total_parents);
      continue;
    }
    const uint32_t binding_base = static_cast<uint32_t>(staged.bindings.size());
    const uint32_t parent_base = static_cast<uint32_t>(staged.parents.size());
    for (const StagedApplications::App& app : buffer.staged.apps) {
      staged.apps.push_back({app.rule_index, app.bindings + binding_base,
                             app.parents + parent_base});
    }
    staged.bindings.insert(staged.bindings.end(),
                           buffer.staged.bindings.begin(),
                           buffer.staged.bindings.end());
    staged.parents.insert(staged.parents.end(), buffer.staged.parents.begin(),
                          buffer.staged.parents.end());
  }
  record.staged = staged.apps.size();
  return staged;
}

void ChaseEngine::RoundLoop::RecordRow(const StagedApplications& staged,
                                       const StagedApplications::App& app,
                                       size_t head_atom,
                                       FactSet::InsertOutcome out,
                                       const TermId* terms, uint32_t arity,
                                       ChaseRoundStats& record) {
  ChaseResult& result = state_.result;
  // The application's body-atom parents (empty without provenance).
  const uint32_t* parents = staged.parents.data() + app.parents;
  const size_t parent_count =
      provenance_ ? engine_.theory_.rules[app.rule_index].body.size() : 0;
  auto derivation = [&] {
    return Derivation{app.rule_index,
                      std::vector<uint32_t>(parents, parents + parent_count)};
  };
  if (out.inserted) {
    ++record.atoms_inserted;
    result.depth.push_back(state_.round + 1);
    next_delta_atoms_.push_back(out.index);
    // Every Derivation construction below copy-allocates the parents
    // vector at exactly its size, so one figure serves both ledger modes
    // (the row/store bytes are recomputed at the boundary).
    const uint64_t parent_bytes =
        static_cast<uint64_t>(parent_count) * sizeof(uint32_t);
    if (provenance_) {
      state_.prov_inner_capacity += parent_bytes;
      state_.prov_inner_content += parent_bytes;
      result.first_derivation.push_back(derivation());
    }
    if (options_.record_all_derivations) {
      Derivation d = derivation();
      // The init-list push below copies `d` into a fresh inner vector of
      // size == capacity == 1.
      state_.prov_inner_capacity += sizeof(Derivation) + parent_bytes;
      state_.prov_inner_content += sizeof(Derivation) + parent_bytes;
      result.all_derivations.push_back({std::move(d)});
    }
    const std::vector<bool>& ex =
        engine_.existential_positions_[app.rule_index][head_atom];
    for (uint32_t pos = 0; pos < arity; ++pos) {
      if (ex[pos] &&
          result.birth_atom.find(terms[pos]) == result.birth_atom.end()) {
        result.birth_atom.emplace(terms[pos], out.index);
      }
    }
  } else if (options_.record_all_derivations) {
    std::vector<Derivation>& list = result.all_derivations[out.index];
    bool duplicate = false;
    for (const Derivation& existing : list) {
      if (existing.rule_index == app.rule_index &&
          std::equal(existing.parents.begin(), existing.parents.end(), parents,
                     parents + parent_count)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      const uint64_t parent_bytes =
          static_cast<uint64_t>(parent_count) * sizeof(uint32_t);
      const size_t cap_before = list.capacity();
      list.push_back(derivation());
      // Content grows by one element; capacity by the geometric step the
      // push actually took (zero on a non-growing push).
      state_.prov_inner_capacity +=
          static_cast<uint64_t>(list.capacity() - cap_before) *
              sizeof(Derivation) +
          parent_bytes;
      state_.prov_inner_content += sizeof(Derivation) + parent_bytes;
    }
  }
}

std::optional<ChaseStop> ChaseEngine::RoundLoop::CommitRestricted(
    StagedApplications& staged, ChaseRoundStats& record) {
  ChaseResult& result = state_.result;
  // Commit non-inventing (Datalog) applications first: a Datalog atom may
  // witness an existential head and preempt a fresh term - the standard
  // restricted-chase preference that lets e.g. symmetry rules terminate
  // successor rules.
  std::stable_partition(staged.apps.begin(), staged.apps.end(),
                        [this](const StagedApplications::App& app) {
                          return IsDatalogRule(
                              engine_.theory_.rules[app.rule_index]);
                        });
  // The restricted recheck needs every earlier application of this round
  // already inserted, so commits stay one application at a time.  One
  // matcher for every recheck: FactSet keeps its indexes incrementally up
  // to date and the matcher reads them live.
  const Matcher commit_matcher(engine_.vocab_, result.facts);
  RowBlock app_rows;
  Substitution head_initial;
  for (const StagedApplications::App& app : staged.apps) {
    const CommitLayout& layout = engine_.commit_layouts_[app.rule_index];
    const TermId* bindings = staged.bindings.data() + app.bindings;
    if (!options_.record_all_derivations &&
        !result.seen_applications.Insert(
            app.rule_index, bindings,
            static_cast<uint32_t>(layout.commit_vars.size()))) {
      ++record.deduped;
      continue;
    }
    head_initial.clear();
    for (size_t i = 0; i < layout.commit_vars.size(); ++i) {
      head_initial.emplace(layout.commit_vars[i], bindings[i]);
    }
    if (commit_matcher.Exists(engine_.theory_.rules[app.rule_index].head,
                              engine_.head_existentials_[app.rule_index],
                              head_initial)) {
      // An earlier application this round satisfied the head.
      ++record.preempted;
      continue;
    }
    ++record.committed;
    app_rows.Clear();
    engine_.ExpandHead(app.rule_index, bindings, fn_args_scratch_, &app_rows);
    for (size_t a = 0; a < app_rows.rows(); ++a) {
      const TermId* terms = app_rows.Terms(a);
      const uint32_t arity = app_rows.Arity(a);
      const PredicateId pred = app_rows.predicates[a];
      // Enforce the atom budget per inserted atom, not per application:
      // the result never exceeds max_atoms, even mid-head.
      if (result.facts.size() >= options_.max_atoms) {
        std::optional<uint32_t> existing =
            result.facts.FindRow(pred, terms, arity);
        if (!existing.has_value()) return ChaseStop::kAtomBudget;
        RecordRow(staged, app, a, {*existing, false}, terms, arity, record);
        continue;
      }
      RecordRow(staged, app, a, result.facts.InsertRow(pred, terms, arity),
                terms, arity, record);
    }
  }
  return std::nullopt;
}

void ChaseEngine::RoundLoop::ExpandParallel(const StagedApplications& staged,
                                            uint32_t round_threads) {
  const Vocabulary& vocab = engine_.vocab_;
  // Workers expand contiguous chunks of the surviving order with the const
  // Skolem-row probe; an application tuple never interned before gets a
  // chunk-local placeholder row recorded in the chunk's arena.  Nothing
  // mutates the vocabulary until the serial renumbering pass below.
  struct ExpandChunk {
    struct Miss {
      uint32_t block;        // Skolem block
      uint32_t args;         // offset of its fn args in `miss_args`
      uint32_t arity;        // number of fn args
      uint32_t placeholder;  // placeholder base
    };
    RowBlock rows;
    std::vector<Miss> misses;
    std::vector<TermId> miss_args;
    uint32_t placeholder_count = 0;
  };
  const size_t chunk_size = std::max<size_t>(
      1, (surviving_.size() + round_threads * 4 - 1) / (round_threads * 4));
  const size_t num_chunks = (surviving_.size() + chunk_size - 1) / chunk_size;
  std::vector<ExpandChunk> chunks(num_chunks);
  pool_->Run(num_chunks, [&](size_t c) {
    ExpandChunk& chunk = chunks[c];
    std::vector<TermId> fn_args;
    std::vector<TermId> placeholder_row;
    const size_t begin = c * chunk_size;
    const size_t end = std::min(surviving_.size(), begin + chunk_size);
    for (size_t k = begin; k < end; ++k) {
      const StagedApplications::App& app = staged.apps[surviving_[k]];
      const TermId* bindings = staged.bindings.data() + app.bindings;
      const CommitLayout& layout = engine_.commit_layouts_[app.rule_index];
      const TermId* nulls = nullptr;
      if (layout.skolem_block != kNoSkolemBlock) {
        fn_args.clear();
        for (uint32_t slot : layout.fn_arg_slots) {
          fn_args.push_back(bindings[slot]);
        }
        nulls = vocab.FindSkolemRow(layout.skolem_block, fn_args);
        if (nulls == nullptr) {
          const uint32_t size = vocab.SkolemBlockSize(layout.skolem_block);
          chunk.misses.push_back(
              {layout.skolem_block,
               static_cast<uint32_t>(chunk.miss_args.size()),
               static_cast<uint32_t>(fn_args.size()),
               chunk.placeholder_count});
          chunk.miss_args.insert(chunk.miss_args.end(), fn_args.begin(),
                                 fn_args.end());
          placeholder_row.clear();
          for (uint32_t i = 0; i < size; ++i) {
            placeholder_row.push_back(kLocalTermBit |
                                      (chunk.placeholder_count + i));
          }
          chunk.placeholder_count += size;
          nulls = placeholder_row.data();
        }
      }
      engine_.AppendHeadRows(app.rule_index, bindings, nulls, &chunk.rows);
    }
  });
  // Serial renumbering: chunks partition the staged order contiguously, so
  // interning each chunk's misses in chunk order reproduces exactly the
  // lazy intern order of the serial engine — identical TermIds at every
  // thread count.  (SkolemRow is idempotent, so a tuple missed by several
  // chunks interns once, at its first staged occurrence.)
  for (ExpandChunk& chunk : chunks) {
    std::vector<TermId> resolved(chunk.placeholder_count);
    for (const ExpandChunk::Miss& miss : chunk.misses) {
      const TermId* row = engine_.vocab_.SkolemRow(
          miss.block, std::span<const TermId>(
                          chunk.miss_args.data() + miss.args, miss.arity));
      const uint32_t size = vocab.SkolemBlockSize(miss.block);
      for (uint32_t i = 0; i < size; ++i) {
        resolved[miss.placeholder + i] = row[i];
      }
    }
    for (TermId& t : chunk.rows.terms) {
      if (t & kLocalTermBit) t = resolved[t & ~kLocalTermBit];
    }
    if (pending_.offsets.empty()) pending_.offsets.push_back(0);
    const uint32_t term_base = static_cast<uint32_t>(pending_.terms.size());
    pending_.predicates.insert(pending_.predicates.end(),
                               chunk.rows.predicates.begin(),
                               chunk.rows.predicates.end());
    pending_.terms.insert(pending_.terms.end(), chunk.rows.terms.begin(),
                          chunk.rows.terms.end());
    for (size_t r = 1; r < chunk.rows.offsets.size(); ++r) {
      pending_.offsets.push_back(term_base + chunk.rows.offsets[r]);
    }
  }
  FRONTIERS_CHECK(vocab.NumTerms() < kLocalTermBit,
                  "chase: TermId space reached the placeholder bit");
}

std::optional<ChaseStop> ChaseEngine::RoundLoop::CommitSemiOblivious(
    const StagedApplications& staged, ChaseRoundStats& record) {
  // Set-at-a-time, pipelined (DESIGN.md §5, "Sharded commit pipeline").
  // Phase 1a (serial) walks the merged staging order through the frontier
  // memo; phase 1b expands surviving applications into one columnar
  // pending block — in parallel chunks when the round is wide, probing
  // interned Skolem rows through the const lookup and renumbering misses
  // serially so TermId assignment stays in staged order; phase 2
  // bulk-inserts the block through the sharded parallel commit; phase 3
  // replays the per-row outcomes for depth/provenance/birth bookkeeping.
  // Every phase preserves the merged staging order, so the result is
  // byte-identical to committing one atom at a time, at every thread and
  // shard count.
  ChaseResult& result = state_.result;
  const uint32_t round_threads = record.used_threads;
  WorkerPool* pool = round_threads > 1 && pool_.has_value() ? &*pool_ : nullptr;
  const Clock::time_point expand_start = Clock::now();
  std::optional<obs::Span> commit_sub_span;
  commit_sub_span.emplace("chase.commit.expand", "chase");
  pending_.Clear();
  surviving_.clear();
  surviving_.reserve(staged.apps.size());
  // The memo's size before this round's inserts: a faulted batch truncates
  // back to it.
  const size_t memo_before = result.seen_applications.size();
  for (uint32_t s = 0; s < staged.apps.size(); ++s) {
    const StagedApplications::App& app = staged.apps[s];
    if (!options_.record_all_derivations &&
        !result.seen_applications.Insert(
            app.rule_index, staged.bindings.data() + app.bindings,
            static_cast<uint32_t>(
                engine_.commit_layouts_[app.rule_index].commit_vars.size()))) {
      ++record.deduped;
      continue;
    }
    surviving_.push_back(s);
  }
  if (pool != nullptr && surviving_.size() >= 512 &&
      engine_.vocab_.NumTerms() < kLocalTermBit) {
    ExpandParallel(staged, round_threads);
  } else {
    for (uint32_t s : surviving_) {
      const StagedApplications::App& app = staged.apps[s];
      engine_.ExpandHead(app.rule_index, staged.bindings.data() + app.bindings,
                         fn_args_scratch_, &pending_);
    }
  }
  record.commit_expand_seconds = Seconds(Clock::now() - expand_start);

  outcomes_.clear();
  // A fired `fact_set.insert_batch` failpoint makes the batch insert refuse
  // the whole batch (store untouched, outcomes empty) — which would
  // otherwise be indistinguishable from an atom-budget truncation at row
  // zero; `fact_set.shard_commit` aborts the batch from inside a shard task
  // with the same contract (provisional dedup entries rolled back).  Detect
  // both by their fired-count deltas and classify the stop as a resumable
  // injected fault instead of kAtomBudget.  The EverArmed() guard keeps
  // unarmed runs at one relaxed load.
  const bool fault_detect = failpoint::EverArmed();
  const uint64_t batch_fired_before =
      fault_detect ? failpoint::FiredCount("fact_set.insert_batch") : 0;
  const uint64_t shard_fired_before =
      fault_detect ? failpoint::FiredCount("fact_set.shard_commit") : 0;
  commit_sub_span.emplace("chase.commit.insert", "chase");
  FactSet::BatchTimings batch_timings;
  FactSet::BatchStats batch_stats;
  const size_t added = result.facts.InsertBatchParallel(
      pending_, &outcomes_, pool, options_.max_atoms, &batch_timings,
      &batch_stats);
  commit_sub_span.reset();
  record.commit_dedup_seconds = batch_timings.dedup_seconds;
  record.commit_index_seconds = batch_timings.index_seconds;
  record.shards_touched = batch_stats.shards_touched;
  record.shard_max_rows = batch_stats.max_shard_rows;
  record.shard_wait_seconds =
      static_cast<double>(batch_stats.shard_wait_ns) * 1e-9;
  record.shard_hold_seconds =
      static_cast<double>(batch_stats.shard_hold_ns) * 1e-9;
  if (batch_stats.rows > 0 && batch_stats.shards_touched > 0) {
    record.shard_imbalance =
        static_cast<double>(batch_stats.max_shard_rows) /
        (static_cast<double>(batch_stats.rows) /
         static_cast<double>(batch_stats.shards_touched));
  }
  if (fault_detect &&
      (failpoint::FiredCount("fact_set.insert_batch") != batch_fired_before ||
       failpoint::FiredCount("fact_set.shard_commit") != shard_fired_before)) {
    // Roll back phase 1's dedup-memo inserts so the state is exactly the
    // previous round boundary.  (Skolem rows interned by ExpandHead stay in
    // the vocabulary; hash-consing re-interns them to identical TermIds on
    // resume, so they are harmless.)  The memo keeps its grown arena and
    // table capacity, which Finish accounts.
    result.seen_applications.Truncate(memo_before);
    return ChaseStop::kInjectedFault;
  }
  result.depth.reserve(result.depth.size() + added);
  next_delta_atoms_.reserve(added);
  // Replay outcomes app by app.  `outcomes_` is truncated exactly at the
  // first new atom past the budget; an application reached before the
  // truncation point still counts as committed (mirroring the per-atom
  // loop, which increments `committed` before inserting).
  size_t cursor = 0;
  for (uint32_t s : surviving_) {
    const StagedApplications::App& app = staged.apps[s];
    ++record.committed;
    const size_t head_size =
        engine_.commit_layouts_[app.rule_index].head.size();
    for (size_t a = 0; a < head_size; ++a, ++cursor) {
      if (cursor >= outcomes_.size()) return ChaseStop::kAtomBudget;
      RecordRow(staged, app, a, outcomes_[cursor], pending_.Terms(cursor),
                pending_.Arity(cursor), record);
    }
  }
  return std::nullopt;
}

std::optional<ChaseStop> ChaseEngine::RoundLoop::CloseRound(
    ChaseRoundStats& record, bool atom_budget_hit) {
  // Runs before the stop checks below so a partial last round is
  // accounted too.
  record.mem = AccountBoundary(state_.round + 1, /*emit_mem_rows=*/true);
  state_.result.stats.rounds.push_back(record);
  PublishRound(record);
  // A truncated last round is partial: complete_rounds stays at `round`.
  if (atom_budget_hit) return ChaseStop::kAtomBudget;
  if (next_delta_atoms_.empty()) return ChaseStop::kFixpoint;
  // The active domain grows in first-occurrence order, so this round's new
  // terms are exactly the domain suffix appended during commit — no
  // per-round known-terms set.
  const std::vector<TermId>& domain = state_.result.facts.Domain();
  state_.delta_terms =
      std::vector<TermId>(domain.begin() + domain_before_, domain.end());
  state_.delta_atoms = std::exchange(next_delta_atoms_, {});
  // The next round's staged volume tracks this round's match output far
  // better than the delta size alone; both feed the serial-fallback
  // decision (ChaseOptions::serial_round_threshold).
  work_hint_ = record.matches + record.staged;
  ++state_.round;
  if (heartbeat_on_ && Clock::now() >= next_heartbeat_) {
    EmitHeartbeat(state_.round, nullptr);
    next_heartbeat_ = Clock::now() + heartbeat_interval_;
  }
  return std::nullopt;
}

ChaseResult ChaseEngine::RoundLoop::Finish(ChaseStop stop) {
  ChaseResult& result = state_.result;
  result.stop = stop;
  result.complete_rounds = state_.round;
  // Recompute the boundary totals unconditionally: an injected-fault
  // rollback mutates the memo after the last per-round boundary, and the
  // final figures must describe the state actually returned (asserted
  // equal to a fresh recompute by tests/mem_test.cc).  No stream rows and
  // no round record — the state is the last closed boundary's.
  AccountBoundary(state_.round, /*emit_mem_rows=*/false);
  result.approx_bytes = state_.live_bytes;
  result.peak_bytes = state_.peak_bytes;
  const double elapsed = Seconds(Clock::now() - run_start_);
  result.stats.total_seconds += elapsed;
  metrics_.run_seconds.Observe(elapsed);
  metrics_.live_bytes.Set(static_cast<double>(state_.live_bytes));
  if (stop != ChaseStop::kFixpoint && stop != ChaseStop::kRoundBudget) {
    metrics_.budget_stops.Add();
    obs::TraceInstant(ChaseStopName(stop), "chase");
  }
  if (heartbeat_on_) EmitHeartbeat(state_.round, ChaseStopName(stop));
  return std::move(result);
}

ChaseResult ChaseEngine::RunFromState(RunState state,
                                      const ChaseOptions& options) const {
  obs::Span run_span("chase.run", "chase");
  RoundLoop loop(*this, std::move(state), options);
  while (loop.round() < options.max_rounds) {
    if (std::optional<ChaseStop> stop = loop.BoundaryStop()) {
      return loop.Finish(*stop);
    }
    obs::Span round_span("chase.round", "chase");
    ChaseRoundStats record;
    record.used_threads = loop.RoundThreads();

    // ---- Plan and match (the parallel phase) ----------------------------
    const Clock::time_point match_start = Clock::now();
    std::variant<StagedApplications, ChaseStop> matched;
    {
      obs::Span match_span("chase.match", "chase");
      matched = loop.MatchRound(loop.PlanUnits(record.used_threads), record);
    }
    if (const ChaseStop* stop = std::get_if<ChaseStop>(&matched)) {
      // Abandon the round whole: the staged buffers and `record` are
      // discarded, so the result is exactly the previous round boundary.
      return loop.Finish(*stop);
    }
    StagedApplications& staged = std::get<StagedApplications>(matched);
    record.match_seconds = Seconds(Clock::now() - match_start);

    // ---- Commit (sequential order) --------------------------------------
    // Never interrupted: budgets may be overshot by at most one round's
    // insertions, in exchange for the state always being a chase stage.
    std::optional<ChaseStop> commit_stop;
    {
      obs::Span commit_span("chase.commit", "chase");
      const Clock::time_point commit_start = Clock::now();
      // Torture-harness fault sites.  Both fire before any mutation of the
      // committed state, so the round is abandoned whole — exactly like a
      // governed abort above — and the result stays a complete chase stage
      // (snapshot + resume reconverge to the uninterrupted run).
      // `chase.commit` models a fault at commit entry;
      // `chase.skolem_alloc` models Skolem block-row allocation
      // exhaustion, checked just before the head expansion starts
      // interning block rows.
      if (FRONTIERS_FAILPOINT("chase.commit") ||
          FRONTIERS_FAILPOINT("chase.skolem_alloc")) {
        return loop.Finish(ChaseStop::kInjectedFault);
      }
      commit_stop = options.variant == ChaseVariant::kRestricted
                        ? loop.CommitRestricted(staged, record)
                        : loop.CommitSemiOblivious(staged, record);
      if (commit_stop == ChaseStop::kInjectedFault) {
        return loop.Finish(*commit_stop);
      }
      record.commit_seconds = Seconds(Clock::now() - commit_start);
    }

    // ---- Close: the round boundary --------------------------------------
    if (std::optional<ChaseStop> stop =
            loop.CloseRound(record, commit_stop == ChaseStop::kAtomBudget)) {
      return loop.Finish(*stop);
    }
  }
  return loop.Finish(ChaseStop::kRoundBudget);
}

ChaseResult ChaseEngine::RunToDepth(const FactSet& db, uint32_t rounds) const {
  ChaseOptions options;
  options.max_rounds = rounds;
  return Run(db, options);
}

}  // namespace frontiers
