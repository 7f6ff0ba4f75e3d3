#include "chase/chase.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>

#include "base/check.h"
#include "base/failpoint.h"
#include "base/worker_pool.h"
#include "chase/snapshot.h"
#include "hom/matcher.h"
#include "obs/metrics.h"
#include "obs/round_stream.h"
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
  // Rounds the small-round serial fallback kept on one thread.
  obs::Counter& serial_rounds;
  // Thread-usage decisions per round, so metrics-only consumers see the
  // serial_round_threshold fallback engaging without reading
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
  obs::Histogram& match_seconds;
  obs::Histogram& commit_seconds;
  obs::Histogram& commit_expand_seconds;
  obs::Histogram& commit_dedup_seconds;
  obs::Histogram& commit_index_seconds;
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
          reg.GetCounter("frontiers.chase.serial_rounds"),
          reg.GetCounter("frontiers.chase.rounds_parallel"),
          reg.GetCounter("frontiers.chase.rounds_serial"),
          reg.GetGauge("frontiers.chase.live_bytes"),
          reg.GetGauge("frontiers.mem.total_bytes"),
          reg.GetGauge("frontiers.mem.peak_bytes"),
          reg.GetHistogram("frontiers.chase.match_seconds", phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_seconds", phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_expand_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_dedup_seconds",
                           phase_buckets),
          reg.GetHistogram("frontiers.chase.commit_index_seconds",
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
// applied set (the memo and the row marks), which report their own bytes, and
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
             result.seen_applications.HeapBytes(mode) +
                 result.applied_rows.HeapBytes(mode));
  totals.Add(
      MemComponent::kProvenance,
      prov_inner_bytes + VectorHeapBytes(result.depth, mode) +
          VectorHeapBytes(result.first_derivation, mode) +
          VectorHeapBytes(result.all_derivations, mode) +
          VectorHeapBytes(result.birth_atom, mode));
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
  // Depths never decrease along the atom ids, so Ch_i is an id prefix.
  const size_t end =
      std::upper_bound(depth.begin(), depth.end(), i) - depth.begin();
  FactSet out;
  for (uint32_t k = 0; k < end; ++k) out.Insert(facts.ToAtom(k));
  return out;
}

std::vector<std::string> ChaseResult::AppliedKeys() const {
  std::vector<std::string> keys;
  keys.reserve(seen_applications.size() + applied_rows.size());
  seen_applications.ForEach([&](FrontierMemo::Entry e) {
    keys.push_back(seen_applications.Key(e));
  });
  applied_rows.ForEachKey(
      [&](std::string key) { keys.push_back(std::move(key)); });
  std::sort(keys.begin(), keys.end());
  return keys;
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
  body_vars_.reserve(n);
  head_vars_.reserve(n);
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
    body_vars_.emplace_back(rule.body_vars.begin(), rule.body_vars.end());
    ex.insert(rule.head_universal_vars.begin(), rule.head_universal_vars.end());
    head_vars_.push_back(std::move(ex));
    if (!rule.body.empty() && !rule.domain_vars.empty()) {
      needs_naive_[r] = true;
    }
    // The head checks bind the head-universal variables (`Bind` in the
    // match phase, `initial` at commit).
    const std::unordered_set<TermId> none;
    const std::unordered_set<TermId> head_bound(
        rule.head_universal_vars.begin(), rule.head_universal_vars.end());
    ProbedPositions(rule.body, body_vars_[r], none,
                    [&](PredicateId p, uint32_t pos) {
                      body_read_positions_.emplace_back(p, pos);
                    });
    ProbedPositions(rule.head, head_vars_[r], head_bound,
                    [&](PredicateId p, uint32_t pos) {
                      head_read_positions_.emplace_back(p, pos);
                    });

    // Flatten the skolemized head into the set-at-a-time commit layout.
    const SkolemizedHead& sh = skolemized_[r];
    CommitLayout layout;
    layout.commit_vars = rule.head_universal_vars;
    std::unordered_map<TermId, uint32_t> slot_of;
    for (uint32_t i = 0; i < layout.commit_vars.size(); ++i) {
      slot_of.emplace(layout.commit_vars[i], i);
    }
    // A match's values: the body plan's slots, which it numbers in
    // first-occurrence order (`body_vars`' order), then the domain
    // variables.
    std::vector<TermId> match_vars = rule.body_vars;
    match_vars.insert(match_vars.end(), rule.domain_vars.begin(),
                      rule.domain_vars.end());
    for (TermId v : layout.commit_vars) {
      layout.commit_sources.push_back(static_cast<uint32_t>(
          std::find(match_vars.begin(), match_vars.end(), v) -
          match_vars.begin()));
    }
    // The binding tuple is the Skolem row key as it stands.
    FRONTIERS_CHECK(sh.fn_args == layout.commit_vars,
                    "Skolem arguments of rule '" + rule.name +
                        "' are not its head-universal variables");
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
  // A block no other rule uses names its rule's applications one to one.
  std::unordered_map<uint32_t, uint32_t> rules_per_block;
  for (const CommitLayout& layout : commit_layouts_) {
    if (layout.skolem_block != kNoSkolemBlock) {
      ++rules_per_block[layout.skolem_block];
    }
  }
  for (uint32_t r = 0; r < commit_layouts_.size(); ++r) {
    CommitLayout& layout = commit_layouts_[r];
    if (layout.skolem_block == kNoSkolemBlock ||
        rules_per_block[layout.skolem_block] != 1) {
      continue;
    }
    layout.row_memo = true;
    if (layout.skolem_block >= row_memo_rules_.size()) {
      row_memo_rules_.resize(layout.skolem_block + 1, AppliedRows::kNoRule);
    }
    row_memo_rules_[layout.skolem_block] = r;
  }
}

TermId ChaseEngine::FirstSkolemNull(size_t rule_index,
                                    const TermId* bindings) const {
  const CommitLayout& layout = commit_layouts_[rule_index];
  if (layout.skolem_block == kNoSkolemBlock) return kNoTerm;
  // One probe interns (or finds) every null of this application.
  return vocab_
      .SkolemRow(layout.skolem_block, {bindings, layout.commit_vars.size()})
      .front();
}

void ChaseEngine::ExpandHead(size_t rule_index, const TermId* bindings,
                             TermId first_null, RowBlock* out) const {
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
          row[pos] = first_null + slot.index;
          break;
      }
    }
    if (out->offsets.empty()) out->offsets.push_back(0);
    out->predicates.push_back(atom_layout.predicate);
    out->offsets.push_back(static_cast<uint32_t>(out->terms.size()));
  }
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
  // kDelta: the atom ids of the seed's predicate (`FactSet::ByPredicate`),
  // and the chunk [seed_begin, seed_end) of them this unit covers, within
  // the suffix the previous round added.
  const std::vector<uint32_t>* seeds = nullptr;
  size_t seed_begin = 0;
  size_t seed_end = 0;
};

// Output of one MatchUnit, written by exactly one worker.
struct UnitBuffer {
  StagedApplications staged;
  uint64_t matches = 0;
};

}  // namespace

// Mutable chase state threaded through the round loop.  `Run` builds it
// from a database, `Resume` from a snapshot; `RunFromState` consumes it.
// `result.facts`/`depth`/provenance always describe a complete chase stage
// on entry, `round` is the next round to execute, and `live_bytes` the
// content-mode ledger total at the last round boundary (the byte-budget
// quantity).  The store and its active domain only append, in round order,
// so the previous round's additions are their suffixes from
// `delta_atom_begin` (an atom id) and `delta_domain_begin` (an index into
// `Domain()`); both are 0 before round 0, whose delta is the whole input.
struct ChaseEngine::RunState {
  ChaseResult result;
  uint32_t delta_atom_begin = 0;
  size_t delta_domain_begin = 0;
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

void ChaseEngine::DeclareReadPositions(FactSet& facts,
                                       const ChaseOptions& options) const {
  if (options.filter) {
    // A filter is opaque and may read any position of the stage: index
    // every position of the theory's predicates and of the store's.
    for (const Tgd& rule : theory_.rules) {
      for (const std::vector<Atom>* atoms : {&rule.body, &rule.head}) {
        for (const Atom& atom : *atoms) {
          for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
            facts.Declare(atom.predicate, pos);
          }
        }
      }
    }
    for (PredicateId p = 0; p < vocab_.NumPredicates(); ++p) {
      const FactSet::PredicateIndex* pidx = facts.Predicate(p);
      if (pidx == nullptr) continue;
      for (uint32_t pos = 0; pos < pidx->segment.arity(); ++pos) {
        facts.Declare(p, pos);
      }
    }
    return;
  }
  for (const auto& [p, pos] : body_read_positions_) facts.Declare(p, pos);
  if (options.variant == ChaseVariant::kRestricted) {
    for (const auto& [p, pos] : head_read_positions_) facts.Declare(p, pos);
  }
}

ChaseResult ChaseEngine::Run(const FactSet& db,
                             const ChaseOptions& options) const {
  RunState state;
  // The run indexes exactly the positions it reads, whatever `db` indexed:
  // a resumed run rebuilds the store from rows and must land on the same
  // ledger.
  state.result.facts = db;
  state.result.facts.ClearIndexes();
  DeclareReadPositions(state.result.facts, options);
  state.result.depth.assign(db.size(), 0);
  const bool provenance =
      options.track_provenance || options.record_all_derivations;
  if (provenance) {
    state.result.first_derivation.assign(db.size(), std::nullopt);
  }
  if (options.record_all_derivations) {
    state.result.all_derivations.assign(db.size(), {});
  }
  state.result.applied_rows = AppliedRows(vocab_, row_memo_rules_);
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
  state.round = snapshot.next_round;
  // Atoms go back in insertion order, so the previous round's atoms (depth
  // == next_round) are again the store's suffix, and the terms they added
  // its domain's suffix.  The decoder rejects decreasing depths; a snapshot
  // built in process is checked here.
  for (uint32_t i = 0; i < snapshot.atoms.size(); ++i) {
    FRONTIERS_CHECK(i == 0 || snapshot.depth[i - 1] <= snapshot.depth[i],
                    "snapshot depths decrease at atom " + std::to_string(i));
    const bool inserted = result.facts.Insert(snapshot.atoms[i]);
    FRONTIERS_CHECK(inserted, "snapshot contains a duplicate atom");
    if (snapshot.depth[i] < state.round) {
      state.delta_atom_begin = i + 1;
      state.delta_domain_begin = result.facts.Domain().size();
    }
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
  DeclareReadPositions(result.facts, options);
  for (const auto& [term, atom] : snapshot.birth_atoms) {
    if (term >= result.birth_atom.size()) {
      result.birth_atom.resize(term + 1, ChaseResult::kNoAtom);
    }
    if (result.birth_atom[term] == ChaseResult::kNoAtom) {
      result.birth_atom[term] = atom;
    }
  }
  // Each key goes back where the commit phase records it: a `row_memo`
  // rule's as a mark on its Skolem row, interned here if this vocabulary
  // has not seen it; every other key, and any key whose shape does not fit
  // its rule, as a memo entry.
  result.applied_rows = AppliedRows(vocab_, row_memo_rules_);
  for (const std::string& key : snapshot.seen_applications) {
    const uint32_t rule = FrontierMemo::KeyRule(key);
    const std::vector<TermId> bindings = FrontierMemo::KeyBindings(key);
    if (options.variant == ChaseVariant::kSemiOblivious &&
        rule < commit_layouts_.size() && commit_layouts_[rule].row_memo &&
        bindings.size() == commit_layouts_[rule].commit_vars.size()) {
      result.applied_rows.Mark(
          vocab_.SkolemRowIndex(commit_layouts_[rule].skolem_block, bindings));
    } else {
      result.seen_applications.InsertKey(key);
    }
  }
  result.stats.rounds = snapshot.round_stats;
  result.stats.total_seconds = snapshot.total_seconds;

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
  return RunFromState(std::move(state), options);
}

// The round loop of one Run/Resume call.  RunFromState drives the phases
// of DESIGN.md §5 — PlanUnits, MatchRound, CommitSemiOblivious or
// CommitRestricted, CloseRound — once per round; everything runs on the
// calling thread except the match units, which are handed to the
// pool.  The round boundary is the only place that reports a round:
// CloseRound appends the round's record to ChaseStats and feeds the same
// record to the registry and the round stream, and Finish reuses the
// boundary accounting (without a record) for the state the run returns
// and writes the stream's stop row.
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
  /// (kAtomBudget, kFixpoint) or advances to the next round.
  std::optional<ChaseStop> CloseRound(ChaseRoundStats& record,
                                      bool atom_budget_hit);

  /// Stops the run at the current round boundary and returns its result.
  ChaseResult Finish(ChaseStop stop);

 private:
  // Boundary accounting: recomputes both ledger modes from the containers'
  // own bookkeeping and refreshes live_bytes, the peak and the
  // `frontiers.mem.*` gauges.  Returns the capacity-mode totals.
  MemTotals AccountBoundary();
  void PublishRound(const ChaseRoundStats& record);
  // Writes the boundary's frontiers-rounds-v1 rows when this run streams:
  // the ledger attribution, `record`'s counters and the progress figures.
  void StreamBoundary(uint32_t completed_rounds, const MemTotals& cap,
                      const ChaseRoundStats& record);

  // One match unit, run by exactly one worker into its own buffer.
  void RunUnit(const MatchUnit& unit, UnitBuffer& out);
  // Bookkeeping for one head row's insert outcome — depth, provenance,
  // births — shared by both commit paths.
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
  // condition variable between rounds.  The pool executes the match units
  // only.
  std::optional<WorkerPool> pool_;
  // Round-stream run ordinal; 0 when no RoundStreamSession is active.
  const uint64_t stream_run_;
  // Work hint for the small-round serial fallback: the input delta for the
  // first round, then the previous round's matches + staged applications.
  // A pure execution heuristic — it gates *who* computes, never what.
  uint64_t work_hint_;

  // Per-round state: the store's size, its domain's size and its
  // build-on-read count when the round started, and the governance flags.
  // CloseRound makes the sizes the next round's delta offsets and checks
  // that the round built no position on read.
  uint32_t atoms_before_ = 0;
  size_t domain_before_ = 0;
  uint64_t built_on_read_ = 0;
  std::atomic<int> abort_reason_{-1};
  std::atomic<size_t> staged_bytes_{0};

  // Commit-phase scratch, reused across rounds so big rounds don't pay a
  // fresh geometric-growth allocation chain every round.  Reported under
  // kScratch at every boundary.
  RowBlock pending_;
  std::vector<uint32_t> surviving_;
  std::vector<FactSet::InsertOutcome> outcomes_;

  // The previous streamed boundary, for the diag row's rates.
  Clock::time_point last_boundary_time_;
  uint64_t last_boundary_atoms_ = 0;
  uint64_t last_boundary_bytes_ = 0;
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
      stream_run_(obs::RoundStreamSession::BeginRun()),
      work_hint_(state_.result.facts.size() - state_.delta_atom_begin),
      last_boundary_time_(run_start_) {
  metrics_.runs.Add();
  if (num_threads_ > 1) pool_.emplace(num_threads_);
  // Opening boundary: the state this call starts from (the input database
  // for Run, the reconstructed stage for Resume).  It closes no round, so
  // its stream counters are all 0, and it has no rates yet.
  const MemTotals cap = AccountBoundary();
  last_boundary_atoms_ = state_.result.facts.size();
  last_boundary_bytes_ = state_.live_bytes;
  StreamBoundary(state_.round, cap, ChaseRoundStats{});
}

MemTotals ChaseEngine::RoundLoop::AccountBoundary() {
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
  // The chase's own persistent scratch: diagnostic only.
  cap.Add(MemComponent::kScratch,
          pending_.HeapBytes(MemAccounting::kCapacity) +
              VectorHeapBytes(surviving_, MemAccounting::kCapacity) +
              VectorHeapBytes(outcomes_, MemAccounting::kCapacity));
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

void ChaseEngine::RoundLoop::StreamBoundary(uint32_t completed_rounds,
                                            const MemTotals& cap,
                                            const ChaseRoundStats& record) {
  if (stream_run_ == 0) return;
  const ChaseResult& result = state_.result;
  // Per-predicate attribution rows (component-major, predicate-id order),
  // then the global components in fixed order — deterministic values only,
  // so these rows are byte-identical across thread counts.
  MemLedger ledger;
  result.facts.AccountLedger(ledger, MemAccounting::kCapacity);
  std::vector<obs::RoundStreamComponent> components;
  for (const MemLedgerRow& row : ledger.rows) {
    components.push_back(
        {MemComponentName(row.component),
         row.predicate == UINT32_MAX
             ? ""
             : engine_.vocab_.PredicateName(row.predicate).c_str(),
         row.bytes});
  }
  for (MemComponent c :
       {MemComponent::kVocabTerms, MemComponent::kVocabSkolem,
        MemComponent::kProvenance, MemComponent::kFrontierMemo}) {
    if (cap.Get(c) != 0) {
      components.push_back({MemComponentName(c), "", cap.Get(c)});
    }
  }
  obs::RoundStreamBoundary b;
  b.round = completed_rounds;
  b.atoms = result.facts.size();
  b.total_bytes = cap.TrackedTotal();
  b.peak_bytes = state_.peak_bytes;
  b.live_bytes = state_.live_bytes;
  b.matches = record.matches;
  b.staged = record.staged;
  b.committed = record.committed;
  b.preempted = record.preempted;
  b.deduped = record.deduped;
  b.atoms_inserted = record.atoms_inserted;
  b.scratch_bytes = cap.Get(MemComponent::kScratch);

  // Progress, with rates since the previous boundary.
  const Clock::time_point now = Clock::now();
  const double dt = Seconds(now - last_boundary_time_);
  b.elapsed_seconds = Seconds(now - run_start_);
  b.atoms_per_sec =
      dt > 0 ? static_cast<double>(b.atoms - last_boundary_atoms_) / dt : 0.0;
  if (options_.deadline_seconds > 0) {
    b.budget_remaining_seconds =
        std::max(0.0, options_.deadline_seconds - b.elapsed_seconds);
  }
  // ETA: the minimum over every *active* budget's projection — atom budget
  // at the current atom rate, deadline remaining, byte budget at the
  // current byte rate.  Stays null only when no budget gives a basis (e.g.
  // a fixpoint-bound run with no observed progress).
  auto consider_eta = [&b](double candidate) {
    if (candidate >= 0 && (b.eta_seconds < 0 || candidate < b.eta_seconds)) {
      b.eta_seconds = candidate;
    }
  };
  if (b.atoms_per_sec > 0 && options_.max_atoms > b.atoms) {
    consider_eta(static_cast<double>(options_.max_atoms - b.atoms) /
                 b.atoms_per_sec);
  }
  if (options_.deadline_seconds > 0) {
    consider_eta(b.budget_remaining_seconds);
  }
  if (options_.max_bytes > 0) {
    if (b.live_bytes >= options_.max_bytes) {
      consider_eta(0.0);
    } else if (dt > 0 && b.live_bytes > last_boundary_bytes_) {
      const double bytes_per_second =
          static_cast<double>(b.live_bytes - last_boundary_bytes_) / dt;
      consider_eta(static_cast<double>(options_.max_bytes - b.live_bytes) /
                   bytes_per_second);
    }
  }
  obs::RoundStreamSession::WriteBoundary(stream_run_, b, components);
  last_boundary_time_ = now;
  last_boundary_atoms_ = b.atoms;
  last_boundary_bytes_ = b.live_bytes;
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
  const FactSet& facts = state_.result.facts;
  const uint32_t round = state_.round;
  atoms_before_ = static_cast<uint32_t>(facts.size());
  domain_before_ = facts.Domain().size();
  built_on_read_ = facts.positions_built_on_read();
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
    // The predicate's ids ascend, so its delta atoms are the suffix from
    // the first id at or past `delta_atom_begin`.  Matches seen through
    // several seeds stage duplicate applications, which collapse at
    // insertion.
    unit.kind = MatchUnit::kDelta;
    for (size_t j = 0; j < rule.body.size(); ++j) {
      const std::vector<uint32_t>& ids =
          facts.ByPredicate(rule.body[j].predicate);
      const size_t first =
          std::lower_bound(ids.begin(), ids.end(), state_.delta_atom_begin) -
          ids.begin();
      const size_t count = ids.size() - first;
      const size_t chunk =
          round_threads > 1
              ? std::max<size_t>(1, (count + round_threads * 4 - 1) /
                                        (round_threads * 4))
              : count;
      unit.seed_pos = j;
      unit.seeds = &ids;
      for (size_t begin = first; begin < ids.size(); begin += chunk) {
        unit.seed_begin = begin;
        unit.seed_end = std::min(begin + chunk, ids.size());
        units.push_back(unit);
      }
    }
  }
  return units;
}

void ChaseEngine::RoundLoop::RunUnit(const MatchUnit& unit, UnitBuffer& out) {
  // Per-unit span, recorded into the worker's own trace buffer.
  obs::Span unit_span("chase.unit", "chase");
  const ChaseResult& result = state_.result;
  const size_t r = unit.rule_index;
  const Tgd& rule = engine_.theory_.rules[r];
  const CommitLayout& layout = engine_.commit_layouts_[r];
  const size_t body_slots = rule.body_vars.size();
  // The restricted variant's stage-time head check: one head plan per
  // unit, its commit-var slots bound per match.
  std::optional<MatchPlan> head_plan;
  std::vector<uint32_t> head_slots;
  if (options_.variant == ChaseVariant::kRestricted) {
    head_plan.emplace(result.facts, rule.head, engine_.head_vars_[r]);
    for (TermId v : layout.commit_vars) {
      head_slots.push_back(head_plan->SlotOf(v));
    }
  }
  Substitution sigma;  // only for options.filter
  uint64_t poll_counter = 0;
  // Stages one match: `values` holds the body plan's slots followed by the
  // domain variables' values, and `body` (null for a body-free rule) the
  // fact each body atom matched.  Returns false to stop the enumeration
  // early (budget trip or cancellation); the partially filled buffer is
  // discarded with the round, so early exits never affect the committed
  // state.
  auto stage = [&](const TermId* values, const MatchPlan* body) -> bool {
    if (governed_) {
      if ((++poll_counter & 0x1FF) == 0) PollGovernor();
      if (Aborting()) return false;
    }
    ++out.matches;
    if (options_.filter) {
      sigma.clear();
      for (size_t i = 0; i < body_slots; ++i) {
        sigma.emplace(rule.body_vars[i], values[i]);
      }
      for (size_t d = 0; d < rule.domain_vars.size(); ++d) {
        sigma.emplace(rule.domain_vars[d], values[body_slots + d]);
      }
      if (!options_.filter(r, sigma, result.facts)) return true;
    }
    StagedApplications& staged = out.staged;
    const StagedApplications::App app = {
        static_cast<uint32_t>(r),
        static_cast<uint32_t>(staged.bindings.size()),
        static_cast<uint32_t>(staged.parents.size())};
    for (uint32_t source : layout.commit_sources) {
      staged.bindings.push_back(values[source]);
    }
    const TermId* bindings = staged.bindings.data() + app.bindings;
    if (head_plan.has_value()) {
      // Fire only when the head is not already witnessed in the stage;
      // re-checked at commit time so applications earlier in the same
      // round can preempt later ones (the sequential-chase behaviour).
      for (size_t i = 0; i < head_slots.size(); ++i) {
        head_plan->Bind(head_slots[i], bindings[i]);
      }
      const bool witnessed = !head_plan->Run([] { return false; });
      for (uint32_t slot : head_slots) head_plan->Unbind(slot);
      if (witnessed) {
        staged.bindings.resize(app.bindings);
        return true;
      }
    }
    if (provenance_) {
      // A body match maps every body atom to a stage fact: its parents are
      // the facts the plan matched, in body order.
      for (uint32_t j = 0; j < rule.body.size(); ++j) {
        staged.parents.push_back(body->MatchedFact(j));
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

  // Domain-variable assignments over the active domain, in odometer order
  // (the first variable slowest), written after the body slots in `values`
  // and staged one by one.  With `only_new`, only tuples touching a term
  // the previous round introduced — the domain's suffix from
  // `delta_domain_begin` — are fresh.  Returns false when staging stopped
  // the enumeration.
  const size_t k = rule.domain_vars.size();
  std::vector<TermId> values(k == 0 ? 0 : body_slots + k);
  std::vector<uint32_t> pick(k);
  auto stage_domain_tuples = [&](const MatchPlan* body, bool only_new) {
    const std::vector<TermId>& domain = result.facts.Domain();
    if (k > 0 && domain.empty()) return true;
    TermId* tuple = values.data() + body_slots;
    std::fill(pick.begin(), pick.end(), 0);
    while (true) {
      bool fresh = !only_new;
      for (size_t d = 0; d < k; ++d) {
        tuple[d] = domain[pick[d]];
        fresh |= pick[d] >= state_.delta_domain_begin;
      }
      if (fresh && !stage(values.data(), body)) return false;
      size_t d = k;
      while (d > 0 && ++pick[d - 1] == domain.size()) pick[--d] = 0;
      if (d == 0) return true;
    }
  };

  switch (unit.kind) {
    case MatchUnit::kDomain:
      // Pins-style rule: enumerate domain-variable assignments.  Under
      // delta evaluation only tuples touching a new term are fresh.
      stage_domain_tuples(nullptr, unit.use_delta);
      break;
    case MatchUnit::kNaive: {
      MatchPlan plan(result.facts, rule.body, engine_.body_vars_[r]);
      if (rule.domain_vars.empty()) {
        plan.Run([&] { return stage(plan.slots(), &plan); });
        break;
      }
      plan.Run([&] {
        std::copy(plan.slots(), plan.slots() + body_slots, values.begin());
        return stage_domain_tuples(&plan, false);
      });
      break;
    }
    case MatchUnit::kDelta: {
      // One plan for the unit; each delta fact seeds body atom `seed_pos`
      // straight from its columns, and the search completes the match
      // against the full current stage.
      MatchPlan plan(result.facts, rule.body, engine_.body_vars_[r]);
      const uint32_t seed = static_cast<uint32_t>(unit.seed_pos);
      for (size_t di = unit.seed_begin; di < unit.seed_end; ++di) {
        if (governed_ && Aborting()) break;
        // `seeds` holds only atoms of the seed's predicate.
        if (!plan.Seed(seed, (*unit.seeds)[di])) continue;
        plan.Run([&] { return stage(plan.slots(), &plan); });
        plan.Unseed(seed);
      }
      break;
    }
  }
}

std::variant<StagedApplications, ChaseStop> ChaseEngine::RoundLoop::MatchRound(
    const std::vector<MatchUnit>& units, ChaseRoundStats& record) {
  // Workers only read: the stage and the vocabulary are frozen until
  // commit.  Each unit compiles its own match plans against the frozen
  // stage — plans cache posting lists and columns, so they are built here,
  // never kept across a commit — and writes to its own buffer, so no
  // synchronization beyond the unit counter is needed.
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
      RunUnit(units[i], buffers[i]);
    });
  } else {
    for (size_t i = 0; i < units.size(); ++i) {
      if (governed_ && Aborting()) break;
      RunUnit(units[i], buffers[i]);
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
    std::vector<uint32_t>& births = result.birth_atom;
    for (uint32_t pos = 0; pos < arity; ++pos) {
      if (!ex[pos]) continue;
      const TermId t = terms[pos];
      if (t >= births.size()) births.resize(t + 1, ChaseResult::kNoAtom);
      if (births[t] == ChaseResult::kNoAtom) births[t] = out.index;
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
  // to date and the matcher reads them live.  Each recheck compiles its
  // own search rather than reusing a head plan as the match phase does: a
  // plan caches posting-list views and columns, and every insert between
  // two rechecks would leave them stale.
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
                              engine_.head_vars_[app.rule_index],
                              head_initial)) {
      // An earlier application this round satisfied the head.
      ++record.preempted;
      continue;
    }
    ++record.committed;
    app_rows.Clear();
    engine_.ExpandHead(app.rule_index, bindings,
                       engine_.FirstSkolemNull(app.rule_index, bindings),
                       &app_rows);
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

std::optional<ChaseStop> ChaseEngine::RoundLoop::CommitSemiOblivious(
    const StagedApplications& staged, ChaseRoundStats& record) {
  // Set-at-a-time (DESIGN.md §5, "Serial commit").  Phase 1 walks the
  // merged staging order, drops the applications this run already applied
  // and expands each surviving one into one columnar pending block,
  // interning Skolem rows in staged order; phase 2 bulk-inserts the block
  // with one batch insert; phase 3 replays the per-row outcomes for depth,
  // provenance and birth bookkeeping.  Every phase preserves the merged
  // staging order, so the result is byte-identical to committing one atom
  // at a time.
  ChaseResult& result = state_.result;
  Vocabulary& vocab = engine_.vocab_;
  const Clock::time_point expand_start = Clock::now();
  std::optional<obs::Span> commit_sub_span;
  commit_sub_span.emplace("chase.commit.expand", "chase");
  pending_.Clear();
  surviving_.clear();
  surviving_.reserve(staged.apps.size());
  const bool dedup = !options_.record_all_derivations;
  // The memo's size before this round's inserts: a refused batch truncates
  // back to it.
  const size_t memo_before = result.seen_applications.size();
  for (uint32_t s = 0; s < staged.apps.size(); ++s) {
    const StagedApplications::App& app = staged.apps[s];
    const CommitLayout& layout = engine_.commit_layouts_[app.rule_index];
    const TermId* bindings = staged.bindings.data() + app.bindings;
    TermId first_null = kNoTerm;
    if (dedup && layout.row_memo) {
      // The Skolem row is the trigger memo: one probe finds or interns
      // the nulls and names the application.
      const uint32_t row = vocab.SkolemRowIndex(
          layout.skolem_block, {bindings, layout.commit_vars.size()});
      if (!result.applied_rows.Mark(row)) {
        ++record.deduped;
        continue;
      }
      first_null = vocab.SkolemRowTerms(row).front();
    } else {
      if (dedup && !result.seen_applications.Insert(
                       app.rule_index, bindings,
                       static_cast<uint32_t>(layout.commit_vars.size()))) {
        ++record.deduped;
        continue;
      }
      first_null = engine_.FirstSkolemNull(app.rule_index, bindings);
    }
    surviving_.push_back(s);
    engine_.ExpandHead(app.rule_index, bindings, first_null, &pending_);
  }
  record.commit_expand_seconds = Seconds(Clock::now() - expand_start);

  outcomes_.clear();
  commit_sub_span.emplace("chase.commit.insert", "chase");
  FactSet::BatchTimings batch_timings;
  const std::optional<size_t> added = result.facts.InsertBatch(
      pending_, &outcomes_, options_.max_atoms, &batch_timings);
  commit_sub_span.reset();
  record.commit_dedup_seconds = batch_timings.dedup_seconds;
  record.commit_index_seconds = batch_timings.index_seconds;
  if (!added.has_value()) {
    // The `fact_set.insert_batch` failpoint refused the batch.  Roll back
    // phase 1's memo inserts and row marks so the state is exactly the
    // previous round boundary.  (Skolem rows interned in phase 1 stay in
    // the vocabulary; hash-consing re-interns them to identical TermIds on
    // resume, so they are harmless.)  The memo and the marks keep their
    // grown capacity, which Finish accounts.
    result.seen_applications.Truncate(memo_before);
    for (uint32_t s : surviving_) {
      const StagedApplications::App& app = staged.apps[s];
      const CommitLayout& layout = engine_.commit_layouts_[app.rule_index];
      if (!dedup || !layout.row_memo) continue;
      result.applied_rows.Unmark(vocab.SkolemRowIndex(
          layout.skolem_block,
          {staged.bindings.data() + app.bindings, layout.commit_vars.size()}));
    }
    return ChaseStop::kInjectedFault;
  }
  result.depth.reserve(result.depth.size() + *added);
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
  // Every position the round read was declared before the run's first
  // round; one built on read here would make the ledger depend on where a
  // run was interrupted.
  FRONTIERS_CHECK(
      state_.result.facts.positions_built_on_read() == built_on_read_,
      "chase: a round read the postings of an undeclared position");
  // Runs before the stop checks below so a partial last round is
  // accounted too.
  record.mem = AccountBoundary();
  StreamBoundary(state_.round + 1, record.mem, record);
  state_.result.stats.rounds.push_back(record);
  PublishRound(record);
  // A truncated last round is partial: complete_rounds stays at `round`.
  if (atom_budget_hit) return ChaseStop::kAtomBudget;
  if (state_.result.facts.size() == atoms_before_) return ChaseStop::kFixpoint;
  // The store and its domain only append, so this round's atoms and new
  // terms are their suffixes past the sizes the round started from.
  state_.delta_atom_begin = atoms_before_;
  state_.delta_domain_begin = domain_before_;
  // The next round's staged volume tracks this round's match output far
  // better than the delta size alone; both feed the serial-fallback
  // decision (ChaseOptions::serial_round_threshold).
  work_hint_ = record.matches + record.staged;
  ++state_.round;
  return std::nullopt;
}

ChaseResult ChaseEngine::RoundLoop::Finish(ChaseStop stop) {
  ChaseResult& result = state_.result;
  result.stop = stop;
  result.complete_rounds = state_.round;
  // Recompute the boundary totals unconditionally: an injected-fault
  // rollback mutates the memo after the last per-round boundary, and the
  // final figures must describe the state actually returned (asserted
  // equal to a fresh recompute by tests/mem_test.cc).  No boundary rows and
  // no round record — the state is the last closed boundary's.
  AccountBoundary();
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
  obs::RoundStreamSession::WriteStop(stream_run_, state_.round,
                                     ChaseStopName(stop));
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
