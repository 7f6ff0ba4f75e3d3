#include "base/fact_set.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#if defined(__GLIBC__)
#include <malloc.h>  // mallopt
#endif

#include "base/check.h"
#include "base/failpoint.h"
#include "base/obs_hooks.h"
#include "base/worker_pool.h"

namespace frontiers {

namespace {
const std::vector<uint32_t>& EmptyIndex() {
  static const std::vector<uint32_t>* empty = new std::vector<uint32_t>();
  return *empty;
}

uint32_t RoundUpPow2Clamped(uint32_t n) {
  if (n < 1) n = 1;
  if (n > 256) n = 256;
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// A store's columns, postings and dedup table are a few large arrays freed
// together.  With glibc's default thresholds that free trims the heap, so a
// process running chase after chase faults each next store back in.  Start
// the thresholds where glibc's dynamic rule settles (mmap 32 MiB, trim 64
// MiB) so freed heap is reused; malloc tunables in GLIBC_TUNABLES win.
[[maybe_unused]] const bool kFreedHeapKept = [] {
#if defined(__GLIBC__)
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables == nullptr || !std::strstr(tunables, "glibc.malloc.")) {
    return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
           mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1;
  }
#endif
  return false;
}();
}  // namespace

void FactSet::InitShards(uint32_t shard_count) {
  shard_count = RoundUpPow2Clamped(shard_count);
  shard_mask_ = shard_count - 1;
  shards_.resize(shard_count);
  shard_mutexes_.clear();
  shard_mutexes_.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    shard_mutexes_.push_back(std::make_unique<std::mutex>());
  }
}

FactSet::FactSet(uint32_t shard_count) { InitShards(shard_count); }

FactSet::PositionIndex::PositionIndex(const PositionIndex& other)
    : indexed(other.indexed.load(std::memory_order_relaxed)),
      map(other.map),
      pool(other.pool) {}

FactSet::PositionIndex& FactSet::PositionIndex::operator=(
    const PositionIndex& other) {
  indexed.store(other.indexed.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  map = other.map;
  pool = other.pool;
  return *this;
}

FactSet::FactSet(const FactSet& other)
    : rows_(other.rows_),
      predicates_(other.predicates_),
      shards_(other.shards_),
      shard_mask_(other.shard_mask_),
      domain_(other.domain_),
      atom_degree_(other.atom_degree_),
      declared_absent_(other.declared_absent_) {
  // Copies share no synchronization state: fresh, unlocked mutexes.
  InitShards(shard_count());
}

FactSet& FactSet::operator=(const FactSet& other) {
  if (this != &other) {
    FactSet tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

std::optional<uint32_t> FactSet::FindRow(PredicateId predicate,
                                         const TermId* terms,
                                         uint32_t arity) const {
  auto it = predicates_.find(predicate);
  if (it == predicates_.end()) return std::nullopt;
  const ColumnarSegment& seg = it->second.segment;
  if (seg.arity() != arity) return std::nullopt;
  uint64_t hash = HashRow(predicate, terms, arity);
  const RowIdSet& dedup = shards_[DedupShardOf(predicate, terms, arity)].dedup;
  uint32_t id = dedup.Find(hash, [&](uint32_t candidate) {
    return RowMatches(candidate, predicate, terms, seg);
  });
  if (id == RowIdSet::kNotFound) return std::nullopt;
  return id;
}

std::optional<uint32_t> FactSet::IndexOf(const Atom& atom) const {
  return FindRow(atom.predicate, atom.args.data(),
                 static_cast<uint32_t>(atom.args.size()));
}

void FactSet::CountTermOccurrence(const TermId* args, uint32_t pos) {
  // Count each atom once per distinct term it mentions; first occurrence
  // of a term overall also defines its active-domain position.
  TermId t = args[pos];
  for (uint32_t j = 0; j < pos; ++j) {
    if (args[j] == t) return;  // counted at its first position in this atom
  }
  if (t >= atom_degree_.size()) {
    size_t grown = atom_degree_.empty() ? 64 : atom_degree_.size() * 2;
    while (grown <= t) grown *= 2;
    atom_degree_.resize(grown, 0);
  }
  if (++atom_degree_[t] == 1) domain_.push_back(t);
}

void FactSet::IndexNewAtom(uint32_t index, PredicateIndex& pidx,
                           const TermId* terms) {
  pidx.atom_ids.push_back(index);
  const uint32_t arity = pidx.segment.arity();
  for (uint32_t pos = 0; pos < arity; ++pos) {
    PositionIndex& pi = pidx.by_position[pos];
    if (pi.indexed.load(std::memory_order_relaxed)) {
      pi.map.Append(terms[pos], index, pi.pool);
    }
    CountTermOccurrence(terms, pos);
  }
}

void FactSet::BuildPosition(const PredicateIndex& pidx, uint32_t position,
                            const PositionIndex& pi) {
  // The appends the eager store made one insert at a time, in the same
  // order: the lists, and the map and pool layouts, come out identical.
  const std::vector<TermId>& column = pidx.segment.Column(position);
  for (size_t row = 0; row < pidx.atom_ids.size(); ++row) {
    pi.map.Append(column[row], pidx.atom_ids[row], pi.pool);
  }
  pi.indexed.store(true, std::memory_order_release);
}

void FactSet::ApplyDeclarations(PredicateId predicate, PredicateIndex& pidx) {
  if (declared_absent_.empty()) return;
  std::erase_if(declared_absent_, [&](const auto& declared) {
    if (declared.first != predicate) return false;
    if (declared.second < pidx.by_position.size()) {
      pidx.by_position[declared.second].indexed.store(
          true, std::memory_order_relaxed);
    }
    return true;
  });
}

void FactSet::Declare(PredicateId p, uint32_t position) {
  auto it = predicates_.find(p);
  if (it == predicates_.end()) {
    const std::pair<PredicateId, uint32_t> declared{p, position};
    if (std::find(declared_absent_.begin(), declared_absent_.end(),
                  declared) == declared_absent_.end()) {
      declared_absent_.push_back(declared);
    }
    return;
  }
  const PredicateIndex& pidx = it->second;
  if (position >= pidx.by_position.size()) return;
  const PositionIndex& pi = pidx.by_position[position];
  if (!pi.indexed.load(std::memory_order_relaxed)) {
    BuildPosition(pidx, position, pi);
  }
}

bool FactSet::Indexed(PredicateId p, uint32_t position) const {
  const PredicateIndex* pidx = Predicate(p);
  if (pidx == nullptr) {
    return std::find(declared_absent_.begin(), declared_absent_.end(),
                     std::make_pair(p, position)) != declared_absent_.end();
  }
  return position < pidx->by_position.size() &&
         pidx->by_position[position].indexed.load(std::memory_order_acquire);
}

const FactSet::PositionIndex& FactSet::Postings(const PredicateIndex& pidx,
                                                uint32_t position) const {
  const PositionIndex& pi = pidx.by_position[position];
  if (!pi.indexed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(IndexMutex());
    if (!pi.indexed.load(std::memory_order_relaxed)) {
      BuildPosition(pidx, position, pi);
      ++built_on_read_;
    }
  }
  return pi;
}

uint64_t FactSet::positions_built_on_read() const {
  std::lock_guard<std::mutex> lock(IndexMutex());
  return built_on_read_;
}

void FactSet::ClearIndexes() {
  for (auto& [p, pidx] : predicates_) {
    for (PositionIndex& pi : pidx.by_position) pi = PositionIndex();
  }
  declared_absent_.clear();
}

FactSet::PredicateIndex& FactSet::IndexFor(PredicateId predicate,
                                           uint32_t arity, bool* fresh) {
  // Look up before constructing: a PredicateIndex allocates its columns and
  // positions, so building one per call only to discard it on a hit would
  // cost heap traffic per row.
  auto it = predicates_.find(predicate);
  const bool missing = it == predicates_.end();
  if (missing) {
    it = predicates_.emplace(predicate, PredicateIndex(arity)).first;
    ApplyDeclarations(predicate, it->second);
  }
  if (fresh != nullptr) *fresh = missing;
  FRONTIERS_CHECK(it->second.segment.arity() == arity,
                  "FactSet: predicate used at two different arities");
  return it->second;
}

FactSet::InsertOutcome FactSet::InsertRow(PredicateId predicate,
                                          const TermId* terms,
                                          uint32_t arity) {
  bool fresh_predicate;
  PredicateIndex& pidx = IndexFor(predicate, arity, &fresh_predicate);
  ColumnarSegment& seg = pidx.segment;
  uint64_t hash = HashRow(predicate, terms, arity);
  Shard& shard = shards_[DedupShardOf(predicate, terms, arity)];
  if (!fresh_predicate) {
    uint32_t id = shard.dedup.Find(hash, [&](uint32_t candidate) {
      return RowMatches(candidate, predicate, terms, seg);
    });
    if (id != RowIdSet::kNotFound) return {id, false};
  }
  uint32_t index = static_cast<uint32_t>(rows_.size());
  rows_.push_back({predicate, static_cast<uint32_t>(seg.rows())});
  seg.AppendRow(terms);
  shard.dedup.FindOrInsert(hash, index, [](uint32_t) { return false; });
  IndexNewAtom(index, pidx, terms);
  return {index, true};
}

bool FactSet::Insert(const Atom& atom) {
  return InsertRow(atom.predicate, atom.args.data(),
                   static_cast<uint32_t>(atom.args.size()))
      .inserted;
}

size_t FactSet::InsertBatch(const RowBlock& block,
                            std::vector<InsertOutcome>* outcomes,
                            size_t max_size) {
  // Torture harness: a fired failpoint simulates allocation exhaustion at
  // batch admission.  The store is left untouched and no outcomes are
  // appended, so the caller can abandon the operation cleanly (the chase
  // distinguishes this from a real truncation via the fired count).
  if (FRONTIERS_FAILPOINT("fact_set.insert_batch")) return 0;
  // Pre-size once for the whole batch: each dedup shard to its worst-case
  // final cardinality, and each touched segment by its row count.
  {
    std::vector<size_t> rows_per_shard(shard_count(), 0);
    for (size_t row = 0; row < block.rows(); ++row) {
      ++rows_per_shard[DedupShardOf(block.predicates[row], block.Terms(row),
                                    block.Arity(row))];
    }
    for (uint32_t s = 0; s < shard_count(); ++s) {
      if (rows_per_shard[s] > 0) {
        shards_[s].dedup.Reserve(shards_[s].dedup.size() + rows_per_shard[s]);
      }
    }
  }
  rows_.reserve(rows_.size() + block.rows());
  if (outcomes != nullptr) outcomes->reserve(outcomes->size() + block.rows());
  std::unordered_map<PredicateId, size_t> per_predicate;
  for (PredicateId p : block.predicates) ++per_predicate[p];
  for (const auto& [predicate, count] : per_predicate) {
    auto it = predicates_.find(predicate);
    if (it == predicates_.end()) continue;
    ColumnarSegment& seg = it->second.segment;
    seg.Reserve(seg.rows() + count);
    it->second.atom_ids.reserve(it->second.atom_ids.size() + count);
  }
  size_t added = 0;
  for (size_t row = 0; row < block.rows(); ++row) {
    if (rows_.size() >= max_size) {
      // At the cap only duplicates pass; the first new row truncates the
      // batch without being consumed.
      std::optional<uint32_t> existing =
          FindRow(block.predicates[row], block.Terms(row), block.Arity(row));
      if (!existing.has_value()) break;
      if (outcomes != nullptr) outcomes->push_back({*existing, false});
      continue;
    }
    InsertOutcome outcome =
        InsertRow(block.predicates[row], block.Terms(row), block.Arity(row));
    if (outcome.inserted) ++added;
    if (outcomes != nullptr) outcomes->push_back(outcome);
  }
  return added;
}

size_t FactSet::InsertBatchParallel(const RowBlock& block,
                                    std::vector<InsertOutcome>* outcomes,
                                    WorkerPool* pool, size_t max_size,
                                    BatchTimings* timings, BatchStats* stats) {
  using Clock = std::chrono::steady_clock;
  const size_t rows = block.rows();
  // A batch that could truncate against the cap takes the serial path: cap
  // semantics are insert-by-insert stateful (only duplicates pass once the
  // cap is hit), and hitting the cap is terminal for the caller anyway.
  if (rows_.size() + rows > max_size) {
    const Clock::time_point start = Clock::now();
    size_t added = InsertBatch(block, outcomes, max_size);
    if (timings != nullptr) timings->dedup_seconds += SecondsSince(start);
    if (stats != nullptr) {
      stats->new_atoms = added;
      stats->rows = rows;
    }
    return added;
  }
  // Same admission failpoint as the serial path (the serial fallback above
  // runs its own copy of this check, so it fires exactly once either way).
  if (FRONTIERS_FAILPOINT("fact_set.insert_batch")) return 0;
  if (rows == 0) return 0;
  FRONTIERS_CHECK(rows_.size() + rows < kBatchRowBit,
                  "FactSet: batch would overflow the provisional id space");

  const Clock::time_point dedup_start = Clock::now();
  const uint32_t num_shards = shard_count();
  const size_t num_threads =
      pool != nullptr ? std::max<size_t>(1, pool->threads()) : 1;
  // Shard contention timing, only when the caller wants BatchStats (the
  // chase always does).  Cost is a few clock reads per shard task, all
  // landing in disjoint scratch slots.
  const bool timed = stats != nullptr;
  // Generic over the task body: the inline (single-thread) branch calls it
  // directly, so only the pool branch pays a std::function conversion.
  const auto run = [&](size_t count, const auto& fn) {
    if (pool != nullptr && pool->threads() > 1) {
      pool->Run(count, fn);
    } else {
      for (size_t i = 0; i < count; ++i) fn(i);
    }
  };

  // All per-batch working arrays live in scratch_ and keep their capacity
  // across batches; reset what the early loops don't fully overwrite.
  BatchScratch& s = scratch_;
  s.shard_rows.resize(num_shards);
  s.shard_new.resize(num_shards);
  for (uint32_t sh = 0; sh < num_shards; ++sh) {
    s.shard_rows[sh].clear();
    s.shard_new[sh].clear();
  }
  s.active_shards.clear();
  s.new_rows.clear();
  s.plans.clear();
  s.plan_rows.clear();
  s.plan_of.clear();
  s.tasks.clear();

  // --- Phase A0: per-row hashing + shard routing (embarrassingly parallel).
  std::vector<uint64_t>& hashes = s.hashes;
  std::vector<uint32_t>& shard_of = s.shard_of;
  hashes.resize(rows);
  shard_of.resize(rows);
  {
    const size_t chunk = (rows + num_threads - 1) / num_threads;
    const size_t chunks = (rows + chunk - 1) / chunk;
    run(chunks, [&](size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(rows, begin + chunk);
      for (size_t row = begin; row < end; ++row) {
        const PredicateId p = block.predicates[row];
        const TermId* terms = block.Terms(row);
        const uint32_t arity = block.Arity(row);
        hashes[row] = HashRow(p, terms, arity);
        shard_of[row] = DedupShardOf(p, terms, arity);
      }
    });
  }

  // --- Serial prep: resolve predicates (the map may gain entries, which
  // must happen single-threaded and in block order), and group rows by
  // shard preserving block order within each shard.
  std::vector<PredicateIndex*>& pidx_of = s.pidx_of;
  std::vector<std::vector<uint32_t>>& shard_rows = s.shard_rows;
  pidx_of.resize(rows);
  for (size_t row = 0; row < rows; ++row) {
    const PredicateId p = block.predicates[row];
    const uint32_t arity = block.Arity(row);
    pidx_of[row] = &IndexFor(p, arity);
    shard_rows[shard_of[row]].push_back(static_cast<uint32_t>(row));
  }
  std::vector<uint32_t>& active_shards = s.active_shards;
  for (uint32_t sh = 0; sh < num_shards; ++sh) {
    if (!shard_rows[sh].empty()) active_shards.push_back(sh);
  }

  // --- Phase A: per-shard dedup probes.  Duplicate rows agree on
  // (predicate, first term), so every duplicate pair meets inside one
  // shard; new rows get the provisional id `kBatchRowBit | row` and are
  // promoted to their final global id by the fix-up task below.  Reads of
  // the columnar store are lock-free (nothing mutates it in this phase);
  // each shard's table is guarded by its own mutex.
  std::vector<uint32_t>& found = s.found;
  found.assign(rows, RowIdSet::kNotFound);
  std::vector<std::vector<uint32_t>>& shard_new = s.shard_new;
  if (timed) {
    s.shard_wait_ns.assign(num_shards, 0);
    s.shard_hold_ns.assign(num_shards, 0);
  }
  std::atomic<bool> faulted{false};
  run(active_shards.size(), [&](size_t task) {
    const uint32_t sh = active_shards[task];
    // Wait vs hold: the gap between requesting and acquiring the shard
    // mutex is contention; everything after acquisition is productive
    // work.  Each shard has exactly one dedup task, so slot `sh` is ours.
    const uint64_t lock_requested = timed ? obs::internal::NowNanos() : 0;
    std::lock_guard<std::mutex> lock(*shard_mutexes_[sh]);
    const uint64_t lock_acquired = timed ? obs::internal::NowNanos() : 0;
    // Torture harness: a mid-commit fault inside one shard's task.  The
    // whole batch aborts; provisional entries in *every* shard are rolled
    // back below.
    if (FRONTIERS_FAILPOINT("fact_set.shard_commit")) {
      faulted.store(true, std::memory_order_relaxed);
      return;
    }
    Shard& shard = shards_[sh];
    shard.dedup.Reserve(shard.dedup.size() + shard_rows[sh].size());
    for (uint32_t row : shard_rows[sh]) {
      const PredicateId p = block.predicates[row];
      const TermId* terms = block.Terms(row);
      const uint32_t arity = block.Arity(row);
      const ColumnarSegment& seg = pidx_of[row]->segment;
      const uint32_t marker = kBatchRowBit | row;
      const uint32_t resident = shard.dedup.FindOrInsert(
          hashes[row], marker, [&](uint32_t candidate) {
            if (candidate & kBatchRowBit) {
              const uint32_t other = candidate & ~kBatchRowBit;
              // std::equal, not memcmp: an arity-0 row's terms pointer
              // may be null, which memcmp does not allow even for 0 bytes.
              return block.predicates[other] == p &&
                     block.Arity(other) == arity &&
                     std::equal(terms, terms + arity, block.Terms(other));
            }
            return RowMatches(candidate, p, terms, seg);
          });
      found[row] = resident;
      if (resident == marker) shard_new[sh].push_back(row);
    }
    if (timed) {
      s.shard_wait_ns[sh] = lock_acquired - lock_requested;
      s.shard_hold_ns[sh] = obs::internal::NowNanos() - lock_acquired;
    }
  });

  if (faulted.load(std::memory_order_relaxed)) {
    // Roll every provisional entry back out (backward-shift erase), leaving
    // each shard's table byte-equivalent to its pre-batch state.  No
    // outcome is appended and no segment/index was touched yet, so the
    // caller sees a cleanly refused batch.
    run(active_shards.size(), [&](size_t task) {
      const uint32_t sh = active_shards[task];
      std::lock_guard<std::mutex> lock(*shard_mutexes_[sh]);
      for (uint32_t row : shard_new[sh]) {
        const uint32_t marker = kBatchRowBit | row;
        shards_[sh].dedup.Erase(hashes[row],
                                [&](uint32_t id) { return id == marker; });
      }
    });
    if (timings != nullptr) timings->dedup_seconds += SecondsSince(dedup_start);
    return 0;
  }

  // --- Serial id assignment: new rows keep block order, which makes the
  // store byte-identical to the serial path at any shard/thread count.
  const uint32_t base = static_cast<uint32_t>(rows_.size());
  std::vector<uint32_t>& row_global = s.row_global;
  std::vector<uint32_t>& new_rows = s.new_rows;
  row_global.assign(rows, 0);
  uint32_t next = base;
  for (size_t row = 0; row < rows; ++row) {
    if (found[row] == (kBatchRowBit | static_cast<uint32_t>(row))) {
      row_global[row] = next++;
      new_rows.push_back(static_cast<uint32_t>(row));
    }
  }
  const size_t added = next - base;
  // Per-predicate plans in CSR form (BatchScratch::PredPlan): pass one
  // counts each predicate's new rows, pass two fills `plan_rows` —
  // grouped by plan, block order within each group.
  using PredPlan = BatchScratch::PredPlan;
  std::vector<PredPlan>& plans = s.plans;
  std::vector<uint32_t>& plan_rows = s.plan_rows;
  std::vector<uint32_t>& plan_of_row = s.plan_of_row;
  plan_of_row.resize(rows);
  for (uint32_t row : new_rows) {
    auto [it, fresh] = s.plan_of.try_emplace(
        block.predicates[row], static_cast<uint32_t>(plans.size()));
    if (fresh) {
      plans.push_back({block.predicates[row], pidx_of[row],
                       static_cast<uint32_t>(pidx_of[row]->segment.rows()),
                       /*begin=*/0, /*count=*/0});
    }
    plan_of_row[row] = it->second;
    ++plans[it->second].count;
  }
  uint32_t csr_cursor = 0;
  for (PredPlan& plan : plans) {
    plan.begin = csr_cursor;
    csr_cursor += plan.count;
    plan.count = 0;  // reused as the fill cursor; restored by the fill pass
  }
  plan_rows.resize(new_rows.size());
  for (uint32_t row : new_rows) {
    PredPlan& plan = plans[plan_of_row[row]];
    plan_rows[plan.begin + plan.count] = row;
    ++plan.count;
  }
  if (outcomes != nullptr) {
    outcomes->reserve(outcomes->size() + rows);
    for (size_t row = 0; row < rows; ++row) {
      const uint32_t f = found[row];
      if (f & kBatchRowBit) {
        const uint32_t src = f & ~kBatchRowBit;
        outcomes->push_back({row_global[src], src == row});
      } else {
        outcomes->push_back({f, false});
      }
    }
  }
  if (timings != nullptr) timings->dedup_seconds += SecondsSince(dedup_start);

  // --- Phase B: index fill.  All growth, and the per-row table, happen
  // here on the coordinating thread; the tasks then write disjoint
  // pre-assigned slots — per-shard dedup fix-up, per-(predicate, position)
  // column + postings, and one serial-order domain/degree task.
  const Clock::time_point index_start = Clock::now();
  rows_.resize(base + added);
  for (PredPlan& plan : plans) {
    plan.pidx->segment.ResizeRows(plan.old_rows + plan.count);
    plan.pidx->atom_ids.reserve(plan.pidx->atom_ids.size() + plan.count);
    for (uint32_t k = 0; k < plan.count; ++k) {
      const uint32_t id = row_global[plan_rows[plan.begin + k]];
      plan.pidx->atom_ids.push_back(id);
      rows_[id] = {plan.predicate, plan.old_rows + k};
    }
  }
  // Task kinds for BatchScratch::IndexTask.  `a` is the shard (kFixup) or
  // plan (kColumn); `b` is the position (kColumn).
  using IndexTask = BatchScratch::IndexTask;
  enum TaskKind : uint8_t { kFixup, kColumn, kDomain };
  std::vector<IndexTask>& tasks = s.tasks;
  for (uint32_t sh : active_shards) {
    if (!shard_new[sh].empty()) tasks.push_back({kFixup, sh, 0});
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    const uint32_t arity = plans[i].pidx->segment.arity();
    for (uint32_t pos = 0; pos < arity; ++pos) {
      tasks.push_back({kColumn, static_cast<uint32_t>(i), pos});
    }
  }
  if (!new_rows.empty()) tasks.push_back({kDomain, 0, 0});
  run(tasks.size(), [&](size_t t) {
    const IndexTask& task = tasks[t];
    switch (task.kind) {
      case kFixup: {
        const uint64_t lock_requested = timed ? obs::internal::NowNanos() : 0;
        std::lock_guard<std::mutex> lock(*shard_mutexes_[task.a]);
        const uint64_t lock_acquired = timed ? obs::internal::NowNanos() : 0;
        RowIdSet& dedup = shards_[task.a].dedup;
        for (uint32_t row : shard_new[task.a]) {
          const uint32_t marker = kBatchRowBit | row;
          bool replaced = dedup.ReplaceId(
              hashes[row], [&](uint32_t id) { return id == marker; },
              row_global[row]);
          FRONTIERS_CHECK(replaced, "FactSet: provisional dedup entry lost");
        }
        if (timed) {
          // One fix-up task per shard, so slot `task.a` stays disjoint;
          // += folds it onto the dedup task's wait/hold for this shard.
          s.shard_wait_ns[task.a] += lock_acquired - lock_requested;
          s.shard_hold_ns[task.a] +=
              obs::internal::NowNanos() - lock_acquired;
        }
        break;
      }
      case kColumn: {
        PredPlan& plan = plans[task.a];
        std::vector<TermId>& col = plan.pidx->segment.MutableColumn(task.b);
        PositionIndex& pi = plan.pidx->by_position[task.b];
        const bool indexed = pi.indexed.load(std::memory_order_relaxed);
        for (uint32_t k = 0; k < plan.count; ++k) {
          const uint32_t row = plan_rows[plan.begin + k];
          const TermId term = block.Terms(row)[task.b];
          col[plan.old_rows + k] = term;
          if (indexed) pi.map.Append(term, row_global[row], pi.pool);
        }
        break;
      }
      case kDomain: {
        // Domain order is first-seen across the whole batch, so this task
        // walks every new row in block order (it reads only the block and
        // touches only the degree/domain structures — no overlap with the
        // other tasks).
        for (uint32_t row : new_rows) {
          const TermId* terms = block.Terms(row);
          const uint32_t arity = block.Arity(row);
          for (uint32_t pos = 0; pos < arity; ++pos) {
            CountTermOccurrence(terms, pos);
          }
        }
        break;
      }
    }
  });
  if (timings != nullptr) timings->index_seconds += SecondsSince(index_start);
  if (stats != nullptr) {
    stats->new_atoms = added;
    stats->shards_touched = static_cast<uint32_t>(active_shards.size());
    stats->rows = rows;
    uint64_t max_rows = 0;
    for (uint32_t sh : active_shards) {
      max_rows = std::max<uint64_t>(max_rows, shard_rows[sh].size());
    }
    stats->max_shard_rows = max_rows;
    for (uint32_t sh : active_shards) {
      stats->shard_wait_ns += s.shard_wait_ns[sh];
      stats->shard_hold_ns += s.shard_hold_ns[sh];
      stats->max_shard_wait_ns =
          std::max(stats->max_shard_wait_ns, s.shard_wait_ns[sh]);
    }
  }
  return added;
}

Atom FactSet::ToAtom(uint32_t id) const {
  const RowRef row = rows_[id];
  const ColumnarSegment& seg = predicates_.at(row.predicate).segment;
  Atom atom(row.predicate, std::vector<TermId>(seg.arity()));
  for (uint32_t pos = 0; pos < seg.arity(); ++pos) {
    atom.args[pos] = seg.Term(row.local, pos);
  }
  return atom;
}

std::vector<Atom> FactSet::ToAtoms() const {
  std::vector<Atom> out;
  out.reserve(size());
  for (uint32_t id = 0; id < size(); ++id) out.push_back(ToAtom(id));
  return out;
}

size_t FactSet::InsertAll(const FactSet& other) {
  size_t added = 0;
  for (uint32_t id = 0; id < other.size(); ++id) {
    if (Insert(other.ToAtom(id))) ++added;
  }
  return added;
}

const std::vector<uint32_t>& FactSet::ByPredicate(PredicateId p) const {
  const PredicateIndex* pidx = Predicate(p);
  return pidx == nullptr ? EmptyIndex() : pidx->atom_ids;
}

PostingList FactSet::ByPredicatePositionTerm(PredicateId p, uint32_t position,
                                             TermId t) const {
  const PredicateIndex* pidx = Predicate(p);
  if (pidx == nullptr || position >= pidx->by_position.size()) {
    return PostingList();
  }
  return Postings(*pidx, position).Lookup(t);
}

bool FactSet::IsSubsetOf(const FactSet& other) const {
  for (uint32_t id = 0; id < size(); ++id) {
    if (!other.Contains(ToAtom(id))) return false;
  }
  return true;
}

FactSet FactSet::InducedOn(const std::unordered_set<TermId>& keep) const {
  FactSet out;
  for (uint32_t id = 0; id < size(); ++id) {
    Atom atom = ToAtom(id);
    if (std::all_of(atom.args.begin(), atom.args.end(),
                    [&](TermId t) { return keep.count(t) > 0; })) {
      out.Insert(atom);
    }
  }
  return out;
}

uint32_t FactSet::AtomDegree(TermId t) const {
  return t < atom_degree_.size() ? atom_degree_[t] : 0;
}

uint64_t FactSet::PredColumnsBytes(const PredicateIndex& pidx,
                                   MemAccounting mode) const {
  return pidx.segment.HeapBytes(mode);
}

uint64_t FactSet::PredPostingsBytes(const PredicateIndex& pidx,
                                    MemAccounting mode) const {
  uint64_t sum = VectorHeapBytes(pidx.by_position, mode);
  for (const PositionIndex& pi : pidx.by_position) {
    sum += pi.map.HeapBytes(mode) + pi.pool.HeapBytes(mode);
  }
  return sum;
}

uint64_t FactSet::DeclaredAbsentBytes(MemAccounting mode) const {
  return VectorHeapBytes(declared_absent_, mode);
}

uint64_t FactSet::DedupHeapBytes(MemAccounting mode) const {
  // The shard skeleton (shard array, mutexes) scales with the shard count —
  // a pure performance knob that a snapshot round-trip may change — so it
  // is capacity-only.  Content mode keeps just the per-row dedup entries,
  // whose sum across shards is a function of the logical row set alone.
  uint64_t sum = 0;
  if (mode == MemAccounting::kCapacity) {
    sum += VectorHeapBytes(shards_, mode) +
           VectorHeapBytes(shard_mutexes_, mode) +
           static_cast<uint64_t>(shard_count()) * sizeof(std::mutex);
  }
  for (const Shard& shard : shards_) sum += shard.dedup.HeapBytes(mode);
  return sum;
}

uint64_t FactSet::MetaHeapBytes(MemAccounting mode) const {
  uint64_t sum = VectorHeapBytes(rows_, mode) +
                 VectorHeapBytes(domain_, mode) +
                 VectorHeapBytes(atom_degree_, mode) +
                 UnorderedOverheadBytes(
                     predicates_.bucket_count(), predicates_.size(),
                     sizeof(std::pair<const PredicateId, PredicateIndex>),
                     mode);
  for (const auto& [p, pidx] : predicates_) {
    sum += VectorHeapBytes(pidx.atom_ids, mode);
  }
  return sum;
}

uint64_t FactSet::ScratchHeapBytes() const {
  // Scratch is transient working state whose footprint depends on the
  // thread/shard split, so it is always reported at capacity (the bytes
  // the process actually holds) and never enters the deterministic total.
  const MemAccounting mode = MemAccounting::kCapacity;
  const BatchScratch& s = scratch_;
  uint64_t sum =
      VectorHeapBytes(s.hashes, mode) + VectorHeapBytes(s.shard_of, mode) +
      VectorHeapBytes(s.pidx_of, mode) + VectorHeapBytes(s.found, mode) +
      VectorHeapBytes(s.row_global, mode) +
      VectorHeapBytes(s.plan_of_row, mode) +
      VectorHeapBytes(s.shard_rows, mode) +
      VectorHeapBytes(s.shard_new, mode) +
      VectorHeapBytes(s.active_shards, mode) +
      VectorHeapBytes(s.new_rows, mode) + VectorHeapBytes(s.plans, mode) +
      VectorHeapBytes(s.plan_rows, mode) + VectorHeapBytes(s.tasks, mode) +
      VectorHeapBytes(s.shard_wait_ns, mode) +
      VectorHeapBytes(s.shard_hold_ns, mode) +
      UnorderedOverheadBytes(s.plan_of.bucket_count(), s.plan_of.size(),
                             sizeof(std::pair<const PredicateId, uint32_t>),
                             mode);
  for (const auto& v : s.shard_rows) sum += VectorHeapBytes(v, mode);
  for (const auto& v : s.shard_new) sum += VectorHeapBytes(v, mode);
  return sum;
}

void FactSet::AccountHeap(MemTotals& totals, MemAccounting mode) const {
  uint64_t columns = 0, postings = 0;
  for (const auto& [p, pidx] : predicates_) {
    columns += PredColumnsBytes(pidx, mode);
    postings += PredPostingsBytes(pidx, mode);
  }
  totals.Add(MemComponent::kColumns, columns);
  totals.Add(MemComponent::kPostings, postings + DeclaredAbsentBytes(mode));
  totals.Add(MemComponent::kDedup, DedupHeapBytes(mode));
  totals.Add(MemComponent::kFactMeta, MetaHeapBytes(mode));
  totals.Add(MemComponent::kScratch, ScratchHeapBytes());
}

void FactSet::AccountLedger(MemLedger& ledger, MemAccounting mode) const {
  std::vector<PredicateId> preds;
  preds.reserve(predicates_.size());
  for (const auto& [p, pidx] : predicates_) preds.push_back(p);
  std::sort(preds.begin(), preds.end());
  for (PredicateId p : preds) {
    ledger.Add(MemComponent::kColumns, p,
               PredColumnsBytes(predicates_.at(p), mode));
  }
  for (PredicateId p : preds) {
    ledger.Add(MemComponent::kPostings, p,
               PredPostingsBytes(predicates_.at(p), mode));
  }
  // Declarations waiting for their predicate's first row: not any one
  // predicate's bytes.
  if (const uint64_t declared = DeclaredAbsentBytes(mode); declared > 0) {
    ledger.Add(MemComponent::kPostings, UINT32_MAX, declared);
  }
  ledger.Add(MemComponent::kDedup, UINT32_MAX, DedupHeapBytes(mode));
  ledger.Add(MemComponent::kFactMeta, UINT32_MAX, MetaHeapBytes(mode));
}

std::string FactSet::ToString(const Vocabulary& vocab) const {
  std::string out = "{";
  for (uint32_t id = 0; id < size(); ++id) {
    if (id > 0) out += ", ";
    out += AtomToString(vocab, ToAtom(id));
  }
  out += "}";
  return out;
}

}  // namespace frontiers
