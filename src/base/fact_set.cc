#include "base/fact_set.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>  // mallopt
#endif

#include "base/check.h"
#include "base/failpoint.h"

namespace frontiers {

namespace {
const std::vector<uint32_t>& EmptyIndex() {
  static const std::vector<uint32_t>* empty = new std::vector<uint32_t>();
  return *empty;
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
      dedup_(other.dedup_),
      domain_(other.domain_),
      atom_degree_(other.atom_degree_),
      declared_absent_(other.declared_absent_) {}

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
  uint32_t id = dedup_.Find(hash, [&](uint32_t candidate) {
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
    std::lock_guard<std::mutex> lock(*index_mutex_);
    if (!pi.indexed.load(std::memory_order_relaxed)) {
      BuildPosition(pidx, position, pi);
      ++built_on_read_;
    }
  }
  return pi;
}

uint64_t FactSet::positions_built_on_read() const {
  std::lock_guard<std::mutex> lock(*index_mutex_);
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
  if (!fresh_predicate) {
    uint32_t id = dedup_.Find(hash, [&](uint32_t candidate) {
      return RowMatches(candidate, predicate, terms, seg);
    });
    if (id != RowIdSet::kNotFound) return {id, false};
  }
  uint32_t index = static_cast<uint32_t>(rows_.size());
  rows_.push_back({predicate, static_cast<uint32_t>(seg.rows())});
  seg.AppendRow(terms);
  dedup_.FindOrInsert(hash, index, [](uint32_t) { return false; });
  IndexNewAtom(index, pidx, terms);
  return {index, true};
}

bool FactSet::Insert(const Atom& atom) {
  return InsertRow(atom.predicate, atom.args.data(),
                   static_cast<uint32_t>(atom.args.size()))
      .inserted;
}

std::optional<size_t> FactSet::InsertBatch(const RowBlock& block,
                                           std::vector<InsertOutcome>* outcomes,
                                           size_t max_size,
                                           BatchTimings* timings) {
  // Torture harness: a fired failpoint simulates allocation exhaustion at
  // batch admission.  The store is left untouched and no outcome is
  // appended.
  if (FRONTIERS_FAILPOINT("fact_set.insert_batch")) return std::nullopt;
  const auto dedup_start = std::chrono::steady_clock::now();
  const size_t rows = block.rows();
  const uint32_t base = static_cast<uint32_t>(rows_.size());
  dedup_.Reserve(dedup_.size() + rows);
  if (outcomes != nullptr) outcomes->reserve(outcomes->size() + rows);

  // --- Dedup pass: new rows take the ids base, base + 1, ... in block
  // order.  `new_rows[id - base]` is the block row of new atom `id`, which
  // is where a later copy of it in this batch is compared, since its row is
  // not stored yet.  `grow[p]` collects predicate `p`'s new rows, so the
  // index pass grows each segment once.
  struct Growth {
    PredicateIndex* pidx = nullptr;
    uint32_t rows = 0;  // new rows; then the next free segment row
  };
  std::vector<uint32_t> new_rows;
  new_rows.reserve(rows);
  std::vector<Growth> grow;
  for (size_t row = 0; row < rows; ++row) {
    const PredicateId p = block.predicates[row];
    const TermId* terms = block.Terms(row);
    const uint32_t arity = block.Arity(row);
    const uint32_t next = base + static_cast<uint32_t>(new_rows.size());
    const bool at_cap = next >= max_size;
    // At the cap only duplicates pass, so the predicate must exist already.
    PredicateIndex* pidx = nullptr;
    if (!at_cap) {
      pidx = &IndexFor(p, arity);
    } else if (auto it = predicates_.find(p); it != predicates_.end()) {
      pidx = &it->second;
    }
    if (pidx == nullptr || pidx->segment.arity() != arity) break;
    const uint64_t hash = HashRow(p, terms, arity);
    const auto same_row = [&](uint32_t candidate) {
      if (candidate < base) {
        return RowMatches(candidate, p, terms, pidx->segment);
      }
      const uint32_t other = new_rows[candidate - base];
      // std::equal, not memcmp: an arity-0 row's terms pointer may be
      // null, which memcmp does not allow even for 0 bytes.
      return block.predicates[other] == p &&
             std::equal(terms, terms + arity, block.Terms(other));
    };
    const uint32_t id = at_cap ? dedup_.Find(hash, same_row)
                               : dedup_.FindOrInsert(hash, next, same_row);
    if (id == RowIdSet::kNotFound) break;  // a new row at the cap
    const bool inserted = id == next;
    if (inserted) {
      new_rows.push_back(static_cast<uint32_t>(row));
      if (p >= grow.size()) grow.resize(p + 1);
      grow[p].pidx = pidx;
      ++grow[p].rows;
    }
    if (outcomes != nullptr) outcomes->push_back({id, inserted});
  }
  if (timings != nullptr) timings->dedup_seconds += SecondsSince(dedup_start);
  const auto index_start = std::chrono::steady_clock::now();

  // --- Index pass: every array grows once, then each new row fills its
  // slots in id order, so the postings and the domain see the rows in the
  // order `InsertRow` would have given them.
  rows_.resize(base + new_rows.size());
  for (Growth& g : grow) {
    if (g.rows == 0) continue;
    const size_t old_rows = g.pidx->segment.rows();
    g.pidx->segment.ResizeRows(old_rows + g.rows);
    g.pidx->atom_ids.reserve(g.pidx->atom_ids.size() + g.rows);
    g.rows = static_cast<uint32_t>(old_rows);
  }
  for (uint32_t k = 0; k < new_rows.size(); ++k) {
    const uint32_t row = new_rows[k];
    const PredicateId p = block.predicates[row];
    const TermId* terms = block.Terms(row);
    Growth& g = grow[p];
    rows_[base + k] = {p, g.rows};
    g.pidx->segment.SetRow(g.rows++, terms);
    IndexNewAtom(base + k, *g.pidx, terms);
  }
  if (timings != nullptr) timings->index_seconds += SecondsSince(index_start);
  return new_rows.size();
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
  // Content mode keeps just the per-row entries, a function of the
  // logical row set alone; capacity mode adds the table's free slots and
  // the index mutex.
  uint64_t sum = dedup_.HeapBytes(mode);
  if (mode == MemAccounting::kCapacity) sum += sizeof(std::mutex);
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
