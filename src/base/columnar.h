#ifndef FRONTIERS_BASE_COLUMNAR_H_
#define FRONTIERS_BASE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/atom.h"
#include "base/hash_table.h"

namespace frontiers {

/// Struct-of-arrays term storage for the atoms of one predicate.
///
/// Rows are appended in insertion order and never move, so a (predicate,
/// row) pair is a stable handle.  Each argument position is a contiguous
/// `TermId` column, which is the layout the semi-naive join and the bulk
/// commit path scan: one column touch per bound position instead of one
/// `Atom` (heap vector) dereference per candidate.
class ColumnarSegment {
 public:
  explicit ColumnarSegment(uint32_t arity) : arity_(arity) {
    columns_.resize(arity == 0 ? 0 : arity);
  }

  uint32_t arity() const { return arity_; }
  size_t rows() const { return rows_; }

  /// Appends one row; `terms` must have `arity()` entries.
  void AppendRow(const TermId* terms) {
    for (uint32_t pos = 0; pos < arity_; ++pos) {
      columns_[pos].push_back(terms[pos]);
    }
    ++rows_;
  }

  TermId Term(size_t row, uint32_t pos) const { return columns_[pos][row]; }

  /// The full column for `pos`; contiguous, one entry per row.
  const std::vector<TermId>& Column(uint32_t pos) const {
    return columns_[pos];
  }

  bool RowEquals(size_t row, const TermId* terms) const {
    for (uint32_t pos = 0; pos < arity_; ++pos) {
      if (columns_[pos][row] != terms[pos]) return false;
    }
    return true;
  }

  /// Grows the segment to `rows` total rows (new cells value-initialized,
  /// to be filled by `SetRow`).  Must not shrink.  A batch insert grows a
  /// segment once for all its new rows.
  void ResizeRows(size_t rows) {
    for (auto& column : columns_) column.resize(rows);
    rows_ = rows;
  }

  /// Overwrites row `row` (below `rows()`) with `terms`.
  void SetRow(size_t row, const TermId* terms) {
    for (uint32_t pos = 0; pos < arity_; ++pos) columns_[pos][row] = terms[pos];
  }

  /// Heap footprint of the column vectors (outer vector + each column).
  uint64_t HeapBytes(MemAccounting mode) const {
    uint64_t sum = VectorHeapBytes(columns_, mode);
    for (const auto& column : columns_) sum += VectorHeapBytes(column, mode);
    return sum;
  }

 private:
  uint32_t arity_;
  size_t rows_ = 0;
  std::vector<std::vector<TermId>> columns_;
};

/// FNV-1a over a predicate and its argument terms; the row-level analogue
/// of `AtomHash`.
inline uint64_t HashRow(PredicateId predicate, const TermId* terms,
                        size_t arity) {
  return HashIdSpan(predicate, terms, arity);
}

/// The fact-store dedup table: an id-keyed open-addressing set whose
/// entries reference rows of the columnar store instead of holding atom
/// copies.
using RowIdSet = IdHashSet;

/// Arena for posting-list chunks.  Every (position, term) posting list of
/// one predicate draws its chunks from a single pool, so appending an atom
/// to a fresh term's list is a bump allocation instead of a map-node plus
/// vector malloc pair.
class PostingPool {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr uint32_t kChunkVals = 6;

  struct Chunk {
    uint32_t next = kNil;
    uint32_t count = 0;
    uint32_t vals[kChunkVals];
  };

  uint32_t NewChunk() {
    chunks_.emplace_back();
    return static_cast<uint32_t>(chunks_.size() - 1);
  }

  Chunk& At(uint32_t i) { return chunks_[i]; }
  const Chunk& At(uint32_t i) const { return chunks_[i]; }

  /// Heap footprint of the chunk arena.
  uint64_t HeapBytes(MemAccounting mode) const {
    return VectorHeapBytes(chunks_, mode);
  }

 private:
  std::vector<Chunk> chunks_;
};

/// A read-only view of one posting list: either a chunked list inside a
/// `PostingPool` or a contiguous `uint32_t` range (so the same view type
/// can wrap the per-predicate index vector).  Iteration yields values in
/// append order.
class PostingList {
 public:
  class const_iterator {
   public:
    const_iterator() = default;
    explicit const_iterator(const uint32_t* p) : ptr_(p) {}
    const_iterator(const PostingPool* pool, uint32_t chunk)
        : pool_(pool), chunk_(chunk) {}

    uint32_t operator*() const {
      return pool_ != nullptr ? pool_->At(chunk_).vals[offset_] : *ptr_;
    }
    const_iterator& operator++() {
      if (pool_ != nullptr) {
        if (++offset_ >= pool_->At(chunk_).count) {
          chunk_ = pool_->At(chunk_).next;
          offset_ = 0;
        }
      } else {
        ++ptr_;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return ptr_ == o.ptr_ && chunk_ == o.chunk_ && offset_ == o.offset_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const uint32_t* ptr_ = nullptr;
    const PostingPool* pool_ = nullptr;
    uint32_t chunk_ = PostingPool::kNil;
    uint32_t offset_ = 0;
  };

  PostingList() = default;
  PostingList(const uint32_t* data, size_t n) : ptr_(data), size_(n) {}
  PostingList(const PostingPool* pool, uint32_t head, size_t n)
      : pool_(pool), head_(head), size_(n) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// First value; the list must be non-empty.
  uint32_t front() const { return *begin(); }

  const_iterator begin() const {
    if (pool_ != nullptr) return const_iterator(pool_, head_);
    return const_iterator(ptr_);
  }
  const_iterator end() const {
    if (pool_ != nullptr) return const_iterator(pool_, PostingPool::kNil);
    return const_iterator(ptr_ + size_);
  }

 private:
  const uint32_t* ptr_ = nullptr;
  const PostingPool* pool_ = nullptr;
  uint32_t head_ = PostingPool::kNil;
  size_t size_ = 0;
};

/// Open-addressed map from `TermId` to a chunked posting list; the hash
/// side of the matcher's hash join.  Slots hold (key, head, tail, count)
/// inline — no per-entry nodes — and chunks come from the caller's
/// `PostingPool`.
class PostingMap {
 public:
  struct Entry {
    TermId key = 0;
    uint32_t head = PostingPool::kNil;
    uint32_t tail = PostingPool::kNil;
    uint32_t count = 0;
  };

  /// Appends `value` to `key`'s posting list (in append order).
  void Append(TermId key, uint32_t value, PostingPool& pool) {
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    Entry& e = SlotFor(key);
    if (e.head == PostingPool::kNil) {
      e.key = key;
      e.head = e.tail = pool.NewChunk();
      ++size_;
    } else if (pool.At(e.tail).count == PostingPool::kChunkVals) {
      uint32_t fresh = pool.NewChunk();
      pool.At(e.tail).next = fresh;
      e.tail = fresh;
    }
    PostingPool::Chunk& tail = pool.At(e.tail);
    tail.vals[tail.count++] = value;
    ++e.count;
  }

  /// Heap footprint of the slot array (chunks live in the PostingPool).
  uint64_t HeapBytes(MemAccounting mode) const {
    const size_t n =
        mode == MemAccounting::kCapacity ? slots_.capacity() : size_;
    return static_cast<uint64_t>(n) * sizeof(Entry);
  }

  /// The entry for `key`, or nullptr if it has no postings.
  const Entry* Find(TermId key) const {
    if (slots_.empty()) return nullptr;
    size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    for (;;) {
      const Entry& e = slots_[i];
      if (e.head == PostingPool::kNil) return nullptr;
      if (e.key == key) return &e;
      i = (i + 1) & mask;
    }
  }

 private:
  static constexpr size_t kInitialSlots = 16;

  static size_t Hash(TermId key) {
    return static_cast<size_t>(key * 0x9E3779B97F4A7C15ull >> 32);
  }

  Entry& SlotFor(TermId key) {
    size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    for (;;) {
      Entry& e = slots_[i];
      if (e.head == PostingPool::kNil || e.key == key) return e;
      i = (i + 1) & mask;
    }
  }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.head != PostingPool::kNil) SlotFor(e.key) = e;
    }
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

/// A batch of pending rows in commit order, possibly mixing predicates.
/// Terms are stored flat (offsets index into `terms`), so staging a row is
/// an append with no per-row allocation.
struct RowBlock {
  std::vector<PredicateId> predicates;
  std::vector<uint32_t> offsets;  // size rows()+1 once non-empty
  std::vector<TermId> terms;

  size_t rows() const { return predicates.size(); }
  bool empty() const { return predicates.empty(); }

  uint32_t Arity(size_t row) const { return offsets[row + 1] - offsets[row]; }
  const TermId* Terms(size_t row) const { return terms.data() + offsets[row]; }

  void Append(PredicateId predicate, const TermId* row_terms, size_t arity) {
    if (offsets.empty()) offsets.push_back(0);
    predicates.push_back(predicate);
    terms.insert(terms.end(), row_terms, row_terms + arity);
    offsets.push_back(static_cast<uint32_t>(terms.size()));
  }

  void Clear() {
    predicates.clear();
    offsets.clear();
    terms.clear();
  }

  /// Heap footprint of the three flat arrays.
  uint64_t HeapBytes(MemAccounting mode) const {
    return VectorHeapBytes(predicates, mode) + VectorHeapBytes(offsets, mode) +
           VectorHeapBytes(terms, mode);
  }
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_COLUMNAR_H_
