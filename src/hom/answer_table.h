#ifndef FRONTIERS_HOM_ANSWER_TABLE_H_
#define FRONTIERS_HOM_ANSWER_TABLE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "base/hash_table.h"
#include "base/vocabulary.h"

namespace frontiers {

/// A set of answer tuples of one fixed width: the answers of a CQ, or of
/// every disjunct of a UCQ.  Tuples are stored flat, one after another, and
/// deduplicated by an open-addressed table of tuple ids (`IdHashSet`), so an
/// insert allocates no per-tuple node.  Width 0 holds at most the empty
/// tuple (a Boolean query's "true").  `Sorted()` orders the tuples itself,
/// by a radix over the columns; the hash set is there for `Contains`,
/// which lets the matcher skip the witness search for a tuple it already
/// has.
class AnswerTable {
 public:
  explicit AnswerTable(size_t width) : width_(width) {}

  size_t width() const { return width_; }

  /// True if the `width()` terms at `tuple` are already in the table.
  bool Contains(const TermId* tuple) const {
    return ids_.Find(Hash(tuple), Equals{this, tuple}) != IdHashSet::kNotFound;
  }

  /// Adds the `width()` terms at `tuple`; returns true if they were new.
  bool Insert(const TermId* tuple) {
    const uint32_t id = static_cast<uint32_t>(count_);
    if (ids_.FindOrInsert(Hash(tuple), id, Equals{this, tuple}) != id) {
      return false;
    }
    terms_.insert(terms_.end(), tuple, tuple + width_);
    ++count_;
    return true;
  }

  /// Every tuple, in lexicographic order.  A stable LSD radix sort of the
  /// tuple ids: the last column first and the first column last, each by
  /// byte digits of `t - min(column)`, skipping the digits that the
  /// column's `max - min` does not reach.  TermIds are dense indices, so a
  /// column usually takes one or two counting passes.
  std::vector<std::vector<TermId>> Sorted() const {
    std::vector<uint32_t> order(count_);
    std::vector<uint32_t> next(count_);
    std::iota(order.begin(), order.end(), 0u);
    for (size_t c = width_; c-- > 0;) {
      TermId lo = UINT32_MAX;
      TermId hi = 0;
      for (uint32_t id = 0; id < count_; ++id) {
        lo = std::min(lo, At(id)[c]);
        hi = std::max(hi, At(id)[c]);
      }
      const uint32_t range = count_ == 0 ? 0 : hi - lo;
      for (uint32_t shift = 0; shift < 32 && (range >> shift) != 0;
           shift += 8) {
        const auto digit = [&](uint32_t id) {
          return ((At(id)[c] - lo) >> shift) & 0xffu;
        };
        // A digit's histogram does not depend on the order, so it is
        // counted in id order; only the scatter follows `order`.
        std::array<uint32_t, 257> start{};
        for (uint32_t id = 0; id < count_; ++id) ++start[digit(id) + 1];
        std::partial_sum(start.begin(), start.end(), start.begin());
        for (uint32_t id : order) next[start[digit(id)]++] = id;
        order.swap(next);
      }
    }
    std::vector<std::vector<TermId>> out;
    out.reserve(count_);
    for (uint32_t id : order) out.emplace_back(At(id), At(id) + width_);
    return out;
  }

 private:
  const TermId* At(uint32_t id) const { return terms_.data() + id * width_; }

  uint64_t Hash(const TermId* tuple) const {
    return HashIdSpan(static_cast<uint32_t>(width_), tuple, width_);
  }

  // IdHashSet's equality callback: does tuple `id` equal the probe?
  struct Equals {
    const AnswerTable* table;
    const TermId* tuple;
    bool operator()(uint32_t id) const {
      return std::equal(tuple, tuple + table->width_, table->At(id));
    }
  };

  size_t width_;
  size_t count_ = 0;
  std::vector<TermId> terms_;
  IdHashSet ids_;
};

}  // namespace frontiers

#endif  // FRONTIERS_HOM_ANSWER_TABLE_H_
