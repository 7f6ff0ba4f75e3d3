#ifndef FRONTIERS_HOM_ANSWER_TABLE_H_
#define FRONTIERS_HOM_ANSWER_TABLE_H_

#include <algorithm>
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
/// tuple (a Boolean query's "true").
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

  /// Every tuple, in lexicographic order.
  std::vector<std::vector<TermId>> Sorted() const {
    std::vector<uint32_t> order(count_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(At(a), At(a) + width_, At(b),
                                          At(b) + width_);
    });
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
