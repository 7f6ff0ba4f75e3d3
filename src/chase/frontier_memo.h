#ifndef FRONTIERS_CHASE_FRONTIER_MEMO_H_
#define FRONTIERS_CHASE_FRONTIER_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/check.h"
#include "base/hash_table.h"
#include "base/mem_ledger.h"
#include "base/vocabulary.h"

namespace frontiers {

/// The semi-oblivious chase's trigger memo (Definition 6): the set of
/// `(rule, frontier(σ))` pairs already applied, where the frontier tuple is
/// the match projected onto the rule's head-universal variables.  Two
/// applications with equal entries produce identical skolemized heads, so
/// the commit phase keeps only the first.
///
/// Storage is flat: every entry is `[rule, n, bindings...]` appended to one
/// word arena, and an id-keyed `IdHashSet` indexes entries by their arena
/// offset — no per-entry heap object.  Entries are append-only except for
/// `Truncate`, which drops a suffix (the fault rollback of one round).
///
/// Not synchronized; the chase touches it from its serial commit phase only.
class FrontierMemo {
 public:
  /// Handle of one entry: its word offset in the arena.
  using Entry = uint32_t;

  /// Number of entries.
  size_t size() const { return index_.size(); }

  /// Adds `(rule, bindings[0..n))`; returns false if it was already present.
  bool Insert(uint32_t rule, const TermId* bindings, uint32_t n);

  /// True if `(rule, bindings[0..n))` is present.
  bool Contains(uint32_t rule, const TermId* bindings, uint32_t n) const {
    return index_.Find(HashIdSpan(rule, bindings, n), [&](Entry e) {
             return Equals(e, rule, bindings, n);
           }) != IdHashSet::kNotFound;
  }

  /// Drops every entry inserted after the first `n`, restoring the memo's
  /// lookups and content-mode bytes to what they were at that size.  Walks
  /// the arena; meant for rare rollbacks, not the hot path.
  void Truncate(size_t n);

  /// Heap bytes of the arena and the index.  Content mode counts live
  /// words and occupied slots only, so it depends on the entry set alone,
  /// not on insertion order or growth history (resume relies on this).
  uint64_t HeapBytes(MemAccounting mode) const {
    return VectorHeapBytes(words_, mode) + index_.HeapBytes(mode);
  }

  /// Calls `f(entry)` for every entry, in insertion order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t e = 0; e < words_.size(); e += 2 + words_[e + 1]) {
      f(static_cast<Entry>(e));
    }
  }

  uint32_t Rule(Entry e) const { return words_[e]; }
  std::span<const TermId> Bindings(Entry e) const {
    return {words_.data() + e + 2, words_[e + 1]};
  }

  /// The entry as a byte string: the rule index as an 8-byte `size_t`, then
  /// the bindings as raw `TermId`s — the snapshot wire encoding of a memo
  /// key.
  std::string Key(Entry e) const;

  /// Inserts an entry given in `Key`'s encoding; returns false if it was
  /// already present.  The key must be well formed (8 + 4n bytes, rule
  /// index below 2^32); snapshot decoding rejects any other.
  bool InsertKey(std::string_view key);

  /// True if `key` has the shape `InsertKey` accepts.
  static bool WellFormedKey(std::string_view key);

  /// Set equality: the same entries, in any insertion order.
  friend bool operator==(const FrontierMemo& a, const FrontierMemo& b);

 private:
  bool Equals(Entry e, uint32_t rule, const TermId* bindings,
              uint32_t n) const;

  std::vector<uint32_t> words_;
  IdHashSet index_;
};

inline bool FrontierMemo::Equals(Entry e, uint32_t rule,
                                 const TermId* bindings, uint32_t n) const {
  const uint32_t* w = words_.data() + e;
  if (w[0] != rule || w[1] != n) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (w[2 + i] != bindings[i]) return false;
  }
  return true;
}

inline bool FrontierMemo::Insert(uint32_t rule, const TermId* bindings,
                                 uint32_t n) {
  const Entry next = static_cast<Entry>(words_.size());
  FRONTIERS_CHECK(words_.size() + 2 + n < IdHashSet::kNotFound,
                  "frontier memo arena exceeds 2^32 words");
  const Entry e = index_.FindOrInsert(
      HashIdSpan(rule, bindings, n), next,
      [&](Entry c) { return Equals(c, rule, bindings, n); });
  if (e != next) return false;
  words_.push_back(rule);
  words_.push_back(n);
  words_.insert(words_.end(), bindings, bindings + n);
  return true;
}

}  // namespace frontiers

#endif  // FRONTIERS_CHASE_FRONTIER_MEMO_H_
