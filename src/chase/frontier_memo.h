#ifndef FRONTIERS_CHASE_FRONTIER_MEMO_H_
#define FRONTIERS_CHASE_FRONTIER_MEMO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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
/// The memo holds the applications of Datalog rules and of rules that
/// share their Skolem block with another rule, and the restricted chase's
/// applications of every rule.  Every other semi-oblivious rule records its
/// applications as `AppliedRows` marks instead; `ChaseResult::AppliedKeys`
/// is the union of both, the run's full applied set.
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
  std::string Key(Entry e) const { return EncodeKey(Rule(e), Bindings(e)); }

  /// The key of `(rule, bindings)` in `Key`'s encoding.
  static std::string EncodeKey(uint32_t rule, std::span<const TermId> bindings);

  /// Inserts an entry given in `Key`'s encoding; returns false if it was
  /// already present.  The key must be well formed (8 + 4n bytes, rule
  /// index below 2^32); snapshot decoding rejects any other.
  bool InsertKey(std::string_view key);

  /// True if `key` has the shape `InsertKey` accepts.
  static bool WellFormedKey(std::string_view key);

  /// The rule index and the bindings of a well-formed key.
  static uint32_t KeyRule(std::string_view key);
  static std::vector<TermId> KeyBindings(std::string_view key);

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

/// The applied set of the semi-oblivious rules whose Skolem block no other
/// rule of the theory uses.  `Skolemize` makes a rule's Skolem arguments its
/// head-universal tuple, so for such a rule the Skolem row
/// `(block, frontier)` and the application `(rule, frontier)` name each
/// other one to one: the row the commit phase interns anyway identifies
/// the trigger, and one byte per row id records whether this run applied
/// it.  The marks belong to the run, not to the vocabulary, which outlives
/// runs and is shared with the rewriter: a row interned before the run
/// started is still unapplied.
///
/// Not synchronized; the chase touches it from its serial commit phase only.
class AppliedRows {
 public:
  static constexpr uint32_t kNoRule = UINT32_MAX;

  AppliedRows() = default;
  /// Marks rows of `vocab`; `rule_of_block[b]` is the rule that owns
  /// Skolem block `b`, or kNoRule.  `vocab` must outlive every `Key` call.
  AppliedRows(const Vocabulary& vocab, std::vector<uint32_t> rule_of_block)
      : vocab_(&vocab), rule_of_block_(std::move(rule_of_block)) {}

  /// Number of marked rows.
  size_t size() const { return count_; }

  /// Marks `row` applied; returns false if it already was.
  bool Mark(uint32_t row) {
    if (row >= marks_.size()) {
      // Doubling keeps the resize off the per-row path.
      marks_.resize(std::max<size_t>(row + 1, 2 * marks_.size()));
    }
    if (marks_[row] != 0) return false;
    marks_[row] = 1;
    ++count_;
    return true;
  }

  /// Clears the mark of `row` (the fault rollback of one round).
  void Unmark(uint32_t row) {
    FRONTIERS_CHECK(row < marks_.size() && marks_[row] != 0,
                    "unmarking a Skolem row that is not applied");
    marks_[row] = 0;
    --count_;
  }

  /// Heap bytes.  Content mode counts one byte per marked row, so it
  /// depends on the applied set alone, not on the row ids (a resumed run
  /// interns rows in key order, so its ids differ from the uninterrupted
  /// run's); capacity mode reports the tables as allocated.
  uint64_t HeapBytes(MemAccounting mode) const {
    if (mode == MemAccounting::kContent) return count_;
    return VectorHeapBytes(marks_, mode) +
           VectorHeapBytes(rule_of_block_, mode);
  }

  /// Calls `f(key)` for every marked row, in row order, with the row's
  /// `FrontierMemo::Key` encoding: its owning rule and its Skolem
  /// arguments.
  template <typename F>
  void ForEachKey(F&& f) const {
    for (uint32_t row = 0; row < marks_.size(); ++row) {
      if (marks_[row] == 0) continue;
      f(FrontierMemo::EncodeKey(rule_of_block_[vocab_->SkolemRowBlock(row)],
                                vocab_->SkolemRowArgs(row)));
    }
  }

 private:
  const Vocabulary* vocab_ = nullptr;
  std::vector<uint32_t> rule_of_block_;
  std::vector<uint8_t> marks_;  // by Skolem row id
  size_t count_ = 0;
};

}  // namespace frontiers

#endif  // FRONTIERS_CHASE_FRONTIER_MEMO_H_
