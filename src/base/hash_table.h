#ifndef FRONTIERS_BASE_HASH_TABLE_H_
#define FRONTIERS_BASE_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/mem_ledger.h"

namespace frontiers {

/// FNV-1a over a leading tag and a span of 32-bit ids; shared by the fact
/// store (predicate + argument terms) and the Skolem hash-consing tables
/// (function/block + argument terms).
inline uint64_t HashIdSpan(uint32_t tag, const uint32_t* ids, size_t count) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(tag);
  for (size_t i = 0; i < count; ++i) mix(ids[i]);
  return h;
}

/// Open-addressing set of 32-bit ids.  The caller supplies the hash on
/// every probe and an equality callback that compares a candidate id
/// against the probe key, so the table stores no key copies at all — just
/// (hash, id) slots.  Storing the hash keeps rehashing a pure
/// redistribution (no callback needed) and short-circuits almost every
/// non-equal comparison.
class IdHashSet {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  IdHashSet() { slots_.resize(kInitialSlots, Slot{0, kNotFound}); }

  size_t size() const { return size_; }

  /// Returns the stored id whose hash matches and for which `eq(id)` is
  /// true, or `kNotFound`.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kNotFound) return kNotFound;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  /// Inserts `id` if no equal entry exists; returns the resident id (the
  /// existing one on a duplicate, `id` on a fresh insert).
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, uint32_t id, Eq&& eq) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kNotFound) {
        slot = Slot{hash, id};
        ++size_;
        return id;
      }
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  /// Removes the entry matching (`hash`, `eq`) with backward-shift
  /// deletion (no tombstones: subsequent entries of the probe chain are
  /// moved back so every remaining entry stays reachable).  Returns true
  /// if an entry was removed.
  template <typename Eq>
  bool Erase(uint64_t hash, Eq&& eq) {
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    for (;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kNotFound) return false;
      if (slot.hash == hash && eq(slot.id)) break;
    }
    // Backward-shift: walk the cluster after the hole; any entry whose
    // natural position does not lie strictly inside (hole, j] can fill
    // the hole.
    size_t hole = i;
    for (size_t j = (i + 1) & mask;; j = (j + 1) & mask) {
      const Slot& cand = slots_[j];
      if (cand.id == kNotFound) break;
      const size_t natural = cand.hash & mask;
      // Distance (cyclic) from the candidate's natural slot to j vs from
      // the hole to j: the candidate may move to the hole iff its natural
      // slot is at or before the hole along the probe order.
      const size_t dist_natural = (j - natural) & mask;
      const size_t dist_hole = (j - hole) & mask;
      if (dist_natural >= dist_hole) {
        slots_[hole] = cand;
        hole = j;
      }
    }
    slots_[hole] = Slot{0, kNotFound};
    --size_;
    return true;
  }

  /// Heap footprint of the slot array.  Capacity mode reports what the
  /// vector reserved; content mode reports occupied slots only, since the
  /// table shape depends on growth/Reserve history a reconstruction may
  /// not replay (see MemAccounting).
  uint64_t HeapBytes(MemAccounting mode) const {
    const size_t n =
        mode == MemAccounting::kCapacity ? slots_.capacity() : size_;
    return static_cast<uint64_t>(n) * sizeof(Slot);
  }

  /// Pre-sizes the table for `n` total entries (one rehash up front
  /// instead of log(n) incremental ones during a bulk insert).
  void Reserve(size_t n) {
    size_t needed = kInitialSlots;
    while (n * 4 > needed * 3) needed <<= 1;
    if (needed > slots_.size()) Rehash(needed);
  }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t id;
  };
  static constexpr size_t kInitialSlots = 64;

  void Grow() { Rehash(slots_.size() * 2); }

  void Rehash(size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slot_count, Slot{0, kNotFound});
    size_t mask = new_slot_count - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNotFound) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].id != kNotFound) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_HASH_TABLE_H_
