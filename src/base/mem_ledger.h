#ifndef FRONTIERS_BASE_MEM_LEDGER_H_
#define FRONTIERS_BASE_MEM_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace frontiers {

/// Component taxonomy of the memory ledger: every owning container in the
/// engine attributes its heap bytes to exactly one of these.  The set is
/// closed on purpose — a fixed enum keeps the always-on rollup a plain
/// array (`MemTotals`), so accounting at a round boundary allocates
/// nothing, and gives the `frontiers-rounds-v1` stream a stable component
/// vocabulary that tools/chase_report can rank and diff across runs.
enum class MemComponent : uint32_t {
  kColumns = 0,    ///< ColumnarSegment term columns (per predicate).
  kPostings,       ///< PostingPool chunks + PostingMap slots (per predicate).
  kDedup,          ///< FactSet's open-addressed row dedup table.
  kFactMeta,       ///< FactSet atom/row bookkeeping, domain, degrees.
  kVocabTerms,     ///< Vocabulary term table, names, constant/variable maps.
  kVocabSkolem,    ///< Skolem fns, hash-consing tables, blocks, rows.
  kProvenance,     ///< Derivations (first/all), birth atoms, depths.
  kFrontierMemo,   ///< Fired-application memo (restricted/semi-oblivious).
  kScratch,        ///< Transient batch/match scratch — diagnostic only:
                   ///< its size depends on the thread count, so it is
                   ///< excluded from the deterministic total (and thus
                   ///< from byte-budget decisions; see DESIGN.md §9).
  kCount,
};

inline constexpr size_t kMemComponentCount =
    static_cast<size_t>(MemComponent::kCount);

/// Stable lower-case component name used in streams and reports.
inline const char* MemComponentName(MemComponent c) {
  switch (c) {
    case MemComponent::kColumns: return "columns";
    case MemComponent::kPostings: return "postings";
    case MemComponent::kDedup: return "dedup";
    case MemComponent::kFactMeta: return "fact_meta";
    case MemComponent::kVocabTerms: return "vocab_terms";
    case MemComponent::kVocabSkolem: return "vocab_skolem";
    case MemComponent::kProvenance: return "provenance";
    case MemComponent::kFrontierMemo: return "frontier_memo";
    case MemComponent::kScratch: return "scratch";
    case MemComponent::kCount: break;
  }
  return "?";
}

/// Which bytes a self-report counts.
///
///  * `kCapacity` — what the container actually reserved (capacities,
///    slot arrays, arena chunks).  Exact and deterministic for a fixed
///    insert sequence — the chase's merge-ordered commit makes that
///    sequence thread-count-invariant — but *not* invariant across
///    different reconstruction paths: a resume that replays atoms one by
///    one grows vectors through a different capacity schedule than the
///    original bulk commits.  This is the mode behind the round stream,
///    the `frontiers.mem.*` gauges, the peak (high-water) figure, and
///    chase_report's coverage-vs-RSS check.
///  * `kContent` — a pure function of logical state (sizes, not
///    capacities), so any two states with equal contents report equal
///    bytes regardless of how they were built.  This is the mode behind
///    `live_bytes`/`approx_bytes` and the byte budget — an interrupted
///    and resumed run must meter bytes identically to the uninterrupted
///    one — and the mode the resume-equivalence assert (E18) uses; see
///    DESIGN.md §9 for the contract.
enum class MemAccounting : uint8_t { kCapacity, kContent };

/// `std::vector` heap footprint under `mode`.
template <typename T>
inline uint64_t VectorHeapBytes(const std::vector<T>& v, MemAccounting mode) {
  const size_t n = mode == MemAccounting::kCapacity ? v.capacity() : v.size();
  return static_cast<uint64_t>(n) * sizeof(T);
}

/// `std::string` heap footprint under `mode`.  Short strings live in the
/// SSO buffer (15 bytes on libstdc++/libc++ x86-64) and own no heap; a
/// heap string owns capacity()+1 bytes (the terminator).  In content mode
/// the size stands in for the capacity so the figure is a state function.
inline uint64_t StringHeapBytes(const std::string& s, MemAccounting mode) {
  const size_t n = mode == MemAccounting::kCapacity ? s.capacity() : s.size();
  return n > 15 ? static_cast<uint64_t>(n) + 1 : 0;
}

/// Estimated heap footprint of a libstdc++ `unordered_map`/`unordered_set`
/// *skeleton*: the bucket pointer array plus per-node overhead (next
/// pointer + cached hash).  `node_payload` is `sizeof(value_type)`; key
/// heap (e.g. string characters) must be added by the caller per element.
/// In content mode the bucket array is skipped — bucket growth depends on
/// reserve/rehash history, which a reconstruction may not replay.
inline uint64_t UnorderedOverheadBytes(size_t bucket_count, size_t size,
                                       size_t node_payload,
                                       MemAccounting mode) {
  const uint64_t nodes =
      static_cast<uint64_t>(size) * (16 + static_cast<uint64_t>(node_payload));
  if (mode == MemAccounting::kContent) return nodes;
  return nodes + static_cast<uint64_t>(bucket_count) * sizeof(void*);
}

/// Always-on rollup: bytes per component, as a fixed array.  Building one
/// allocates nothing, which is what lets the chase account every round
/// boundary even with telemetry disabled (the per-predicate `MemLedger`
/// below is only populated when a round stream is live).
struct MemTotals {
  uint64_t bytes[kMemComponentCount] = {};

  void Add(MemComponent c, uint64_t n) {
    bytes[static_cast<size_t>(c)] += n;
  }
  uint64_t Get(MemComponent c) const {
    return bytes[static_cast<size_t>(c)];
  }

  /// Deterministic total: every component except kScratch.  This is the
  /// figure `live_bytes`, budgets, and the stream's `total_bytes` use.
  uint64_t TrackedTotal() const {
    uint64_t sum = 0;
    for (size_t i = 0; i < kMemComponentCount; ++i) {
      if (i != static_cast<size_t>(MemComponent::kScratch)) sum += bytes[i];
    }
    return sum;
  }

  /// Everything, scratch included (diagnostic figure).
  uint64_t GrandTotal() const {
    uint64_t sum = 0;
    for (size_t i = 0; i < kMemComponentCount; ++i) sum += bytes[i];
    return sum;
  }

  MemTotals& operator+=(const MemTotals& o) {
    for (size_t i = 0; i < kMemComponentCount; ++i) bytes[i] += o.bytes[i];
    return *this;
  }
};

/// One (component, predicate) attribution row.  `predicate` is
/// UINT32_MAX for components not owned by a single predicate (dedup,
/// vocabulary, provenance, scratch).
struct MemLedgerRow {
  MemComponent component = MemComponent::kCount;
  uint32_t predicate = UINT32_MAX;
  uint64_t bytes = 0;
};

/// Per-predicate ledger, populated only when a round stream wants rows.
/// Rows are appended in component-major, predicate-id order by the
/// accounting walks, which is the emission order the byte-identical
/// stream contract relies on.
struct MemLedger {
  std::vector<MemLedgerRow> rows;

  void Add(MemComponent c, uint32_t predicate, uint64_t bytes) {
    if (bytes == 0) return;
    rows.push_back(MemLedgerRow{c, predicate, bytes});
  }
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_MEM_LEDGER_H_
