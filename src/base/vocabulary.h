#ifndef FRONTIERS_BASE_VOCABULARY_H_
#define FRONTIERS_BASE_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/hash_table.h"
#include "base/mem_ledger.h"

namespace frontiers {

/// Identifier of a relation symbol within a Vocabulary.
using PredicateId = uint32_t;
/// Identifier of a term (constant, variable, or Skolem term).
using TermId = uint32_t;
/// Identifier of an interned Skolem function symbol.
using SkolemFnId = uint32_t;

/// Sentinel for "no term".
inline constexpr TermId kNoTerm = UINT32_MAX;
/// Sentinel for "no predicate".
inline constexpr PredicateId kNoPredicate = UINT32_MAX;

/// The kind of a term.
enum class TermKind : uint8_t {
  kConstant,  ///< A database constant (element of some instance domain).
  kVariable,  ///< A query / rule variable.
  kSkolem,    ///< A chase-invented Skolem term `f(t1,...,tk)`.
};

/// Interning tables for a signature: relation symbols, constants, variables
/// and hash-consed Skolem terms.
///
/// A single `Vocabulary` underlies every structure, query and theory that
/// interact with each other.  Two design points matter for faithfulness to
/// the paper:
///
///  1. **Skolem terms are hash-consed, a row at a time.**  Every Skolem
///     function belongs to exactly one *block* (see "Skolem blocks"), and
///     the block's nulls over one argument tuple are interned together as
///     a *row*: one hash-consing table keyed by `(block, args)`.
///     `SkolemTerm(f, args)` therefore returns the *same* `TermId` for the
///     same function symbol and arguments, so chases of different instances
///     over the same vocabulary produce literally identical atoms where the
///     paper's Skolem naming convention says they must (Observation 8:
///     `Ch(T,F) = Ch(T,D)` literally, not up to isomorphism).  This is what
///     makes "unions of chases" (Definition 30, locality) a meaningful set
///     operation.
///
///  2. **Skolem function symbols are keyed by isomorphism type.**  Section 3
///     (Definition 3/4) requires `f_i^tau` to depend only on the isomorphism
///     type `tau` of the rule head, not on the rule identity; the `tgd`
///     module computes a canonical signature string for the head type and
///     interns the function symbol through `SkolemFunction`, so isomorphic
///     heads in different rules share Skolem functions exactly as the paper
///     prescribes.
///
/// TermIds and PredicateIds are dense indices, suitable for use in vectors.
///
/// **Concurrency contract.**  A Vocabulary is *not* internally
/// synchronized.  Concurrent const access (lookups, `Kind`, `SkolemArgs`,
/// rendering) is safe; any mutating call (`AddPredicate`, `Constant`,
/// `SkolemTerm`, ...) requires exclusive access.  The chase engine's
/// parallel match phase honours this by keeping workers read-only and
/// deferring all Skolem interning to its single-threaded commit phase,
/// which also keeps TermId assignment deterministic (see DESIGN.md,
/// "Parallel round pipeline").
class Vocabulary {
 public:
  Vocabulary() = default;

  // Vocabularies are identity objects shared by reference; copying one would
  // silently split the hash-consing tables, so copies are disabled.
  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;

  // --- Predicates ---------------------------------------------------------

  /// Interns a relation symbol.  If `name` is already known its arity must
  /// match; a mismatch aborts (it is a programming error, not input error).
  PredicateId AddPredicate(std::string_view name, uint32_t arity);

  /// Interns `name` with `arity` if it is new, with one lookup.  A known
  /// name keeps its declared arity; callers that read arities from input
  /// compare `PredicateArity` against theirs to report a clash.
  PredicateId FindOrAddPredicate(std::string_view name, uint32_t arity);

  /// Looks up a relation symbol by name.
  std::optional<PredicateId> FindPredicate(std::string_view name) const;

  /// Name of a relation symbol.
  const std::string& PredicateName(PredicateId p) const;

  /// Arity of a relation symbol.
  uint32_t PredicateArity(PredicateId p) const;

  /// Number of interned relation symbols.
  uint32_t NumPredicates() const {
    return static_cast<uint32_t>(predicates_.size());
  }

  // --- Terms ---------------------------------------------------------------

  /// Interns a constant.
  TermId Constant(std::string_view name);

  /// Interns a variable.
  TermId Variable(std::string_view name);

  /// Returns a variable with a name not used by any previously interned
  /// variable (of the form `prefix#k`).
  TermId FreshVariable(std::string_view prefix);

  /// Interns (hash-consing) the Skolem term `fn(args...)`: the `fn`
  /// null of the row of `fn`'s block over `args`, interning the whole row
  /// if it is new.
  TermId SkolemTerm(SkolemFnId fn, const std::vector<TermId>& args);

  /// Interns a Skolem function symbol under a canonical `signature` string.
  /// Callers (the `tgd` module) are responsible for making `signature`
  /// canonical for the head isomorphism type + position, per Definition 4.
  /// A new function joins or starts a Skolem block (see below); joining a
  /// block that already has rows aborts.
  SkolemFnId SkolemFunction(std::string_view signature, uint32_t arity);

  /// True if interning the new function `signature` would add it to a
  /// Skolem block that already has rows, which `SkolemFunction` refuses.
  /// Lets a snapshot replay reject such a function table with a Status.
  bool SkolemFunctionJoinsUsedBlock(std::string_view signature,
                                    uint32_t arity) const;

  // --- Skolem blocks --------------------------------------------------------
  //
  // A rule head with k > 0 existentials owns the Skolem function tuple
  // (f_1, ..., f_k), all applied to the same frontier argument tuple.
  // `Skolemize` names f_i `"<type>#e<i-1>"` after the head's isomorphism
  // type (Definition 4) and interns the k functions one after another, so
  // the function table alone fixes each function's *block*: a function
  // `"<type>#e<i>"` with i > 0 joins the block of the function interned
  // just before it if that block is `"<type>#e0"`, ..., `"<type>#e<i-1>"`
  // of the same arity, and every other function starts a block of its own.
  // A block's functions therefore have consecutive ids, and every rule with
  // that head type uses the same block.
  //
  // Each application's k nulls are interned as one *row* `(block, args)`,
  // with one hash probe, and get k consecutive TermIds.  The row table is
  // the only Skolem hash-consing table: `SkolemTerm(f_i, args)` goes
  // through the row of f_i's block, so it and `SkolemRowTerms(row)[i]`
  // always agree (Observation 8 still holds across rules sharing
  // isomorphic heads).  The row's arguments are stored once, and each of
  // its nulls' `SkolemArgs` reads that copy.

  /// The block of the Skolem function tuple `fns` — the block its first
  /// function belongs to.  Aborts unless `fns` is exactly that block's
  /// functions in order: no function joins a second block.
  uint32_t SkolemBlock(const std::vector<SkolemFnId>& fns);

  /// The block Skolem function `f` belongs to.
  uint32_t SkolemFnBlock(SkolemFnId f) const { return skolem_fns_[f].block; }

  /// Number of functions in a block.
  uint32_t SkolemBlockSize(uint32_t block) const {
    return skolem_blocks_[block].size;
  }

  /// The `i`-th function of block `block`.
  SkolemFnId SkolemBlockFn(uint32_t block, uint32_t i) const {
    return skolem_blocks_[block].first_fn + i;
  }

  /// Number of interned Skolem rows; row ids are `0 .. NumSkolemRows()-1`.
  uint32_t NumSkolemRows() const {
    return static_cast<uint32_t>(skolem_rows_.size());
  }

  /// Interns (or finds) the row of Skolem nulls `f_i(args)` for every
  /// `f_i` of `block`, with one probe, and returns its row id.  A new row
  /// is one hash insert and `SkolemBlockSize(block)` term appends.  Row ids
  /// are dense, in interning order.
  uint32_t SkolemRowIndex(uint32_t block, std::span<const TermId> args);

  /// The `SkolemBlockSize` nulls of row `row`: consecutive TermIds, the
  /// i-th named by the block's i-th function.
  std::ranges::iota_view<TermId, TermId> SkolemRowTerms(uint32_t row) const {
    const SkolemRowData& data = skolem_rows_[row];
    return std::views::iota(data.first_term,
                            data.first_term + skolem_blocks_[data.block].size);
  }

  /// `SkolemRowTerms(SkolemRowIndex(block, args))`.
  std::ranges::iota_view<TermId, TermId> SkolemRow(
      uint32_t block, std::span<const TermId> args) {
    return SkolemRowTerms(SkolemRowIndex(block, args));
  }

  /// The block of row `row`.
  uint32_t SkolemRowBlock(uint32_t row) const {
    return skolem_rows_[row].block;
  }

  /// The arguments of row `row`, shared by all its nulls (a `SkolemArgs`
  /// span).
  std::span<const TermId> SkolemRowArgs(uint32_t row) const {
    const SkolemRowData& data = skolem_rows_[row];
    return {skolem_args_.data() + data.args_offset,
            skolem_blocks_[data.block].arity};
  }

  /// Kind of a term.
  TermKind Kind(TermId t) const { return terms_[t].kind; }

  /// True if `t` is a constant.
  bool IsConstant(TermId t) const { return Kind(t) == TermKind::kConstant; }
  /// True if `t` is a variable.
  bool IsVariable(TermId t) const { return Kind(t) == TermKind::kVariable; }
  /// True if `t` is a Skolem term.
  bool IsSkolem(TermId t) const { return Kind(t) == TermKind::kSkolem; }

  /// Name of a constant or variable (not valid for Skolem terms).
  const std::string& TermName(TermId t) const;

  /// Function symbol of a Skolem term.
  SkolemFnId SkolemFn(TermId t) const { return terms_[t].fn; }

  /// Arguments of a Skolem term: `SkolemFnArity(SkolemFn(t))` TermIds in
  /// the shared argument arena, valid until the next Skolem term is
  /// interned — copy out what you keep across mutating calls.
  std::span<const TermId> SkolemArgs(TermId t) const {
    const TermData& data = terms_[t];
    return {skolem_args_.data() + data.index, skolem_fns_[data.fn].arity};
  }

  /// Canonical signature string of a Skolem function symbol.
  const std::string& SkolemFnSignature(SkolemFnId f) const {
    return skolem_fns_[f].signature;
  }

  /// Arity of a Skolem function symbol.
  uint32_t SkolemFnArity(SkolemFnId f) const { return skolem_fns_[f].arity; }

  /// Number of interned Skolem function symbols.
  uint32_t NumSkolemFns() const {
    return static_cast<uint32_t>(skolem_fns_.size());
  }

  /// Number of interned terms (of all kinds).
  uint32_t NumTerms() const { return static_cast<uint32_t>(terms_.size()); }

  /// Skolem nesting depth of a term: 0 for constants/variables, and
  /// `1 + max(depth(args))` for Skolem terms.  This equals the chase stage
  /// at which the term is born and is used by depth-bounded experiments.
  uint32_t TermDepth(TermId t) const { return terms_[t].depth; }

  /// A point in the interning history of constants, variables and
  /// predicates, for `RollBackNames`.
  struct NameMark {
    uint32_t terms;
    uint32_t predicates;
  };
  NameMark MarkNames() const { return {NumTerms(), NumPredicates()}; }

  /// Forgets every constant, variable and predicate interned since `mark`,
  /// as if they had never been interned.  The parser uses it to leave the
  /// vocabulary as it was when a text fails to lex.  Nothing else (no
  /// Skolem term) may have been interned since `mark`.
  void RollBackNames(NameMark mark);

  /// Human-readable rendering of a term (Skolem terms print as `f12(...)`).
  std::string TermToString(TermId t) const;

  /// Adds the vocabulary's heap footprint into `totals`: the term table,
  /// names and name indexes under kVocabTerms, and everything the chase's
  /// Skolem interning grows — functions, blocks, the argument arena (one
  /// copy per row), the rows and their hash-consing table — under
  /// kVocabSkolem.  O(predicates + named terms + skolem fns), i.e.
  /// independent of the number of Skolem terms (they live in flat
  /// vectors).
  void AccountHeap(MemTotals& totals, MemAccounting mode) const;

 private:
  struct TermData {
    TermKind kind;
    // Constants/variables: index into names_.  Skolem terms: offset of the
    // arguments in skolem_args_ (their count is the function's arity),
    // shared by every null of the term's row.
    uint32_t index = 0;
    SkolemFnId fn = 0;  // for Skolem terms
    uint32_t depth = 0;
  };
  struct PredicateData {
    std::string name;
    uint32_t arity;
  };
  struct SkolemFnData {
    std::string signature;
    uint32_t arity;
    uint32_t block;
  };
  struct SkolemBlockData {
    SkolemFnId first_fn;  // the block's fns are first_fn .. first_fn+size-1
    uint32_t size;
    uint32_t arity;  // shared arity of every fn in the block
    bool has_rows = false;
  };
  struct SkolemRowData {
    uint32_t block;
    uint32_t args_offset;  // into skolem_args_
    TermId first_term;     // the row's nulls are first_term .. +size-1
  };

  /// True if a new function `signature` of `arity` joins the last block
  /// (see "Skolem blocks") instead of starting one.
  bool ExtendsLastSkolemBlock(std::string_view signature,
                              uint32_t arity) const;

  /// True iff `args` points into `skolem_args_` (e.g. a `SkolemArgs` span),
  /// so appending to the arena could invalidate it.
  bool AliasesSkolemArgs(std::span<const TermId> args) const {
    std::less<const TermId*> before;
    const TermId* begin = skolem_args_.data();
    return !args.empty() && !before(args.data(), begin) &&
           before(args.data(), begin + skolem_args_.size());
  }

  /// Hashes `std::string` keys and `std::string_view` probes alike, so a
  /// lookup by view builds no string.  Not noexcept: libstdc++ then caches
  /// each node's hash code, as it does for `std::hash<std::string>`.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename Id>
  using NameIndex =
      std::unordered_map<std::string, Id, NameHash, std::equal_to<>>;

  std::vector<PredicateData> predicates_;
  NameIndex<PredicateId> predicate_index_;

  std::vector<TermData> terms_;
  std::vector<std::string> names_;
  // Arguments of every Skolem row, back to back in interning order.
  std::vector<TermId> skolem_args_;
  NameIndex<TermId> constant_index_;
  NameIndex<TermId> variable_index_;

  std::vector<SkolemFnData> skolem_fns_;
  NameIndex<SkolemFnId> skolem_fn_index_;

  // Skolem blocks (rule-head existential tuples) and their interned rows.
  // The row index is the Skolem hash-consing table: an id-keyed
  // open-addressing set probing (block, args) directly against
  // `skolem_rows_` and `skolem_args_` — no key copies.
  std::vector<SkolemBlockData> skolem_blocks_;
  std::vector<SkolemRowData> skolem_rows_;
  IdHashSet skolem_row_index_;

  uint64_t fresh_counter_ = 0;
};

}  // namespace frontiers

#endif  // FRONTIERS_BASE_VOCABULARY_H_
