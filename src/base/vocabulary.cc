#include "base/vocabulary.h"

#include <algorithm>

#include "base/check.h"

namespace frontiers {

namespace {

// Encodes a Skolem block key: the raw function-id tuple.  Block
// registration is once-per-rule cold path, so a string key is fine here;
// the per-row and per-term hot paths probe id-keyed tables instead.
std::string SkolemBlockKey(const std::vector<SkolemFnId>& fns) {
  std::string key;
  key.reserve(4 * fns.size());
  for (SkolemFnId f : fns) {
    key.append(reinterpret_cast<const char*>(&f), sizeof(f));
  }
  return key;
}

}  // namespace

PredicateId Vocabulary::AddPredicate(std::string_view name, uint32_t arity) {
  const PredicateId id = FindOrAddPredicate(name, arity);
  FRONTIERS_CHECK(predicates_[id].arity == arity,
                  "predicate '" + std::string(name) +
                      "' redeclared with arity " + std::to_string(arity) +
                      " (was " + std::to_string(predicates_[id].arity) + ")");
  return id;
}

PredicateId Vocabulary::FindOrAddPredicate(std::string_view name,
                                           uint32_t arity) {
  auto it = predicate_index_.find(name);
  if (it != predicate_index_.end()) return it->second;
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back({std::string(name), arity});
  predicate_index_.emplace(std::string(name), id);
  return id;
}

std::optional<PredicateId> Vocabulary::FindPredicate(
    std::string_view name) const {
  auto it = predicate_index_.find(name);
  if (it == predicate_index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Vocabulary::PredicateName(PredicateId p) const {
  return predicates_[p].name;
}

uint32_t Vocabulary::PredicateArity(PredicateId p) const {
  return predicates_[p].arity;
}

TermId Vocabulary::Constant(std::string_view name) {
  auto it = constant_index_.find(name);
  if (it != constant_index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  TermData data;
  data.kind = TermKind::kConstant;
  data.index = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  terms_.push_back(std::move(data));
  constant_index_.emplace(std::string(name), id);
  return id;
}

TermId Vocabulary::Variable(std::string_view name) {
  auto it = variable_index_.find(name);
  if (it != variable_index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  TermData data;
  data.kind = TermKind::kVariable;
  data.index = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  terms_.push_back(std::move(data));
  variable_index_.emplace(std::string(name), id);
  return id;
}

void Vocabulary::RollBackNames(NameMark mark) {
  while (terms_.size() > mark.terms) {
    const TermData& data = terms_.back();
    FRONTIERS_CHECK(data.kind != TermKind::kSkolem,
                    "RollBackNames: a Skolem term was interned after the mark");
    NameIndex<TermId>& index = data.kind == TermKind::kConstant
                                   ? constant_index_
                                   : variable_index_;
    index.erase(names_[data.index]);
    names_.pop_back();
    terms_.pop_back();
  }
  while (predicates_.size() > mark.predicates) {
    predicate_index_.erase(predicates_.back().name);
    predicates_.pop_back();
  }
}

TermId Vocabulary::FreshVariable(std::string_view prefix) {
  for (;;) {
    std::string name =
        std::string(prefix) + "#" + std::to_string(fresh_counter_++);
    if (variable_index_.find(name) == variable_index_.end()) {
      return Variable(name);
    }
  }
}

TermId Vocabulary::SkolemTerm(SkolemFnId fn, const std::vector<TermId>& args) {
  FRONTIERS_CHECK(
      skolem_fns_[fn].arity == args.size(),
      "Skolem term arity mismatch for function " + skolem_fns_[fn].signature +
          ": got " + std::to_string(args.size()) + " arguments, expected " +
          std::to_string(skolem_fns_[fn].arity));
  return InternSkolem(fn, args);
}

TermId Vocabulary::InternSkolem(SkolemFnId fn, std::span<const TermId> args) {
  uint64_t hash = HashIdSpan(fn, args.data(), args.size());
  TermId next = static_cast<TermId>(terms_.size());
  TermId id = skolem_term_index_.FindOrInsert(hash, next, [&](TermId t) {
    const TermData& data = terms_[t];
    return data.kind == TermKind::kSkolem && data.fn == fn &&
           SkolemArgsEqual(t, args);
  });
  if (id != next) return id;
  uint32_t depth = 0;
  for (TermId a : args) depth = std::max(depth, terms_[a].depth);
  TermData data;
  data.kind = TermKind::kSkolem;
  data.fn = fn;
  data.index = static_cast<uint32_t>(skolem_args_.size());
  data.depth = depth + 1;
  // Growing the arena would invalidate a `SkolemArgs` span passed back in;
  // `SkolemRow` copies such spans out before calling here.
  FRONTIERS_CHECK(!AliasesSkolemArgs(args),
                  "InternSkolem: args point into the Skolem argument arena");
  skolem_args_.insert(skolem_args_.end(), args.begin(), args.end());
  terms_.push_back(data);
  return id;
}

uint32_t Vocabulary::SkolemBlock(const std::vector<SkolemFnId>& fns) {
  FRONTIERS_CHECK(!fns.empty(), "Skolem block must have at least one fn");
  uint32_t arity = skolem_fns_[fns[0]].arity;
  for (SkolemFnId f : fns) {
    FRONTIERS_CHECK(skolem_fns_[f].arity == arity,
                    "Skolem block functions must share one arity");
  }
  std::string key = SkolemBlockKey(fns);
  auto it = skolem_block_index_.find(key);
  if (it != skolem_block_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(skolem_blocks_.size());
  skolem_blocks_.push_back({static_cast<uint32_t>(skolem_block_fns_.size()),
                            static_cast<uint32_t>(fns.size()), arity});
  skolem_block_fns_.insert(skolem_block_fns_.end(), fns.begin(), fns.end());
  skolem_block_index_.emplace(std::move(key), id);
  return id;
}

uint32_t Vocabulary::SkolemRowIndex(uint32_t block,
                                    std::span<const TermId> args) {
  const SkolemBlockData& data = skolem_blocks_[block];
  FRONTIERS_CHECK(data.arity == args.size(),
                  "Skolem row arity mismatch for block");
  // One probe keyed by (block, args).  Rows of the same block share the
  // argument tuple across all their terms, so equality checks the block id
  // and the first term's arguments.
  uint64_t hash = HashIdSpan(block, args.data(), args.size());
  uint32_t next = static_cast<uint32_t>(skolem_rows_.size());
  uint32_t row = skolem_row_index_.FindOrInsert(hash, next, [&](uint32_t r) {
    const SkolemRowData& existing = skolem_rows_[r];
    return existing.block == block &&
           SkolemArgsEqual(skolem_row_terms_[existing.terms_offset], args);
  });
  if (row != next) return row;
  // Miss: intern each null through the per-term hash-consing table, so the
  // row agrees with any prior `SkolemTerm` calls (isomorphic heads in
  // other rules may already have created some of these terms).
  // Every `InternSkolem` below may grow `skolem_args_`, so a `SkolemArgs`
  // span into it is copied out first.
  std::vector<TermId> own_args;
  if (AliasesSkolemArgs(args)) {
    own_args.assign(args.begin(), args.end());
    args = own_args;
  }
  uint32_t offset = static_cast<uint32_t>(skolem_row_terms_.size());
  const SkolemFnId* fns = skolem_block_fns_.data() + data.fns_offset;
  for (uint32_t i = 0; i < data.size; ++i) {
    skolem_row_terms_.push_back(InternSkolem(fns[i], args));
  }
  skolem_rows_.push_back({block, offset});
  return next;
}

SkolemFnId Vocabulary::SkolemFunction(std::string_view signature,
                                      uint32_t arity) {
  auto it = skolem_fn_index_.find(signature);
  if (it != skolem_fn_index_.end()) {
    FRONTIERS_CHECK(skolem_fns_[it->second].arity == arity,
                    "Skolem function '" + std::string(signature) +
                        "' redeclared with arity " + std::to_string(arity) +
                        " (was " +
                        std::to_string(skolem_fns_[it->second].arity) + ")");
    return it->second;
  }
  SkolemFnId id = static_cast<SkolemFnId>(skolem_fns_.size());
  skolem_fns_.push_back({std::string(signature), arity});
  skolem_fn_index_.emplace(std::string(signature), id);
  return id;
}

const std::string& Vocabulary::TermName(TermId t) const {
  return names_[terms_[t].index];
}

void Vocabulary::AccountHeap(MemTotals& totals, MemAccounting mode) const {
  const auto strings = [mode](const auto& container, auto&& key_of) {
    uint64_t sum = 0;
    for (const auto& item : container) sum += StringHeapBytes(key_of(item), mode);
    return sum;
  };
  uint64_t terms = VectorHeapBytes(terms_, mode) +
                   VectorHeapBytes(names_, mode) +
                   strings(names_, [](const std::string& s) -> const std::string& {
                     return s;
                   }) +
                   VectorHeapBytes(predicates_, mode) +
                   strings(predicates_, [](const PredicateData& p) -> const std::string& {
                     return p.name;
                   });
  const auto string_map = [&](const auto& map, size_t node_payload) {
    uint64_t sum = UnorderedOverheadBytes(map.bucket_count(), map.size(),
                                          node_payload, mode);
    for (const auto& [key, value] : map) sum += StringHeapBytes(key, mode);
    return sum;
  };
  terms += string_map(predicate_index_,
                      sizeof(std::pair<const std::string, PredicateId>));
  terms += string_map(constant_index_,
                      sizeof(std::pair<const std::string, TermId>));
  terms += string_map(variable_index_,
                      sizeof(std::pair<const std::string, TermId>));
  totals.Add(MemComponent::kVocabTerms, terms);

  uint64_t skolem =
      VectorHeapBytes(skolem_args_, mode) +
      skolem_term_index_.HeapBytes(mode) +
      VectorHeapBytes(skolem_fns_, mode) +
      strings(skolem_fns_, [](const SkolemFnData& f) -> const std::string& {
        return f.signature;
      }) +
      string_map(skolem_fn_index_,
                 sizeof(std::pair<const std::string, SkolemFnId>));
  if (mode == MemAccounting::kCapacity) {
    // The block/row tables are derived caches: they memoize (block, args)
    // probes and are rebuilt lazily after a process restart, so a resumed
    // vocabulary holds a different row population than the original's even
    // though the logical term state is identical.  Content mode — defined
    // as a pure function of logical state — therefore excludes them; they
    // are real bytes, so capacity mode (the stream / RSS-coverage figure)
    // keeps them.
    skolem += VectorHeapBytes(skolem_blocks_, mode) +
              VectorHeapBytes(skolem_block_fns_, mode) +
              string_map(skolem_block_index_,
                         sizeof(std::pair<const std::string, uint32_t>)) +
              VectorHeapBytes(skolem_rows_, mode) +
              VectorHeapBytes(skolem_row_terms_, mode) +
              skolem_row_index_.HeapBytes(mode);
  }
  totals.Add(MemComponent::kVocabSkolem, skolem);
}

std::string Vocabulary::TermToString(TermId t) const {
  const TermData& data = terms_[t];
  switch (data.kind) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      return names_[data.index];
    case TermKind::kSkolem: {
      std::string out = "f" + std::to_string(data.fn) + "(";
      const std::span<const TermId> args = SkolemArgs(t);
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ",";
        out += TermToString(args[i]);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace frontiers
