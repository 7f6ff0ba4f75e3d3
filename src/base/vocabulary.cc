#include "base/vocabulary.h"

#include <algorithm>

#include "base/check.h"

namespace frontiers {

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
  const uint32_t block = skolem_fns_[fn].block;
  const uint32_t row = SkolemRowIndex(block, args);
  return skolem_rows_[row].first_term + (fn - skolem_blocks_[block].first_fn);
}

uint32_t Vocabulary::SkolemBlock(const std::vector<SkolemFnId>& fns) {
  FRONTIERS_CHECK(!fns.empty(), "Skolem block must have at least one fn");
  const uint32_t block = skolem_fns_[fns[0]].block;
  for (SkolemFnId f : fns) {
    FRONTIERS_CHECK(skolem_fns_[f].block == block,
                    "Skolem function '" + skolem_fns_[f].signature +
                        "' cannot join two blocks: it belongs to block " +
                        std::to_string(skolem_fns_[f].block) +
                        ", the tuple's first function to block " +
                        std::to_string(block));
  }
  const SkolemBlockData& data = skolem_blocks_[block];
  bool implied = fns.size() == data.size;
  for (uint32_t i = 0; implied && i < fns.size(); ++i) {
    implied = fns[i] == data.first_fn + i;
  }
  FRONTIERS_CHECK(implied,
                  "Skolem block of '" + skolem_fns_[fns[0]].signature +
                      "' differs from the block its signatures imply (" +
                      std::to_string(fns.size()) + " functions registered, " +
                      std::to_string(data.size) + " implied)");
  return block;
}

uint32_t Vocabulary::SkolemRowIndex(uint32_t block,
                                    std::span<const TermId> args) {
  SkolemBlockData& data = skolem_blocks_[block];
  FRONTIERS_CHECK(data.arity == args.size(),
                  "Skolem row arity mismatch for block");
  // One probe keyed by (block, args): a row keeps its arguments' offset,
  // so a compare reads `skolem_rows_` and then `skolem_args_`.
  uint64_t hash = HashIdSpan(block, args.data(), args.size());
  uint32_t next = static_cast<uint32_t>(skolem_rows_.size());
  uint32_t row = skolem_row_index_.FindOrInsert(hash, next, [&](uint32_t r) {
    const SkolemRowData& existing = skolem_rows_[r];
    if (existing.block != block) return false;
    const TermId* own = skolem_args_.data() + existing.args_offset;
    for (size_t i = 0; i < args.size(); ++i) {
      if (own[i] != args[i]) return false;
    }
    return true;
  });
  if (row != next) return row;
  // Miss: store the arguments once and append the row's nulls, one per
  // function of the block, as consecutive terms.  Growing the arena would
  // invalidate a `SkolemArgs` span passed back in, so copy one out first.
  std::vector<TermId> own_args;
  if (AliasesSkolemArgs(args)) {
    own_args.assign(args.begin(), args.end());
    args = own_args;
  }
  uint32_t depth = 0;
  for (TermId a : args) depth = std::max(depth, terms_[a].depth);
  const uint32_t args_offset = static_cast<uint32_t>(skolem_args_.size());
  const TermId first_term = static_cast<TermId>(terms_.size());
  skolem_args_.insert(skolem_args_.end(), args.begin(), args.end());
  for (uint32_t i = 0; i < data.size; ++i) {
    TermData term;
    term.kind = TermKind::kSkolem;
    term.index = args_offset;
    term.fn = data.first_fn + i;
    term.depth = depth + 1;
    terms_.push_back(term);
  }
  skolem_rows_.push_back({block, args_offset, first_term});
  data.has_rows = true;
  return next;
}

bool Vocabulary::ExtendsLastSkolemBlock(std::string_view signature,
                                        uint32_t arity) const {
  if (skolem_blocks_.empty()) return false;
  const SkolemBlockData& last = skolem_blocks_.back();
  const std::string_view first = skolem_fns_[last.first_fn].signature;
  if (last.arity != arity || !first.ends_with("#e0")) return false;
  // The last block is "<type>#e0" .. "<type>#e<size-1>"; the next joins.
  const std::string_view type = first.substr(0, first.size() - 3);
  const std::string index = "#e" + std::to_string(last.size);
  return signature.size() == type.size() + index.size() &&
         signature.starts_with(type) && signature.ends_with(index);
}

bool Vocabulary::SkolemFunctionJoinsUsedBlock(std::string_view signature,
                                              uint32_t arity) const {
  return skolem_fn_index_.find(signature) == skolem_fn_index_.end() &&
         ExtendsLastSkolemBlock(signature, arity) &&
         skolem_blocks_.back().has_rows;
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
  if (ExtendsLastSkolemBlock(signature, arity)) {
    // A block's rows hold one null per function, so it cannot grow once
    // it has rows.
    FRONTIERS_CHECK(!skolem_blocks_.back().has_rows,
                    "Skolem function '" + std::string(signature) +
                        "' would join a block that already has rows");
    ++skolem_blocks_.back().size;
  } else {
    skolem_blocks_.push_back({id, 1, arity});
  }
  skolem_fns_.push_back({std::string(signature), arity,
                         static_cast<uint32_t>(skolem_blocks_.size() - 1)});
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

  // Every Skolem term belongs to exactly one row, and a snapshot replay
  // interns the same blocks and rows in the same order from the function
  // table and the term list, so content mode counts the functions, the
  // blocks, each row's one copy of its arguments and the row records.  The
  // row index's slots are one per row too, a probe structure over the same
  // rows; content mode counts each row once, so only capacity mode adds
  // the index.
  uint64_t skolem =
      VectorHeapBytes(skolem_fns_, mode) +
      strings(skolem_fns_, [](const SkolemFnData& f) -> const std::string& {
        return f.signature;
      }) +
      string_map(skolem_fn_index_,
                 sizeof(std::pair<const std::string, SkolemFnId>)) +
      VectorHeapBytes(skolem_blocks_, mode) +
      VectorHeapBytes(skolem_args_, mode) +
      VectorHeapBytes(skolem_rows_, mode);
  if (mode == MemAccounting::kCapacity) {
    skolem += skolem_row_index_.HeapBytes(mode);
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
