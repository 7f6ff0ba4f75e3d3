#include "catalog/instances.h"

#include <functional>

namespace frontiers {

TermId PathConstant(Vocabulary& vocab, const std::string& prefix,
                    uint32_t index) {
  return vocab.Constant(prefix + std::to_string(index));
}

FactSet EdgePath(Vocabulary& vocab, const std::string& predicate,
                 uint32_t length, const std::string& prefix) {
  PredicateId pred = vocab.AddPredicate(predicate, 2);
  FactSet out;
  for (uint32_t i = 0; i < length; ++i) {
    out.Insert(Atom(pred, {PathConstant(vocab, prefix, i),
                           PathConstant(vocab, prefix, i + 1)}));
  }
  return out;
}

FactSet EdgeCycle(Vocabulary& vocab, const std::string& predicate,
                  uint32_t length, const std::string& prefix) {
  PredicateId pred = vocab.AddPredicate(predicate, 2);
  FactSet out;
  for (uint32_t i = 1; i <= length; ++i) {
    uint32_t next = (i == length) ? 1 : i + 1;
    out.Insert(Atom(pred, {PathConstant(vocab, prefix, i),
                           PathConstant(vocab, prefix, next)}));
  }
  return out;
}

FactSet Star39Instance(Vocabulary& vocab, uint32_t colors) {
  PredicateId e = vocab.AddPredicate("E4", 4);
  PredicateId r = vocab.AddPredicate("R", 2);
  TermId a = vocab.Constant("A");
  FactSet out;
  out.Insert(Atom(e, {a, vocab.Constant("B1"), vocab.Constant("B2"),
                      vocab.Constant("C1")}));
  for (uint32_t i = 1; i <= colors; ++i) {
    out.Insert(Atom(r, {a, vocab.Constant("C" + std::to_string(i))}));
  }
  return out;
}

FactSet Example66Instance(Vocabulary& vocab, uint32_t paints) {
  PredicateId e = vocab.AddPredicate("E", 2);
  PredicateId p = vocab.AddPredicate("P", 1);
  FactSet out;
  out.Insert(Atom(e, {vocab.Constant("A0"), vocab.Constant("A1")}));
  for (uint32_t i = 1; i <= paints; ++i) {
    out.Insert(Atom(p, {vocab.Constant("B" + std::to_string(i))}));
  }
  return out;
}

FactSet RandomBinaryInstance(Vocabulary& vocab,
                             const std::vector<std::string>& predicates,
                             uint32_t num_terms, uint32_t num_atoms,
                             uint64_t seed, uint32_t max_degree) {
  std::vector<PredicateId> preds;
  preds.reserve(predicates.size());
  for (const std::string& name : predicates) {
    preds.push_back(vocab.AddPredicate(name, 2));
  }
  // Deterministic 64-bit LCG (Knuth MMIX constants).
  uint64_t state = seed * 2862933555777941757ull + 3037000493ull;
  auto next = [&state](uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  };
  FactSet out;
  uint32_t attempts = 0;
  while (out.size() < num_atoms && attempts < num_atoms * 20) {
    ++attempts;
    PredicateId pred = preds[next(static_cast<uint32_t>(preds.size()))];
    TermId s = PathConstant(vocab, "r", next(num_terms));
    TermId t = PathConstant(vocab, "r", next(num_terms));
    if (max_degree > 0 && (out.AtomDegree(s) >= max_degree ||
                           out.AtomDegree(t) >= max_degree)) {
      continue;
    }
    out.Insert(Atom(pred, {s, t}));
  }
  return out;
}

std::vector<FactSet> SubsetsOfSize(const FactSet& facts, uint32_t size) {
  std::vector<FactSet> out;
  const size_t n = facts.size();
  if (size > n) return out;
  std::vector<uint32_t> picked;
  std::function<void(uint32_t)> choose = [&](uint32_t from) {
    if (picked.size() == size) {
      FactSet subset;
      for (uint32_t i : picked) subset.Insert(facts.ToAtom(i));
      out.push_back(std::move(subset));
      return;
    }
    for (uint32_t i = from; i < n; ++i) {
      if (n - i < size - picked.size()) break;
      picked.push_back(i);
      choose(i + 1);
      picked.pop_back();
    }
  };
  choose(0);
  return out;
}

std::vector<FactSet> SubsetsUpToSize(const FactSet& facts, uint32_t size) {
  std::vector<FactSet> out;
  for (uint32_t k = 1; k <= size && k <= facts.size(); ++k) {
    std::vector<FactSet> of_size = SubsetsOfSize(facts, k);
    for (FactSet& subset : of_size) out.push_back(std::move(subset));
  }
  return out;
}

}  // namespace frontiers
