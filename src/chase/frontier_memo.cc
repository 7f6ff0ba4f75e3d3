#include "chase/frontier_memo.h"

#include <cstring>

namespace frontiers {

void FrontierMemo::Truncate(size_t n) {
  if (n >= size()) return;
  size_t kept = 0;
  size_t cut = words_.size();
  ForEach([&](Entry e) {
    if (kept++ < n) return;
    if (cut == words_.size()) cut = e;
    const uint32_t rule = words_[e];
    const uint32_t count = words_[e + 1];
    const TermId* bindings = words_.data() + e + 2;
    index_.Erase(HashIdSpan(rule, bindings, count),
                 [e](Entry c) { return c == e; });
  });
  words_.resize(cut);
}

std::string FrontierMemo::EncodeKey(uint32_t rule,
                                    std::span<const TermId> bindings) {
  const size_t wide_rule = rule;
  std::string key;
  key.reserve(sizeof(wide_rule) + sizeof(TermId) * bindings.size());
  key.append(reinterpret_cast<const char*>(&wide_rule), sizeof(wide_rule));
  key.append(reinterpret_cast<const char*>(bindings.data()),
             sizeof(TermId) * bindings.size());
  return key;
}

bool FrontierMemo::WellFormedKey(std::string_view key) {
  if (key.size() < sizeof(size_t) ||
      (key.size() - sizeof(size_t)) % sizeof(TermId) != 0) {
    return false;
  }
  size_t rule = 0;
  std::memcpy(&rule, key.data(), sizeof(rule));
  return rule <= UINT32_MAX;
}

uint32_t FrontierMemo::KeyRule(std::string_view key) {
  FRONTIERS_CHECK(WellFormedKey(key), "malformed frontier memo key of " +
                                          std::to_string(key.size()) +
                                          " bytes");
  size_t rule = 0;
  std::memcpy(&rule, key.data(), sizeof(rule));
  return static_cast<uint32_t>(rule);
}

std::vector<TermId> FrontierMemo::KeyBindings(std::string_view key) {
  std::vector<TermId> bindings((key.size() - sizeof(size_t)) /
                               sizeof(TermId));
  // An empty vector's data() may be null, which memcpy rejects.
  if (!bindings.empty()) {
    std::memcpy(bindings.data(), key.data() + sizeof(size_t),
                bindings.size() * sizeof(TermId));
  }
  return bindings;
}

bool FrontierMemo::InsertKey(std::string_view key) {
  const uint32_t rule = KeyRule(key);
  const std::vector<TermId> bindings = KeyBindings(key);
  return Insert(rule, bindings.data(), static_cast<uint32_t>(bindings.size()));
}

}  // namespace frontiers
