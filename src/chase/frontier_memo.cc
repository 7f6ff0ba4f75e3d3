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

std::string FrontierMemo::Key(Entry e) const {
  const size_t rule = Rule(e);
  const std::span<const TermId> bindings = Bindings(e);
  std::string key;
  key.reserve(sizeof(rule) + sizeof(TermId) * bindings.size());
  key.append(reinterpret_cast<const char*>(&rule), sizeof(rule));
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

bool FrontierMemo::InsertKey(std::string_view key) {
  FRONTIERS_CHECK(WellFormedKey(key), "malformed frontier memo key of " +
                                          std::to_string(key.size()) +
                                          " bytes");
  size_t rule = 0;
  std::memcpy(&rule, key.data(), sizeof(rule));
  const uint32_t n =
      static_cast<uint32_t>((key.size() - sizeof(rule)) / sizeof(TermId));
  std::vector<TermId> bindings(n);
  if (n > 0) {  // an empty vector's data() may be null, which memcpy rejects
    std::memcpy(bindings.data(), key.data() + sizeof(rule),
                n * sizeof(TermId));
  }
  return Insert(static_cast<uint32_t>(rule), bindings.data(), n);
}

bool operator==(const FrontierMemo& a, const FrontierMemo& b) {
  if (a.size() != b.size() || a.words_.size() != b.words_.size()) {
    return false;
  }
  // Entries are unique within each memo, so equal sizes plus a ⊆ b is
  // set equality.
  bool equal = true;
  a.ForEach([&](FrontierMemo::Entry e) {
    if (!equal) return;
    const std::span<const TermId> bindings = a.Bindings(e);
    equal = b.Contains(a.Rule(e), bindings.data(),
                       static_cast<uint32_t>(bindings.size()));
  });
  return equal;
}

}  // namespace frontiers
