// Tests for the chase's flat frontier memo (chase/frontier_memo.h): set
// semantics, suffix truncation (the fault rollback), the snapshot key
// encoding, and insertion-order independence of the key set and content bytes
// (which resume relies on).

#include "chase/frontier_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace frontiers {
namespace {

struct Application {
  uint32_t rule;
  std::vector<TermId> bindings;
};

bool Insert(FrontierMemo& memo, const Application& app) {
  return memo.Insert(app.rule, app.bindings.data(),
                     static_cast<uint32_t>(app.bindings.size()));
}

bool Contains(const FrontierMemo& memo, const Application& app) {
  return memo.Contains(app.rule, app.bindings.data(),
                       static_cast<uint32_t>(app.bindings.size()));
}

// The memo's entries as sorted keys: its set, whatever the insertion
// order.
std::vector<std::string> SortedKeys(const FrontierMemo& memo) {
  std::vector<std::string> keys;
  memo.ForEach([&](FrontierMemo::Entry e) { keys.push_back(memo.Key(e)); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A few hundred distinct applications over three rules of different
// frontier widths (including a Boolean frontier), enough to grow the index
// past its initial table.
std::vector<Application> Applications() {
  std::vector<Application> apps;
  apps.push_back({7, {}});
  for (TermId a = 0; a < 20; ++a) {
    apps.push_back({0, {a}});
    for (TermId b = 0; b < 10; ++b) apps.push_back({1, {a, b}});
  }
  for (TermId a = 0; a < 30; ++a) apps.push_back({2, {a, a + 1, a + 2}});
  return apps;
}

TEST(FrontierMemoTest, DuplicateInsertReturnsFalse) {
  FrontierMemo memo;
  const Application app{3, {10, 11}};
  EXPECT_TRUE(Insert(memo, app));
  EXPECT_FALSE(Insert(memo, app));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(Contains(memo, app));
  // Same bindings under another rule, or a prefix, are other entries.
  EXPECT_FALSE(Contains(memo, {4, {10, 11}}));
  EXPECT_FALSE(Contains(memo, {3, {10}}));
  EXPECT_TRUE(Insert(memo, {4, {10, 11}}));
  EXPECT_TRUE(Insert(memo, {3, {10}}));
  EXPECT_EQ(memo.size(), 3u);
}

TEST(FrontierMemoTest, TruncateRestoresSizeLookupsAndContentBytes) {
  const std::vector<Application> apps = Applications();
  const size_t half = apps.size() / 2;
  FrontierMemo memo;
  for (size_t i = 0; i < half; ++i) ASSERT_TRUE(Insert(memo, apps[i]));
  const uint64_t bytes_at_half = memo.HeapBytes(MemAccounting::kContent);
  for (size_t i = half; i < apps.size(); ++i) ASSERT_TRUE(Insert(memo, apps[i]));
  ASSERT_EQ(memo.size(), apps.size());

  memo.Truncate(half);
  EXPECT_EQ(memo.size(), half);
  EXPECT_EQ(memo.HeapBytes(MemAccounting::kContent), bytes_at_half);
  for (size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(Contains(memo, apps[i]), i < half) << i;
  }
  // The dropped suffix can be inserted again, and lands where it was.
  for (size_t i = half; i < apps.size(); ++i) EXPECT_TRUE(Insert(memo, apps[i]));
  FrontierMemo reference;
  for (const Application& app : apps) Insert(reference, app);
  EXPECT_EQ(SortedKeys(memo), SortedKeys(reference));

  memo.Truncate(0);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.HeapBytes(MemAccounting::kContent),
            FrontierMemo().HeapBytes(MemAccounting::kContent));
  memo.Truncate(5);  // past the end: a no-op
  EXPECT_EQ(memo.size(), 0u);
}

TEST(FrontierMemoTest, KeyUsesTheSnapshotEncodingAndRoundTrips) {
  FrontierMemo memo;
  ASSERT_TRUE(Insert(memo, {5, {0x01020304u, 42}}));
  ASSERT_TRUE(Insert(memo, {9, {}}));
  std::vector<std::string> keys;
  memo.ForEach([&](FrontierMemo::Entry e) { keys.push_back(memo.Key(e)); });
  ASSERT_EQ(keys.size(), 2u);

  // 8-byte rule index, then the TermIds, all in native byte order.
  std::string expected;
  const size_t rule = 5;
  const TermId terms[] = {0x01020304u, 42};
  expected.append(reinterpret_cast<const char*>(&rule), sizeof(rule));
  expected.append(reinterpret_cast<const char*>(terms), sizeof(terms));
  EXPECT_EQ(keys[0], expected);
  EXPECT_EQ(keys[1].size(), 8u);

  FrontierMemo rebuilt;
  for (const std::string& key : keys) EXPECT_TRUE(rebuilt.InsertKey(key));
  EXPECT_FALSE(rebuilt.InsertKey(keys[0]));
  EXPECT_EQ(SortedKeys(rebuilt), SortedKeys(memo));
  std::vector<std::string> rekeyed;
  rebuilt.ForEach(
      [&](FrontierMemo::Entry e) { rekeyed.push_back(rebuilt.Key(e)); });
  EXPECT_EQ(rekeyed, keys);

  EXPECT_TRUE(FrontierMemo::WellFormedKey(expected));
  EXPECT_FALSE(FrontierMemo::WellFormedKey(expected.substr(0, 7)));
  EXPECT_FALSE(FrontierMemo::WellFormedKey(expected.substr(0, 10)));
  std::string huge_rule(8, '\xff');
  EXPECT_FALSE(FrontierMemo::WellFormedKey(huge_rule));
}

TEST(FrontierMemoTest, EqualityAndContentBytesIgnoreInsertionOrder) {
  const std::vector<Application> apps = Applications();
  FrontierMemo forward;
  FrontierMemo backward;
  for (const Application& app : apps) Insert(forward, app);
  for (auto it = apps.rbegin(); it != apps.rend(); ++it) Insert(backward, *it);
  EXPECT_EQ(SortedKeys(forward), SortedKeys(backward));
  EXPECT_EQ(forward.HeapBytes(MemAccounting::kContent),
            backward.HeapBytes(MemAccounting::kContent));

  // Same size, different entry: not equal.
  FrontierMemo other;
  for (size_t i = 0; i + 1 < apps.size(); ++i) Insert(other, apps[i]);
  Insert(other, {99, {1, 2, 3}});
  EXPECT_EQ(other.size(), forward.size());
  EXPECT_NE(SortedKeys(other), SortedKeys(forward));
}

// Row marks: set semantics, rollback, keys in the memo's encoding, and
// content bytes that depend on the marked set alone, not on the row ids a
// vocabulary happened to give the rows.
TEST(AppliedRowsTest, MarksKeysAndContentBytesFollowTheAppliedSet) {
  struct Rows {
    Vocabulary vocab;
    uint32_t block = 0;
    explicit Rows(bool reversed) {
      for (int c = 0; c <= 40; ++c) vocab.Constant("c" + std::to_string(c));
      const SkolemFnId f = vocab.SkolemFunction("R(u0,u1,e0,e1)#e0", 2);
      const SkolemFnId g = vocab.SkolemFunction("R(u0,u1,e0,e1)#e1", 2);
      block = vocab.SkolemBlock({f, g});
      // Rows interned before any run: a later run still sees them unmarked.
      for (TermId a = 0; a < 40; ++a) {
        const TermId t = reversed ? 39 - a : a;
        vocab.SkolemRowIndex(block, std::vector<TermId>{t, t + 1});
      }
    }
    uint32_t Row(TermId a) {
      return vocab.SkolemRowIndex(block, std::vector<TermId>{a, a + 1});
    }
  };
  Rows forward(false);
  Rows backward(true);
  ASSERT_NE(forward.Row(3), backward.Row(3));
  std::vector<uint32_t> rule_of_block(forward.block + 1,
                                      AppliedRows::kNoRule);
  rule_of_block[forward.block] = 7;
  AppliedRows a(forward.vocab, rule_of_block);
  AppliedRows b(backward.vocab, rule_of_block);
  for (TermId t : {3u, 11u, 30u}) {
    EXPECT_TRUE(a.Mark(forward.Row(t)));
    EXPECT_TRUE(b.Mark(backward.Row(t)));
  }
  EXPECT_FALSE(a.Mark(forward.Row(11)));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.HeapBytes(MemAccounting::kContent), 3u);
  EXPECT_EQ(a.HeapBytes(MemAccounting::kContent),
            b.HeapBytes(MemAccounting::kContent));
  EXPECT_LE(a.HeapBytes(MemAccounting::kContent),
            a.HeapBytes(MemAccounting::kCapacity));

  std::vector<std::string> keys_a;
  std::vector<std::string> keys_b;
  a.ForEachKey([&](std::string key) { keys_a.push_back(std::move(key)); });
  b.ForEachKey([&](std::string key) { keys_b.push_back(std::move(key)); });
  std::sort(keys_a.begin(), keys_a.end());
  std::sort(keys_b.begin(), keys_b.end());
  EXPECT_EQ(keys_a, keys_b);
  FrontierMemo memo;
  for (TermId t : {3u, 11u, 30u}) ASSERT_TRUE(Insert(memo, {7, {t, t + 1}}));
  EXPECT_EQ(keys_a, SortedKeys(memo));

  a.Unmark(forward.Row(11));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.HeapBytes(MemAccounting::kContent), 2u);
  EXPECT_TRUE(a.Mark(forward.Row(11)));
}

}  // namespace
}  // namespace frontiers
