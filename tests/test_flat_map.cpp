// FlatMap: insert/find/erase, backward-shift erase inside a probe cluster
// that wraps around the end of the slot array, the sentinel key, growth,
// and a seeded differential run against std::unordered_map.
#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "id/node_id.hpp"

namespace bsvc {
namespace {

using AddrMap = FlatMap<Address, int, kNullAddress>;

// Home slot of `key` in a table of 2^bits slots. Mirrors FlatMap's hash so
// the tests can build probe clusters on purpose; if the hash changes the
// cluster tests still check correctness, only less sharply.
std::size_t home_of(std::uint64_t key, int bits) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

// The first `n` keys (from 0 upward, skipping kNullAddress) whose home slot
// in an 8-slot table is `slot`.
std::vector<Address> keys_with_home(std::size_t slot, std::size_t n) {
  std::vector<Address> out;
  for (Address k = 0; out.size() < n; ++k) {
    if (k != kNullAddress && home_of(k, 3) == slot) out.push_back(k);
  }
  return out;
}

TEST(FlatMap, InsertFindErase) {
  AddrMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));

  const auto [v, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  EXPECT_FALSE(m.try_emplace(7, 71).second);  // no overwrite
  EXPECT_EQ(*m.find(7), 70);
  m[8] = 80;
  ++m[8];
  EXPECT_EQ(*m.find(8), 81);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(7));

  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(8));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatMap, EraseInsideWrappedProbeCluster) {
  // Slots 6, 7, 0, 1 form one cluster: a (home 6), b and c (home 7; c wraps
  // to slot 0) and d (home 0, pushed to slot 1). Erasing b must pull c and
  // d back along the wrap so both stay reachable from their homes.
  const Address a = keys_with_home(6, 1)[0];
  const auto sevens = keys_with_home(7, 2);
  const Address b = sevens[0];
  const Address c = sevens[1];
  const Address d = keys_with_home(0, 1)[0];
  AddrMap m;
  for (const Address k : {a, b, c, d}) m[k] = static_cast<int>(k);
  ASSERT_EQ(m.capacity(), 8u);

  ASSERT_TRUE(m.erase(b));
  EXPECT_EQ(m.find(b), nullptr);
  for (const Address k : {a, c, d}) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), static_cast<int>(k));
  }
  // Erasing the cluster head and re-inserting keeps every survivor findable.
  ASSERT_TRUE(m.erase(a));
  m[b] = 1;
  for (const Address k : {b, c, d}) EXPECT_TRUE(m.contains(k)) << k;
  EXPECT_FALSE(m.contains(a));
  EXPECT_EQ(m.size(), 3u);
}

TEST(FlatMap, SentinelKeyIsAnOrdinaryKey) {
  AddrMap m;
  EXPECT_FALSE(m.contains(kNullAddress));
  m[kNullAddress] = 5;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.capacity(), 0u);  // held outside the slot array
  EXPECT_FALSE(m.try_emplace(kNullAddress, 6).second);
  EXPECT_EQ(*m.find(kNullAddress), 5);
  m[1] = 1;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(kNullAddress));
  EXPECT_FALSE(m.contains(kNullAddress));
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.size(), 1u);

  // The default sentinel of an ID map is 0.
  FlatMap<NodeId, std::uint32_t> ids;
  ids[0] = 9;
  ids[1] = 10;
  EXPECT_EQ(*ids.find(0), 9u);
  EXPECT_EQ(*ids.find(1), 10u);
  EXPECT_TRUE(ids.erase(0));
  EXPECT_EQ(ids.find(0), nullptr);
}

TEST(FlatMap, GrowsAndKeepsEveryKey) {
  FlatMap<NodeId, NodeId> m;
  Rng rng(5);
  std::vector<NodeId> keys;
  for (int i = 0; i < 10000; ++i) {
    const NodeId k = rng.next_u64() | 1;  // never the sentinel
    keys.push_back(k);
    m[k] = ~k;
    // Power-of-two capacity, load at most 3/4.
    ASSERT_EQ(m.capacity() & (m.capacity() - 1), 0u);
    ASSERT_LE(m.size() * 4, m.capacity() * 3);
  }
  EXPECT_EQ(m.size(), keys.size());
  for (const NodeId k : keys) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), ~k);
  }
}

TEST(FlatMap, DifferentialAgainstUnorderedMap) {
  // 100k seeded operations over a small key range (frequent hits, erases
  // inside long clusters, repeated grow/shrink of the live set) plus the
  // sentinel key; every result and the size must match the reference.
  AddrMap m;
  std::unordered_map<Address, int> ref;
  Rng rng(20260);
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t pick = rng.below(600);
    const Address key = pick == 0 ? kNullAddress : static_cast<Address>(pick);
    const int value = static_cast<int>(rng.below(1000));
    switch (rng.below(4)) {
      case 0: {
        const bool inserted = m.try_emplace(key, value).second;
        ASSERT_EQ(inserted, ref.try_emplace(key, value).second) << "op " << op;
        break;
      }
      case 1:
        m[key] = value;
        ref[key] = value;
        break;
      case 2:
        ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << "op " << op;
        break;
      default: {
        const int* got = m.find(key);
        const auto want = ref.find(key);
        ASSERT_EQ(got != nullptr, want != ref.end()) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, want->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "op " << op;
  }
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.find(key), nullptr);
    EXPECT_EQ(*m.find(key), value);
  }
}

}  // namespace
}  // namespace bsvc
