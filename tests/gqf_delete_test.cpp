#include <gtest/gtest.h>

#include <map>

#include "gqf/gqf.h"
#include "gqf/gqf_testing.h"
#include "util/xorwow.h"

namespace gf::gqf {
namespace {

TEST(GqfDelete, RemoveSingleInstance) {
  gqf_filter<uint8_t> f(10, 8);
  f.insert(42, 3);
  EXPECT_TRUE(f.erase(42, 1));
  EXPECT_EQ(f.query(42), 2u);
  EXPECT_TRUE(f.erase(42, 2));
  EXPECT_EQ(f.query(42), 0u);
  EXPECT_FALSE(f.erase(42, 1));  // already gone
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfDelete, RemoveMoreThanStoredClamps) {
  gqf_filter<uint8_t> f(10, 8);
  f.insert(7, 5);
  EXPECT_TRUE(f.erase(7, 100));
  EXPECT_EQ(f.query(7), 0u);
  EXPECT_EQ(f.size(), 0u);
}

TEST(GqfDelete, CounterShrinkPaths) {
  gqf_filter<uint8_t> f(10, 8);
  // 2 digits -> 1 digit -> 0 digits -> head removal.
  f.insert(9, 70000);
  ASSERT_TRUE(f.erase(9, 69000));  // still multi-digit territory
  EXPECT_EQ(f.query(9), 1000u);
  ASSERT_TRUE(f.erase(9, 999));
  EXPECT_EQ(f.query(9), 1u);  // head only
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
  ASSERT_TRUE(f.erase(9, 1));
  EXPECT_EQ(f.query(9), 0u);
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfDelete, ClusterSplitsAfterMiddleRemoval) {
  // Build one long cluster, remove from the middle, verify everything
  // else is intact and offsets were rebuilt.
  gqf_filter<uint8_t> f(8, 8);
  std::vector<uint64_t> hashes;
  for (uint64_t q = 100; q < 108; ++q)
    for (uint64_t r = 0; r < 6; ++r)
      hashes.push_back((q << 8) | (r * 17 + 1));
  for (uint64_t h : hashes) ASSERT_TRUE(f.insert_hash(h));
  std::string why;
  ASSERT_TRUE(f.validate(&why)) << why;

  // Remove all of quotient 103's run.
  for (uint64_t r = 0; r < 6; ++r)
    ASSERT_TRUE(f.remove_hash((uint64_t{103} << 8) | (r * 17 + 1)));
  ASSERT_TRUE(f.validate(&why)) << why;
  for (uint64_t h : hashes) {
    bool removed = (h >> 8) == 103;
    EXPECT_EQ(f.query_hash(h) > 0, !removed) << std::hex << h;
  }
}

TEST(GqfDelete, EraseFromClusterEndingAtLastSlot) {
  // One run of the last quotient fills the padding through the table's
  // final slot, so the cluster has no empty slot after it.  Erasing from
  // it must rebuild offsets only for blocks that exist.
  gqf_filter<uint16_t> f(8, 16);
  const uint64_t q = f.num_slots() - 1;
  const uint64_t run = f.total_slots() - q;
  for (uint64_t r = 0; r < run; ++r) ASSERT_TRUE(f.insert_hash((q << 16) | r));
  gqf_introspect<uint16_t> in{f};
  ASSERT_EQ(in.find_first_empty(q), f.total_slots());
  std::string why;
  ASSERT_TRUE(f.validate(&why)) << why;

  for (uint64_t r : {uint64_t{7}, run / 2, run - 1})
    ASSERT_TRUE(f.remove_hash((q << 16) | r));
  ASSERT_TRUE(f.validate(&why)) << why;
  for (uint64_t r = 0; r < run; ++r) {
    const bool erased = r == 7 || r == run / 2 || r == run - 1;
    ASSERT_EQ(f.query_hash((q << 16) | r), erased ? 0u : 1u) << r;
  }
}

TEST(GqfDelete, InsertDeleteChurnPreservesInvariants) {
  gqf_filter<uint8_t> f(12, 8);
  std::map<uint64_t, uint64_t> ref;
  util::xorwow rng(13);
  std::string why;
  // 500 keys over a 2^20 fingerprint space: collision probability ~1e-4,
  // so reference counts stay exact and erases on > 0 refs must succeed.
  for (int round = 0; round < 20000; ++round) {
    uint64_t key = rng.next_below(500);
    if (rng.next_below(3) == 0 && ref[key] > 0) {
      ASSERT_TRUE(f.erase(key, 1));
      --ref[key];
    } else {
      ASSERT_TRUE(f.insert(key, 1));
      ++ref[key];
    }
    if (round % 4000 == 0) {
      ASSERT_TRUE(f.validate(&why)) << why;
    }
  }
  ASSERT_TRUE(f.validate(&why)) << why;
  uint64_t exact = 0;
  for (auto& [k, c] : ref) {
    ASSERT_GE(f.query(k), c) << k;
    exact += f.query(k) == c;
  }
  EXPECT_GE(exact, ref.size() - 2);
}

TEST(GqfDelete, DeleteEverythingLeavesCleanFilter) {
  gqf_filter<uint8_t> f(12, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 3 / 4, 17);
  for (uint64_t k : keys) ASSERT_TRUE(f.insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.erase(k));
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.distinct_items(), 0u);
  std::string why;
  ASSERT_TRUE(f.validate(&why)) << why;
  // And the filter is fully reusable.
  for (uint64_t k : keys) ASSERT_TRUE(f.insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.contains(k));
}

}  // namespace
}  // namespace gf::gqf
