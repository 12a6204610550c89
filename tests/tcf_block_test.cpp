#include "tcf/tcf_block.h"

#include <gtest/gtest.h>

#include <random>

#include "gpu/launch.h"
#include "tcf/tcf.h"
#include "tcf/tcf_params.h"

namespace gf::tcf {
namespace {

TEST(TcfBlock, AlignedClaimAndLoad) {
  tcf_block_aligned<16, 32> b;
  for (unsigned i = 0; i < 32; ++i) EXPECT_TRUE(b.is_empty(b.load(i)));
  EXPECT_TRUE(b.try_claim(5, kEmpty, 0x1234));
  EXPECT_EQ(b.load(5), 0x1234);
  EXPECT_FALSE(b.try_claim(5, kEmpty, 0x9999));  // already occupied
  EXPECT_EQ(b.load(5), 0x1234);
}

TEST(TcfBlock, AlignedDeleteToTombstoneAndReclaim) {
  tcf_block_aligned<16, 16> b;
  ASSERT_TRUE(b.try_claim(3, kEmpty, 77));
  EXPECT_FALSE(b.try_delete(3, 78));  // wrong fingerprint
  EXPECT_TRUE(b.try_delete(3, 77));
  EXPECT_TRUE(b.is_tombstone(b.load(3)));
  // Tombstones are claimable.
  EXPECT_TRUE(b.try_claim(3, kTombstone, 99));
  EXPECT_EQ(b.load(3), 99);
}

TEST(TcfBlock, Aligned8BitVariant) {
  tcf_block_aligned<8, 16> b;
  EXPECT_TRUE(b.try_claim(0, kEmpty, 0xAB));
  EXPECT_EQ(b.load(0), 0xAB);
  EXPECT_TRUE(b.try_delete(0, 0xAB));
  EXPECT_TRUE(b.is_tombstone(b.load(0)));
}

TEST(TcfBlock, Packed12RoundTripAllSlots) {
  tcf_block_packed12<32> b;
  // Fingerprints must carry a nonzero low nibble (the remap invariant).
  for (unsigned i = 0; i < 32; ++i) {
    uint16_t fp = remap_fingerprint<12, true>(0x100 + i * 37);
    ASSERT_TRUE(b.try_claim(i, kEmpty, fp)) << i;
    ASSERT_EQ(b.load(i), fp) << i;
  }
  // Every slot still holds its value after all the straddling writes.
  for (unsigned i = 0; i < 32; ++i) {
    uint16_t fp = remap_fingerprint<12, true>(0x100 + i * 37);
    ASSERT_EQ(b.load(i), fp) << i;
  }
}

TEST(TcfBlock, Packed12StateNibbles) {
  tcf_block_packed12<16> b;
  EXPECT_TRUE(b.is_empty(b.load(7)));
  uint16_t fp = remap_fingerprint<12, true>(0xABC);
  ASSERT_TRUE(b.try_claim(7, kEmpty, fp));
  EXPECT_FALSE(b.is_empty(b.load(7)));
  EXPECT_FALSE(b.is_tombstone(b.load(7)));
  ASSERT_TRUE(b.try_delete(7, fp));
  EXPECT_TRUE(b.is_tombstone(b.load(7)));
  // Reclaim the tombstone.
  EXPECT_TRUE(b.try_claim(7, kTombstone, fp));
  EXPECT_EQ(b.load(7), fp);
}

TEST(TcfBlock, Packed12NeighborIndependence) {
  // Writing a slot never disturbs its neighbors' values, including across
  // the straddling boundaries.
  tcf_block_packed12<32> b;
  uint16_t fps[32];
  for (unsigned i = 0; i < 32; ++i) {
    fps[i] = remap_fingerprint<12, true>(0x700 + i * 101);
    ASSERT_TRUE(b.try_claim(i, kEmpty, fps[i]));
  }
  for (unsigned victim = 0; victim < 32; victim += 3) {
    ASSERT_TRUE(b.try_delete(victim, fps[victim]));
    for (unsigned i = 0; i < 32; ++i) {
      if (i % 3 == 0 && i <= victim) continue;  // already tombstoned
      ASSERT_EQ(b.load(i), fps[i]) << "victim=" << victim << " i=" << i;
    }
  }
}

TEST(TcfBlock, ConcurrentClaimsExactlyOneWinnerPerSlot) {
  // 64 logical threads contend for each slot of a packed block; the claim
  // protocol must produce exactly one winner per slot.
  tcf_block_packed12<32> b;
  std::atomic<int> wins{0};
  gpu::launch_threads(32 * 64, [&](uint64_t t) {
    unsigned slot = static_cast<unsigned>(t % 32);
    uint16_t fp = remap_fingerprint<12, true>(
        static_cast<uint64_t>(0x200 + t / 32 + slot * 57));
    if (b.try_claim(slot, kEmpty, fp))
      wins.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(wins.load(), 32);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_FALSE(b.is_empty(b.load(i)));
}

TEST(TcfBlock, FillCountsOccupiedOnly) {
  tcf_block_aligned<16, 8> b;
  EXPECT_EQ(block_fill(b), 0u);
  b.try_claim(0, kEmpty, 10);
  b.try_claim(1, kEmpty, 11);
  b.try_claim(2, kEmpty, 12);
  EXPECT_EQ(block_fill(b), 3u);
  b.try_delete(1, 11);
  EXPECT_EQ(block_fill(b), 2u);  // tombstone = free space
}

// The word scan (block_find) against the per-slot reference on random
// blocks: empty slots, tombstones, the fingerprints next to the
// sentinels (2 and 3) and random ones, at every free-slot share.
template <class Filter>
void check_word_find_matches_slot_find() {
  using block = typename Filter::block_type;
  constexpr unsigned kVal = Filter::kValBits;
  constexpr unsigned kFpMax = (1u << Filter::kFpBits) - 1;
  constexpr uint16_t kFpMin = kVal > 0 ? 1 : 2;  // hash_key's sentinel remap
  static_assert(block::kWordScan, "these layouts find by words");
  std::mt19937_64 rng(99 + Filter::kFpBits + block::kSlots);
  auto random_fp = [&] {
    switch (rng() % 4) {
      case 0: return uint16_t{2};
      case 1: return uint16_t{3};
      default:
        return static_cast<uint16_t>(kFpMin + rng() % (kFpMax - kFpMin + 1));
    }
  };
  for (int trial = 0; trial < 4000; ++trial) {
    block b;
    const unsigned free_share = static_cast<unsigned>(trial % 11);  // /10
    for (unsigned i = 0; i < block::kSlots; ++i) {
      if (rng() % 10 < free_share) {
        b.slots[i] = static_cast<typename block::storage_type>(
            rng() % 2 ? kEmpty : kTombstone);
      } else {
        const uint16_t value = static_cast<uint16_t>(rng() % (1u << kVal));
        b.slots[i] = static_cast<typename block::storage_type>(
            (random_fp() << kVal) | value);
      }
    }
    for (int q = 0; q < 8; ++q) {
      uint16_t fp = random_fp();
      if (q < 2) {  // a fingerprint the block holds, when it holds any
        unsigned i = static_cast<unsigned>(rng() % block::kSlots);
        if (!block::is_empty(b.load(i)) && !block::is_tombstone(b.load(i)))
          fp = static_cast<uint16_t>(b.load(i) >> kVal);
      }
      ASSERT_EQ(block_find<kVal>(b, fp), detail::block_find_slots<kVal>(b, fp))
          << "trial " << trial << " fp " << fp;
    }
  }
}

TEST(TcfBlock, WordFindMatchesSlotFind8x8) {
  check_word_find_matches_slot_find<tcf<8, 8>>();
}
TEST(TcfBlock, WordFindMatchesSlotFind16x16) {
  check_word_find_matches_slot_find<tcf<16, 16>>();
}
TEST(TcfBlock, WordFindMatchesSlotFindPointTcf) {
  check_word_find_matches_slot_find<point_tcf>();
}
TEST(TcfBlock, WordFindMatchesSlotFindKvTcf) {
  check_word_find_matches_slot_find<kv_tcf>();
}

TEST(TcfBlock, WordScanKeepsBlockBytes) {
  // alignas(8) on the slot array must not pad a block: snapshots and
  // bits-per-key depend on sizeof(block).
  EXPECT_EQ(sizeof(tcf<8, 8>::block_type), 8u);
  EXPECT_EQ(sizeof(tcf<16, 16>::block_type), 32u);
  EXPECT_EQ(sizeof(point_tcf::block_type), 64u);
  EXPECT_EQ(sizeof(kv_tcf::block_type), 64u);
  EXPECT_FALSE((tcf_block_aligned<8, 12>::kWordScan));
  EXPECT_EQ(sizeof(tcf_block_aligned<8, 12>), 12u);
}

TEST(TcfBlock, RemapAvoidsSentinels) {
  for (uint64_t raw = 0; raw < 70000; raw += 13) {
    uint16_t fp16 = remap_fingerprint<16, false>(raw);
    EXPECT_NE(fp16, kEmpty);
    EXPECT_NE(fp16, kTombstone);
    uint16_t fp12 = remap_fingerprint<12, true>(raw);
    EXPECT_GE(fp12 & 0xF, 2);
    EXPECT_LT(fp12, 1u << 12);
    uint16_t fp8 = remap_fingerprint<8, false>(raw);
    EXPECT_GE(fp8, 2);
  }
}

TEST(TcfBlock, GeometryFitsCacheLines) {
  // Paper §4.1: block size <= 128 bytes.
  EXPECT_LE(sizeof(tcf_block_aligned<16, 32>), 128u);
  EXPECT_LE(sizeof(tcf_block_aligned<8, 16>), 128u);
  EXPECT_LE(sizeof(tcf_block_packed12<32>), 128u);
  EXPECT_LE(sizeof(tcf_block_packed12<85>), 128u);
}

}  // namespace
}  // namespace gf::tcf
