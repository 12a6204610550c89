// Rank/select word primitives: the GQF's run_end machinery is built on
// these, so they get exhaustive coverage.
#include "util/bits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>

namespace gf::util {
namespace {

TEST(Bits, BitmaskBasics) {
  EXPECT_EQ(bitmask(0), 0u);
  EXPECT_EQ(bitmask(1), 1u);
  EXPECT_EQ(bitmask(8), 0xFFu);
  EXPECT_EQ(bitmask(63), ~uint64_t{0} >> 1);
  EXPECT_EQ(bitmask(64), ~uint64_t{0});
  EXPECT_EQ(bitmask(100), ~uint64_t{0});
}

TEST(Bits, PopcountAndRank) {
  EXPECT_EQ(popcount(0), 0);
  EXPECT_EQ(popcount(~uint64_t{0}), 64);
  uint64_t x = 0b10110100;
  EXPECT_EQ(bitrank(x, 0), 0);  // bit 0 clear
  EXPECT_EQ(bitrank(x, 2), 1);  // bits {2}
  EXPECT_EQ(bitrank(x, 7), 4);  // bits {2,4,5,7}
  EXPECT_EQ(bitrank(x, 63), 4);
}

TEST(Bits, PopcountIgnoringLowBits) {
  uint64_t x = 0xFF00FF00FF00FF00ull;
  EXPECT_EQ(popcountv(x, 0), 32);
  EXPECT_EQ(popcountv(x, 8), 32);   // low 8 bits were zero anyway
  EXPECT_EQ(popcountv(x, 16), 24);  // dropped one 0xFF byte
  EXPECT_EQ(popcountv(x, 64), 0);
}

TEST(Bits, FindFirstSet) {
  EXPECT_EQ(find_first_set(uint64_t{0}), 64);
  EXPECT_EQ(find_first_set(uint64_t{1}), 0);
  EXPECT_EQ(find_first_set(uint64_t{0b1000}), 3);
  EXPECT_EQ(find_first_set(uint32_t{0}), 32);
  EXPECT_EQ(find_first_set(uint32_t{0x80000000u}), 31);
}

TEST(Bits, Select64AgainstNaive) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    uint64_t x = rng() & rng();  // ~25% density plus some dense words
    if (trial % 3 == 0) x = rng();
    int bits = popcount(x);
    for (int k = 0; k <= bits; ++k) {
      int naive = detail::select64_portable(x, k);
      EXPECT_EQ(select64(x, k), naive) << "x=" << x << " k=" << k;
    }
    EXPECT_EQ(select64(x, bits), 64);  // one past the population
  }
}

// A random word with exactly `n` set bits.
uint64_t word_with_popcount(std::mt19937_64& rng, int n) {
  std::array<int, 64> pos;
  std::iota(pos.begin(), pos.end(), 0);
  std::shuffle(pos.begin(), pos.end(), rng);
  uint64_t x = 0;
  for (int i = 0; i < n; ++i) x |= uint64_t{1} << pos[i];
  return x;
}

TEST(Bits, Select64PdepMatchesPortable) {
#if defined(__x86_64__)
  if (!detail::has_bmi2) GTEST_SKIP() << "CPU has no BMI2";
  std::mt19937_64 rng(1234);
  for (int n = 0; n <= 64; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      uint64_t x = word_with_popcount(rng, n);
      for (int k = 0; k <= 64; ++k)
        ASSERT_EQ(detail::select64_pdep(x, k), detail::select64_portable(x, k))
            << "x=" << x << " k=" << k;
    }
  }
#else
  GTEST_SKIP() << "PDEP is x86-64 only";
#endif
}

TEST(Bits, Select64PastThePopulationIs64) {
  // k >= popcount(x) has no answer; every path says 64, including k = 64
  // on a full word, where a PDEP of 1 << k would be undefined.
  const uint64_t words[] = {0, 1, 0x8000000000000000ull, 0xF0F0F0F0F0F0F0F0ull,
                            ~uint64_t{0} >> 1, ~uint64_t{0}};
  for (uint64_t x : words) {
    for (int k = popcount(x); k <= 64; ++k) {
      EXPECT_EQ(detail::select64_portable(x, k), 64) << "x=" << x << " k=" << k;
      EXPECT_EQ(select64(x, k), 64) << "x=" << x << " k=" << k;
#if defined(__x86_64__)
      if (detail::has_bmi2) {
        EXPECT_EQ(detail::select64_pdep(x, k), 64) << "x=" << x << " k=" << k;
      }
#endif
    }
  }
}

TEST(Bits, Select64IgnoresLowBits) {
  uint64_t x = 0b11110000;
  EXPECT_EQ(select64v(x, 0, 0), 4);
  EXPECT_EQ(select64v(x, 5, 0), 5);  // bit 4 masked off
  EXPECT_EQ(select64v(x, 8, 0), 64);
}

TEST(Bits, SelectRankInverse) {
  // select(x, rank(x, i) - 1) == i for every set bit i.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    uint64_t x = rng();
    for (int i = 0; i < 64; ++i) {
      if ((x >> i) & 1) {
        EXPECT_EQ(select64(x, bitrank(x, i) - 1), i);
      }
    }
  }
}

TEST(Bits, Log2Helpers) {
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(3), 1);
  EXPECT_EQ(log2_floor(1024), 10);
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(1025), 11);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4096), 4096u);
}

TEST(Bits, ShiftBitsLeftInWord) {
  // Range [2, 6): bits 2..4 move up to 3..5, bit 2 clears, old bit 5 is
  // discarded (it would leave the range).
  uint64_t w = 0b00111100;
  uint64_t shifted = shift_bits_left_in_word(w, 2, 6);
  EXPECT_EQ(shifted & 0b11u, w & 0b11u);          // below range intact
  EXPECT_EQ(shifted >> 6, w >> 6);                // above range intact
  EXPECT_EQ((shifted >> 2) & 0xFu, 0b1110u);      // 0b1111 -> 0b1110
}

}  // namespace
}  // namespace gf::util
