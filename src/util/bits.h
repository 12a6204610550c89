// Bit-manipulation primitives used throughout the filters.
//
// The quotient-filter family (GQF, SQF, RSQF) relies on word-level rank and
// select over the occupieds/runends bitvectors; the TCF relies on ballot
// masks and find-first-set.  Everything here is branch-light.  The default
// build sets no -march, so std::popcount is a libgcc call, not POPCNT.
// select64 is the one primitive chosen at run time: on x86-64 it takes BMI2
// PDEP when the CPU has it (checked once per process), else the portable
// byte loop, so the fast select needs no flag and the binary still runs on
// CPUs without BMI2.  This header is the only place in src/ that spells a
// popcount builtin or a BMI2 intrinsic (tools/lint_invariants.py check 5).
#pragma once

#include <bit>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gf::util {

/// Mask with the low `n` bits set.  `n` must be <= 64; `n == 64` yields all
/// ones (the shift-by-64 UB case is handled explicitly).
constexpr uint64_t bitmask(uint64_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// Number of set bits.
constexpr int popcount(uint64_t x) { return std::popcount(x); }

/// Rank: number of set bits in `x` at positions [0, pos] (inclusive).
constexpr int bitrank(uint64_t x, int pos) {
  return std::popcount(x & bitmask(static_cast<uint64_t>(pos) + 1));
}

/// popcount ignoring the low `ignore` bits.
constexpr int popcountv(uint64_t x, int ignore) {
  return std::popcount(x & ~bitmask(static_cast<uint64_t>(ignore)));
}

/// Index of the lowest set bit, or 64 if none (CUDA __ffs semantics shifted:
/// __ffs returns 1-based, this returns 0-based or 64).
constexpr int find_first_set(uint64_t x) {
  return x == 0 ? 64 : std::countr_zero(x);
}

/// 32-bit variant used by ballot masks.
constexpr int find_first_set(uint32_t x) {
  return x == 0 ? 32 : std::countr_zero(x);
}

namespace detail {
// Portable select fallback: byte-skipping binary reduction.
inline int select64_portable(uint64_t x, int k) {
  // Returns position of the (k+1)-th set bit (k is 0-based), or 64.
  for (int byte = 0; byte < 8; ++byte) {
    int c = std::popcount((x >> (byte * 8)) & 0xffu);
    if (k < c) {
      uint8_t b = static_cast<uint8_t>(x >> (byte * 8));
      for (int bit = 0; bit < 8; ++bit) {
        if (b & (1u << bit)) {
          if (k == 0) return byte * 8 + bit;
          --k;
        }
      }
    }
    k -= c;
  }
  return 64;
}

#if defined(__x86_64__)
// PDEP select (the "fast x86 select" of Pandey et al., arXiv:1706.00990):
// deposit bit k into the set-bit positions of x; the result's lowest set
// bit is the answer.  Compiled for BMI2 on its own, so it is only called
// after has_bmi2 says the CPU can run it.  k >= 64 answers 64 like the
// portable path (1 << k would be undefined there).
[[gnu::target("bmi2")]] inline int select64_pdep(uint64_t x, int k) {
  if (k >= 64) return 64;
  uint64_t spread = _pdep_u64(uint64_t{1} << k, x);
  return spread == 0 ? 64 : std::countr_zero(spread);
}

/// Decided once, before main.  A select64 that runs during another
/// translation unit's static initialisation, before this is set, reads the
/// zero-initialised false and takes the portable path: slower, same answer.
inline const bool has_bmi2 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") != 0;
}();
#endif
}  // namespace detail

/// Select: position of the (k+1)-th set bit of `x` (k 0-based), 64 if fewer
/// than k+1 bits are set.  PDEP where the CPU has BMI2, the portable loop
/// everywhere else.
inline int select64(uint64_t x, int k) {
#if defined(__x86_64__)
  if (detail::has_bmi2) return detail::select64_pdep(x, k);
#endif
  return detail::select64_portable(x, k);
}

/// Select ignoring the low `ignore` bits of `x` (gqf `bitselectv`).
inline int select64v(uint64_t x, int ignore, int k) {
  return select64(x & ~bitmask(static_cast<uint64_t>(ignore)), k);
}

/// Round up to the next power of two (returns `x` when already a power of
/// two; undefined for x == 0 per std::bit_ceil).
constexpr uint64_t next_pow2(uint64_t x) { return std::bit_ceil(x); }

/// floor(log2(x)); x must be nonzero.
constexpr int log2_floor(uint64_t x) { return 63 - std::countl_zero(x); }

/// ceil(log2(x)); x must be nonzero.
constexpr int log2_ceil(uint64_t x) {
  return x <= 1 ? 0 : 64 - std::countl_zero(x - 1);
}

/// Shift a range of bits [start, end) within a 64-bit word left by one
/// position (towards higher indices), leaving bit `start` cleared and
/// discarding the old bit end-1.  Bits outside the range are preserved.
constexpr uint64_t shift_bits_left_in_word(uint64_t word, int start, int end) {
  uint64_t range_mask = bitmask(static_cast<uint64_t>(end)) &
                        ~bitmask(static_cast<uint64_t>(start));
  uint64_t range = word & range_mask;
  uint64_t shifted = (range << 1) & range_mask;
  return (word & ~range_mask) | shifted;
}

}  // namespace gf::util
