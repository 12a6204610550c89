// TCF block storage.
//
// A block holds `NumSlots` fingerprints of `FpBits` each and is sized to
// fit GPU cache lines (paper §4: "blocks sized to fit inside a GPU cache
// line"; §4.1 caps a block at 128 bytes).  Two layouts:
//
//   * aligned (FpBits 8 or 16): one fingerprint per machine word; every
//     operation is a single atomic transaction, matching "inserts and
//     queries can be performed in one transaction" (§6.3).
//   * packed (FpBits 12): fingerprints are packed end-to-end; 50% of the
//     slots straddle a 32-bit word boundary, so those need two atomic
//     transactions and "an atomicCAS could fail due to a change in bits
//     outside of the slot being operated on" (§4.1).  Failed claims
//     surface to the caller, which re-ballots (Algorithm 1's retry loop).
//
// Block API (used by Algorithm 1 in tcf.h):
//   load(i)                 -> current slot value (12/16/8-bit composite)
//   is_empty/is_tombstone   -> slot-state predicates on a loaded value
//   try_claim(i, state, fp) -> claim an empty/tombstone slot for fp
//   try_delete(i, fp)       -> tombstone a slot believed to hold fp
// and the whole-block scans block_find (first slot holding a fingerprint)
// and block_fill (occupied-slot count).
//
// Word reads (aligned layout, little-endian hosts, blocks a whole number
// of 64-bit words: tcf<8,8>, tcf<16,16>, point_tcf, kv_tcf): block_find
// reads the block as 64-bit words, each one acquire atomic load through an
// alignas(8) slot array and a may_alias word type, so a 16-bit x 32-slot
// block is 8 loads instead of 32.  Slot w * lanes + j is lane j of word w.
// One SWAR zero-lane test then checks every lane of the word at once (the
// CPU form of Algorithm 1's cooperative-group ballot).  On a block no one
// is writing it answers exactly as the per-slot loop does; under
// concurrent writers a word load sees its lanes at one instant, where the
// loop saw each slot at its own.  block_fill stays per slot: a word-wide
// fill (free-lane flags summed by a multiply) answered alike but made
// point inserts at 2/3 load about 30% slower on a 4-core Xeon guest, g++ 12
// (85 -> 110-130 ns/key, 2.8M keys into 2^22 slots), while lookups got
// faster.  Claims and deletes stay per-slot CASes, so the table bytes,
// snapshots and the WAL are the same.  The packed-12 layout, and blocks
// that are not whole words (the alignment would pad them), keep the
// per-slot find.
//
// Packed-12 concurrency protocol: the low nibble of a slot encodes its
// state (0 empty, 1 tombstone, >=2 occupied; tcf_params.h remaps
// fingerprints so their low nibble is >= 2), and the nibble always lives in
// the word holding the slot's low bits.  All ownership transitions are a
// single CAS on that word; only the claimant then writes the slot's high
// bits.  A reader racing with a straddling-slot write can observe a
// transient mixed fingerprint — a possible extra false positive, never a
// structural corruption.  Like the paper's design, deleting a key whose
// insert has not completed is an application-level race with undefined
// results.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "gpu/atomics.h"
#include "tcf/tcf_params.h"
#include "util/counters.h"

namespace gf::tcf {

/// Aligned layout: FpBits ∈ {8, 16}.
template <unsigned FpBits, unsigned NumSlots>
struct tcf_block_aligned {
  static_assert(FpBits == 8 || FpBits == 16);
  static_assert(NumSlots >= 1 && NumSlots <= 128);
  static_assert(NumSlots * FpBits <= 128 * 8, "block must fit a cache line");
  using storage_type = std::conditional_t<FpBits == 8, uint8_t, uint16_t>;
  static constexpr unsigned kSlots = NumSlots;
  static constexpr unsigned kFpBits = FpBits;
  static constexpr bool kNeedsNonzeroNibble = false;
  /// block_find reads whole 64-bit words (see the header).  Only for
  /// blocks that are whole words, so the alignment below never pads one.
  static constexpr bool kWordScan =
      std::endian::native == std::endian::little &&
      NumSlots * sizeof(storage_type) % 8 == 0;
  static constexpr unsigned kLanes = 64 / FpBits;
  static constexpr unsigned kWords = NumSlots / kLanes;

  alignas(kWordScan ? 8 : alignof(storage_type))
      storage_type slots[NumSlots] = {};

  static constexpr bool is_empty(uint16_t v) { return v == kEmpty; }
  static constexpr bool is_tombstone(uint16_t v) { return v == kTombstone; }

  uint16_t load(unsigned i) const { return gpu::atomic_load(&slots[i]); }

  /// Slots [w * kLanes, (w + 1) * kLanes), the first in the low lane.
  uint64_t load_word(unsigned w) const
    requires kWordScan
  {
    using word [[gnu::may_alias]] = uint64_t;
    return __atomic_load_n(reinterpret_cast<const word*>(slots) + w,
                           __ATOMIC_ACQUIRE);
  }

  bool try_claim(unsigned i, uint16_t observed_state, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    bool ok = gpu::atomic_cas_bool(&slots[i],
                                   static_cast<storage_type>(observed_state),
                                   static_cast<storage_type>(fp));
    if (!ok) GF_COUNT(cas_failures, 1);
    return ok;
  }

  bool try_delete(unsigned i, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    bool ok = gpu::atomic_cas_bool(&slots[i], static_cast<storage_type>(fp),
                                   static_cast<storage_type>(kTombstone));
    if (!ok) GF_COUNT(cas_failures, 1);
    return ok;
  }
};

/// Packed layout: FpBits == 12, slots straddle 32-bit words.
template <unsigned NumSlots>
struct tcf_block_packed12 {
  static_assert(NumSlots >= 1 && NumSlots <= 85);  // 85*12 bits <= 128B
  static constexpr unsigned kSlots = NumSlots;
  static constexpr unsigned kFpBits = 12;
  static constexpr bool kNeedsNonzeroNibble = true;
  static constexpr bool kWordScan = false;
  static constexpr unsigned kWords = (NumSlots * 12 + 31) / 32;

  uint32_t words[kWords] = {};

  static constexpr bool is_empty(uint16_t v) { return (v & 0xF) == 0; }
  static constexpr bool is_tombstone(uint16_t v) { return (v & 0xF) == 1; }

  uint16_t load(unsigned i) const {
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    uint32_t lo = gpu::atomic_load(&words[w]);
    if (sh + 12 <= 32) return static_cast<uint16_t>((lo >> sh) & 0xFFF);
    uint32_t hi = gpu::atomic_load(&words[w + 1]);
    unsigned lo_bits = 32 - sh;
    return static_cast<uint16_t>(((lo >> sh) | (hi << lo_bits)) & 0xFFF);
  }

  bool try_claim(unsigned i, uint16_t observed_state, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    if (sh + 12 <= 32) {
      // Non-straddling: single transaction on the containing word; fails
      // if *any* bit of the word changed (paper §4.1).
      uint32_t cur = gpu::atomic_load(&words[w]);
      uint16_t slot = static_cast<uint16_t>((cur >> sh) & 0xFFF);
      if (slot != observed_state ||
          !gpu::atomic_cas_bool(&words[w], cur,
                                (cur & ~(0xFFFu << sh)) |
                                    (static_cast<uint32_t>(fp) << sh))) {
        GF_COUNT(cas_failures, 1);
        return false;
      }
      return true;
    }
    // Straddling: claim on the low word (state nibble lives there), then
    // the new owner writes the high bits with a CAS loop over its bits.
    unsigned lo_bits = 32 - sh;
    uint32_t lo_mask = ((1u << lo_bits) - 1) << sh;
    uint32_t cur = gpu::atomic_load(&words[w]);
    uint32_t slot_lo = (cur & lo_mask) >> sh;
    if ((slot_lo & 0xF) != (observed_state & 0xF) ||
        !gpu::atomic_cas_bool(
            &words[w], cur,
            (cur & ~lo_mask) |
                ((static_cast<uint32_t>(fp) << sh) & lo_mask))) {
      GF_COUNT(cas_failures, 1);
      return false;
    }
    GF_COUNT(cas_attempts, 1);  // second transaction ("50% ... two", §4.1)
    unsigned hi_bits = 12 - lo_bits;
    uint32_t hi_mask = (1u << hi_bits) - 1;
    uint32_t des_hi = static_cast<uint32_t>(fp) >> lo_bits;
    for (;;) {
      uint32_t h = gpu::atomic_load(&words[w + 1]);
      uint32_t want = (h & ~hi_mask) | des_hi;
      if (h == want || gpu::atomic_cas_bool(&words[w + 1], h, want))
        return true;
    }
  }

  bool try_delete(unsigned i, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    if (sh + 12 <= 32) {
      uint32_t cur = gpu::atomic_load(&words[w]);
      if (((cur >> sh) & 0xFFF) != fp ||
          !gpu::atomic_cas_bool(
              &words[w], cur,
              (cur & ~(0xFFFu << sh)) |
                  (static_cast<uint32_t>(kTombstone) << sh))) {
        GF_COUNT(cas_failures, 1);
        return false;
      }
      return true;
    }
    // Straddling delete: single CAS on the low word sets the state nibble
    // to TOMBSTONE; stale high bits are ignored by is_tombstone().
    unsigned lo_bits = 32 - sh;
    uint32_t lo_mask = ((1u << lo_bits) - 1) << sh;
    uint32_t cur = gpu::atomic_load(&words[w]);
    uint32_t slot_lo = (cur & lo_mask) >> sh;
    uint32_t fp_lo = fp & ((1u << lo_bits) - 1);
    // Verify the full fingerprint before tombstoning (high bits too).
    uint32_t hi = gpu::atomic_load(&words[w + 1]);
    unsigned hi_bits = 12 - lo_bits;
    uint32_t slot_hi = hi & ((1u << hi_bits) - 1);
    uint16_t full = static_cast<uint16_t>(slot_lo | (slot_hi << lo_bits));
    if (slot_lo != fp_lo || full != fp ||
        !gpu::atomic_cas_bool(
            &words[w], cur,
            (cur & ~lo_mask) |
                (static_cast<uint32_t>(kTombstone) << sh))) {
      GF_COUNT(cas_failures, 1);
      return false;
    }
    return true;
  }
};

/// Layout selector.
template <unsigned FpBits, unsigned NumSlots>
struct tcf_block_selector {
  using type = tcf_block_aligned<FpBits, NumSlots>;
};
template <unsigned NumSlots>
struct tcf_block_selector<12, NumSlots> {
  using type = tcf_block_packed12<NumSlots>;
};

template <unsigned FpBits, unsigned NumSlots>
using tcf_block = typename tcf_block_selector<FpBits, NumSlots>::type;

namespace detail {

/// `v` in every Bits-wide lane of a word.
template <unsigned Bits>
constexpr uint64_t lanes(uint64_t v) {
  return ~uint64_t{0} / ((uint64_t{1} << Bits) - 1) * v;
}

/// The high bit of every Bits-wide lane of `x` that is zero, and nothing
/// else.  Exact: (x & low) + low never carries out of its lane.
template <unsigned Bits>
constexpr uint64_t zero_lanes(uint64_t x) {
  constexpr uint64_t low = lanes<Bits>((uint64_t{1} << (Bits - 1)) - 1);
  return ~(((x & low) + low) | x | low);
}

/// Per-slot find: the packed-12 path, and the reference the word scan is
/// tested against.
template <unsigned ValBits, class Block>
int block_find_slots(const Block& b, uint16_t fp) {
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    if (Block::is_empty(v) || Block::is_tombstone(v)) continue;
    if (static_cast<uint16_t>(v >> ValBits) == fp) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace detail

/// First slot whose bits above its `ValBits` value bits equal `fp`, or -1.
/// `fp` is never a sentinel: every slot it matches exceeds kTombstone
/// (tcf::hash_key remaps it so), so a word match needs no state test.
template <unsigned ValBits, class Block>
int block_find(const Block& b, uint16_t fp) {
  if constexpr (Block::kWordScan) {
    constexpr unsigned kBits = Block::kFpBits;
    constexpr uint64_t key_bits =
        detail::lanes<kBits>(((1u << kBits) - 1) & ~((1u << ValBits) - 1));
    const uint64_t want = detail::lanes<kBits>(uint64_t{fp} << ValBits);
    for (unsigned w = 0; w < Block::kWords; ++w) {
      uint64_t hit =
          detail::zero_lanes<kBits>((b.load_word(w) ^ want) & key_bits);
      if (hit)
        return static_cast<int>(w * Block::kLanes +
                                std::countr_zero(hit) / kBits);
    }
    return -1;
  } else {
    return detail::block_find_slots<ValBits>(b, fp);
  }
}

/// Occupied-slot count ("fill"), used for the POTC choice and the shortcut
/// cutoff.  Tombstones count as free space.  Per slot even where block_find
/// reads words: a word-wide fill made inserts at 2/3 load slower (see the
/// header).
template <class Block>
unsigned block_fill(const Block& b) {
  unsigned fill = 0;
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    if (!Block::is_empty(v) && !Block::is_tombstone(v)) ++fill;
  }
  return fill;
}

}  // namespace gf::tcf
