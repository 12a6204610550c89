// Replication lane stamping — lane id + lane-local sequence in one u64.
//
// A multi-reactor server (net/server.h) advances one mutation-stream
// sequence *per reactor*: reactor k owns a contiguous shard slice and
// stamps the frames it replicates on lane k.  The wire format's u64
// sequence field carries both halves — the lane id in the top byte, the
// lane-local position below — so every consumer of a stream sequence
// (subscribers, the replay log, gap detection, the WAL) can recover the
// lane without a schema change.
//
// Lane 0 is special by construction: lane_seq(0, n) == n, so a
// single-reactor server (the default) emits exactly the plain sequences
// every pre-lane peer, test, and on-disk artifact expects — bit-for-bit.
#pragma once

#include <cstdint>

namespace gf::net {

/// Top-byte lane field: 16 lanes is plenty (reactors are cores), and a
/// 56-bit lane-local position still never wraps in practice.
inline constexpr uint32_t kLaneShift = 56;
inline constexpr uint32_t kMaxLanes = 16;
inline constexpr uint64_t kLaneLocalMask =
    (uint64_t{1} << kLaneShift) - 1;

constexpr uint32_t lane_of(uint64_t seq) {
  return static_cast<uint32_t>(seq >> kLaneShift);
}

constexpr uint64_t lane_local(uint64_t seq) { return seq & kLaneLocalMask; }

constexpr uint64_t lane_seq(uint32_t lane, uint64_t local) {
  return (uint64_t{lane} << kLaneShift) | (local & kLaneLocalMask);
}

}  // namespace gf::net
