// The replication stream's one log: a byte-budgeted memory window per
// replication lane (net/lane.h) in front of an optional disk tier, the WAL
// (persist/durability.h).
//
// The server pushes every mutation it replicates as the encoded, sequence-
// stamped wire frame — exactly the bytes a live subscriber saw.  push()
// appends it to the WAL first, then records it in its lane's window.  A
// reconnecting replica's resume is answered from the window while it
// reaches back far enough, from the WAL once it has wrapped, and by a
// snapshot bootstrap when neither tier covers the gap.  Windows are
// byte-budgeted (a 4 Ki-key frame and a 1-key frame are wildly different
// replay costs), evict oldest-first so each holds a contiguous range, and
// sit on their own cache lines because a multi-reactor primary's reactors
// push concurrently, one per lane.  split() and clear() must run quiesced
// or on the one thread that pushes every lane.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/lane.h"

namespace gf::persist {
class durability_engine;  // persist/durability.h
}

namespace gf::net {

class replay_ring {
 public:
  enum class tier : uint8_t { memory, disk };  ///< who served encode_from

  /// `budget_bytes` bounds each lane window's stored frame bytes until
  /// split() divides it; 0 disables the memory tier.  `disk`, when set, is
  /// the WAL every push appends to; its lifecycle (recover, reset,
  /// checkpoint) stays with its owner.
  explicit replay_ring(size_t budget_bytes,
                       persist::durability_engine* disk = nullptr);

  /// Give each lane window budget_bytes / `lanes`, evicting down to it.
  void split(uint32_t lanes);

  /// Log one frame stamped `seq`: WAL append (throws as the WAL does,
  /// before anything is recorded), then the lane's window.  A lane's
  /// sequences arrive ascending; a non-contiguous push clears that window
  /// first, since a gap would make it unreplayable.  The newest frame is
  /// kept even when it alone exceeds the budget.
  void push(uint64_t seq, std::shared_ptr<const std::vector<uint8_t>> encoded);
  void push(uint64_t seq, std::vector<uint8_t> encoded);

  /// True when either tier holds every frame in (after_seq, current_seq]
  /// (both stamp one lane), or when after_seq == current_seq.
  bool covers(uint64_t after_seq, uint64_t current_seq) const;

  /// Append every logged frame of after_seq's lane above after_seq to
  /// `out` in order — from the window when it reaches back to
  /// after_seq + 1 (or there is no disk tier), else from the WAL — and
  /// report the tier in `used`.  Returns the frame count.  Check covers()
  /// first.
  size_t encode_from(uint64_t after_seq, std::vector<uint8_t>& out,
                     tier* used = nullptr) const;

  /// True when push() records anywhere (a memory budget or a disk tier).
  bool recording() const { return budget_ != 0 || disk_ != nullptr; }
  /// Drop every window (a new lineage); the WAL is its owner's to reset.
  void clear();

  bool empty() const { return size() == 0; }
  size_t size() const;   ///< frames held in memory, all lanes
  size_t bytes() const;  ///< encoded bytes held in memory, all lanes
  /// Oldest sequence in `lane`'s window; meaningless when it is empty.
  uint64_t first_seq(uint32_t lane = 0) const;

 private:
  struct entry {
    uint64_t seq;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
  };
  struct alignas(64) window {  ///< one lane's memory tier
    size_t budget = 0, bytes = 0;
    std::deque<entry> frames;
    void trim();
    void drop();
  };

  size_t budget_;
  persist::durability_engine* disk_;
  std::array<window, kMaxLanes> lanes_;
};

}  // namespace gf::net
