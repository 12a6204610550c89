#include "net/replay_ring.h"

#include "persist/durability.h"

namespace gf::net {

replay_ring::replay_ring(size_t budget_bytes, persist::durability_engine* disk)
    : budget_(budget_bytes), disk_(disk) {
  split(1);
}

void replay_ring::split(uint32_t lanes) {
  for (window& w : lanes_) {
    w.budget = budget_ / (lanes == 0 ? 1 : lanes);
    w.trim();
  }
}

void replay_ring::push(uint64_t seq,
                       std::shared_ptr<const std::vector<uint8_t>> encoded) {
  window& w = lanes_.at(lane_of(seq));
  if (disk_ != nullptr) disk_->append(seq, *encoded);
  if (w.budget == 0) return;
  if (!w.frames.empty() && seq != w.frames.back().seq + 1) w.drop();
  w.bytes += encoded->size();
  w.frames.push_back({seq, std::move(encoded)});
  w.trim();
}

void replay_ring::push(uint64_t seq, std::vector<uint8_t> encoded) {
  push(seq, std::make_shared<const std::vector<uint8_t>>(std::move(encoded)));
}

void replay_ring::window::trim() {
  // Oldest first, but keep the newest frame: a lone over-budget frame can
  // still serve a 1-frame delta, which beats forcing a snapshot.
  while (bytes > budget && frames.size() > 1) {
    bytes -= frames.front().bytes->size();
    frames.pop_front();
  }
  if (budget == 0) drop();
}

void replay_ring::window::drop() {
  frames.clear();
  bytes = 0;
}

bool replay_ring::covers(uint64_t after_seq, uint64_t current_seq) const {
  if (after_seq == current_seq) return true;  // already current; empty delta
  const uint32_t l = lane_of(after_seq);
  if (after_seq > current_seq || l >= kMaxLanes) return false;
  const std::deque<entry>& f = lanes_[l].frames;
  // The window needs (after_seq, current_seq]: it must start at or below
  // after_seq + 1 and reach current_seq.
  if (!f.empty() && f.front().seq <= after_seq + 1 &&
      f.back().seq >= current_seq)
    return true;
  return disk_ != nullptr && disk_->covers(after_seq, current_seq);
}

size_t replay_ring::encode_from(uint64_t after_seq, std::vector<uint8_t>& out,
                                tier* used) const {
  const uint32_t l = lane_of(after_seq);
  if (l >= kMaxLanes) return 0;
  const std::deque<entry>& f = lanes_[l].frames;
  const bool from_disk =
      disk_ != nullptr && (f.empty() || f.front().seq > after_seq + 1);
  if (used != nullptr) *used = from_disk ? tier::disk : tier::memory;
  if (from_disk) return disk_->encode_from(after_seq, out);
  size_t n = 0;
  for (const entry& e : f) {
    if (e.seq <= after_seq) continue;
    out.insert(out.end(), e.bytes->begin(), e.bytes->end());
    ++n;
  }
  return n;
}

void replay_ring::clear() {
  for (window& w : lanes_) w.drop();
}

size_t replay_ring::size() const {
  size_t n = 0;
  for (const window& w : lanes_) n += w.frames.size();
  return n;
}

size_t replay_ring::bytes() const {
  size_t n = 0;
  for (const window& w : lanes_) n += w.bytes;
  return n;
}

uint64_t replay_ring::first_seq(uint32_t lane) const {
  const window& w = lanes_.at(lane);
  return w.frames.empty() ? 0 : w.frames.front().seq;
}

}  // namespace gf::net
