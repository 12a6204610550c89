#include "net/client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/bits.h"

namespace gf::net {

client::client(const std::string& host, uint16_t port, size_t max_frame_bytes,
               int timeout_ms, const connect_fn& connector)
    : fd_(connector ? connector(host, port) : tcp_connect(host, port)),
      dec_(max_frame_bytes) {
  if (timeout_ms > 0) set_io_timeouts(fd_.get(), timeout_ms);
}

void client::send_bytes(const std::vector<uint8_t>& bytes) {
  if (!send_all(fd_.get(), bytes.data(), bytes.size())) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw timeout_error("gf: send deadline expired (server stalled?)");
    throw std::runtime_error("gf: connection lost while sending");
  }
}

uint64_t client::submit_insert(std::span<const uint64_t> keys) {
  uint64_t seq = next_seq();
  send_bytes(encode_keys_request(opcode::insert, seq, keys));
  ++outstanding_;
  return seq;
}

uint64_t client::submit_insert_counted(std::span<const uint64_t> keys,
                                       std::span<const uint64_t> counts) {
  uint64_t seq = next_seq();
  send_bytes(encode_insert_counted_request(seq, keys, counts));
  ++outstanding_;
  return seq;
}

uint64_t client::submit_query(std::span<const uint64_t> keys) {
  uint64_t seq = next_seq();
  send_bytes(encode_keys_request(opcode::query, seq, keys));
  ++outstanding_;
  return seq;
}

uint64_t client::submit_erase(std::span<const uint64_t> keys) {
  uint64_t seq = next_seq();
  send_bytes(encode_keys_request(opcode::erase, seq, keys));
  ++outstanding_;
  return seq;
}

uint64_t client::submit_count(std::span<const uint64_t> keys) {
  uint64_t seq = next_seq();
  send_bytes(encode_keys_request(opcode::count, seq, keys));
  ++outstanding_;
  return seq;
}

uint64_t client::submit_control(opcode op, uint32_t shard_hint) {
  if (op == opcode::sync)
    throw std::invalid_argument(
        "gf: sync is a chunked transfer that subscribes the connection; "
        "use net::sync_from (net/replication.h)");
  uint64_t seq = next_seq();
  send_bytes(encode_control_request(op, seq, shard_hint));
  ++outstanding_;
  return seq;
}

frame client::wait(uint64_t seq) {
  if (auto it = stash_.find(seq); it != stash_.end()) {
    frame f = std::move(it->second);
    stash_.erase(it);
    --outstanding_;
    return f;
  }
  uint8_t buf[64 * 1024];
  for (;;) {
    // Drain every frame already buffered before touching the socket.
    frame f;
    for (;;) {
      decode_status st = dec_.next(f);
      if (st == decode_status::error)
        throw std::runtime_error("gf: protocol error from server: " +
                                 dec_.error());
      if (st == decode_status::need_more) break;
      if (const char* shape = validate_response(f))
        throw std::runtime_error(std::string("gf: malformed response: ") +
                                 shape);
      if (f.sequence == seq) {
        --outstanding_;
        return f;
      }
      stash_.emplace(f.sequence, std::move(f));
    }
    ssize_t n = sock_recv(fd_.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw timeout_error("gf: receive deadline expired (server stalled?)");
      throw std::runtime_error(std::string("gf: connection read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0)
      throw std::runtime_error("gf: server closed the connection");
    dec_.feed(buf, static_cast<size_t>(n));
  }
}

frame client::expect_ok(uint64_t seq, opcode op) {
  frame f = wait(seq);
  if (f.op != op)
    throw std::runtime_error("gf: response opcode mismatch");
  // ok_async is success with softened durability (the server's ack gate
  // degraded): the payload is the ordinary ok-shaped answer.
  if (f.status != wire_status::ok && f.status != wire_status::ok_async)
    throw std::runtime_error("gf: server " +
                             std::string(f.status == wire_status::unsupported
                                             ? "unsupported"
                                             : "error") +
                             ": " + decode_text(f));
  return f;
}

pair_result client::insert(std::span<const uint64_t> keys) {
  return decode_pair_response(expect_ok(submit_insert(keys), opcode::insert));
}

pair_result client::insert_counted(std::span<const uint64_t> keys,
                                   std::span<const uint64_t> counts) {
  return decode_pair_response(
      expect_ok(submit_insert_counted(keys, counts), opcode::insert_counted));
}

std::vector<uint64_t> client::query_bitmap(std::span<const uint64_t> keys,
                                           uint64_t* hits) {
  frame f = expect_ok(submit_query(keys), opcode::query);
  std::vector<uint64_t> words = decode_bitmap(f);
  if (hits) {
    uint64_t h = 0;
    for (uint64_t w : words) h += static_cast<uint64_t>(util::popcount(w));
    *hits = h;
  }
  return words;
}

bool client::query_one(uint64_t key) {
  std::span<const uint64_t> one(&key, 1);
  return query_bitmap(one)[0] & 1;
}

pair_result client::erase(std::span<const uint64_t> keys) {
  return decode_pair_response(expect_ok(submit_erase(keys), opcode::erase));
}

std::vector<uint64_t> client::counts(std::span<const uint64_t> keys) {
  return decode_counts(expect_ok(submit_count(keys), opcode::count));
}

std::string client::stats_json() {
  return decode_text(expect_ok(submit_control(opcode::stats), opcode::stats));
}

std::string client::metrics_text() {
  return decode_text(expect_ok(
      submit_control(opcode::stats, kStatsMetricsHint), opcode::stats));
}

std::string client::trace_json() {
  return decode_text(expect_ok(
      submit_control(opcode::stats, kStatsTraceHint), opcode::stats));
}

maintain_reply client::maintain() {
  return decode_maintain_response(
      expect_ok(submit_control(opcode::maintain), opcode::maintain));
}

uint64_t client::snapshot() {
  return decode_snapshot_response(
      expect_ok(submit_control(opcode::snapshot), opcode::snapshot));
}

void client::ping() {
  expect_ok(submit_control(opcode::ping), opcode::ping);
}

}  // namespace gf::net
