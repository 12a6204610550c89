#include "net/replication.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/codec.h"
#include "obs/clock.h"
#include "store/store_io.h"

namespace gf::net {

std::pair<std::string, uint16_t> parse_host_port(const std::string& spec) {
  const size_t colon = spec.find_last_of(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::runtime_error("gf: expected HOST:PORT, got '" + spec + "'");
  char* end = nullptr;
  const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port < 1 || port > 65535)
    throw std::runtime_error("gf: port out of range in '" + spec + "'");
  return {spec.substr(0, colon), static_cast<uint16_t>(port)};
}

namespace {

/// Pump the socket until one complete frame decodes.  Throws
/// timeout_error after `timeout_ms` of per-read silence (armed on the fd
/// by the caller via set_io_timeouts) and runtime_error on EOF or a
/// malformed stream.
void read_frame(int fd, frame_decoder& dec, frame& f) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const decode_status st = dec.next(f);
    if (st == decode_status::error)
      throw std::runtime_error("gf: sync stream malformed: " + dec.error());
    if (st == decode_status::ok) return;
    const ssize_t n = sock_recv(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw timeout_error("gf: sync timed out waiting for data");
      throw std::runtime_error(std::string("gf: sync read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) throw std::runtime_error("gf: primary closed mid-sync");
    dec.feed(buf, static_cast<size_t>(n));
  }
}

struct assembled_snapshot {
  std::string bytes;
  uint64_t repl_seq = 0;
};

/// Assemble the chunked snapshot transfer whose chunk 0 is already in
/// `f`.  Chunks must arrive in order (the primary queues them in order on
/// one TCP stream); each one's framing and CRC were already proven by the
/// decoder.
assembled_snapshot assemble_snapshot(int fd, frame_decoder& dec,
                                     uint64_t req_seq, frame& f) {
  assembled_snapshot out;
  uint64_t total_bytes = 0;
  uint32_t total_chunks = 0, received = 0;
  for (;;) {
    if (const char* shape = validate_response(f))
      throw std::runtime_error(std::string("gf: malformed sync frame: ") +
                               shape);
    if (f.op != opcode::sync || f.sequence != req_seq)
      throw std::runtime_error("gf: unexpected frame during sync");
    if (f.status != wire_status::ok)
      throw std::runtime_error("gf: primary refused sync: " + decode_text(f));
    if (f.shard_hint != received)
      throw std::runtime_error("gf: sync chunk out of order");
    if (received == 0) {
      total_chunks = f.key_count;
      const sync_chunk_header h = decode_sync_chunk_header(f);
      out.repl_seq = h.repl_seq;
      total_bytes = h.total_bytes;
      out.bytes.reserve(total_bytes);
      out.bytes.append(
          reinterpret_cast<const char*>(f.payload.data()) + kSyncChunk0Header,
          f.payload.size() - kSyncChunk0Header);
    } else {
      if (f.key_count != total_chunks)
        throw std::runtime_error("gf: sync chunk total changed mid-transfer");
      out.bytes.append(reinterpret_cast<const char*>(f.payload.data()),
                       f.payload.size());
    }
    if (++received >= total_chunks) break;
    read_frame(fd, dec, f);
  }
  if (out.bytes.size() != total_bytes)
    throw std::runtime_error("gf: sync transfer size mismatch");
  return out;
}

/// Install an assembled snapshot: through the crash-safe file cycle when
/// this replica persists (its first snapshot on disk is the one it booted
/// from), else straight from memory.
store::filter_store install_snapshot(const assembled_snapshot& snap,
                                     const std::string& snapshot_path) {
  if (!snapshot_path.empty()) {
    store::atomic_write_file(snapshot_path, snap.bytes.data(),
                             snap.bytes.size());
    return store::load_store(snapshot_path);
  }
  std::istringstream in(snap.bytes, std::ios::binary);
  return store::load_store(in);
}

/// A multi-lane primary leads its chunked snapshot with a lane table
/// frame naming the per-lane positions the snapshot captures.  When the
/// frame in hand is one, consume it and load the next frame (chunk 0);
/// a single-lane transfer has no table and the vector comes back empty.
std::vector<uint64_t> maybe_take_lane_table(int fd, frame_decoder& dec,
                                            uint64_t req_seq, frame& f) {
  if (f.op != opcode::sync || f.status != wire_status::ok ||
      f.shard_hint != kSyncLaneTableHint)
    return {};
  if (const char* shape = validate_response(f))
    throw std::runtime_error(std::string("gf: malformed sync frame: ") +
                             shape);
  if (f.sequence != req_seq)
    throw std::runtime_error("gf: unexpected frame during sync");
  std::vector<uint64_t> lanes = decode_sync_lane_table(f);
  read_frame(fd, dec, f);
  return lanes;
}

socket_fd make_connection(const std::string& host, uint16_t port,
                          const connect_fn& connector, int timeout_ms) {
  socket_fd fd = connector ? connector(host, port) : tcp_connect(host, port);
  // Bound every read (and write) of the transfer: a primary that accepts
  // and then stalls (or a hostile invite target) must not hang the caller
  // forever — for a standby, that caller is its own event loop
  // (server.cpp's handle_invite).  Each arriving chunk resets the clock;
  // the timeout is per-silence, not per-snapshot.  The feed the caller
  // adopts afterwards is switched to non-blocking, so this setting dies
  // with the handshake.
  if (timeout_ms > 0) set_io_timeouts(fd.get(), timeout_ms);
  return fd;
}

}  // namespace

sync_result sync_from(const std::string& host, uint16_t port,
                      const std::string& snapshot_path,
                      size_t max_frame_bytes, int connect_retries,
                      int timeout_ms, const connect_fn& connector) {
  const uint64_t t_start = obs::now_ns();
  socket_fd fd;
  for (int attempt = 0;; ++attempt) {
    try {
      fd = make_connection(host, port, connector, timeout_ms);
      break;
    } catch (const std::exception&) {
      if (attempt >= connect_retries) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }

  const uint64_t req_seq = 1;
  auto req = encode_control_request(opcode::sync, req_seq);
  if (!send_all(fd.get(), req.data(), req.size()))
    throw std::runtime_error("gf: connection lost sending sync request");

  frame_decoder dec(max_frame_bytes);
  frame f;
  read_frame(fd.get(), dec, f);
  std::vector<uint64_t> lane_table =
      maybe_take_lane_table(fd.get(), dec, req_seq, f);
  assembled_snapshot snap = assemble_snapshot(fd.get(), dec, req_seq, f);
  store::filter_store st = install_snapshot(snap, snapshot_path);
  sync_result out{std::move(st),   snap.repl_seq,
                  {},              snap.bytes.size(),
                  obs::now_ns() - t_start, std::move(fd), std::move(dec)};
  out.lane_seqs = lane_table.empty()
                      ? std::vector<uint64_t>{snap.repl_seq}
                      : std::move(lane_table);
  return out;
}

resync_result sync_resume(const std::string& host, uint16_t port,
                          std::span<const uint64_t> lane_lasts,
                          const std::string& snapshot_path,
                          size_t max_frame_bytes, int timeout_ms,
                          const connect_fn& connector) {
  if (lane_lasts.empty())
    throw std::runtime_error("gf: resync needs at least one lane position");
  const uint64_t t_start = obs::now_ns();
  socket_fd fd = make_connection(host, port, connector, timeout_ms);

  const uint64_t req_seq = 1;
  auto req = encode_sync_resume_request(req_seq, lane_lasts);
  if (!send_all(fd.get(), req.data(), req.size()))
    throw std::runtime_error("gf: connection lost sending resume request");

  frame_decoder dec(max_frame_bytes);
  frame f;
  read_frame(fd.get(), dec, f);
  if (const char* shape = validate_response(f))
    throw std::runtime_error(std::string("gf: malformed resync frame: ") +
                             shape);
  if (f.op != opcode::sync || f.sequence != req_seq)
    throw std::runtime_error("gf: unexpected frame during resync");
  if (f.status != wire_status::ok)
    throw std::runtime_error("gf: primary refused resync: " + decode_text(f));

  resync_result out;
  if (f.shard_hint == kSyncDeltaHint) {
    // Delta granted: the replayed frames (if any) follow on this same
    // connection, indistinguishable from live stream traffic — the
    // event loop applies them by sequence like any other.  Per-lane
    // spans; the primary only grants when its lane layout matched ours.
    const std::vector<sync_delta_header> lanes = decode_sync_delta_lanes(f);
    if (lanes.size() != lane_lasts.size())
      throw std::runtime_error("gf: resync lane count mismatch");
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].resume_from != lane_lasts[i])
        throw std::runtime_error("gf: resync resume point mismatch");
      out.lane_seqs.push_back(lanes[i].upto);
      // Summed lane-local positions; lane 0's alone is its plain sequence.
      out.repl_seq += lane_local(lanes[i].upto);
    }
    out.kind = resync_kind::delta;
    out.resume_from = lane_lasts[0];
    out.bootstrap_ns = obs::now_ns() - t_start;
    out.feed = std::move(fd);
    out.dec = std::move(dec);
    return out;
  }

  // Snapshot fallback: the frame in hand is a lane table (multi-lane
  // primary) or already chunk 0 of a full bootstrap.
  std::vector<uint64_t> lane_table =
      maybe_take_lane_table(fd.get(), dec, req_seq, f);
  assembled_snapshot snap = assemble_snapshot(fd.get(), dec, req_seq, f);
  out.kind = resync_kind::snapshot;
  out.store.emplace(install_snapshot(snap, snapshot_path));
  out.repl_seq = snap.repl_seq;
  out.lane_seqs = lane_table.empty()
                      ? std::vector<uint64_t>{snap.repl_seq}
                      : std::move(lane_table);
  out.resume_from = lane_lasts[0];
  out.snapshot_bytes = snap.bytes.size();
  out.bootstrap_ns = obs::now_ns() - t_start;
  out.feed = std::move(fd);
  out.dec = std::move(dec);
  return out;
}

}  // namespace gf::net
