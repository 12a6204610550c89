// The two workloads of the repository benchmark: their parameters, their
// generated inputs, and the interfaces of the end-to-end rounds and the
// per-layer measurements that run them.
//
//   bulk_tcf   2^22 distinct uniform keys into an 8-shard TCF store behind a
//              4-reactor server: 4096-key insert frames, then queries of
//              every key plus 2^22 absent ones.  Big frames amortise the
//              wire, so store partitioning, pool launches, the TCF probe and
//              the multi-reactor mailbox handoff carry the cost.  No WAL, no
//              replica; a restart reloads the snapshot the server wrote.
//   churn_gqf  128-key mixed frames (50% insert_counted, 50% count) of
//              Zipf(0.99) keys over a 2^20 universe against an
//              8-shard GQF store behind a 1-reactor server that logs to a
//              WAL (fsync every 50 ms) and feeds one in-process replica.
//              Per-frame costs carry it: decode, WAL append, replication
//              forward and maintenance; capacity below the keys touched
//              makes auto-maintain grow cascades.
//
// Both drive the server from 2 client threads, one connection each, with
// 8 frames in flight per connection (a closed loop).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_core.h"
#include "net/frame.h"
#include "spans.h"

namespace perfbench {

namespace net = gf::net;

inline constexpr int kConns = 2;
inline constexpr size_t kWindow = 8;

struct bulk_params {
  uint64_t keys = uint64_t{1} << 22;
  uint64_t frame_keys = 4096;
  uint32_t shards = 8;
  uint32_t reactors = 4;
  /// Snapshot reloads per round; a reload takes about 3 ms, so the round
  /// reports the median of several.
  int restart_repeats = 9;
  uint64_t capacity() const { return keys + keys / 2; }
  uint64_t frames() const { return keys / frame_keys; }
};

struct churn_params {
  uint64_t universe_per_conn = uint64_t{1} << 19;  ///< 2^20 over 2 conns
  double theta = 0.99;
  uint64_t frame_keys = 128;
  uint64_t frames_per_conn = 6144;
  uint32_t shards = 8;
  uint32_t reactors = 1;
  /// Below the distinct keys a round touches, so the cascades grow.
  uint64_t capacity = uint64_t{1} << 17;
  uint32_t fsync_interval_ms = 50;
  /// A round logs about 15 MiB, so about three checkpoints run in it.
  uint64_t checkpoint_every_bytes = uint64_t{5} << 20;
  /// Every 4th key of a count frame is absent (the false-positive probe).
  uint64_t absent_every = 4;
  /// WAL recoveries per round (each replays the tail past the last
  /// checkpoint, about 130 ms of CPU).
  int restart_repeats = 3;
};

/// One generated request frame and what the oracle expects of it.
struct wire_frame {
  net::opcode op = net::opcode::insert;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> counts;   ///< insert_counted multiplicities
  std::vector<uint64_t> expect;   ///< count: exact truth at submit time
  std::vector<uint8_t> absent;    ///< query/count: key certainly absent
};

// -- bulk_tcf inputs ---------------------------------------------------------

inline uint64_t bulk_salt(uint64_t seed) { return mix64(seed ^ 0xb01c7cf0ull); }

/// Insert frame f: present keys [f*frame_keys, (f+1)*frame_keys).
inline void bulk_insert_frame(const bulk_params& p, uint64_t seed, uint64_t f,
                              wire_frame& out) {
  out.op = net::opcode::insert;
  out.keys.resize(p.frame_keys);
  const uint64_t salt = bulk_salt(seed);
  for (uint64_t j = 0; j < p.frame_keys; ++j)
    out.keys[j] = key_at(salt, f * p.frame_keys + j);
}

/// Query frame q: its even slots re-read present keys [q*h, (q+1)*h) and
/// its odd slots probe absent keys, drawn from indices past every inserted
/// one (h = frame_keys / 2).  An absent key costs the TCF several times a
/// present one, so frames of only one kind would give two modes of round
/// trip, with the read median on the step between them; mixing both in
/// every frame gives every frame the same work.
inline void bulk_query_frame(const bulk_params& p, uint64_t seed, uint64_t q,
                             wire_frame& out) {
  out.op = net::opcode::query;
  out.keys.resize(p.frame_keys);
  out.absent.resize(p.frame_keys);
  const uint64_t salt = bulk_salt(seed);
  const uint64_t half = p.frame_keys / 2;
  for (uint64_t j = 0; j < p.frame_keys; ++j) {
    out.absent[j] = j % 2;
    out.keys[j] = key_at(salt, (out.absent[j] ? p.keys : 0) + q * half + j / 2);
  }
}

// -- churn_gqf inputs --------------------------------------------------------

inline uint64_t churn_salt(uint64_t seed) { return mix64(seed ^ 0xc4d2ed9full); }

/// One connection's frame stream.  Connection c owns key indices
/// [c*U, (c+1)*U), so its exact multiset is known locally; absent keys come
/// from indices above every connection's slice.
class churn_stream {
 public:
  churn_stream(const churn_params& p, const zipf_table& z, uint64_t seed,
               int conn)
      : p_(p),
        z_(z),
        g_(mix64(seed) + static_cast<uint64_t>(conn) * 0x51ed27ull),
        truth_(p.universe_per_conn),
        salt_(churn_salt(seed)),
        base_(static_cast<uint64_t>(conn) * p.universe_per_conn),
        absent_next_(static_cast<uint64_t>(kConns) * p.universe_per_conn +
                     (static_cast<uint64_t>(conn) << 40)) {}

  uint64_t key_of_rank(uint64_t rank) const {
    return key_at(salt_, base_ + rank);
  }
  const count_truth& truth() const { return truth_; }

  /// Draw the next frame, updating the exact multiset as the server will.
  void next(wire_frame& out) {
    out.keys.clear();
    out.counts.clear();
    out.expect.clear();
    out.absent.clear();
    if (g_.unit() >= 0.5) {
      out.op = net::opcode::count;
      for (uint64_t i = 0; i < p_.frame_keys; ++i) {
        if (i % p_.absent_every == p_.absent_every - 1) {
          out.keys.push_back(key_at(salt_, absent_next_++));
          out.expect.push_back(0);
          out.absent.push_back(1);
        } else {
          const uint64_t r = z_.sample(g_);
          out.keys.push_back(key_of_rank(r));
          out.expect.push_back(truth_.truth(r));
          out.absent.push_back(0);
        }
      }
      return;
    }
    out.op = net::opcode::insert_counted;
    for (uint64_t i = 0; i < p_.frame_keys; ++i) {
      const uint64_t r = z_.sample(g_);
      const uint64_t c = 1 + g_.below(3);
      out.keys.push_back(key_of_rank(r));
      out.counts.push_back(c);
      truth_.add(r, c);
    }
  }

 private:
  const churn_params& p_;
  const zipf_table& z_;
  rng g_;
  count_truth truth_;
  uint64_t salt_;
  uint64_t base_;
  uint64_t absent_next_;
};

// -- Results -----------------------------------------------------------------

/// What one end-to-end round measured.  Wall times are as the clients saw
/// them; CPU times leave out what the hypervisor stole.
struct round_result {
  double setup_s = 0;             ///< wall time of the set-up
  double setup_cpu_s = 0;         ///< CPU time of the set-up, every thread
  double write_s = 0;             ///< duration of the phase carrying the writes
  double read_s = 0;              ///< duration of the phase carrying the reads
  uint64_t server_cpu_ns = 0;     ///< server-side CPU time of every phase
  uint64_t write_keys = 0;
  uint64_t read_keys = 0;
  std::vector<double> write_us;   ///< round trip of every write frame
  std::vector<double> read_us;    ///< round trip of every read frame
  op_tally tally;
  uint64_t insert_attempted = 0;
  uint64_t insert_refused = 0;
  uint64_t absent_probes = 0;
  uint64_t absent_hits = 0;
  double bits_per_key = 0;
  double restart_ms = 0;
  double restart_cpu_ms = 0;
  double steal = 0;               ///< CPU steal share over the round
  violation_log log;
  /// Layer observations a traced round adds (name -> value).
  std::map<std::string, double> layer;
};

struct run_context {
  std::string workload;
  uint64_t seed = 1;
  std::string out_dir;  ///< scratch for snapshots and WAL directories
  span_log* spans = nullptr;
};

round_result run_bulk_round(const run_context& ctx, const bulk_params& p,
                            bool traced);
round_result run_churn_round(const run_context& ctx, const churn_params& p,
                             bool traced);

/// Per-layer measurements on the workload's own inputs (name -> value);
/// `notes` collects why a metric is absent or measured off the workload's
/// path.
std::map<std::string, double> measure_layers(const run_context& ctx,
                                             std::vector<std::string>& notes);

}  // namespace perfbench
