#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "gpu/launch.h"
#include "net/codec.h"
#include "net/mailbox.h"
#include "net/replication.h"
#include "obs/build_info.h"
#include "obs/clock.h"
#include "persist/durability.h"
#include "store/report_json.h"
#include "store/store_io.h"
#include "util/json.h"

namespace gf::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;

/// Stable opcode names for metric labels and trace events.
const char* op_name(opcode op) {
  switch (op) {
    case opcode::insert: return "insert";
    case opcode::insert_counted: return "insert_counted";
    case opcode::query: return "query";
    case opcode::erase: return "erase";
    case opcode::count: return "count";
    case opcode::stats: return "stats";
    case opcode::maintain: return "maintain";
    case opcode::snapshot: return "snapshot";
    case opcode::ping: return "ping";
    case opcode::sync: return "sync";
  }
  return "unknown";
}

/// Numeric peer address of a connected socket (the host a sync invite's
/// recipient dials back).
std::string peer_ip(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0)
    throw std::runtime_error("gf: getpeername failed");
  char buf[INET_ADDRSTRLEN] = {0};
  if (!::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf)))
    throw std::runtime_error("gf: inet_ntop failed");
  return buf;
}

// -- Fact tables --------------------------------------------------------------
// Every single-field fact is declared once, as a row: its reader, metric
// name, labels and kind, and its STATS JSON place.  register_metrics(),
// stats() and stats_json_text() are loops over the rows; only facts that
// are not one field are written out by hand.

/// How a fact renders in the scrape: a counter or an exact integer gauge.
/// A flag is a 0/1 gauge that STATS JSON shows as a bool.
enum fact_kind : uint8_t { kCounter, kGauge, kFlag };

/// The STATS JSON section a server fact shows in; scrape-only has none.
enum json_section : uint8_t { kScrapeOnly, kServer, kReplication };

void add_fact(obs::metrics_registry& reg, const char* metric,
              const char* labels, fact_kind kind,
              obs::metrics_registry::counter_fn read) {
  if (kind == kCounter)
    reg.add_counter(metric, labels, std::move(read));
  else
    reg.add_int_gauge(metric, labels, std::move(read));
}

/// The durability engine's facts (present with a WAL armed): the scrape
/// and the STATS "durability" section read the same field.
struct wal_fact {
  uint64_t persist::durability_stats::* field;
  const char* metric;
  fact_kind kind;
  const char* key;
};
using wal_stats = persist::durability_stats;
constexpr wal_fact kWalFacts[] = {
    {&wal_stats::wal_bytes, "gf_wal_bytes_total", kCounter, "wal_bytes"},
    {&wal_stats::wal_frames, "gf_wal_frames_total", kCounter, "wal_frames"},
    {&wal_stats::wal_fsyncs, "gf_wal_fsyncs_total", kCounter, "wal_fsyncs"},
    {&wal_stats::wal_segments, "gf_wal_segments", kGauge, "wal_segments"},
    {&wal_stats::segments_rotated, "gf_wal_segments_rotated_total", kCounter,
     "segments_rotated"},
    {&wal_stats::last_seq, "gf_wal_last_seq", kGauge, "wal_last_seq"},
    {&wal_stats::checkpoints, "gf_checkpoints_total", kCounter, "checkpoints"},
    {&wal_stats::checkpoint_seq, "gf_checkpoint_seq", kGauge,
     "checkpoint_seq"},
    {&wal_stats::checkpoint_bytes, "gf_checkpoint_bytes", kGauge,
     "checkpoint_bytes"},
    {&wal_stats::recovery_replayed_frames, "gf_recovery_replayed_frames",
     kGauge, "recovery_replayed_frames"},
    {&wal_stats::recovery_truncated_bytes, "gf_recovery_truncated_bytes",
     kGauge, "recovery_truncated_bytes"},
    {&wal_stats::recovery_gaps, "gf_recovery_gaps", kGauge, "recovery_gaps"},
};

/// The store's GF_COUNT structural counters (util/counters.h): always
/// registered, 0 unless the build sets GF_ENABLE_COUNTERS.
struct filter_fact {
  std::atomic<uint64_t> util::op_counters::* field;
  const char* metric;
};
using opc = util::op_counters;
constexpr filter_fact kFilterFacts[] = {
    {&opc::cache_lines_touched, "gf_filter_cache_lines_touched_total"},
    {&opc::cas_attempts, "gf_filter_cas_attempts_total"},
    {&opc::cas_failures, "gf_filter_cas_failures_total"},
    {&opc::backing_inserts, "gf_filter_backing_inserts_total"},
    {&opc::shortcut_inserts, "gf_filter_shortcut_inserts_total"},
    {&opc::ballot_rounds, "gf_filter_ballot_rounds_total"},
    {&opc::slots_shifted, "gf_filter_slots_shifted_total"},
};
}  // namespace

using snap = server_stats;
/// One server atomic, counter or gauge: the server_stats field it
/// snapshots into, its metric, and its STATS JSON key (the field's name).
struct server::fact {
  std::atomic<uint64_t> server::* atom;
  uint64_t server_stats::* field;
  fact_kind kind;
  const char* metric;
  const char* labels;
  json_section section;
  const char* key;
};

const server::fact server::kFacts[] = {
    // Wire plane.
    {&server::accepted_, &snap::connections_accepted, kCounter,
     "gf_server_connections_total", "event=\"accepted\"", kScrapeOnly,
     "connections_accepted"},
    {&server::closed_, &snap::connections_closed, kCounter,
     "gf_server_connections_total", "event=\"closed\"", kScrapeOnly,
     "connections_closed"},
    {&server::frames_, &snap::frames_served, kCounter,
     "gf_server_frames_total", "", kServer, "frames_served"},
    {&server::keys_, &snap::keys_processed, kCounter,
     "gf_server_keys_total", "", kServer, "keys_processed"},
    {&server::protocol_errors_, &snap::protocol_errors, kCounter,
     "gf_server_protocol_errors_total", "", kServer, "protocol_errors"},
    {&server::bytes_in_, &snap::bytes_in, kCounter,
     "gf_server_bytes_total", "dir=\"in\"", kServer, "bytes_in"},
    {&server::bytes_out_, &snap::bytes_out, kCounter,
     "gf_server_bytes_total", "dir=\"out\"", kServer, "bytes_out"},
    // Replication plane, primary side.
    {&server::subscribers_, &snap::subscribers, kGauge,
     "gf_repl_subscribers", "", kReplication, "subscribers"},
    {&server::frames_forwarded_, &snap::frames_forwarded, kCounter,
     "gf_repl_frames_forwarded_total", "", kReplication, "frames_forwarded"},
    {&server::subscriber_acked_, &snap::subscriber_acked, kGauge,
     "gf_repl_subscriber_acked", "", kReplication, "subscriber_acked"},
    {&server::subscriber_drops_, &snap::subscriber_drops, kCounter,
     "gf_repl_dropped_subscribers_total", "", kReplication, "subscriber_drops"},
    {&server::subscriber_errors_, &snap::subscriber_errors, kCounter,
     "gf_repl_subscriber_errors_total", "", kReplication, "subscriber_errors"},
    {&server::invites_failed_, &snap::invites_failed, kCounter,
     "gf_repl_invites_failed_total", "", kScrapeOnly, "invites_failed"},
    {&server::deltas_served_, &snap::deltas_served, kCounter,
     "gf_repl_deltas_served_total", "", kReplication, "deltas_served"},
    {&server::wal_deltas_served_, &snap::wal_deltas_served, kCounter,
     "gf_repl_wal_deltas_served_total", "", kReplication, "wal_deltas_served"},
    {&server::ack_waits_, &snap::ack_waits, kCounter,
     "gf_repl_ack_waits_total", "", kReplication, "ack_waits"},
    {&server::ack_degraded_, &snap::ack_degraded, kCounter,
     "gf_repl_ack_degraded_total", "", kReplication, "ack_degraded"},
    // Replication plane, replica side.
    {&server::feed_attached_, &snap::feed_attached, kFlag,
     "gf_repl_feed_attached", "", kReplication, "feed_attached"},
    {&server::feed_last_seq_, &snap::feed_last_seq, kGauge,
     "gf_repl_feed_last_seq", "", kReplication, "feed_last_seq"},
    {&server::feed_applied_, &snap::feed_applied, kCounter,
     "gf_repl_feed_applied_total", "", kReplication, "feed_applied"},
    {&server::feed_gaps_, &snap::feed_gaps, kCounter,
     "gf_repl_feed_gaps_total", "", kReplication, "feed_gaps"},
    {&server::feed_lost_, &snap::feed_lost, kCounter,
     "gf_repl_feed_lost_total", "", kReplication, "feed_lost"},
    {&server::feed_reconnects_, &snap::feed_reconnects, kCounter,
     "gf_repl_reconnects_total", "", kReplication, "feed_reconnects"},
    {&server::reconnect_failures_, &snap::reconnect_failures, kCounter,
     "gf_repl_reconnect_failures_total", "", kReplication,
     "reconnect_failures"},
    {&server::resyncs_delta_, &snap::resyncs_delta, kCounter,
     "gf_repl_resyncs_total", "kind=\"delta\"", kReplication, "resyncs_delta"},
    {&server::resyncs_snapshot_, &snap::resyncs_snapshot, kCounter,
     "gf_repl_resyncs_total", "kind=\"snapshot\"", kReplication,
     "resyncs_snapshot"},
    {&server::read_only_refusals_, &snap::read_only_refusals, kCounter,
     "gf_server_read_only_refusals_total", "", kReplication,
     "read_only_refusals"},
};

struct server::connection {
  /// What the frames on this connection mean:
  ///   client     — requests in, responses out (the default);
  ///   subscriber — a replica we feed: forwarded mutations out, acks in;
  ///   feed       — our primary: forwarded mutations in, acks out.
  enum class role : uint8_t { client, subscriber, feed };

  socket_fd fd;
  frame_decoder dec;
  std::vector<uint8_t> out;  ///< encoded responses awaiting the socket
  size_t out_pos = 0;
  bool dead = false;
  role kind = role::client;
  /// Subscriber queue cap: the configured cap, grown to cover the
  /// bootstrap snapshot burst (which is queued in one go).
  size_t queue_cap = 0;
  uint32_t owner = 0;     ///< reactor that polls this connection
  uint32_t inflight = 0;  ///< responses parked on in-flight batch parts or
                          ///< control frames — a dead connection is not
                          ///< erased (pointer-invalidating) until 0
  std::shared_ptr<sub_entry> sub;  ///< subscriber: lane-wise ack state

  connection(socket_fd f, size_t max_frame)
      : fd(std::move(f)), dec(max_frame) {}
};

/// Cross-reactor view of one subscriber: any lane's replicate() fans out
/// through these.  The vector holding them is guarded by subs_mu_; the ack
/// slots are atomics written by the subscriber's owning reactor (release)
/// and read by gating reactors (acquire).
struct server::sub_entry {
  connection* conn = nullptr;  ///< owned by reactors_[reactor_id]
  uint32_t reactor_id = 0;
  std::atomic<bool> alive{true};
  std::array<std::atomic<uint64_t>, kMaxLanes> acked{};
};

/// One mailbox message.  A single variant-ish struct (instead of a
/// std::variant) keeps the SPSC ring slots assignable and the dispatch a
/// flat switch.
struct server::reactor_msg {
  enum class kind : uint8_t { none, conn, work, done, fwd, ctrl };
  kind k = kind::none;
  int fd = -1;           ///< conn: raw accepted fd being handed off
  uint32_t origin = 0;   ///< reactor that sent this message
  uint64_t ticket = 0;   ///< work/done: pending_resp key on the origin
  opcode op = opcode::ping;
  bool from_feed = false;
  std::vector<uint64_t> keys;    ///< work: this reactor's slice of the batch
  std::vector<uint64_t> counts;  ///< work: insert_counted companions
  /// done: the part's answers — a bitmap over its keys (query) or one
  /// count per key (count)
  std::vector<uint64_t> vals;
  /// Positions in the original batch; empty when the part is the whole
  /// batch (work: `fr` then carries the received frame for replication)
  std::vector<uint32_t> idx;
  uint64_t a = 0, b = 0;         ///< done: (ok, failed); ctrl: t_start
  uint64_t part_seq = 0;         ///< done: stream sequence this part landed on
  std::string error;             ///< done: why applying the part threw
  connection* conn = nullptr;    ///< ctrl: requesting connection (owner
                                 ///< holds it via inflight), null when
                                 ///< synthesized
  frame fr;                      ///< ctrl: the control frame; work: the
                                 ///< whole batch's frame (owned payload)
  std::shared_ptr<sub_entry> sub;                 ///< fwd: target subscriber
  std::shared_ptr<std::vector<uint8_t>> bytes;    ///< fwd: encoded frame
};

/// A response waiting for its batch parts to fold back.
struct server::pending_resp {
  connection* conn = nullptr;
  opcode op = opcode::ping;
  uint64_t client_seq = 0;
  uint32_t key_count = 0;
  bool from_feed = false;
  uint32_t parts_left = 0;
  uint64_t a = 0, b = 0;            ///< mutating: (ok, failed) totals
  std::vector<uint64_t> words;      ///< query bitmap / count values
  std::vector<uint64_t> part_seqs;  ///< one stream sequence per lane touched
  std::string error;                ///< first failed part's message
  uint64_t t_start = 0;
};

/// A mutating response parked behind the ack gate.  `seqs` holds one
/// stream sequence per lane the batch landed on.
struct server::pending_ack {
  connection* conn;
  std::vector<uint64_t> seqs;
  uint64_t deadline_ns;
  opcode op;
  uint64_t client_seq;
  uint32_t key_count;
  uint64_t a, b;
};

/// Everything one event loop owns.  All fields are single-threaded state
/// of the owning reactor thread, except the inboxes (SPSC mailboxes, one
/// per producer reactor) and the wake pipe ends.  Reactor 0 may touch a
/// parked reactor's fields inside the stop-the-world barrier — the barrier
/// mutex orders those accesses.
struct server::reactor {
  uint32_t id = 0;
  uint32_t shard_begin = 0, shard_end = 0;  ///< owned store shard slice
  socket_fd wake_rd, wake_wr;
  std::vector<std::unique_ptr<connection>> conns;
  std::vector<pending_ack> pending_acks;
  std::unordered_map<uint64_t, pending_resp> pending;
  uint64_t next_ticket = 1;
  uint32_t mutations_since_maintain = 0;
  uint64_t lane_local = 0;  ///< lane-local stream position
  obs::trace_ring trace;
  obs::latency_histogram op_hist[kNumOpcodes];
  obs::latency_histogram stage_decode_ns, stage_apply_ns, stage_encode_ns,
      stage_flush_ns;
  /// inboxes[p] carries messages from reactor p (SPSC each).
  std::vector<std::unique_ptr<mailbox<reactor_msg>>> inboxes;
  uint64_t handoffs = 0;  ///< connections adopted off the accept mailbox

  reactor(uint32_t id_in, uint32_t sb, uint32_t se, size_t trace_cap,
          uint32_t nr)
      : id(id_in), shard_begin(sb), shard_end(se), trace(trace_cap) {
    inboxes.reserve(nr);
    for (uint32_t p = 0; p < nr; ++p)
      inboxes.push_back(std::make_unique<mailbox<reactor_msg>>());
  }
};

server::server(server_config cfg, store::filter_store st)
    : cfg_(std::move(cfg)),
      store_(std::move(st)),
      log_(cfg_.replay_ring_bytes, cfg_.durability) {
  listen_ = tcp_listen(cfg_.bind_addr, cfg_.port, cfg_.backlog);
  set_nonblocking(listen_.get());
  port_ = local_port(listen_);
  jitter_state_ = cfg_.reconnect_jitter_seed != 0
                      ? cfg_.reconnect_jitter_seed
                      : 0x9E3779B97F4A7C15ull ^ (uint64_t{port_} << 17);

  // Reactor count: what was asked for, bounded by the lane address space
  // and by the shard count (a reactor with no shard slice would own no
  // work and no lane semantics).
  const uint32_t want = cfg_.reactors == 0 ? 1 : cfg_.reactors;
  nr_ = std::max<uint32_t>(
      1, std::min({want, kMaxLanes, store_.num_shards()}));
  if (!cfg_.feed_addr.empty() && !cfg_.read_only)
    throw std::runtime_error("gf: a server can only follow a feed read-only");

  // Contiguous shard ownership: reactor k owns [k*S/N, (k+1)*S/N).
  const uint32_t shards = store_.num_shards();
  shard_owner_.resize(shards);
  for (uint32_t k = 0; k < nr_; ++k) {
    const uint32_t begin = static_cast<uint32_t>(
        (uint64_t{k} * shards) / nr_);
    const uint32_t end = static_cast<uint32_t>(
        (uint64_t{k + 1} * shards) / nr_);
    for (uint32_t s = begin; s < end; ++s) shard_owner_[s] = k;
    reactors_.push_back(
        std::make_unique<reactor>(k, begin, end, cfg_.trace_capacity, nr_));
    int fds[2];
    if (::pipe(fds) != 0)
      throw std::runtime_error("gf: cannot create wakeup pipe");
    reactors_.back()->wake_rd = socket_fd(fds[0]);
    reactors_.back()->wake_wr = socket_fd(fds[1]);
    set_nonblocking(fds[0]);
    // Non-blocking write end too: wake() fires on every mailbox post, and
    // a full pipe already means a wakeup is pending.
    set_nonblocking(fds[1]);
    wake_fds_[k] = fds[1];
  }
  // relaxed: constructor runs before any reactor thread exists.
  for (uint32_t l = 0; l < kMaxLanes; ++l)
    lane_seqs_[l].store(lane_seq(l, 0), std::memory_order_relaxed);
  lane_count_.store(nr_, std::memory_order_relaxed);
  log_.split(nr_);  // one window per reactor's lane
  start_ns_ = obs::now_ns();

  if (cfg_.durability != nullptr) {
    // The WAL's recovered position IS this store's stream position: new
    // mutations continue the on-disk lineage instead of restarting at 0
    // (which would hand reconnecting replicas empty deltas against data
    // they have never seen).
    cfg_.durability->ensure_lanes(nr_);
    // relaxed: still pre-thread-start; reactor loops have not launched.
    for (uint64_t stamped : cfg_.durability->last_seqs()) {
      const uint32_t l = lane_of(stamped);
      if (l >= kMaxLanes) continue;
      lane_seqs_[l].store(stamped, std::memory_order_relaxed);
      if (l + 1 > lane_count_.load(std::memory_order_relaxed))
        lane_count_.store(l + 1, std::memory_order_relaxed);
      if (l < nr_) reactors_[l]->lane_local = lane_local(stamped);
    }
  }
  register_metrics();
}

void server::register_metrics() {
  registry_ = obs::metrics_registry();
  // relaxed: metrics scrapes are monotone gauges; staleness is acceptable.
  auto relaxed = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };

  // Build identity and uptime.
  registry_.add_int_gauge(
      "gf_build_info",
      std::string("version=\"") + obs::kVersion + "\",compiler=\"" +
          obs::metrics_registry::escape_label_value(obs::kCompiler) +
          "\",build=\"" + obs::kBuildType + "\"",
      [] { return uint64_t{1}; });
  registry_.add_gauge("gf_uptime_seconds", "", [this] {
    return static_cast<double>(obs::now_ns() - start_ns_) / 1e9;
  });

  // The server's atomics, one fact row each.
  for (const fact& f : kFacts) {
    const std::atomic<uint64_t>* a = &(this->*f.atom);
    add_fact(registry_, f.metric, f.labels, f.kind,
             [a, relaxed] { return relaxed(*a); });
  }
  // Process-wide pool launches by how they ran (gpu/thread_pool.h).
  registry_.add_counter("gf_pool_launches_total", "mode=\"parallel\"", [] {
    return gpu::thread_pool::instance().launches().parallel;
  });
  registry_.add_counter("gf_pool_launches_total", "mode=\"small\"", [] {
    return gpu::thread_pool::instance().launches().small;
  });
  registry_.add_counter("gf_pool_launches_total", "mode=\"contended\"", [] {
    return gpu::thread_pool::instance().launches().contended;
  });
  // Stop-the-world barriers (control ops, cadence maintains, checkpoints).
  registry_.add_counter("gf_stw_pauses_total", "",
                        [this, relaxed] { return relaxed(stw_pauses_); });
  registry_.add_histogram("gf_stw_pause_ns", "", &stw_pause_ns_);
  registry_.add_counter("gf_trace_events_total", "", [this] {
    uint64_t n = 0;
    for (const auto& r : reactors_) n += r->trace.recorded();
    return n;
  });

  // Replication plane: the stream position and the replay log's windows.
  registry_.add_int_gauge("gf_repl_replay_ring_bytes", "",
                          [this] { return log_.bytes(); });
  registry_.add_int_gauge("gf_repl_replay_ring_frames", "",
                          [this] { return log_.size(); });
  registry_.add_int_gauge("gf_repl_seq", "",
                          [this] { return repl_position(); });
  // Lag: stream positions the slowest live subscriber still owes us.
  registry_.add_int_gauge("gf_repl_lag_frames", "", [this, relaxed] {
    const uint64_t seq = repl_position();
    const uint64_t acked = relaxed(subscriber_acked_);
    return relaxed(subscribers_) == 0 || seq <= acked ? 0 : seq - acked;
  });
  // Ack age: seconds since any subscriber last acknowledged progress.
  registry_.add_gauge("gf_repl_ack_age_seconds", "", [this, relaxed] {
    const uint64_t last = relaxed(last_ack_ns_);
    if (relaxed(subscribers_) == 0 || last == 0) return 0.0;
    return static_cast<double>(obs::now_ns() - last) / 1e9;
  });

  // Durability plane (src/persist/): registered only when a WAL is armed —
  // the engine's counters are loop-thread plain fields, and scrapes render
  // on the loop (metrics_text's threading contract).
  if (cfg_.durability != nullptr) {
    persist::durability_engine* d = cfg_.durability;
    for (const wal_fact& f : kWalFacts)
      add_fact(registry_, f.metric, "", f.kind,
               [d, field = f.field] { return d->stats().*field; });
    registry_.add_histogram("gf_wal_fsync_ns", "", d->fsync_hist());
    registry_.add_histogram("gf_checkpoint_duration_ns", "",
                            d->checkpoint_hist());
  }

  // Store aggregates (walk the shards at render time — a scrape does what
  // one STATS report does).
  for (const store::op_stat_fact& f : store::kOpStatFacts)
    registry_.add_counter(f.metric, "", [this, field = f.field] {
      uint64_t n = 0;
      for (uint32_t s = 0; s < store_.num_shards(); ++s)
        n += store_.shard_at(s).stats().*field;
      return n;
    });
  // relaxed: metrics scrape of a monotone gauge; staleness is acceptable.
  registry_.add_counter("gf_store_overflow_answered_total", "", [this] {
    return store_.metrics().overflow_answered.load(std::memory_order_relaxed);
  });
  registry_.add_int_gauge("gf_store_items", "",
                          [this] { return store_.size(); });
  registry_.add_int_gauge("gf_store_provisioned_capacity", "",
                          [this] { return store_.provisioned_capacity(); });
  registry_.add_int_gauge("gf_store_memory_bytes", "",
                          [this] { return store_.memory_bytes(); });
  registry_.add_gauge("gf_store_load_factor", "",
                      [this] { return store_.load_factor(); });
  registry_.add_int_gauge("gf_store_shards", "",
                          [this] { return store_.num_shards(); });
  registry_.add_int_gauge("gf_store_cascade_max_depth", "", [this] {
    uint32_t depth = 0;
    for (uint32_t s = 0; s < store_.num_shards(); ++s)
      depth = std::max(depth, store_.shard_at(s).level_count());
    return depth;
  });
  for (const filter_fact& f : kFilterFacts)
    registry_.add_counter(f.metric, "", [this, field = f.field] {
      // relaxed: metrics scrape of a monotone counter.
      return (store_.metrics().gf_counters.*field)
          .load(std::memory_order_relaxed);
    });

  // Latency histograms.  Per-opcode wire latency plus the four-stage
  // breakdown — per reactor, labelled lane="k" when more than one lane
  // exists — then the store's bulk tier (pointers into the store's metrics
  // bundle — register_metrics() reruns when the store is replaced).
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor* r = reactors_[k].get();
    // exposition: one reactor keeps the pre-lane schema (no lane labels).
    const std::string lane_lbl =
        nr_ > 1 ? ",lane=\"" + std::to_string(k) + "\"" : "";
    for (uint8_t i = 0; i < kNumOpcodes; ++i)
      registry_.add_histogram(
          "gf_wire_latency_ns",
          std::string("op=\"") + op_name(static_cast<opcode>(i)) + "\"" +
              lane_lbl,
          &r->op_hist[i]);
    for (auto [stage, hist] : {std::pair{"decode", &r->stage_decode_ns},
                               std::pair{"apply", &r->stage_apply_ns},
                               std::pair{"encode", &r->stage_encode_ns},
                               std::pair{"flush", &r->stage_flush_ns}})
      registry_.add_histogram(
          "gf_wire_stage_ns",
          std::string("stage=\"") + stage + "\"" + lane_lbl, hist);
  }
  // Per-reactor health gauges (rendered under the stop-the-world barrier,
  // so the plain fields read consistently).
  // exposition: one reactor keeps the pre-lane schema (no gf_reactor_*).
  if (nr_ > 1) {
    for (uint32_t k = 0; k < nr_; ++k) {
      reactor* r = reactors_[k].get();
      const std::string lbl = "reactor=\"" + std::to_string(k) + "\"";
      registry_.add_int_gauge("gf_reactor_connections", lbl,
                              [r] { return r->conns.size(); });
      registry_.add_int_gauge("gf_reactor_mailbox_depth", lbl, [r] {
        size_t n = 0;
        for (const auto& box : r->inboxes) n += box->depth();
        return n;
      });
      registry_.add_counter("gf_reactor_handoffs_total", lbl,
                            [r] { return r->handoffs; });
    }
  }
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"insert\"",
                          &store_.metrics().bulk_insert_shard_ns);
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"apply\"",
                          &store_.metrics().apply_shard_ns);
  registry_.add_histogram("gf_store_bulk_shard_ns", "path=\"drain\"",
                          &store_.metrics().drain_shard_ns);
  registry_.add_histogram("gf_store_maintain_ns", "",
                          &store_.metrics().maintain_ns);
}

server::~server() = default;

void server::request_stop() {
  // One byte on every reactor's self-pipe: the only stop mechanism that is
  // legal from a signal handler (write(2) is async-signal-safe; mutexes
  // and condvars are not).  A full pipe means a wakeup is already pending.
  stop_requested_.store(true, std::memory_order_release);
  const uint8_t b = 1;
  for (uint32_t k = 0; k < nr_; ++k)
    [[maybe_unused]] ssize_t rc = ::write(wake_fds_[k], &b, 1);
}

server_stats server::stats() const {
  server_stats s;
  for (const fact& f : kFacts)
    // relaxed: stats snapshot: independent monotone gauges, single-writer
    s.*f.field = (this->*f.atom).load(std::memory_order_relaxed);
  s.repl_seq = repl_position();
  return s;
}

// -- Lane helpers -------------------------------------------------------------

uint32_t server::active_lanes() const {
  // relaxed: monotone high-water mark; a stale read is benign.
  return lane_count_.load(std::memory_order_relaxed);
}

uint64_t server::repl_position() const {
  const uint32_t lanes = active_lanes();
  uint64_t sum = 0;
  for (uint32_t l = 0; l < lanes; ++l)
    // relaxed: single-writer-per-lane telemetry; readers need no ordering.
    sum += lane_local(lane_seqs_[l].load(std::memory_order_relaxed));
  return sum;
}

std::vector<uint64_t> server::current_lane_seqs() const {
  const uint32_t lanes = active_lanes();
  std::vector<uint64_t> out(lanes);
  for (uint32_t l = 0; l < lanes; ++l)
    // relaxed: single-writer-per-lane telemetry; readers need no ordering.
    out[l] = lane_seqs_[l].load(std::memory_order_relaxed);
  return out;
}

// -- Feed adoption ------------------------------------------------------------

void server::attach_feed(socket_fd fd, frame_decoder dec, uint64_t next_seq) {
  adopt_feed(std::move(fd), std::move(dec), {next_seq});
}

void server::attach_feed(socket_fd fd, frame_decoder dec,
                         std::span<const uint64_t> lane_lasts) {
  std::vector<uint64_t> next;
  next.reserve(lane_lasts.size());
  // Lane-stamped + 1 stays inside the lane (the local part is 56 bits).
  for (uint64_t last : lane_lasts) next.push_back(last + 1);
  adopt_feed(std::move(fd), std::move(dec), std::move(next));
}

void server::adopt_feed(socket_fd fd, frame_decoder dec,
                        std::vector<uint64_t> next_seqs) {
  // A writable server would stamp local lanes that collide with the feed's.
  if (!cfg_.read_only)
    throw std::runtime_error("gf: a server can only follow a feed read-only");
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  set_io_timeouts(fd.get(), 0);  // handshake deadlines die with the handshake
  auto conn =
      std::make_unique<connection>(std::move(fd), cfg_.max_frame_bytes);
  conn->dec = std::move(dec);
  conn->kind = connection::role::feed;
  ever_fed_ = true;
  reconnect_pending_ = false;
  reconnect_attempt_ = 0;
  feed_last_rx_ns_ = obs::now_ns();
  feed_expected_by_lane_.clear();
  for (uint64_t next : next_seqs) {
    const uint32_t l = lane_of(next);
    if (l >= kMaxLanes) continue;
    feed_expected_by_lane_[l] = next;
    // The lane's last applied position is next - 1 — except at a lane's
    // very start, where "nothing applied" is the lane-stamped zero.
    const uint64_t last =
        lane_local(next) == 0 ? lane_seq(l, 0) : next - 1;
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    lane_seqs_[l].store(last, std::memory_order_relaxed);
    if (l + 1 > lane_count_.load(std::memory_order_relaxed))
      lane_count_.store(l + 1, std::memory_order_relaxed);
  }
  // Split the replay budget across every lane this follower knows (a
  // follower restarted from its WAL may know more lanes than reactors).
  log_.split(active_lanes());
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  feed_attached_.store(1, std::memory_order_relaxed);
  reactor& r0 = *reactors_[0];
  r0.conns.push_back(std::move(conn));
  // The sync handshake's decoder may already hold live stream frames that
  // arrived behind the snapshot chunks — apply them now, don't wait for
  // the next socket read.
  connection& c = *r0.conns.back();
  if (drain_frames(r0, c)) {
    if (c.out_pos < c.out.size() && !flush_writes(r0, c)) c.dead = true;
  }
}

void server::send_invites() {
  for (const std::string& spec : cfg_.invite) {
    try {
      auto [host, port] = parse_host_port(spec);
      socket_fd s =
          cfg_.connector ? cfg_.connector(host, port) : tcp_connect(host, port);
      auto bytes = encode_sync_invite(/*seq=*/1, port_);
      if (!send_all(s.get(), bytes.data(), bytes.size()))
        throw std::runtime_error("gf: invite send failed");
      // Fire-and-forget: the standby replica dials back and SYNCs like
      // any other subscriber; nothing to wait for here.
    } catch (const std::exception&) {
      // relaxed: single-writer (event loop) telemetry; readers need no ordering.
      invites_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void server::sweep_dead(reactor& r) {
  bool any_dead = false;
  for (size_t i = r.conns.size(); i-- > 0;) {
    if (!r.conns[i]->dead) continue;
    // A dead connection with responses still parked on in-flight batch
    // parts or control messages keeps its carcass until they fold back —
    // erasing it now would dangle the pointers those messages carry.
    if (r.conns[i]->inflight > 0) continue;
    any_dead = true;
    switch (r.conns[i]->kind) {
      case connection::role::subscriber:
        // relaxed: single-writer (event loop) telemetry; readers need no ordering.
        subscribers_.fetch_sub(1, std::memory_order_relaxed);
        r.conns[i]->sub->alive.store(false, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lk(subs_mu_);
          std::erase(subs_, r.conns[i]->sub);
        }
        break;
      case connection::role::feed:
        // The primary is gone.  Keep serving reads from the last applied
        // sequence — that is the whole point of a replica — and, when a
        // supervisor is configured, start dialing it back.
        // relaxed: single-writer (event loop) telemetry; readers need no ordering.
        feed_attached_.store(0, std::memory_order_relaxed);
        feed_lost_.fetch_add(1, std::memory_order_relaxed);
        if (!cfg_.feed_addr.empty() && !reconnect_pending_)
          schedule_reconnect(obs::now_ns());
        break;
      case connection::role::client:
        break;
    }
    // A condemned client may hold answers to frames it sent before the bad
    // bytes whose parts folded back after condemn(): best-effort flush.
    if (r.conns[i]->kind == connection::role::client)
      flush_writes(r, *r.conns[i]);
    // A gated response whose client died is moot — drop it before the
    // connection object (and the parked pointer into it) goes away.
    std::erase_if(r.pending_acks, [&](const pending_ack& p) {
      return p.conn == r.conns[i].get();
    });
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    closed_.fetch_add(1, std::memory_order_relaxed);
    r.conns.erase(r.conns.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (!any_dead) return;
  recompute_acked();
  // A lost subscriber may leave the gate short of its quorum: degrade
  // promptly (clients should not sit out the full deadline for a replica
  // that is already gone).
  if (!r.pending_acks.empty()) service_acks(r, obs::now_ns());
}

// -- Event loops --------------------------------------------------------------

void server::run() {
  if (!invites_sent_) {
    invites_sent_ = true;
    send_invites();
  }
  {
    std::lock_guard<std::mutex> lk(stw_mu_);
    stw_parked_ = 0;
    stw_exited_ = 0;
  }
  // relaxed: reset before the reactor threads are spawned below.
  stw_want_.store(false, std::memory_order_relaxed);
  threads_live_ = true;
  for (uint32_t k = 1; k < nr_; ++k)
    threads_.emplace_back([this, k] { reactor_loop(*reactors_[k]); });
  reactor_loop(*reactors_[0]);
  // Reactor 0 is out (stop, or a poll error): everyone else goes too.
  stop_requested_.store(true, std::memory_order_release);
  for (uint32_t k = 1; k < nr_; ++k) wake(k);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  threads_live_ = false;
  // Fold every in-flight part back so no response is silently lost to the
  // shutdown — finish_resp queues them below for the final flush.
  drain_all_inboxes_quiesced();
  // Shutdown: every still-gated response is released as ok_async (its
  // mutation *was* applied) and best-effort flushed — a client must never
  // lose an answer to a rug-pulled gate.
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor& r = *reactors_[k];
    service_acks(r, obs::now_ns(), /*flush_deadline=*/true);
    for (auto& c : r.conns)
      if (!c->dead && c->out_pos < c->out.size()) flush_writes(r, *c);
    r.pending_acks.clear();
    r.pending.clear();
    for (auto& c : r.conns) c->inflight = 0;
    sweep_dead(r);
    // Drain the wakeup pipe so a relaunched run() blocks again.
    uint8_t buf[64];
    while (::read(r.wake_rd.get(), buf, sizeof(buf)) > 0) {
    }
    r.conns.clear();
  }
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (auto& s : subs_) s->alive.store(false, std::memory_order_release);
    subs_.clear();
  }
  // relaxed: every loop thread has been joined; no concurrent readers.
  stop_requested_.store(false, std::memory_order_relaxed);
}

void server::reactor_loop(reactor& r) {
  std::vector<pollfd> pfds;
  for (;;) {
    if (r.id != 0) park_for_stw(r);
    // Sweep first so pre-run condemnations (a poisoned feed handed to
    // attach_feed) and last round's casualties never reach poll().
    sweep_dead(r);
    // Fire due timers — reconnect attempts, ack-gate deadlines, feed
    // idleness — then sweep again: a timer may have condemned the feed or
    // adopted a fresh one whose drained frames condemned it right back.
    service_timers(r, obs::now_ns());
    sweep_dead(r);
    if (process_inboxes(r)) {
      // Handed-off work queued responses on this reactor's connections:
      // push them toward the sockets now, not at the next POLLOUT round.
      for (auto& c : r.conns)
        if (!c->dead && c->out_pos < c->out.size() && !flush_writes(r, *c))
          c->dead = true;
      sweep_dead(r);
    }
    pfds.clear();
    pfds.push_back({r.wake_rd.get(), POLLIN, 0});
    if (r.id == 0) pfds.push_back({listen_.get(), POLLIN, 0});
    const size_t base = pfds.size();
    // Connections polled this round; accept_ready() may append more below,
    // and those have no pfds entry until the next round — the event scan
    // must stop at this snapshot, not at conns.size().
    const size_t polled = r.conns.size();
    for (const auto& c : r.conns) {
      const size_t queued = c->out.size() - c->out_pos;
      short events = 0;
      // Backpressure: a client past its response-queue cap is not read
      // until the peer drains what it already owes us.  Subscriber acks
      // and feed frames are always read — their flow control is the
      // drop-slow-subscriber cap and the primary's own pacing.
      if (c->kind != connection::role::client ||
          queued < cfg_.max_queued_response_bytes)
        events |= POLLIN;
      if (queued > 0) events |= POLLOUT;
      pfds.push_back({c->fd.get(), events, 0});
    }

    const int rc =
        ::poll(pfds.data(), pfds.size(), poll_timeout_ms(r, obs::now_ns()));
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: the handler pinged the pipe
      break;
    }
    if (rc == 0) continue;  // timer expiry: loop back to service_timers

    if (pfds[0].revents & POLLIN) {
      // Wakeups are ambiguous: a mailbox post, a stop-the-world request,
      // or request_stop().  Drain the pipe and let the loop top sort it
      // out.
      uint8_t buf[64];
      while (::read(r.wake_rd.get(), buf, sizeof(buf)) > 0) {
      }
      if (stop_requested_.load(std::memory_order_acquire)) break;
      continue;
    }

    if (r.id == 0 && (pfds[1].revents & POLLIN)) accept_ready(r);

    for (size_t i = 0; i < polled; ++i) {
      connection& c = *r.conns[i];
      const short re = pfds[i + base].revents;
      if (re & (POLLERR | POLLNVAL)) c.dead = true;
      if (!c.dead && (re & POLLOUT)) {
        if (!flush_writes(r, c)) c.dead = true;
      }
      if (!c.dead && (re & (POLLIN | POLLHUP))) read_ready(r, c);
    }
  }
  if (r.id != 0) {
    // Out of the loop for good: tell a blocked barrier not to wait for us.
    std::lock_guard<std::mutex> lk(stw_mu_);
    ++stw_exited_;
    stw_cv_.notify_all();
  }
}

// -- Stop-the-world barrier ---------------------------------------------------

void server::park_for_stw(reactor& r) {
  (void)r;
  if (!stw_want_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(stw_mu_);
  ++stw_parked_;
  stw_cv_.notify_all();
  stw_cv_.wait(lk, [this] {
    return !stw_want_.load(std::memory_order_acquire);
  });
  --stw_parked_;
  stw_cv_.notify_all();
}

void server::run_quiesced(const std::function<void()>& fn) {
  if (in_stw_ || !threads_live_) {
    // Already inside a barrier (a control op that triggers another quiesced
    // section), or the reactor threads are not running (pre-run attach_feed
    // drain, post-join shutdown): the world is as stopped as it gets, but
    // the ordering contract still demands drained mailboxes.
    drain_all_inboxes_quiesced();
    fn();
    return;
  }
  const uint64_t t0 = obs::now_ns();
  std::unique_lock<std::mutex> lk(stw_mu_);
  stw_want_.store(true, std::memory_order_release);
  for (uint32_t k = 1; k < nr_; ++k) wake(k);
  stw_cv_.wait(lk, [this] {
    return stw_parked_ + stw_exited_ >= nr_ - 1;
  });
  // Every other reactor is parked (or gone).  Drain the mailboxes first:
  // work already handed off logically precedes this section (a MAINTAIN
  // must not reorder ahead of the inserts that triggered it).
  in_stw_ = true;
  auto release = [&] {
    in_stw_ = false;
    stw_want_.store(false, std::memory_order_release);
    stw_cv_.notify_all();
    stw_cv_.wait(lk, [this] { return stw_parked_ == 0; });
    // relaxed: single-writer (reactor 0) telemetry; readers need no ordering.
    stw_pauses_.fetch_add(1, std::memory_order_relaxed);
    stw_pause_ns_.record(obs::now_ns() - t0);
  };
  try {
    drain_all_inboxes_quiesced();
    fn();
  } catch (...) {
    release();  // a throw must not leave the other reactors parked
    throw;
  }
  release();
}

void server::drain_all_inboxes_quiesced() {
  // Messages beget messages (a drained work part posts its done reply):
  // loop to quiescence.  Only runs when this thread is the sole consumer
  // of every inbox (the STW barrier or single-threaded shutdown).
  bool any = true;
  while (any) {
    any = false;
    for (auto& r : reactors_) any = process_inboxes(*r) || any;
  }
}

// -- Accept + mailbox plumbing ------------------------------------------------

void server::accept_ready(reactor& r) {
  for (;;) {
    int fd = ::accept(listen_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
      // Anything else — EMFILE/ENFILE above all — leaves the pending
      // connection in the backlog and the listener readable, so a bare
      // break would spin poll() at full CPU until an fd frees up.  Brief
      // pause instead; the backlog holds the peers meanwhile.
      ::poll(nullptr, 0, 50);
      break;
    }
    socket_fd s(fd);
    set_nonblocking(fd);
    set_nodelay(fd);
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const uint32_t target = rr_next_++ % nr_;
    if (target == r.id) {
      auto conn =
          std::make_unique<connection>(std::move(s), cfg_.max_frame_bytes);
      conn->owner = r.id;
      r.conns.push_back(std::move(conn));
    } else {
      reactor_msg m;
      m.k = reactor_msg::kind::conn;
      m.fd = s.release();  // the target reactor re-wraps and owns it
      m.origin = r.id;
      post(r, target, std::move(m));
    }
  }
}

void server::post(reactor& from, uint32_t to, reactor_msg&& m) {
  // lane: SPSC push — reactor `from` is the only producer into slot
  // [from.id] of reactor `to`'s inboxes; `to` is the only consumer.
  reactors_[to]->inboxes[from.id]->push(std::move(m));
  wake(to);
}

void server::wake(uint32_t k) {
  const uint8_t b = 1;
  // A full pipe already means a wakeup is pending.
  [[maybe_unused]] ssize_t rc = ::write(wake_fds_[k], &b, 1);
}

bool server::process_inboxes(reactor& r) {
  bool any = false;
  reactor_msg m;
  for (auto& box : r.inboxes) {
    // lane: SPSC pop — reactor `r` (or reactor 0 on its behalf while `r`
    // is parked under the STW barrier, ordered by stw_mu_) is the only
    // consumer of r's inboxes.
    while (box->try_pop(m)) {
      any = true;
      dispatch_msg(r, m);
    }
  }
  return any;
}

void server::dispatch_msg(reactor& r, reactor_msg& m) {
  switch (m.k) {
    case reactor_msg::kind::conn: {
      auto conn = std::make_unique<connection>(socket_fd(m.fd),
                                               cfg_.max_frame_bytes);
      conn->owner = r.id;
      r.conns.push_back(std::move(conn));
      ++r.handoffs;
      break;
    }
    case reactor_msg::kind::work: {
      const bool whole = m.idx.empty();
      post(r, m.origin, apply_work(r, m, whole ? &m.fr : nullptr));
      break;
    }
    case reactor_msg::kind::done:
      complete_part(r, m.ticket, m);
      break;
    case reactor_msg::kind::fwd:
      if (m.sub != nullptr && m.sub->alive.load(std::memory_order_acquire) &&
          m.bytes != nullptr)
        deliver_to_sub(*m.sub, *m.bytes);
      break;
    case reactor_msg::kind::ctrl:
      exec_ctrl(r, m.conn, m.fr, m.a);
      break;
    case reactor_msg::kind::none:
      break;
  }
}

// -- Socket I/O ---------------------------------------------------------------

bool server::drain_frames(reactor& r, connection& c) {
  frame f;
  for (;;) {
    const uint64_t t0 = obs::now_ns();
    decode_status st = c.dec.next(f);
    if (st == decode_status::need_more) return true;
    if (st == decode_status::error) {
      condemn(r, c, c.dec.error());
      return false;
    }
    r.stage_decode_ns.record(obs::now_ns() - t0);
    switch (c.kind) {
      case connection::role::client:
        if (const char* shape = validate_request(f)) {
          condemn(r, c, shape);
          return false;
        }
        handle_frame(r, c, f);
        break;
      case connection::role::subscriber:
        // Frames coming *back* from a replica are acks: ordinary
        // responses echoing the forwarded stream sequence.
        if (const char* shape = validate_response(f)) {
          condemn(r, c, shape);
          return false;
        }
        subscriber_ack(r, c, f);
        break;
      case connection::role::feed:
        if (const char* shape = validate_request(f)) {
          condemn(r, c, shape);
          return false;
        }
        feed_frame(r, c, f);
        break;
    }
    if (c.dead) return false;
  }
}

void server::read_ready(reactor& r, connection& c) {
  uint8_t buf[kReadChunk];
  for (;;) {
    ssize_t n = sock_recv(c.fd.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;
      return;
    }
    if (n == 0) {
      // EOF with a partial frame buffered = the peer truncated a frame.
      if (c.dec.buffered() > 0 && !c.dec.poisoned())
        // relaxed: single-writer (event loop) telemetry; readers need no ordering.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      flush_writes(r, c);  // best-effort: a half-closed peer may still read
      c.dead = true;
      return;
    }
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    if (c.kind == connection::role::feed) feed_last_rx_ns_ = obs::now_ns();
    c.dec.feed(buf, static_cast<size_t>(n));

    // Serve every complete frame before the next poll round — this is the
    // server half of pipelining.
    if (!drain_frames(r, c)) return;
    // Over the response-queue cap: stop consuming this connection's
    // requests (what stays in the kernel buffer throttles the peer).
    if (c.kind == connection::role::client &&
        c.out.size() - c.out_pos >= cfg_.max_queued_response_bytes)
      break;
    if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained the socket
  }
  if (c.out_pos < c.out.size() && !flush_writes(r, c)) c.dead = true;
}

bool server::flush_writes(reactor& r, connection& c) {
  if (c.out_pos >= c.out.size()) return true;  // nothing queued: no timing
  const uint64_t t0 = obs::now_ns();
  bool alive = true;
  while (c.out_pos < c.out.size()) {
    ssize_t w = sock_send(c.fd.get(), c.out.data() + c.out_pos,
                          c.out.size() - c.out_pos);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // poll out later
      alive = false;
      break;
    }
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    bytes_out_.fetch_add(static_cast<uint64_t>(w), std::memory_order_relaxed);
    c.out_pos += static_cast<size_t>(w);
  }
  if (alive && c.out_pos >= c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
  r.stage_flush_ns.record(obs::now_ns() - t0);
  return alive;
}

void server::condemn(reactor& r, connection& c, const std::string& why) {
  (void)why;  // counted, not logged: a hostile peer can spam arbitrary bytes
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  // Best-effort flush: frames served *before* the stream broke deserve
  // their responses (a pipelined client may have real answers queued
  // behind the first bad byte).  What the kernel buffer will not take is
  // forfeited with the connection.
  flush_writes(r, c);
  c.dead = true;
}

void server::append_out(connection& c, std::vector<uint8_t> bytes) {
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
}

// -- Replication --------------------------------------------------------------

uint64_t server::replicate(reactor& r, const frame& f) {
  // The stream sequence advances on *every* applied mutation, subscribers
  // or not — it is the store's mutation-log position, and a SYNC snapshot
  // must name it so a later replica knows where its stream begins.
  const uint64_t seq = lane_seq(r.id, ++r.lane_local);
  // release: pairs with acquire loads in gating reactors reading this
  // lane's position.
  lane_seqs_[r.id].store(seq, std::memory_order_release);
  publish(r, f, seq);
  // The store already holds this part: a checkpoint now covers it.
  checkpoint_if_due(r);
  return seq;
}

void server::chain_forward(reactor& r, const frame& f) {
  // A replica propagates each feed frame — upstream lane stamp intact — at
  // arrival time on reactor 0, so chained subscribers and the WAL see the
  // primary's own interleaving order.
  const uint64_t seq = f.sequence;
  const uint32_t l = lane_of(seq);
  if (l < kMaxLanes) {
    // release: pairs with acquire loads in gating reactors.
    lane_seqs_[l].store(seq, std::memory_order_release);
    // relaxed: lane_count_ only grows and only feed paths write it.
    if (l + 1 > lane_count_.load(std::memory_order_relaxed)) {
      lane_count_.store(l + 1, std::memory_order_relaxed);
      // A follower is read-only: reactor 0 writes every lane's window, so
      // re-splitting the budget here races no pusher.
      log_.split(l + 1);
    }
  }
  publish(r, f, seq);
}

void server::publish(reactor& r, const frame& f, uint64_t seq) {
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  if (subscribers_.load(std::memory_order_relaxed) == 0 && !log_.recording())
    return;
  // Re-encode straight from the decoded frame's fields with the stream
  // sequence stamped in — the payload (multi-MiB for big batches) is
  // written once into the wire bytes, never copied into a temporary.
  auto bytes = std::make_shared<std::vector<uint8_t>>();
  encode_frame(f.op, wire_status::ok, f.shard_hint, f.key_count, seq,
               f.payload, *bytes);
  // The log gets the exact stamped bytes the subscriber feed carries, WAL
  // first, before the frame is forwarded or the client's response can
  // flush: the mutation is on disk — fsync policy permitting — by the time
  // anyone is told it happened, and a delta replay is byte-identical to
  // having never disconnected.  Reactor r is its lane's only writer.
  log_.push(seq, bytes);
  forward_to_subs(r, bytes);
}

void server::forward_to_subs(
    reactor& r, const std::shared_ptr<std::vector<uint8_t>>& bytes) {
  std::vector<std::shared_ptr<sub_entry>> subs;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs = subs_;
  }
  for (auto& s : subs) {
    if (!s->alive.load(std::memory_order_acquire)) continue;
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    frames_forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (s->reactor_id == r.id) {
      deliver_to_sub(*s, *bytes);
    } else {
      reactor_msg m;
      m.k = reactor_msg::kind::fwd;
      m.origin = r.id;
      m.sub = s;
      m.bytes = bytes;
      post(r, s->reactor_id, std::move(m));
    }
  }
}

void server::deliver_to_sub(sub_entry& s, const std::vector<uint8_t>& bytes) {
  connection* c = s.conn;
  if (c == nullptr || c->dead) return;
  c->out.insert(c->out.end(), bytes.begin(), bytes.end());
  // A subscriber that cannot drain its stream is cut loose: async
  // replication must never let one slow replica grow this process without
  // bound.  The replica sees the EOF, counts a lost feed, and — with a
  // supervisor — comes back with a resume request the replay log answers.
  if (c->out.size() - c->out_pos > c->queue_cap) {
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    subscriber_drops_.fetch_add(1, std::memory_order_relaxed);
    c->dead = true;
    s.alive.store(false, std::memory_order_release);
  }
}

void server::register_subscriber(connection& c,
                                 std::span<const uint64_t> acked_lanes,
                                 size_t queued_bytes) {
  c.kind = connection::role::subscriber;
  c.queue_cap = std::max(cfg_.max_subscriber_queue_bytes, 2 * queued_bytes);
  auto entry = std::make_shared<sub_entry>();
  entry->conn = &c;
  entry->reactor_id = c.owner;
  for (uint64_t v : acked_lanes) {
    const uint32_t l = lane_of(v);
    if (l < kMaxLanes)
      // relaxed: entry not yet published to subs_; no concurrent reader.
      entry->acked[l].store(v, std::memory_order_relaxed);
  }
  c.sub = entry;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs_.push_back(std::move(entry));
  }
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  subscribers_.fetch_add(1, std::memory_order_relaxed);
  recompute_acked();
}

void server::subscriber_ack(reactor& r, connection& c, const frame& f) {
  if (f.status != wire_status::ok) {
    // The replica failed *applying* a forwarded frame (its handler threw):
    // its store may have diverged.  Count it and hold the ack watermark —
    // STATS must not report a diverged replica as caught up.
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    subscriber_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t now = obs::now_ns();
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  last_ack_ns_.store(now, std::memory_order_relaxed);
  // Lane-wise ack: the echoed sequence names its lane in the top byte.
  const uint32_t l = lane_of(f.sequence);
  if (l >= kMaxLanes) return;
  std::atomic<uint64_t>& slot = c.sub->acked[l];
  // relaxed: owning reactor is the only writer of this ack slot.
  if (f.sequence > slot.load(std::memory_order_relaxed)) {
    // release: pairs with acquire loads in gating reactors' service_acks.
    slot.store(f.sequence, std::memory_order_release);
    recompute_acked();
    // Fresh progress may satisfy gated responses — release them now, not
    // at the next poll wakeup.
    if (!r.pending_acks.empty()) service_acks(r, now);
  }
}

void server::recompute_acked() {
  // Watermark: the slowest subscriber's summed lane-local positions
  // (comparable with repl_position()).
  const uint32_t lanes = active_lanes();
  uint64_t min_sum = 0;
  bool first = true;
  std::lock_guard<std::mutex> lk(subs_mu_);
  for (const auto& s : subs_) {
    if (!s->alive.load(std::memory_order_acquire)) continue;
    uint64_t sum = 0;
    for (uint32_t l = 0; l < lanes; ++l)
      sum += lane_local(s->acked[l].load(std::memory_order_acquire));
    if (first || sum < min_sum) min_sum = sum;
    first = false;
  }
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  subscriber_acked_.store(first ? 0 : min_sum, std::memory_order_relaxed);
}

// -- Ack-gated writes ---------------------------------------------------------

void server::queue_mutation_response(reactor& r, connection& c,
                                     bool from_feed, opcode op,
                                     uint64_t client_seq, uint32_t key_count,
                                     uint64_t a, uint64_t b,
                                     std::span<const uint64_t> stream_seqs) {
  // Feed acks are never gated (the primary upstream is not waiting on our
  // replicas), and with the gate off this is the ordinary async path.
  if (from_feed || cfg_.ack_replicas == 0) {
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b));
    return;
  }
  if (stream_seqs.empty()) {
    // An empty batch landed on no lane: nothing for a replica to ack.
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b));
    return;
  }
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  ack_waits_.fetch_add(1, std::memory_order_relaxed);
  // relaxed: gate sizing only; a stale count degrades, never hangs.
  if (subscribers_.load(std::memory_order_relaxed) < cfg_.ack_replicas) {
    // Not enough replicas even attached: degrade immediately rather than
    // making the client sit out a deadline that cannot be met.
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    ack_degraded_.fetch_add(1, std::memory_order_relaxed);
    append_out(c, encode_pair_response(op, client_seq, key_count, a, b,
                                       wire_status::ok_async));
    return;
  }
  r.pending_acks.push_back(
      {&c, std::vector<uint64_t>(stream_seqs.begin(), stream_seqs.end()),
       obs::now_ns() + uint64_t{cfg_.ack_timeout_ms} * 1'000'000ull, op,
       client_seq, key_count, a, b});
}

void server::service_acks(reactor& r, uint64_t now_ns, bool flush_deadline) {
  if (r.pending_acks.empty()) return;
  // relaxed: gate sizing only; a stale count degrades, never hangs.
  const uint64_t live = subscribers_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<sub_entry>> subs;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    subs = subs_;
  }
  std::erase_if(r.pending_acks, [&](const pending_ack& p) {
    uint64_t acked = 0;
    for (const auto& s : subs) {
      if (!s->alive.load(std::memory_order_acquire)) continue;
      bool all = true;
      for (uint64_t q : p.seqs) {
        const uint32_t l = lane_of(q);
        // acquire: pairs with the owning reactor's release ack store.
        if (l >= kMaxLanes ||
            s->acked[l].load(std::memory_order_acquire) < q) {
          all = false;
          break;
        }
      }
      if (all) ++acked;
    }
    if (acked >= cfg_.ack_replicas) {
      append_out(*p.conn, encode_pair_response(p.op, p.client_seq,
                                               p.key_count, p.a, p.b));
      return true;
    }
    if (flush_deadline || now_ns >= p.deadline_ns ||
        live < cfg_.ack_replicas) {
      // Deadline, shutdown, or the quorum became unreachable: the write
      // is applied and replicating asynchronously — say so in-band and
      // move on.  Never a hang.
      // relaxed: single-writer (event loop) telemetry; readers need no ordering.
      ack_degraded_.fetch_add(1, std::memory_order_relaxed);
      append_out(*p.conn, encode_pair_response(p.op, p.client_seq,
                                               p.key_count, p.a, p.b,
                                               wire_status::ok_async));
      return true;
    }
    return false;
  });
}

// -- Feed supervision ---------------------------------------------------------

uint64_t server::next_jitter() {
  // xorshift64: tiny, seedable, and good enough to de-synchronize a fleet
  // of replicas hammering a rebooted primary.
  uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  return x;
}

void server::schedule_reconnect(uint64_t now_ns) {
  reconnect_pending_ = true;
  const uint32_t shift = std::min(reconnect_attempt_, 16u);
  uint64_t base = uint64_t{cfg_.reconnect_base_ms} << shift;
  base = std::min<uint64_t>(base, cfg_.reconnect_max_ms);
  if (base == 0) base = 1;
  // Full jitter over [base/2, base): exponential spacing without a
  // thundering herd when many replicas lost the same primary.
  const uint64_t delay_ms = base / 2 + next_jitter() % (base - base / 2);
  reconnect_at_ns_ = now_ns + delay_ms * 1'000'000ull;
  ++reconnect_attempt_;
  reactors_[0]->trace.add("repl", "reconnect_scheduled", now_ns, 0,
                          "delay_ms", delay_ms);
}

void server::try_resync_feed() {
  reconnect_pending_ = false;
  const uint64_t t0 = obs::now_ns();
  try {
    auto [host, port] = parse_host_port(cfg_.feed_addr);
    // One lane-stamped last-applied position per lane this replica has
    // seen (one lane's request is the pre-lane 8-byte payload).
    std::vector<uint64_t> lasts;
    for (const auto& [l, next] : feed_expected_by_lane_) {
      (void)next;
      // relaxed: single-writer (event loop) telemetry; readers need no ordering.
      lasts.push_back(lane_seqs_[l].load(std::memory_order_relaxed));
    }
    if (lasts.empty()) lasts = current_lane_seqs();
    // Blocking re-sync on the loop thread, bounded by resync_timeout_ms
    // per silent read: a replica that is catching up is allowed to pause
    // its (read-only) service — its data is stale until this finishes
    // anyway.
    resync_result rr =
        sync_resume(host, port, std::span<const uint64_t>(lasts),
                    cfg_.snapshot_path, cfg_.max_frame_bytes,
                    cfg_.resync_timeout_ms, cfg_.connector);
    if (rr.kind == resync_kind::snapshot) {
      // relaxed: single-writer (event loop) telemetry; readers need no ordering.
      resyncs_snapshot_.fetch_add(1, std::memory_order_relaxed);
      adopt_lineage(std::move(*rr.store), rr.lane_seqs);
      attach_feed(std::move(rr.feed), std::move(rr.dec),
                  std::span<const uint64_t>(rr.lane_seqs));
    } else {
      // relaxed: single-writer (event loop) telemetry; readers need no ordering.
      resyncs_delta_.fetch_add(1, std::memory_order_relaxed);
      // The store we have is still the right one; the replayed frames
      // arrive on the adopted connection exactly like live stream
      // traffic, starting at each lane's last + 1.
      attach_feed(std::move(rr.feed), std::move(rr.dec),
                  std::span<const uint64_t>(lasts));
    }
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    feed_reconnects_.fetch_add(1, std::memory_order_relaxed);
    reactors_[0]->trace.add("repl", "resync", t0, obs::now_ns() - t0, "kind",
                            rr.kind == resync_kind::delta ? 0 : 1);
  } catch (const std::exception&) {
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    reconnect_failures_.fetch_add(1, std::memory_order_relaxed);
    schedule_reconnect(obs::now_ns());
  }
}

void server::adopt_lineage(store::filter_store st,
                           std::span<const uint64_t> lane_seqs) {
  run_quiesced([&] {
    store_ = std::move(st);
    // The registry's histogram entries point into the replaced store's
    // metrics bundle — rebuild them against the new store.
    register_metrics();
    // New lineage: any subscriber synced off the old store is cut loose to
    // bootstrap afresh instead of silently diverging, and the log's
    // windows and segments describe a store that no longer exists.
    for (auto& rx : reactors_)
      for (auto& sub : rx->conns)
        if (!sub->dead && sub->kind == connection::role::subscriber) {
          // relaxed: single-writer (event loop) telemetry; readers need no ordering.
          subscriber_drops_.fetch_add(1, std::memory_order_relaxed);
          sub->dead = true;
        }
    log_.clear();
    // relaxed: inside run_quiesced — every other reactor is parked.
    for (uint32_t l = 0; l < kMaxLanes; ++l)
      lane_seqs_[l].store(lane_seq(l, 0), std::memory_order_relaxed);
    // relaxed: same quiesced section; adopt the new lineage's lane table.
    for (uint64_t v : lane_seqs) {
      const uint32_t l = lane_of(v);
      if (l < kMaxLanes) lane_seqs_[l].store(v, std::memory_order_relaxed);
    }
    if (cfg_.durability != nullptr) cfg_.durability->reset(store_, lane_seqs);
  });
}

void server::service_timers(reactor& r, uint64_t now_ns) {
  if (r.id == 0) {
    if (reconnect_pending_ && now_ns >= reconnect_at_ns_) try_resync_feed();
  }
  service_acks(r, now_ns);
  if (r.id == 0) {
    if (cfg_.feed_idle_timeout_ms != 0 &&
        // relaxed: single-writer (event loop) telemetry; readers need no ordering.
        feed_attached_.load(std::memory_order_relaxed) != 0 &&
        now_ns - feed_last_rx_ns_ >
            uint64_t{cfg_.feed_idle_timeout_ms} * 1'000'000ull) {
      for (auto& c : r.conns)
        if (!c->dead && c->kind == connection::role::feed)
          condemn(r, *c, "feed idle past the configured timeout");
    }
  }
}

int server::poll_timeout_ms(const reactor& r, uint64_t now_ns) const {
  uint64_t next = UINT64_MAX;
  if (r.id == 0) {
    if (reconnect_pending_) next = std::min(next, reconnect_at_ns_);
    if (cfg_.feed_idle_timeout_ms != 0 &&
        // relaxed: single-writer (event loop) telemetry; readers need no ordering.
        feed_attached_.load(std::memory_order_relaxed) != 0)
      next = std::min<uint64_t>(
          next, feed_last_rx_ns_ +
                    uint64_t{cfg_.feed_idle_timeout_ms} * 1'000'000ull);
  }
  for (const pending_ack& p : r.pending_acks)
    next = std::min(next, p.deadline_ns);
  // A gated response can be released by an ack that lands on *another*
  // reactor (the subscriber's owner updates the lane slot; nobody wakes
  // us).  Poll at ack-release granularity while anything is parked.
  if (!r.pending_acks.empty())
    next = std::min<uint64_t>(next, now_ns + 1'000'000ull);
  if (next == UINT64_MAX) return -1;
  if (next <= now_ns) return 0;
  // +1 ms: round up so a timer never fires a poll round early and spins.
  return static_cast<int>(
      std::min<uint64_t>((next - now_ns) / 1'000'000ull + 1, 60'000));
}

// -- SYNC serving -------------------------------------------------------------

void server::serve_sync(reactor& r, connection& c, const frame& f) {
  if (f.shard_hint == kSyncInviteHint) {
    handle_invite(r, c, f);
    return;
  }
  // A standby that has never bootstrapped has no authoritative dataset:
  // serving SYNC from it would hand a downstream replica an empty
  // snapshot at sequence 0, and the standby's own later bootstrap
  // (handle_invite) would replace the store underneath that subscriber —
  // silent, permanent divergence.  Refuse until this server has data of
  // its own lineage.  (A replica whose feed *died* still serves SYNC:
  // its last-acknowledged state is a real snapshot.)
  if (cfg_.read_only && !ever_fed_) {
    append_out(c, encode_error_response(
                      opcode::sync, f.sequence, wire_status::unsupported,
                      "standby replica has not bootstrapped yet"));
    return;
  }
  if (f.shard_hint == kSyncResumeHint) {
    serve_resume(r, c, f);
    return;
  }
  serve_snapshot(r, c, f);
}

void server::serve_resume(reactor& r, connection& c, const frame& f) {
  const std::vector<uint64_t> lasts = decode_sync_resume_lanes(f);
  const uint32_t lanes = active_lanes();
  // Grant a delta only when the replica's lane layout matches ours exactly
  // and the log covers *every* lane's gap — a partial replay would
  // interleave a hole into one lane.  Never at stream position 0: a
  // primary restarted from a snapshot is back at 0 with a *different*
  // store, and a replica whose bootstrap also happened at 0 would
  // otherwise be granted an empty delta against data it has never seen.
  // A lane whose memory window has wrapped is read back from the WAL: the
  // re-encoded bytes are identical with what the live stream carried
  // (persist_wal_test proves it).
  std::vector<sync_delta_header> spans(lanes);
  bool covered = lasts.size() == lanes;
  uint64_t pos_sum = 0;
  for (uint32_t l = 0; covered && l < lanes; ++l) {
    // relaxed: reactor 0 reads lane tips under the STW barrier.
    spans[l] = {lasts[l], lane_seqs_[l].load(std::memory_order_relaxed)};
    pos_sum += lane_local(spans[l].upto);
    covered = lane_of(lasts[l]) == l && log_.covers(lasts[l], spans[l].upto);
  }
  if (!covered || pos_sum == 0) {
    // No full coverage (or a lane-layout mismatch): the only safe catch-up
    // is a full bootstrap — also the case of a replica living in this
    // primary's future after a crash-restart from an older snapshot.
    serve_snapshot(r, c, f);
    return;
  }
  std::vector<uint8_t> out = encode_sync_delta_response(
      f.sequence, std::span<const sync_delta_header>(spans));
  size_t replayed = 0;
  bool from_disk = false;
  for (const sync_delta_header& h : spans) {
    if (h.resume_from == h.upto) continue;  // lane already current
    replay_ring::tier used = replay_ring::tier::memory;
    replayed += log_.encode_from(h.resume_from, out, &used);
    from_disk |= used == replay_ring::tier::disk;
  }
  const size_t out_bytes = out.size();
  append_out(c, std::move(out));
  register_subscriber(c, std::span<const uint64_t>(lasts), out_bytes);
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  deltas_served_.fetch_add(1, std::memory_order_relaxed);
  if (from_disk) {
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    wal_deltas_served_.fetch_add(1, std::memory_order_relaxed);
    r.trace.add("repl", "wal_delta_serve", obs::now_ns(), 0, "frames",
                replayed);
  } else {
    r.trace.add("repl", "delta_serve", obs::now_ns(), 0, "frames", replayed);
  }
}

void server::serve_snapshot(reactor& r, connection& c, const frame& f) {
  // Snapshot + subscribe, atomically with respect to mutations: this runs
  // inside the stop-the-world barrier, so every mutation at or below the
  // positions recorded here is inside the snapshot and every later one
  // will be forwarded down this connection.  Nothing falls in between.
  const uint64_t t0 = obs::now_ns();
  // A multi-lane snapshot is prefixed with its lane table so the replica
  // resumes each lane at the right position (single-lane transfers stay
  // byte-identical to the pre-lane protocol).
  if (active_lanes() > 1)
    append_out(c, encode_sync_lane_table(f.sequence, current_lane_seqs()));
  const uint64_t seq_pos = repl_position();
  // The v3 header carries the covered sequence, so a replica that later
  // restarts with its own WAL can anchor its log to this lineage.
  const std::string bytes = store::serialize_store(store_, seq_pos);
  size_t cap = std::min(cfg_.sync_chunk_bytes,
                        cfg_.max_frame_bytes - kFrameOverhead);
  if (cap <= kSyncChunk0Header) cap = kSyncChunk0Header + 1;
  auto data = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  const size_t first_data = std::min(bytes.size(), cap - kSyncChunk0Header);
  const size_t rest = bytes.size() - first_data;
  const uint32_t total =
      static_cast<uint32_t>(1 + (rest + cap - 1) / cap);
  append_out(c, encode_sync_chunk(f.sequence, 0, total, seq_pos,
                                  bytes.size(), data.subspan(0, first_data)));
  size_t off = first_data;
  for (uint32_t idx = 1; off < bytes.size(); ++idx) {
    const size_t slice = std::min(cap, bytes.size() - off);
    append_out(c, encode_sync_chunk(f.sequence, idx, total, 0, 0,
                                    data.subspan(off, slice)));
    off += slice;
  }
  register_subscriber(c, {}, bytes.size());
  r.trace.add("repl", "sync_serve", t0, obs::now_ns() - t0, "bytes",
              bytes.size());
}

void server::handle_invite(reactor& r, connection& c, const frame& f) {
  // Only a standby replica (read-only, not yet fed) takes an invite: on
  // anything else a hostile invite would overwrite a live store.
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  if (!cfg_.read_only || feed_attached_.load(std::memory_order_relaxed)) {
    append_out(c, encode_error_response(opcode::sync, f.sequence,
                                        wire_status::unsupported,
                                        "not a standby replica"));
    return;
  }
  try {
    const std::string host = peer_ip(c.fd.get());
    const uint16_t port = decode_sync_invite(f);
    // Blocking bootstrap inside the loop: acceptable for a standby that
    // is, by definition, not serving anything yet.
    const uint64_t t0 = obs::now_ns();
    sync_result sr =
        sync_from(host, port, cfg_.snapshot_path, cfg_.max_frame_bytes,
                  /*connect_retries=*/0, cfg_.resync_timeout_ms,
                  cfg_.connector);
    r.trace.add("repl", "bootstrap", t0, sr.bootstrap_ns, "bytes",
                sr.snapshot_bytes);
    adopt_lineage(std::move(sr.store), sr.lane_seqs);
    attach_feed(std::move(sr.feed), std::move(sr.dec),
                std::span<const uint64_t>(sr.lane_seqs));
    // No success response: the inviter fired and forgot; convergence is
    // observable through STATS on either end.
  } catch (const std::exception& e) {
    append_out(c, encode_error_response(opcode::sync, f.sequence,
                                        wire_status::error, e.what()));
  }
}

void server::feed_frame(reactor& r, connection& c, const frame& f) {
  // Only mutating opcodes ride the feed; anything else means the stream
  // is not what we subscribed to.
  if (f.op != opcode::insert && f.op != opcode::insert_counted &&
      f.op != opcode::erase && f.op != opcode::maintain) {
    condemn(r, c, "non-mutating opcode on the replication feed");
    return;
  }
  const uint32_t lane = lane_of(f.sequence);
  if (lane >= kMaxLanes) {
    // The top byte can name 256 lanes but the server tracks kMaxLanes:
    // a stream stamped beyond that is not one we subscribed to.
    condemn(r, c, "sequence lane out of range");
    return;
  }
  const auto it = feed_expected_by_lane_.find(lane);
  const uint64_t expected =
      it != feed_expected_by_lane_.end() ? it->second : f.sequence;
  if (f.sequence != expected) {
    // A discontinuity: count it so STATS surfaces the divergence.  An
    // older-than-expected frame is a replay and is dropped.  A forward
    // jump splits on supervision: unsupervised (PR 5 behavior, no way to
    // recover the gap) applies it — the stream is still the freshest data
    // we can get — with the gap on record; a supervised feed *can* close
    // the gap, so the connection is condemned and the re-sync path
    // replays exactly the missed frames instead of accepting a hole.
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    feed_gaps_.fetch_add(1, std::memory_order_relaxed);
    r.trace.add("repl", "feed_gap", obs::now_ns(), 0, "expected", expected);
    if (f.sequence < expected) return;
    if (!cfg_.feed_addr.empty()) {
      condemn(r, c, "unbridged gap on a supervised feed");
      return;
    }
  }
  feed_expected_by_lane_[lane] = f.sequence + 1;
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  feed_last_seq_.store(f.sequence, std::memory_order_relaxed);
  feed_applied_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t_start = obs::now_ns();
  // Chain the frame downstream in arrival order (reactor 0 is the feed's
  // owner, so this *is* the upstream interleaving), then apply it.
  std::string error;
  try {
    chain_forward(r, f);
  } catch (const std::exception& e) {
    // The WAL refused the frame.  The lane position already counts it, so
    // it is applied all the same — a replica that skipped it would answer
    // false negatives for keys the primary acknowledged — and the primary
    // is answered in-band (it counts a subscriber error), as a primary
    // answers its client for a part it applied but could not log.
    error = *e.what() != '\0' ? e.what() : "gf: feed frame not logged";
  }
  if (f.op == opcode::maintain) {
    // The primary replicated this maintain at a consistent cut of all
    // lanes; reproduce that cut here — drain every handed-off part, then
    // grow the same shard range — so cascade shapes stay in lockstep.
    run_quiesced([&] {
      const uint64_t mt0 = obs::now_ns();
      const auto m = f.payload.size() == 8
                         ? store_.maintain_range(get_u32(f.payload.data()),
                                                 get_u32(f.payload.data() + 4))
                         : store_.maintain();
      r.trace.add("store", "maintain", mt0, obs::now_ns() - mt0, "levels",
                  m.total_levels);
      append_out(c, !error.empty()
                        ? encode_error_response(f.op, f.sequence,
                                                wire_status::error, error)
                        : encode_maintain_response(f.sequence, m.shards_grown,
                                                   m.max_depth,
                                                   m.total_levels));
    });
    const uint64_t t_done = obs::now_ns();
    r.op_hist[static_cast<size_t>(opcode::maintain)].record(t_done - t_start);
    r.trace.add("wire", "maintain", t_start, t_done - t_start, "keys",
                f.key_count);
  } else {
    route_batch(r, c, f, /*from_feed=*/true, t_start, std::move(error));
  }
  // Only now does the store hold (or, under the barrier's drain, will
  // hold) the frame the WAL logged on arrival.
  checkpoint_if_due(r);
}

// -- Frame handling -----------------------------------------------------------

void server::handle_frame(reactor& r, connection& c, const frame& f) {
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  frames_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t_start = obs::now_ns();
  const bool mutating = f.op == opcode::insert ||
                        f.op == opcode::insert_counted ||
                        f.op == opcode::erase;
  // A replica takes mutations only from its feed; clients get an in-band
  // error and keep their connection (they meant well — they just talked
  // to the wrong end of the topology).
  if ((mutating || f.op == opcode::maintain) && cfg_.read_only) {
    // relaxed: single-writer (event loop) telemetry; readers need no ordering.
    read_only_refusals_.fetch_add(1, std::memory_order_relaxed);
    append_out(c, encode_error_response(
                      f.op, f.sequence, wire_status::unsupported,
                      "read-only replica: send mutations to the primary"));
    return;
  }
  switch (f.op) {
    case opcode::ping: {
      append_out(c, encode_ping_response(f.sequence));
      const uint64_t t_done = obs::now_ns();
      r.stage_apply_ns.record(0);
      r.stage_encode_ns.record(t_done - t_start);
      r.op_hist[static_cast<size_t>(opcode::ping)].record(t_done - t_start);
      r.trace.add("wire", "ping", t_start, t_done - t_start, "keys", 0);
      return;
    }
    case opcode::insert:
    case opcode::insert_counted:
    case opcode::query:
    case opcode::erase:
    case opcode::count: {
      // Periodic skew relief: after enough mutating frames, grow pressured
      // shards (overflow cascades) without waiting for a client to ask.
      // The cadence counts per reactor; the pass is a whole-store
      // stop-the-world affair on reactor 0 — in place, ahead of this
      // frame, when this is reactor 0.  Feed traffic never triggers it:
      // the primary's forwarded MAINTAIN frames (including these) drive
      // replica growth at the same stream positions, keeping cascade
      // shapes in lockstep.
      if (mutating && cfg_.maintain_every != 0 &&
          ++r.mutations_since_maintain >= cfg_.maintain_every) {
        r.mutations_since_maintain = 0;
        frame m;
        m.op = opcode::maintain;
        route_ctrl(r, nullptr, m, t_start);
      }
      route_batch(r, c, f, /*from_feed=*/false, t_start, {});
      return;
    }
    case opcode::stats:
    case opcode::maintain:
    case opcode::snapshot:
    case opcode::sync:
      route_ctrl(r, &c, f, t_start);
      return;
  }
}

// -- Batch routing ------------------------------------------------------------

void server::route_batch(reactor& r, connection& c, const frame& f,
                         bool from_feed, uint64_t t_start, std::string error) {
  std::vector<uint64_t> keys, counts;
  if (f.op == opcode::insert_counted)
    decode_pairs(f, keys, counts);
  else
    keys = decode_keys(f);
  // relaxed: single-writer (event loop) telemetry; readers need no ordering.
  keys_.fetch_add(keys.size(), std::memory_order_relaxed);
  pending_resp p;
  p.conn = &c;
  p.op = f.op;
  p.client_seq = f.sequence;
  p.key_count = f.key_count;
  p.from_feed = from_feed;
  p.t_start = t_start;
  p.error = std::move(error);
  if (keys.empty()) {
    // Empty batch: nothing to apply or gate on — answer inline.
    r.stage_apply_ns.record(0);
    finish_resp(r, p);
    return;
  }
  // Partition per key by the store's own shard function — the wire-level
  // shard_hint is advisory and never trusted for ownership.  A batch that
  // lands on one reactor is one part that keeps the decoded vectors and
  // replicates the received frame as-is.  Ownership is contiguous, so a
  // reactor that owns the first and the last shard owns every key.
  auto owner_of = [&](uint64_t key) {
    return shard_owner_[store_.shard_of(key)];
  };
  const uint32_t first = owner_of(keys[0]);
  size_t split =
      shard_owner_.front() == shard_owner_.back() ? keys.size() : 1;
  while (split < keys.size() && owner_of(keys[split]) == first) ++split;
  const bool whole = split == keys.size();
  std::vector<reactor_msg> parts(nr_);
  if (whole) {
    parts[first].keys = std::move(keys);
    parts[first].counts = std::move(counts);
  } else {
    if (f.op == opcode::query)
      p.words.assign(bitmap_words(keys.size()), 0);
    else if (f.op == opcode::count)
      p.words.assign(keys.size(), 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      reactor_msg& w = parts[i < split ? first : owner_of(keys[i])];
      w.keys.push_back(keys[i]);
      if (f.op == opcode::insert_counted) w.counts.push_back(counts[i]);
      w.idx.push_back(static_cast<uint32_t>(i));
    }
  }
  const uint64_t ticket = r.next_ticket++;
  for (const reactor_msg& w : parts)
    if (!w.keys.empty()) ++p.parts_left;
  r.pending.emplace(ticket, std::move(p));
  // The connection survives sweep_dead while parts are in flight — a
  // folded-back done message must never find a dangling conn pointer.
  ++c.inflight;
  for (uint32_t k = 0; k < nr_; ++k) {
    reactor_msg& w = parts[k];
    if (w.keys.empty()) continue;
    w.k = reactor_msg::kind::work;
    w.origin = r.id;
    w.ticket = ticket;
    w.op = f.op;
    w.from_feed = from_feed;
    if (k == r.id) continue;
    // The owner replicates the received frame as-is; feed frames were
    // chained on arrival and are never replicated again.
    if (whole && !from_feed) w.fr = f;
    post(r, k, std::move(w));
  }
  if (!parts[r.id].keys.empty()) {
    reactor_msg d = apply_work(r, parts[r.id], whole ? &f : nullptr);
    complete_part(r, ticket, d);
  }
}

server::reactor_msg server::apply_work(reactor& r, reactor_msg& w,
                                       const frame* whole) {
  reactor_msg d;
  d.k = reactor_msg::kind::done;
  d.origin = r.id;
  d.ticket = w.ticket;
  d.op = w.op;
  d.from_feed = w.from_feed;
  d.idx = std::move(w.idx);
  const std::vector<uint64_t>& keys = w.keys;
  const uint64_t t0 = obs::now_ns();
  try {
    switch (w.op) {
      case opcode::insert: {
        // Key batches take the store's native bulk tier directly: one
        // counting-sort partition + per-shard backend bulk inserts with
        // §5.4 count-compression (store.h).
        const uint64_t ok = store_.insert_bulk(keys);
        d.a = ok;
        d.b = keys.size() - ok;
        break;
      }
      case opcode::insert_counted: {
        std::vector<store::op> ops;
        ops.reserve(keys.size());
        for (size_t i = 0; i < keys.size(); ++i)
          ops.push_back(store::make_insert(keys[i], w.counts[i]));
        const store::batch_result br = store_.apply(ops);
        d.a = br.inserted;
        d.b = br.insert_failed;
        break;
      }
      case opcode::erase: {
        std::vector<store::op> ops;
        ops.reserve(keys.size());
        for (uint64_t k : keys) ops.push_back(store::make_erase(k));
        const store::batch_result br = store_.apply(ops);
        d.a = br.erased;
        d.b = br.erase_missing;
        break;
      }
      case opcode::query: {
        // Queries need per-key answers (a bitmap over this part's keys),
        // which the aggregate apply() path cannot carry — so probe
        // point-wise through the gated pool launch; point queries are
        // thread-safe on every backend.  Workers partition by bitmap
        // *word*, so every word has exactly one writer and the fill needs
        // no atomics.  The launch is sized in keys, not words: a word
        // carries 64 probes.
        d.vals.assign(bitmap_words(keys.size()), 0);
        gpu::thread_pool::instance().parallel_ranges(
            d.vals.size(),
            [&](unsigned, uint64_t wb, uint64_t we) {
              for (uint64_t wi = wb; wi < we; ++wi) {
                uint64_t bits = 0;
                const uint64_t base = wi * 64;
                const uint64_t end =
                    std::min<uint64_t>(base + 64, keys.size());
                for (uint64_t i = base; i < end; ++i)
                  if (store_.contains(keys[i]))
                    bits |= uint64_t{1} << (i - base);
                d.vals[wi] = bits;
              }
            },
            keys.size());
        break;
      }
      case opcode::count: {
        d.vals.resize(keys.size());
        gpu::thread_pool::instance().parallel_ranges(
            keys.size(),
            [&](unsigned, uint64_t b, uint64_t e) {
              for (uint64_t i = b; i < e; ++i)
                d.vals[i] = store_.count(keys[i]);
            },
            keys.size());
        break;
      }
      default:
        break;
    }
    const bool mutating = w.op == opcode::insert ||
                          w.op == opcode::insert_counted ||
                          w.op == opcode::erase;
    if (mutating && !w.from_feed) {
      if (whole != nullptr) {
        d.part_seq = replicate(r, *whole);
      } else {
        // Replicate this reactor's slice as its own lane-stamped frame: a
        // subscriber replays each lane independently, and re-applying the
        // slice yields exactly what this reactor just did.
        frame pf;
        pf.op = w.op;
        pf.key_count = static_cast<uint32_t>(keys.size());
        pf.payload.reserve(keys.size() *
                           (w.op == opcode::insert_counted ? 16 : 8));
        for (size_t i = 0; i < keys.size(); ++i) {
          put_u64(pf.payload, keys[i]);
          if (w.op == opcode::insert_counted) put_u64(pf.payload, w.counts[i]);
        }
        d.part_seq = replicate(r, pf);
      }
    }
  } catch (const std::exception& e) {
    // Apply failures (a WAL segment that cannot be created, allocation)
    // are the server's fault, not the stream's: the whole response turns
    // into an in-band error frame, and the connection and loop survive.
    d.error = *e.what() != '\0' ? e.what() : "gf: batch part failed";
  }
  r.stage_apply_ns.record(obs::now_ns() - t0);
  return d;
}

void server::complete_part(reactor& r, uint64_t ticket, reactor_msg& d) {
  const auto it = r.pending.find(ticket);
  if (it == r.pending.end()) return;  // conn torn down mid-flight
  pending_resp& p = it->second;
  if (!d.error.empty()) {
    if (p.error.empty()) p.error = std::move(d.error);
  } else {
    switch (d.op) {
      case opcode::insert:
      case opcode::insert_counted:
      case opcode::erase:
        p.a += d.a;
        p.b += d.b;
        if (d.part_seq != 0) p.part_seqs.push_back(d.part_seq);
        break;
      case opcode::query:
        if (d.idx.empty()) {  // the whole batch: its bitmap is the answer
          p.words = std::move(d.vals);
          break;
        }
        for (size_t j = 0; j < d.idx.size(); ++j)
          if ((d.vals[j >> 6] >> (j & 63)) & 1)
            p.words[d.idx[j] >> 6] |= uint64_t{1} << (d.idx[j] & 63);
        break;
      case opcode::count:
        if (d.idx.empty()) {
          p.words = std::move(d.vals);
          break;
        }
        for (size_t j = 0; j < d.idx.size(); ++j)
          p.words[d.idx[j]] = d.vals[j];
        break;
      default:
        break;
    }
  }
  if (--p.parts_left != 0) return;
  pending_resp done = std::move(p);
  r.pending.erase(it);
  if (done.conn->inflight > 0) --done.conn->inflight;
  finish_resp(r, done);
}

void server::finish_resp(reactor& r, pending_resp& p) {
  // Answered even on a dead connection: a condemned client still gets the
  // frames it sent before the bad bytes (sweep_dead flushes them).
  const uint64_t t0 = obs::now_ns();
  if (!p.error.empty()) {
    append_out(*p.conn, encode_error_response(p.op, p.client_seq,
                                              wire_status::error, p.error));
  } else {
    switch (p.op) {
      case opcode::query:
        append_out(*p.conn,
                   encode_query_response(p.client_seq, p.key_count, p.words));
        break;
      case opcode::count:
        append_out(*p.conn, encode_count_response(p.client_seq, p.words));
        break;
      default:
        queue_mutation_response(r, *p.conn, p.from_feed, p.op, p.client_seq,
                                p.key_count, p.a, p.b,
                                std::span<const uint64_t>(p.part_seqs));
        break;
    }
  }
  const uint64_t t_done = obs::now_ns();
  r.stage_encode_ns.record(t_done - t0);
  r.op_hist[static_cast<size_t>(p.op)].record(t_done - p.t_start);
  r.trace.add("wire", op_name(p.op), p.t_start, t_done - p.t_start, "keys",
              p.key_count);
}

// -- Control plane (reactor 0, stop-the-world) --------------------------------

void server::route_ctrl(reactor& r, connection* c, const frame& f,
                        uint64_t t_start) {
  // The requester is pinned by `inflight` until the reply is queued (on
  // reactor 0, appended directly — the conn's owner is parked while the
  // barrier holds).
  if (c != nullptr) ++c->inflight;
  if (r.id == 0) {
    exec_ctrl(r, c, f, t_start);
    return;
  }
  reactor_msg m;
  m.k = reactor_msg::kind::ctrl;
  m.origin = r.id;
  m.conn = c;
  m.fr = f;
  m.a = t_start;
  post(r, 0, std::move(m));
}

void server::checkpoint_if_due(reactor& r) {
  if (cfg_.durability == nullptr || !cfg_.durability->checkpoint_due())
    return;
  // A checkpoint needs every lane quiesced, so it is a control op: a
  // SNAPSHOT without a requester.
  frame f;
  f.op = opcode::snapshot;
  route_ctrl(r, nullptr, f, obs::now_ns());
}

void server::exec_ctrl(reactor& r, connection* c, const frame& f,
                       uint64_t t_start) {
  // Several reactors may ask for one due checkpoint: only the first pays
  // for a barrier.
  if (c == nullptr && f.op == opcode::snapshot &&
      !cfg_.durability->checkpoint_due())
    return;
  run_quiesced([&] {
    // Served even on a dead connection, like data frames (finish_resp).
    if (c != nullptr && c->inflight > 0) --c->inflight;
    uint64_t t_applied = t_start;
    try {
      switch (f.op) {
        case opcode::stats: {
          // Rendered inside the barrier: every reactor is parked, so the
          // scrape is a consistent cut — no counter can tear mid-render.
          // Exposition variants ride the shard_hint (frame.h): metrics is
          // the Prometheus-style text scrape, trace the chrome://tracing
          // dump.  The default stays the report JSON.
          std::string text;
          if (f.shard_hint == kStatsMetricsHint)
            text = registry_.render();
          else if (f.shard_hint == kStatsTraceHint)
            text = trace_json();
          else
            text = stats_json_text(obs::now_ns());
          t_applied = obs::now_ns();
          append_out(*c, encode_stats_response(f.sequence, text));
          break;
        }
        case opcode::maintain: {
          // A ranged MAINTAIN (two u32s) grows only its shard range.
          const bool ranged = f.payload.size() == 8;
          maintain_all_slices(
              r, c, f.sequence, ranged ? get_u32(f.payload.data()) : 0,
              ranged ? get_u32(f.payload.data() + 4) : store_.num_shards(),
              t_start);
          t_applied = obs::now_ns();
          break;
        }
        case opcode::snapshot: {
          if (c == nullptr) {
            cfg_.durability->checkpoint(store_);
            break;
          }
          if (cfg_.snapshot_path.empty()) {
            append_out(*c, encode_error_response(
                               opcode::snapshot, f.sequence,
                               wire_status::unsupported,
                               "server was started without a snapshot path"));
            break;
          }
          store::save_store(store_, cfg_.snapshot_path, repl_position());
          uint64_t bytes = static_cast<uint64_t>(
              std::filesystem::file_size(cfg_.snapshot_path));
          t_applied = obs::now_ns();
          r.trace.add("store", "snapshot", t_start, t_applied - t_start,
                      "bytes", bytes);
          append_out(*c, encode_snapshot_response(f.sequence, bytes));
          break;
        }
        case opcode::sync: {
          serve_sync(r, *c, f);
          t_applied = obs::now_ns();
          break;
        }
        default:
          break;
      }
    } catch (const std::exception& e) {
      // Handler failures (snapshot or checkpoint I/O, allocation) are the
      // server's fault, not the stream's: answer with an error frame and
      // keep the connection; a synthesized op leaves a trace event.
      t_applied = obs::now_ns();
      if (c == nullptr) {
        r.trace.add("store", "ctrl_failed", t_start, t_applied - t_start,
                    "op", static_cast<uint64_t>(f.op));
        return;
      }
      append_out(*c, encode_error_response(f.op, f.sequence,
                                           wire_status::error, e.what()));
    }
    if (c == nullptr) return;  // synthesized: no wire response to time
    const uint64_t t_done = obs::now_ns();
    r.stage_apply_ns.record(t_applied - t_start);
    r.stage_encode_ns.record(t_done - t_applied);
    r.op_hist[static_cast<size_t>(f.op)].record(t_done - t_start);
    r.trace.add("wire", op_name(f.op), t_start, t_done - t_start, "keys",
                f.key_count);
  });
}

void server::maintain_all_slices(reactor& r, connection* c,
                                 uint64_t client_seq, uint32_t begin,
                                 uint32_t end, uint64_t t_start) {
  // Caller holds the stop-the-world barrier: the store has no other
  // writer, and replicating per-slice ranged frames on each reactor's own
  // lane keeps every lane's stream a faithful replay of what its owner
  // did.
  uint64_t grown = 0, max_depth = 1, total = 0;
  for (uint32_t k = 0; k < nr_; ++k) {
    const uint32_t lo = std::max(begin, reactors_[k]->shard_begin);
    const uint32_t hi = std::min(end, reactors_[k]->shard_end);
    if (lo >= hi) continue;
    const auto m = store_.maintain_range(lo, hi);
    grown += m.shards_grown;
    max_depth = std::max<uint64_t>(max_depth, m.max_depth);
    total += m.total_levels;
    frame mf;
    mf.op = opcode::maintain;
    put_u32(mf.payload, lo);
    put_u32(mf.payload, hi);
    replicate(*reactors_[k], mf);
  }
  r.trace.add("store", "maintain", t_start, obs::now_ns() - t_start,
              "levels", total);
  if (c != nullptr)
    append_out(*c, encode_maintain_response(
                       client_seq, static_cast<uint32_t>(grown),
                       static_cast<uint32_t>(max_depth),
                       static_cast<uint32_t>(total)));
}

// -- Exposition ---------------------------------------------------------------

std::string server::stats_json_text(uint64_t t_now) const {
  // The store report plus the server identity and the replication
  // plane — role, stream position, subscriber lag, and (on a replica)
  // feed health and gap count, so divergence is observable over the
  // wire.
  util::json_writer w;
  w.object_begin();
  store::report_json_fields(store_, w);
  const server_stats s = stats();
  auto facts = [&](json_section section) {
    for (const fact& f : kFacts) {
      if (f.section != section) continue;
      if (f.kind == kFlag)
        w.field(f.key, s.*f.field != 0);
      else
        w.field(f.key, s.*f.field);
    }
  };
  size_t ack_pending = 0;
  for (const auto& rx : reactors_) ack_pending += rx->pending_acks.size();
  w.key("server").object_begin();
  w.field("version", obs::kVersion)
      .field("build", obs::kBuildType)
      .field("compiler", obs::kCompiler)
      .field("counters_enabled", obs::kCountersEnabled)
      .field("uptime_seconds",
             static_cast<double>(t_now - start_ns_) / 1e9, 3)
      .field("reactors", nr_);
  facts(kServer);
  w.object_end();
  w.key("replication").object_begin();
  w.field("role",
          cfg_.read_only || s.feed_attached ? "replica" : "primary")
      .field("read_only", cfg_.read_only)
      .field("repl_seq", s.repl_seq)
      .field("lanes", active_lanes());
  facts(kReplication);
  w.field("ack_replicas", cfg_.ack_replicas)
      .field("ack_pending", ack_pending)
      .field("ring_frames", log_.size())
      .field("ring_bytes", log_.bytes());
  w.object_end();
  w.key("durability").object_begin();
  w.field("armed", cfg_.durability != nullptr);
  if (cfg_.durability != nullptr) {
    const persist::durability_stats d = cfg_.durability->stats();
    w.field("wal_dir", cfg_.durability->dir())
        .field("fsync",
               persist::fsync_policy_name(cfg_.durability->policy()));
    for (const wal_fact& f : kWalFacts) w.field(f.key, d.*f.field);
  }
  w.object_end();
  w.object_end();
  return w.str();
}

std::string server::trace_json() const {
  // Merge every reactor's ring into one export, tid = reactor id + 1, in
  // global timestamp order so chrome://tracing draws a coherent timeline.
  std::vector<std::pair<obs::trace_event, int>> evs;
  for (uint32_t k = 0; k < nr_; ++k)
    for (obs::trace_event& e : reactors_[k]->trace.snapshot_events())
      evs.emplace_back(std::move(e), static_cast<int>(k) + 1);
  std::stable_sort(evs.begin(), evs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.ts_ns < b.first.ts_ns;
                   });
  return obs::trace_ring::render_chrome_json(evs);
}

}  // namespace gf::net
