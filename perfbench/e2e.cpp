// End-to-end rounds: set up a server (and for churn_gqf a WAL and a
// replica), drive it over loopback from kConns client threads with kWindow
// frames in flight each, check every answer against the exact oracle, then
// stop it and time a restart.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gf;

constexpr int kClientTimeoutMs = 60000;

double seconds_since(uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

reply_kind kind_of(const net::frame& f) {
  if (f.status == net::wire_status::ok) return reply_kind::ok;
  if (f.status == net::wire_status::ok_async) return reply_kind::ok_async;
  return reply_kind::error;
}

bool is_write(net::opcode op) {
  return op == net::opcode::insert || op == net::opcode::insert_counted;
}

const char* span_name(net::opcode op) {
  switch (op) {
    case net::opcode::insert: return "net.frame.insert";
    case net::opcode::insert_counted: return "net.frame.insert_counted";
    case net::opcode::query: return "net.frame.query";
    case net::opcode::count: return "net.frame.count";
    default: return "net.frame.control";
  }
}

/// One connection's share of a phase.
struct conn_result {
  std::vector<double> write_us, read_us;
  uint64_t write_keys = 0, read_keys = 0;
  op_tally tally;
  uint64_t insert_attempted = 0, insert_refused = 0;
  uint64_t absent_probes = 0, absent_hits = 0;
  violation_log log;
  std::string error;
  uint64_t last_ack_ns = 0;
  uint64_t cpu_ns = 0;  ///< this client thread's own CPU time in the phase
};

/// Check one reply against its request and account it.
void settle(const wire_frame& req, const net::frame& resp, double us,
            conn_result& r) {
  const reply_kind kind = kind_of(resp);
  const uint64_t n = req.keys.size();
  if (kind != reply_kind::error && resp.op != req.op) {
    r.log.record("wire.reply_opcode", "reply opcode differs from request");
    return;
  }
  (is_write(req.op) ? r.write_us : r.read_us).push_back(us);
  (is_write(req.op) ? r.write_keys : r.read_keys) += n;
  if (kind == reply_kind::error) {
    r.tally.account(kind, n, 0);
    if (req.op == net::opcode::insert || req.op == net::opcode::insert_counted) {
      r.insert_attempted += n;
      r.insert_refused += n;
    }
    return;
  }
  switch (req.op) {
    case net::opcode::insert:
    case net::opcode::insert_counted: {
      const net::pair_result pr = net::decode_pair_response(resp);
      r.tally.account(kind, n, pr.failed);
      r.insert_attempted += n;
      r.insert_refused += pr.failed;
      break;
    }
    case net::opcode::query: {
      const std::vector<uint64_t> bits = net::decode_bitmap(resp);
      r.tally.account(kind, n, 0);
      check_no_false_negatives(bits, req.keys, req.absent, r.log);
      for (size_t i = 0; i < n; ++i)
        if (req.absent[i]) {
          ++r.absent_probes;
          r.absent_hits += bit_at(bits, i);
        }
      break;
    }
    case net::opcode::count: {
      const std::vector<uint64_t> counts = net::decode_counts(resp);
      r.tally.account(kind, n, 0);
      if (counts.size() != n) {
        r.log.record("wire.count_reply_length", "count reply size mismatch");
        break;
      }
      for (size_t i = 0; i < n; ++i) {
        if (req.absent[i]) {
          ++r.absent_probes;
          r.absent_hits += counts[i] > 0;
        } else {
          check_count_floor(counts[i], req.expect[i], req.keys[i], r.log);
        }
      }
      break;
    }
    default:
      break;
  }
}

uint64_t submit(net::client& cli, const wire_frame& f) {
  switch (f.op) {
    case net::opcode::insert: return cli.submit_insert(f.keys);
    case net::opcode::insert_counted:
      return cli.submit_insert_counted(f.keys, f.counts);
    case net::opcode::query: return cli.submit_query(f.keys);
    default: return cli.submit_count(f.keys);
  }
}

/// Closed loop over `frames` generated frames: keep kWindow in flight,
/// time each from submit to its matching wait.
template <class Make>
void drive(net::client& cli, uint64_t frames, Make&& make, conn_result& r,
           span_log* spans, uint32_t tid) {
  struct pending {
    wire_frame f;
    uint64_t seq = 0;
    uint64_t t0 = 0;
  };
  std::deque<pending> inflight;
  auto settle_front = [&] {
    pending& p = inflight.front();
    net::frame resp = cli.wait(p.seq);
    const uint64_t t1 = now_ns();
    r.last_ack_ns = t1;
    if (spans) spans->add(span_name(p.f.op), p.t0, t1, tid, p.seq);
    settle(p.f, resp, static_cast<double>(t1 - p.t0) / 1e3, r);
    inflight.pop_front();
  };
  for (uint64_t i = 0; i < frames; ++i) {
    pending p;
    make(i, p.f);
    p.t0 = now_ns();
    p.seq = submit(cli, p.f);
    inflight.push_back(std::move(p));
    if (inflight.size() >= kWindow) settle_front();
  }
  while (!inflight.empty()) settle_front();
}

/// How long a phase took, and the CPU time the server side spent in it:
/// the process's CPU time less the client threads' own.
struct phase_time {
  double wall_s = 0;
  uint64_t server_cpu_ns = 0;
};

/// Run `body(conn, client, result)` on kConns threads at once.  Exceptions
/// land in result.error.
template <class Body>
phase_time run_phase(std::vector<std::unique_ptr<net::client>>& clients,
                     std::vector<conn_result>& results, Body&& body) {
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int c = 0; c < kConns; ++c)
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const uint64_t cpu0 = thread_cpu_ns();
      try {
        body(c, *clients[c], results[c]);
      } catch (const std::exception& e) {
        results[c].error = e.what();
      }
      results[c].cpu_ns = thread_cpu_ns() - cpu0;
    });
  while (ready.load() < kConns) std::this_thread::yield();
  const uint64_t t0 = now_ns();
  const uint64_t cpu0 = process_cpu_ns();
  go.store(true);
  for (auto& t : threads) t.join();
  phase_time pt;
  pt.wall_s = seconds_since(t0);
  uint64_t cpu = process_cpu_ns() - cpu0;
  for (const conn_result& r : results) cpu -= std::min(cpu, r.cpu_ns);
  pt.server_cpu_ns = cpu;
  return pt;
}

void fold(const std::vector<conn_result>& conns, round_result& out) {
  for (const conn_result& c : conns) {
    out.write_us.insert(out.write_us.end(), c.write_us.begin(), c.write_us.end());
    out.read_us.insert(out.read_us.end(), c.read_us.begin(), c.read_us.end());
    out.write_keys += c.write_keys;
    out.read_keys += c.read_keys;
    out.tally.merge(c.tally);
    out.insert_attempted += c.insert_attempted;
    out.insert_refused += c.insert_refused;
    out.absent_probes += c.absent_probes;
    out.absent_hits += c.absent_hits;
    out.log.merge(c.log);
    if (!c.error.empty()) out.log.record("wire.client_error", c.error);
  }
}

std::vector<std::unique_ptr<net::client>> connect_clients(uint16_t port) {
  std::vector<std::unique_ptr<net::client>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<net::client>(
        "127.0.0.1", port, net::kDefaultMaxFrameBytes, kClientTimeoutMs));
    clients.back()->ping();
  }
  return clients;
}

/// A server and the thread running its loop; stops and joins on scope exit.
class running_server {
 public:
  running_server(net::server_config cfg, store::filter_store st)
      : srv_(std::move(cfg), std::move(st)) {}
  running_server(const running_server&) = delete;
  running_server& operator=(const running_server&) = delete;
  ~running_server() { stop(); }

  void start() {
    loop_ = std::thread([this] { srv_.run(); });
  }
  void stop() {
    if (!loop_.joinable()) return;
    srv_.request_stop();
    loop_.join();
  }
  net::server& get() { return srv_; }

 private:
  net::server srv_;
  std::thread loop_;  // declared after srv_: joined before srv_ dies
};

/// `gf_wire_stage_ns_p99{stage="<s>"...}` from a metrics scrape, the
/// maximum over reactor lanes; 0 when absent.
double scrape_stage_p99(const std::string& text, const std::string& stage) {
  std::istringstream in(text);
  std::string line;
  double best = 0;
  const std::string key = "stage=\"" + stage + "\"";
  while (std::getline(in, line)) {
    if (line.rfind("gf_wire_stage_ns_p99{", 0) != 0) continue;
    if (line.find(key) == std::string::npos) continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    best = std::max(best, std::strtod(line.c_str() + sp + 1, nullptr));
  }
  return best;
}

/// Ping round trips on an idle connection, in microseconds.
std::vector<double> ping_rtts(net::client& cli, int n) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const uint64_t t0 = now_ns();
    cli.ping();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return us;
}

void record_server_layers(net::server& srv, net::client& cli, round_result& out,
                          uint64_t keys) {
  const std::vector<double> rtt = ping_rtts(cli, 2000);
  const latency_summary s = summarize(rtt);
  out.layer["net.ping_rtt_us.p50"] = s.p50;
  out.layer["net.ping_rtt_us.p99"] = s.p99;
  const std::string text = cli.metrics_text();
  for (const char* stage : {"decode", "apply", "encode", "flush"})
    out.layer[std::string("net.stage.") + stage + "_ns.p99"] =
        scrape_stage_p99(text, stage);
  const net::server_stats st = srv.stats();
  out.layer["net.wire_bytes_per_key"] =
      static_cast<double>(st.bytes_in + st.bytes_out) /
      static_cast<double>(std::max<uint64_t>(1, keys));
  out.layer["net.frames_forwarded"] = static_cast<double>(st.frames_forwarded);
  out.layer["net.subscriber_drops"] = static_cast<double>(st.subscriber_drops);
}

}  // namespace

// -- bulk_tcf ----------------------------------------------------------------

round_result run_bulk_round(const run_context& ctx, const bulk_params& p,
                            bool traced) {
  round_result out;
  span_log* spans = traced ? ctx.spans : nullptr;
  const std::string snap = ctx.out_dir + "/bulk_tcf.gfs";
  std::filesystem::remove(snap);

  store::store_config sc;
  sc.backend = store::backend_kind::tcf;
  sc.num_shards = p.shards;
  sc.capacity = p.capacity();
  net::server_config cfg;
  cfg.reactors = p.reactors;
  cfg.snapshot_path = snap;
  const uint64_t t_setup = now_ns();
  const uint64_t cpu_setup = process_cpu_ns();
  auto srv = std::make_unique<running_server>(cfg, store::filter_store(sc));
  srv->start();
  std::vector<std::unique_ptr<net::client>> clients =
      connect_clients(srv->get().port());
  out.setup_cpu_s = static_cast<double>(process_cpu_ns() - cpu_setup) / 1e9;
  out.setup_s = seconds_since(t_setup);
  if (spans) spans->add("setup.bulk_tcf", t_setup, now_ns(), 0);

  const uint64_t frames = p.frames();
  std::vector<conn_result> ins(kConns), qry(kConns);
  const phase_time wt = run_phase(clients, ins, [&](int c, net::client& cli,
                                                    conn_result& r) {
    const uint64_t lo = frames * c / kConns, hi = frames * (c + 1) / kConns;
    drive(cli, hi - lo,
          [&](uint64_t i, wire_frame& f) { bulk_insert_frame(p, ctx.seed, lo + i, f); },
          r, spans, static_cast<uint32_t>(c + 1));
  });
  const phase_time rt = run_phase(clients, qry, [&](int c, net::client& cli,
                                                    conn_result& r) {
    const uint64_t q = 2 * frames;
    const uint64_t lo = q * c / kConns, hi = q * (c + 1) / kConns;
    drive(cli, hi - lo,
          [&](uint64_t i, wire_frame& f) { bulk_query_frame(p, ctx.seed, lo + i, f); },
          r, spans, static_cast<uint32_t>(c + 1));
  });
  out.write_s = wt.wall_s;
  out.read_s = rt.wall_s;
  out.server_cpu_ns = wt.server_cpu_ns + rt.server_cpu_ns;
  fold(ins, out);
  fold(qry, out);

  if (traced)
    record_server_layers(srv->get(), *clients[0], out,
                         out.write_keys + out.read_keys);
  clients[0]->snapshot();
  clients.clear();
  srv->stop();
  const store::filter_store& live = srv->get().store();
  out.bits_per_key = static_cast<double>(live.memory_bytes()) * 8.0 /
                     static_cast<double>(p.keys);
  if (traced) {
    out.layer["store.load_factor"] = live.load_factor();
    out.layer["store.insert_fail_share"] =
        static_cast<double>(out.insert_refused) /
        static_cast<double>(std::max<uint64_t>(1, out.insert_attempted));
  }

  // Restart: no WAL, so the store comes back from the server's snapshot.
  std::vector<double> ms, cpu_ms;
  for (int k = 0; k < p.restart_repeats; ++k) {
    const uint64_t t0 = now_ns();
    const uint64_t c0 = process_cpu_ns();
    store::filter_store back = store::load_store(snap);
    cpu_ms.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e6);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (k == 0) {
      rng g(ctx.seed ^ 0x5a11);
      const uint64_t salt = bulk_salt(ctx.seed);
      for (int i = 0; i < 8192; ++i) {
        const uint64_t key = key_at(salt, g.below(2 * p.keys));
        if (back.contains(key) != live.contains(key))
          out.log.record("bulk_tcf.restart_answers_match",
                         "reloaded snapshot answers a sampled key differently");
      }
    }
  }
  out.restart_ms = median(ms);
  out.restart_cpu_ms = median(cpu_ms);
  std::filesystem::remove(snap);
  return out;
}

// -- churn_gqf ---------------------------------------------------------------

round_result run_churn_round(const run_context& ctx, const churn_params& p,
                             bool traced) {
  round_result out;
  span_log* spans = traced ? ctx.spans : nullptr;
  const zipf_table zipf(p.universe_per_conn, p.theta);
  const std::string wal_dir = ctx.out_dir + "/churn_gqf_wal";

  persist::wal_config wc;
  wc.dir = wal_dir;
  wc.fsync = persist::fsync_policy::interval;
  wc.fsync_interval_ms = p.fsync_interval_ms;
  wc.checkpoint_every_bytes = p.checkpoint_every_bytes;
  store::store_config sc;
  sc.backend = store::backend_kind::gqf;
  sc.num_shards = p.shards;
  sc.capacity = p.capacity;
  auto fresh = [&] {
    return std::pair<store::filter_store, uint64_t>(store::filter_store(sc), 0);
  };

  net::server_config pcfg;
  pcfg.reactors = p.reactors;
  net::server_config rcfg;
  rcfg.read_only = true;
  // The previous round's log is deleted before the set-up is timed: the set-up
  // starts the WAL from an empty directory.
  std::filesystem::remove_all(wal_dir);
  const uint64_t t_setup = now_ns();
  const uint64_t cpu_setup = process_cpu_ns();
  auto eng = std::make_unique<persist::durability_engine>(wc);
  pcfg.durability = eng.get();
  auto primary = std::make_unique<running_server>(pcfg, eng->recover(fresh));
  primary->start();
  net::sync_result sr = net::sync_from("127.0.0.1", primary->get().port());
  auto replica = std::make_unique<running_server>(rcfg, std::move(sr.store));
  replica->get().attach_feed(std::move(sr.feed), std::move(sr.dec),
                             sr.repl_seq + 1);
  replica->start();
  std::vector<std::unique_ptr<net::client>> clients =
      connect_clients(primary->get().port());
  out.setup_cpu_s = static_cast<double>(process_cpu_ns() - cpu_setup) / 1e9;
  out.setup_s = seconds_since(t_setup);
  if (spans) spans->add("setup.churn_gqf", t_setup, now_ns(), 0);

  std::vector<std::unique_ptr<churn_stream>> streams;
  for (int c = 0; c < kConns; ++c)
    streams.push_back(std::make_unique<churn_stream>(p, zipf, ctx.seed, c));
  std::vector<conn_result> conns(kConns);
  const phase_time pt = run_phase(clients, conns, [&](int c, net::client& cli,
                                                      conn_result& r) {
    drive(cli, p.frames_per_conn,
          [&](uint64_t, wire_frame& f) { streams[c]->next(f); }, r,
          spans, static_cast<uint32_t>(c + 1));
  });
  out.write_s = out.read_s = pt.wall_s;
  out.server_cpu_ns = pt.server_cpu_ns;
  fold(conns, out);

  // The replica is caught up once it applied the primary's last sequence.
  uint64_t last_ack = 0;
  for (const conn_result& c : conns) last_ack = std::max(last_ack, c.last_ack_ns);
  const uint64_t catchup_deadline = now_ns() + uint64_t{30} * 1000000000;
  while (replica->get().stats().feed_last_seq < primary->get().stats().repl_seq &&
         now_ns() < catchup_deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  const double catchup_ms = static_cast<double>(now_ns() - last_ack) / 1e6;
  if (replica->get().stats().feed_last_seq < primary->get().stats().repl_seq)
    out.log.record("churn_gqf.replica_catches_up",
                   "replica did not reach the primary's sequence in 30 s");

  if (traced) {
    record_server_layers(primary->get(), *clients[0], out,
                         out.write_keys + out.read_keys);
    out.layer["net.replica_catchup_ms"] = catchup_ms;
  }
  clients.clear();
  replica->stop();
  primary->stop();
  if (traced) {
    // The engine's counters belong to the loop thread: read once it ended.
    const persist::durability_stats ds = eng->stats();
    out.layer["persist.wal_bytes_per_key"] =
        static_cast<double>(ds.wal_bytes) /
        static_cast<double>(std::max<uint64_t>(1, out.write_keys));
    out.layer["persist.checkpoints"] = static_cast<double>(ds.checkpoints);
  }

  // Sampled keys: each connection's hottest ranks, random ranks, and
  // absent keys.  Their answers on the primary are the reference for the
  // replica and for the recovered store.
  std::vector<uint64_t> sample;
  rng g(ctx.seed ^ 0x5a11);
  for (int c = 0; c < kConns; ++c) {
    for (uint64_t r = 0; r < 1024; ++r) sample.push_back(streams[c]->key_of_rank(r));
    for (int i = 0; i < 2048; ++i)
      sample.push_back(streams[c]->key_of_rank(g.below(p.universe_per_conn)));
  }
  for (int i = 0; i < 1024; ++i)
    sample.push_back(key_at(churn_salt(ctx.seed), (uint64_t{1} << 62) + i));
  const store::filter_store& pst = primary->get().store();
  const store::filter_store& rst = replica->get().store();
  std::vector<uint64_t> reference;
  for (uint64_t k : sample) reference.push_back(pst.count(k));
  if (rst.size() != pst.size())
    out.log.record("churn_gqf.replica_item_count",
                   "replica holds " + std::to_string(rst.size()) +
                       " items, primary " + std::to_string(pst.size()));
  for (size_t i = 0; i < sample.size(); ++i)
    if (rst.count(sample[i]) != reference[i]) {
      out.log.record("churn_gqf.replica_answers",
                     "replica counts a sampled key differently");
      break;
    }

  uint64_t live = 0;
  for (const auto& s : streams) live += s->truth().live();
  out.bits_per_key = static_cast<double>(pst.memory_bytes()) * 8.0 /
                     static_cast<double>(std::max<uint64_t>(1, live));
  if (traced) {
    out.layer["store.load_factor"] = pst.load_factor();
    uint32_t depth = 1;
    for (uint32_t s = 0; s < pst.num_shards(); ++s)
      depth = std::max(depth, pst.shard_at(s).level_count());
    out.layer["store.cascade_depth_max"] = depth;
    out.layer["store.insert_fail_share"] =
        static_cast<double>(out.insert_refused) /
        static_cast<double>(std::max<uint64_t>(1, out.insert_attempted));
  }
  eng->sync();
  replica.reset();
  primary.reset();
  eng.reset();

  // Restart: recover the stopped primary's WAL directory in fresh engines.
  std::vector<double> ms, cpu_ms;
  uint64_t replayed = 0;
  for (int k = 0; k < p.restart_repeats; ++k) {
    persist::durability_engine again(wc);
    const uint64_t t0 = now_ns();
    const uint64_t c0 = process_cpu_ns();
    store::filter_store back = again.recover(fresh);
    cpu_ms.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e6);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    replayed = again.stats().recovery_replayed_frames;
    if (k == 0)
      for (size_t i = 0; i < sample.size(); ++i)
        if (back.count(sample[i]) != reference[i]) {
          out.log.record("churn_gqf.recovered_answers",
                         "recovered store counts a sampled key differently");
          break;
        }
  }
  out.restart_ms = median(ms);
  out.restart_cpu_ms = median(cpu_ms);
  if (traced) {
    // Replay cost: restart minus loading the checkpoint it starts from.
    const persist::manifest m = persist::load_manifest(wal_dir);
    std::vector<double> load_ms;
    for (int k = 0; k < p.restart_repeats; ++k) {
      const uint64_t t0 = now_ns();
      store::filter_store ck = store::load_store(wal_dir + "/" + m.checkpoint_file);
      load_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    out.layer["persist.replayed_frames"] = static_cast<double>(replayed);
    out.layer["persist.replay_ns_per_frame"] =
        replayed ? (out.restart_ms - median(load_ms)) * 1e6 /
                       static_cast<double>(replayed)
                 : 0.0;
  }
  return out;
}

}  // namespace perfbench
