// The durability engine wired into net::server: every applied mutating
// batch (auto-maintain's synthesized frames included) lands in the WAL at
// the same point it feeds subscribers, restart = checkpoint + tail replay
// through the store's normal apply path, and a reconnecting replica whose
// resume position has wrapped out of the in-memory replay ring is served
// its delta back from disk — under scripted fault injection, not sleeps.
// Engine-level attack surface (torn tails, SIGKILL drills, manifest
// cross-checks) lives in tests/persist_wal_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/fault.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

// Byte-identity across restarts and replicas requires a deterministic
// engine; pin the pool to one worker before its lazy construction (same
// rationale as net_fault_test.cpp).
const bool kSerialPool = [] {
  ::setenv("GF_NUM_WORKERS", "1", /*overwrite=*/1);
  return true;
}();

store::store_config small_config(uint64_t capacity = 1 << 16) {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 4;
  cfg.capacity = capacity;
  return cfg;
}

std::string fresh_dir(const std::string& tag) {
  std::string dir = std::string(::testing::TempDir()) + "gf_rec_" + tag +
                    "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

persist::wal_config wal_at(const std::string& dir) {
  persist::wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::none;  // speed; crash realism is the
                                            // engine suite's business
  cfg.checkpoint_every_bytes = 0;           // no surprise checkpoints
  return cfg;
}

persist::durability_engine::bootstrap_fn fresh_boot() {
  return [] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(small_config()), 0);
  };
}

struct fault_guard {
  fault_guard() { reset(); }
  ~fault_guard() { reset(); }
  static void reset() {
    net::fault_engine::instance().disarm_all();
    net::fault_engine::instance().clear_connect_plans();
  }
};

struct live_server {
  net::server srv;
  std::thread loop;
  bool stopped = false;

  explicit live_server(store::filter_store st, net::server_config cfg = {})
      : srv(std::move(cfg), std::move(st)) {
    loop = std::thread([this] { srv.run(); });
  }
  live_server(store::filter_store st, net::server_config cfg,
              net::socket_fd feed, net::frame_decoder dec, uint64_t next_seq)
      : srv(std::move(cfg), std::move(st)) {
    srv.attach_feed(std::move(feed), std::move(dec), next_seq);
    loop = std::thread([this] { srv.run(); });
  }
  ~live_server() { stop(); }
  void stop() {
    if (stopped) return;
    stopped = true;
    srv.request_stop();
    loop.join();
  }
  net::client connect() { return net::client("127.0.0.1", srv.port()); }
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

bool converged(live_server& primary, live_server& replica) {
  return wait_until([&] {
    return replica.srv.stats().repl_seq == primary.srv.stats().repl_seq;
  });
}

net::fault_plan one_cut(uint64_t at_bytes) {
  net::fault_plan plan;
  plan.events.push_back(
      {net::fault_kind::cut, net::fault_dir::recv, at_bytes, 0});
  return plan;
}

}  // namespace

// A served workload — inserts, counted inserts, erases, and the
// auto-maintain frames the server synthesizes — restarts byte-identical
// from checkpoint + WAL tail, with the stream position continued.
TEST(PersistRecovery, ServerRestartsByteIdenticalWithLineage) {
  const std::string dir = fresh_dir("server_ident");
  std::string expected;
  uint64_t final_seq = 0;
  {
    persist::durability_engine eng(wal_at(dir));
    auto st = eng.recover(fresh_boot());
    net::server_config cfg;
    cfg.durability = &eng;
    cfg.maintain_every = 4;  // force synthesized MAINTAIN frames early
    live_server primary{std::move(st), cfg};
    auto cli = primary.connect();

    auto keys = util::hashed_xorwow_items(24000, 4201);
    std::span<const uint64_t> span(keys);
    for (size_t lo = 0; lo < keys.size(); lo += 4000)
      cli.insert(span.subspan(lo, 4000));
    std::vector<uint64_t> counts(2000, 3);
    cli.insert_counted(span.subspan(0, 2000), counts);
    cli.erase(span.subspan(4000, 2000));

    primary.stop();
    final_seq = primary.srv.stats().repl_seq;
    ASSERT_GT(final_seq, 6u);  // the 6 client batches + auto-maintains
    expected = store::serialize_store(primary.srv.store(), final_seq);
  }

  persist::durability_engine eng(wal_at(dir));
  auto recovered = eng.recover(fresh_boot());
  EXPECT_EQ(eng.stats().recovery_replayed_frames, final_seq);
  EXPECT_EQ(eng.last_seq(), final_seq);
  EXPECT_EQ(store::serialize_store(recovered, eng.last_seq()), expected);

  // A server booted on the recovered pair continues the lineage: its
  // stream position is the WAL's, not 0.
  net::server_config cfg;
  cfg.durability = &eng;
  live_server reborn{std::move(recovered), cfg};
  EXPECT_EQ(reborn.srv.stats().repl_seq, final_seq);
  auto cli = reborn.connect();
  cli.insert(util::hashed_xorwow_items(100, 4202));
  EXPECT_TRUE(wait_until(
      [&] { return reborn.srv.stats().repl_seq == final_seq + 1; }));
  reborn.stop();
  std::filesystem::remove_all(dir);
}

// O(delta) restart: after a mid-workload checkpoint, recovery replays
// exactly the frames above the checkpoint sequence — observable in
// gf_recovery_replayed_frames — and still lands byte-identical.
TEST(PersistRecovery, RestartReplaysOnlyFramesAboveTheCheckpoint) {
  const std::string dir = fresh_dir("delta_restart");
  std::string expected;
  uint64_t final_seq = 0, ckpt_seq = 0;
  {
    persist::durability_engine eng(wal_at(dir));
    auto st = eng.recover(fresh_boot());
    net::server_config cfg;
    cfg.durability = &eng;
    live_server primary{std::move(st), cfg};
    auto cli = primary.connect();
    auto keys = util::hashed_xorwow_items(20000, 4301);
    std::span<const uint64_t> span(keys);
    for (size_t lo = 0; lo < 12000; lo += 4000)
      cli.insert(span.subspan(lo, 4000));
    primary.stop();
    ckpt_seq = primary.srv.stats().repl_seq;
    eng.checkpoint(primary.srv.store());  // loop stopped: engine is ours
    ASSERT_EQ(eng.stats().checkpoint_seq, ckpt_seq);

    // Tail: more traffic after the checkpoint.
    net::server_config cfg2;
    cfg2.durability = &eng;
    live_server cont{std::move(primary.srv.store()), cfg2};
    auto cli2 = cont.connect();
    for (size_t lo = 12000; lo < 20000; lo += 4000)
      cli2.insert(span.subspan(lo, 4000));
    cont.stop();
    final_seq = cont.srv.stats().repl_seq;
    ASSERT_GT(final_seq, ckpt_seq);
    expected = store::serialize_store(cont.srv.store(), final_seq);
  }

  persist::durability_engine eng(wal_at(dir));
  auto recovered = eng.recover(fresh_boot());
  // The acceptance bar: only the tail replayed.
  EXPECT_EQ(eng.stats().recovery_replayed_frames, final_seq - ckpt_seq);
  EXPECT_EQ(eng.stats().checkpoint_seq, ckpt_seq);
  EXPECT_EQ(store::serialize_store(recovered, eng.last_seq()), expected);

  // The metric a CI smoke scrapes reports the same number.
  net::server_config cfg;
  cfg.durability = &eng;
  net::server reborn(std::move(cfg), std::move(recovered));
  const std::string metrics = reborn.metrics_text();
  EXPECT_NE(metrics.find("gf_recovery_replayed_frames " +
                         std::to_string(final_seq - ckpt_seq)),
            std::string::npos)
      << metrics.substr(0, 512);
  // So does the count of replays stopped at a hole (none here).
  EXPECT_NE(metrics.find("\ngf_recovery_gaps " +
                         std::to_string(eng.stats().recovery_gaps) + "\n"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// The tentpole integration: a replica resuming after the primary's
// in-memory replay ring has wrapped is served its delta from the disk WAL
// — no snapshot moves — and converges byte-identical.
TEST(PersistRecovery, WrappedRingResumeServedAsDeltaFromDiskWal) {
  const std::string dir = fresh_dir("wal_delta");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  // A ring smaller than one workload frame: any resume with more than one
  // missed frame is uncoverable in memory (net_fault_test proves that
  // falls back to snapshot without a WAL).
  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4401));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  const uint64_t last_applied = sr.repl_seq;
  sr.feed.reset();  // lose the feed on purpose

  // Far more missed traffic than the ring can hold.
  auto missed = util::hashed_xorwow_items(12000, 4402);
  std::span<const uint64_t> span(missed);
  for (size_t lo = 0; lo < missed.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));

  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(),
                             std::span<const uint64_t>(&last_applied, 1));
  ASSERT_EQ(rr.kind, net::resync_kind::delta)
      << "wrapped ring should have been backstopped by the WAL";
  EXPECT_FALSE(rr.store.has_value());
  EXPECT_EQ(rr.snapshot_bytes, 0u);
  EXPECT_EQ(rr.resume_from, last_applied);
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 1u);

  live_server replica(std::move(sr.store),
                      [&] {
                        net::server_config c;
                        c.read_only = true;
                        return c;
                      }(),
                      std::move(rr.feed), std::move(rr.dec),
                      last_applied + 1);
  cli.insert(util::hashed_xorwow_items(2000, 4403));
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}

// Same property under the supervisor and scripted fault injection: the
// feed is cut mid-workload, the missed traffic overflows the ring, and
// the replica's self-healing re-sync comes back as a WAL-served delta —
// where PR 8 (no WAL) was forced to move a whole snapshot.
TEST(PersistRecovery, SupervisedReplicaResyncsFromDiskAfterRingWrap) {
  fault_guard guard;
  const std::string dir = fresh_dir("supervised");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4501));

  // Bootstrap a supervised replica whose feed dies after 30000 stream
  // bytes; the reconnect draws an empty plan queue and lives.
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::fault_engine::instance().arm(sr.feed.get(), one_cut(30000));
  net::server_config rcfg;
  rcfg.read_only = true;
  rcfg.feed_addr = "127.0.0.1:" + std::to_string(primary.srv.port());
  rcfg.reconnect_base_ms = 2;
  rcfg.reconnect_max_ms = 100;
  rcfg.reconnect_jitter_seed = 0x5eed;
  // The reconnect waits until the whole burst below has been sent.  Left
  // to its 2 ms backoff it could resume while the gap was still a single
  // frame, which the ring serves (it keeps its newest frame even over
  // budget), and no WAL delta would be needed.
  std::atomic<bool> burst_sent{false};
  rcfg.connector = [&burst_sent, connect = net::faulty_connector()](
                       const std::string& host, uint16_t port) {
    wait_until([&] { return burst_sent.load(); });
    return connect(host, port);
  };
  live_server replica(std::move(sr.store), rcfg, std::move(sr.feed),
                      std::move(sr.dec), sr.repl_seq + 1);

  // Mixed traffic well past the 30000-byte cut AND far past the 2 KiB
  // ring: when the supervisor resumes, only the disk WAL can cover it.
  auto keys = util::hashed_xorwow_items(40000, 4502);
  std::span<const uint64_t> span(keys);
  for (size_t lo = 0; lo < keys.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));
  cli.erase(span.subspan(0, 1000));
  burst_sent = true;
  ASSERT_TRUE(
      wait_until([&] { return replica.srv.stats().feed_lost >= 1; }))
      << "scripted cut never fired";

  ASSERT_TRUE(converged(primary, replica));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 1u);
  EXPECT_EQ(stats.feed_reconnects, 1u);
  EXPECT_EQ(stats.resyncs_delta, 1u);     // the WAL covered the gap
  EXPECT_EQ(stats.resyncs_snapshot, 0u);  // no snapshot moved
  EXPECT_EQ(stats.feed_gaps, 0u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 1u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}
