// End-to-end loopback tests: a live net::server on an ephemeral port, a
// net::client driving it, and a direct filter_store fed the identical
// operation stream as the answer oracle.  Covers:
//   * answer equivalence for insert/query/erase/count batches (wire ==
//     direct, per key);
//   * the SNAPSHOT opcode + server-restart-from-file durability cycle;
//   * pipelined sequencing (responses matched by sequence id);
//   * hostile connections against a *live* server — garbage bytes,
//     truncated frames, oversized declared lengths — which must be
//     rejected (connection dropped, protocol_errors counted) while the
//     server keeps serving everyone else;
//   * an apply failure (the WAL cannot roll a segment) answered in-band
//     while the connection and the server keep serving — on a primary, and
//     on a replica whose WAL refuses a feed frame (the frame is applied
//     all the same, so the replica answers every acknowledged key);
//   * sequence accounting of empty mutations and ranged MAINTAIN frames.
// Every case runs at 1 and at 4 reactors over 8 shards: one frame path
// serves both, and at 4 reactors connections are handed off to other
// loops and batches split across shard owners.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/replication.h"
#include "net/server.h"
#include "net/socket.h"
#include "persist/durability.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"
#include "util/zipf.h"

using namespace gf;

namespace {

store::store_config small_config(store::backend_kind backend) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 8;
  cfg.capacity = 1 << 16;
  return cfg;
}

/// A server on an ephemeral loopback port with its event loops on a
/// background thread; joins cleanly on destruction.
struct live_server {
  net::server srv;
  std::thread loop;

  live_server(store::filter_store st, net::server_config cfg)
      : srv(std::move(cfg), std::move(st)), loop([this] { srv.run(); }) {}
  /// Replica form: adopt the SYNC feed before the loops start.
  live_server(net::sync_result&& sr, net::server_config cfg)
      : srv(std::move(cfg), std::move(sr.store)) {
    srv.attach_feed(std::move(sr.feed), std::move(sr.dec),
                    std::span<const uint64_t>(sr.lane_seqs));
    loop = std::thread([this] { srv.run(); });
  }
  ~live_server() {
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

/// A WAL whose segments roll every 4 KiB and that never checkpoints: once
/// its directory is removed, the next roll throws mid-append.
persist::wal_config rolling_wal(const std::string& dir) {
  persist::wal_config wcfg;
  wcfg.dir = dir;
  wcfg.fsync = persist::fsync_policy::none;
  wcfg.segment_bytes = 4096;                      // rolls within a batch or two
  wcfg.checkpoint_every_bytes = size_t{1} << 40;  // never a checkpoint
  return wcfg;
}

std::string wal_dir(const std::string& tag, uint32_t reactors) {
  std::string dir = std::string(::testing::TempDir()) + "gf_loopback_" + tag +
                    "_r" + std::to_string(reactors) + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Parameter: the server's reactor count.
class NetLoopback : public ::testing::TestWithParam<uint32_t> {
 protected:
  net::server_config config(const std::string& snapshot_path = "") const {
    net::server_config cfg;
    cfg.reactors = GetParam();
    cfg.snapshot_path = snapshot_path;
    return cfg;
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(Reactors, NetLoopback, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& i) {
                           return "r" + std::to_string(i.param);
                         });

TEST_P(NetLoopback, InsertQueryEquivalence) {
  for (auto backend :
       {store::backend_kind::tcf, store::backend_kind::gqf,
        store::backend_kind::blocked_bloom, store::backend_kind::bulk_tcf}) {
    auto cfg = small_config(backend);
    live_server ls{store::filter_store(cfg), config()};
    store::filter_store direct(cfg);
    auto cli = ls.connect();

    auto keys = util::hashed_xorwow_items(20000, 11);
    std::span<const uint64_t> span(keys);
    // Same chunked stream through both paths: wire inserts funnel into the
    // same insert_bulk machinery, so aggregate results must match exactly.
    for (size_t lo = 0; lo < keys.size(); lo += 4096) {
      auto slice = span.subspan(lo, std::min<size_t>(4096, keys.size() - lo));
      auto wire = cli.insert(slice);
      uint64_t direct_ok = direct.insert_bulk(slice);
      EXPECT_EQ(wire.ok, direct_ok);
      EXPECT_EQ(wire.failed, slice.size() - direct_ok);
    }

    // Membership answers must agree per key — inserted and absent alike.
    auto probes = util::hashed_xorwow_items(4096, 12);  // absent
    probes.insert(probes.end(), keys.begin(), keys.begin() + 4096);
    uint64_t hits = 0;
    auto bitmap = cli.query_bitmap(probes, &hits);
    uint64_t expect_hits = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      bool direct_ans = direct.contains(probes[i]);
      expect_hits += direct_ans ? 1 : 0;
      EXPECT_EQ(net::bitmap_test(bitmap, i), direct_ans)
          << "backend " << store::backend_name(backend) << " key " << i;
    }
    EXPECT_EQ(hits, expect_hits);
  }
}

TEST_P(NetLoopback, EraseAndCountEquivalence) {
  auto cfg = small_config(store::backend_kind::gqf);
  live_server ls{store::filter_store(cfg), config()};
  store::filter_store direct(cfg);
  auto cli = ls.connect();

  auto keys = util::hashed_xorwow_items(8000, 21);
  std::vector<uint64_t> counts(keys.size());
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = 1 + i % 5;
  auto wire = cli.insert_counted(keys, counts);
  // Mirror the wire path exactly: the server applies counted inserts
  // through filter_store::apply.
  std::vector<store::op> ops;
  for (size_t i = 0; i < keys.size(); ++i)
    ops.push_back(store::make_insert(keys[i], counts[i]));
  auto direct_res = direct.apply(ops);
  EXPECT_EQ(wire.ok, direct_res.inserted);
  EXPECT_EQ(wire.failed, direct_res.insert_failed);

  // Multiplicities, inserted and absent keys alike.
  auto probe = std::span<const uint64_t>(keys).subspan(0, 2000);
  auto wire_counts = cli.counts(probe);
  for (size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(wire_counts[i], direct.count(probe[i])) << "key " << i;

  // Erase a slice through both paths, then compare counts again.
  auto victims = std::span<const uint64_t>(keys).subspan(1000, 2000);
  auto wire_erase = cli.erase(victims);
  std::vector<store::op> erase_ops;
  for (uint64_t k : victims) erase_ops.push_back(store::make_erase(k));
  auto direct_erase = direct.apply(erase_ops);
  EXPECT_EQ(wire_erase.ok, direct_erase.erased);
  EXPECT_EQ(wire_erase.failed, direct_erase.erase_missing);
  for (size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(cli.counts(probe.subspan(i, 1))[0], direct.count(probe[i]));
}

TEST_P(NetLoopback, PipelinedResponsesMatchBySequence) {
  auto cfg = small_config(store::backend_kind::tcf);
  live_server ls{store::filter_store(cfg), config()};
  auto cli = ls.connect();

  // Launch a window of distinct batches, then collect in *reverse* order:
  // sequence matching, not arrival order, pairs responses to requests.
  auto keys = util::hashed_xorwow_items(16 * 512, 31);
  std::vector<uint64_t> seqs;
  for (int b = 0; b < 16; ++b)
    seqs.push_back(cli.submit_insert(
        std::span<const uint64_t>(keys).subspan(b * 512, 512)));
  EXPECT_EQ(cli.outstanding(), 16u);
  uint64_t total_ok = 0;
  for (int b = 15; b >= 0; --b) {
    net::frame f = cli.expect_ok(seqs[b], net::opcode::insert);
    EXPECT_EQ(f.sequence, seqs[b]);
    total_ok += net::decode_pair_response(f).ok;
  }
  EXPECT_EQ(cli.outstanding(), 0u);
  EXPECT_EQ(total_ok, ls.srv.store().size());
}

TEST_P(NetLoopback, StatsMaintainAndPing) {
  auto cfg = small_config(store::backend_kind::tcf);
  live_server ls{store::filter_store(cfg), config()};
  auto cli = ls.connect();
  cli.ping();

  auto keys = util::hashed_xorwow_items(5000, 41);
  cli.insert(keys);
  std::string json = cli.stats_json();
  EXPECT_NE(json.find("\"backend\":\"tcf\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":" + std::to_string(ls.srv.store().size())),
            std::string::npos);
  EXPECT_NE(json.find("\"shard_reports\":["), std::string::npos);

  auto m = cli.maintain();  // nothing under pressure yet: no growth
  EXPECT_EQ(m.shards_grown, 0u);
  EXPECT_EQ(m.max_depth, 1u);
  EXPECT_EQ(m.total_levels, cfg.num_shards);
}

TEST_P(NetLoopback, SnapshotRestartCycle) {
  const std::string path = "/tmp/gf_net_loopback_snapshot.gfs";
  std::remove(path.c_str());
  auto cfg = small_config(store::backend_kind::tcf);
  auto keys = util::hashed_xorwow_items(20000, 51);
  std::vector<uint64_t> pre_restart_bitmap;

  {
    live_server ls{store::filter_store(cfg), config(path)};
    auto cli = ls.connect();
    cli.insert(keys);
    uint64_t bytes = cli.snapshot();
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(std::filesystem::file_size(path), bytes);
    pre_restart_bitmap = cli.query_bitmap(keys);
  }  // server stops — the old process is gone

  // A restarted server loads the snapshot, exactly like store_server
  // --snapshot does on boot, and must give bit-identical answers.
  {
    live_server ls{store::load_store(path), config()};
    auto cli = ls.connect();
    EXPECT_EQ(ls.srv.store().size(), store::load_store(path).size());
    auto bitmap = cli.query_bitmap(keys);
    EXPECT_EQ(bitmap, pre_restart_bitmap);
    // The restarted store keeps serving writes.
    auto more = util::hashed_xorwow_items(1000, 52);
    auto r = cli.insert(more);
    EXPECT_GT(r.ok, 0u);
  }
  std::remove(path.c_str());
}

TEST_P(NetLoopback, SnapshotWithoutPathIsUnsupported) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf)),
                 config()};
  auto cli = ls.connect();
  EXPECT_THROW(cli.snapshot(), std::runtime_error);
  // The error response is in-band: the connection survives it.
  cli.ping();
}

TEST_P(NetLoopback, GarbageConnectionIsRejectedServerSurvives) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf)),
                 config()};

  // Raw garbage bytes: the decoder poisons, the server drops the
  // connection and counts a protocol error.
  {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> junk(512, 0xAB);
    ASSERT_TRUE(net::send_all(raw.get(), junk.data(), junk.size()));
    uint8_t buf[16];
    // recv returning 0 = orderly close by the server.
    ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
    EXPECT_EQ(n, 0);
  }

  // Oversized declared length: rejected from 4 bytes, no 4 GiB buffering.
  {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> len;
    net::put_u32(len, 0xFFFF'FFF0u);
    ASSERT_TRUE(net::send_all(raw.get(), len.data(), len.size()));
    uint8_t buf[16];
    EXPECT_EQ(::recv(raw.get(), buf, sizeof(buf), 0), 0);
  }

  // Truncated frame: a valid prefix, then the peer hangs up mid-frame.
  {
    auto keys = util::hashed_xorwow_items(64, 61);
    auto bytes = net::encode_keys_request(net::opcode::insert, 1, keys);
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    ASSERT_TRUE(net::send_all(raw.get(), bytes.data(), bytes.size() / 2));
  }  // close with half a frame on the wire

  // A correct frame followed by garbage: the response must come back
  // before the connection is condemned.
  {
    auto keys = util::hashed_xorwow_items(16, 62);
    auto good = net::encode_keys_request(net::opcode::insert, 7, keys);
    std::vector<uint8_t> stream = good;
    stream.resize(stream.size() + 64, 0xEE);
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    ASSERT_TRUE(net::send_all(raw.get(), stream.data(), stream.size()));
    net::frame_decoder dec;
    uint8_t buf[4096];
    net::frame f;
    for (;;) {
      ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      dec.feed(buf, static_cast<size_t>(n));
      if (dec.next(f) == net::decode_status::ok) break;
    }
    EXPECT_EQ(f.sequence, 7u);
    EXPECT_EQ(net::decode_pair_response(f).ok, keys.size());
    EXPECT_EQ(::recv(raw.get(), buf, sizeof(buf), 0), 0);  // then dropped
  }

  // Through all of that, a well-behaved client still gets served.
  auto cli = ls.connect();
  cli.ping();
  auto keys = util::hashed_xorwow_items(1000, 63);
  EXPECT_EQ(cli.insert(keys).ok, 1000u);
  auto stats = ls.srv.stats();
  EXPECT_GE(stats.protocol_errors, 4u);
}

TEST_P(NetLoopback, ServerRunsMaintenanceUnderSkewedWireTraffic) {
  // A store flooded past nominal capacity over the wire must grow
  // overflow cascades on its own — no client ever sends MAINTAIN.
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 8;
  cfg.capacity = 1 << 12;
  net::server_config scfg = config();
  scfg.maintain_every = 4;  // tight cadence so a small flood triggers it
  net::server srv(scfg, store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });
  {
    net::client cli("127.0.0.1", srv.port());
    auto keys = util::hashed_xorwow_items(cfg.capacity * 2, 81);
    for (size_t lo = 0; lo < keys.size(); lo += 512)
      cli.insert(std::span<const uint64_t>(keys).subspan(lo, 512));
    uint32_t max_levels = 1;
    for (const auto& rep : srv.store().report())
      max_levels = std::max(max_levels, rep.levels);
    EXPECT_GT(max_levels, 1u) << "no shard grew despite a 2x flood";
  }
  srv.request_stop();
  loop.join();
}

TEST_P(NetLoopback, ResponseBackpressureBoundsServerMemory) {
  // A peer that pipelines requests but never reads responses must stall
  // (server stops reading past the queued-response cap) while other
  // clients keep being served.
  store::store_config cfg = small_config(store::backend_kind::tcf);
  net::server_config scfg = config();
  scfg.max_queued_response_bytes = 1 << 16;  // tiny cap to hit it fast
  net::server srv(scfg, store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });
  {
    net::socket_fd greedy = net::tcp_connect("127.0.0.1", srv.port());
    net::set_nonblocking(greedy.get());
    // STATS responses are ~40x larger than their requests; spam them
    // without reading until the kernel send buffer refuses more.
    auto req = net::encode_control_request(net::opcode::stats, 1);
    size_t sent_frames = 0;
    while (sent_frames < 200000) {
      ssize_t w = ::send(greedy.get(), req.data(), req.size(), MSG_NOSIGNAL);
      if (w < 0) break;  // EAGAIN: backpressure reached the sender
      ++sent_frames;
    }
    EXPECT_GT(sent_frames, 0u);
    // The greedy connection is stalled, not fatal: a polite client on the
    // same server still gets answers.
    net::client cli("127.0.0.1", srv.port());
    cli.ping();
    auto keys = util::hashed_xorwow_items(512, 82);
    EXPECT_EQ(cli.insert(keys).ok, keys.size());
  }
  srv.request_stop();
  loop.join();
}

TEST_P(NetLoopback, MalformedFrameFuzzServerNeverDies) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf)),
                 config()};
  util::xorwow rng(71);
  auto keys = util::hashed_xorwow_items(256, 72);
  auto valid = net::encode_keys_request(net::opcode::query, 1, keys);

  for (int round = 0; round < 50; ++round) {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> stream = valid;
    // A handful of byte flips anywhere in the frame.
    int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < flips; ++i)
      stream[rng.next_below(stream.size())] ^=
          static_cast<uint8_t>(1 + rng.next_below(255));
    // Random truncation half the time.
    if (rng.next_below(2))
      stream.resize(1 + rng.next_below(stream.size()));
    (void)net::send_all(raw.get(), stream.data(), stream.size());
    // Drain whatever comes back (a response if the flip was benign, EOF if
    // condemned) without blocking forever: close our side first.
  }

  // The server survived 50 hostile connections and still serves.
  auto cli = ls.connect();
  cli.ping();
  uint64_t hits = 0;
  cli.query_bitmap(keys, &hits);
  SUCCEED();
}

TEST_P(NetLoopback, ApplyFailureIsAnsweredInBandServerSurvives) {
  // A WAL whose directory vanished under it: appends go on into the open
  // segment until it must roll, then creating the next segment throws
  // ("cannot create WAL segment") mid-apply, on whichever reactor owns the
  // part.  The batch is answered with an in-band error; the connection,
  // the loops and every other connection keep serving.
  const std::string dir = wal_dir("wal", GetParam());
  persist::durability_engine eng(rolling_wal(dir));
  const auto cfg = small_config(store::backend_kind::tcf);
  auto st = eng.recover([&] {
    return std::pair<store::filter_store, uint64_t>(store::filter_store(cfg),
                                                    0);
  });
  net::server_config scfg = config();
  scfg.durability = &eng;
  live_server ls{std::move(st), scfg};
  auto cli = ls.connect();

  auto keys = util::hashed_xorwow_items(16 * 1024, 91);
  std::span<const uint64_t> span(keys);
  EXPECT_EQ(cli.insert(span.subspan(0, 256)).ok, 256u);  // the WAL works
  std::filesystem::remove_all(dir);
  std::string error;
  for (size_t lo = 256; lo + 1024 <= keys.size() && error.empty();
       lo += 1024) {
    try {
      cli.insert(span.subspan(lo, 1024));
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  }
  EXPECT_NE(error.find("gf: server error"), std::string::npos) << error;
  EXPECT_NE(error.find("cannot create WAL segment"), std::string::npos)
      << error;

  // The same connection is still served, and so is a fresh one.
  cli.ping();
  auto other = ls.connect();
  other.ping();
  uint64_t hits = 0;
  other.query_bitmap(span.subspan(0, 256), &hits);
  EXPECT_EQ(hits, 256u);
  EXPECT_EQ(ls.srv.stats().protocol_errors, 0u);
}

TEST_P(NetLoopback, FeedFrameTheWalRefusesIsStillApplied) {
  // The replica's WAL directory vanishes; a feed frame whose append must
  // roll a segment cannot be logged.  The replica answers the primary with
  // an in-band error (counted as a subscriber error) but applies the frame
  // all the same: its lane position already counts it, so skipping it
  // would leave a hole no resync replays, and the replica would answer
  // false negatives for keys the primary acknowledged.
  const auto cfg = small_config(store::backend_kind::tcf);
  live_server primary{store::filter_store(cfg), config()};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(16 * 1024, 93);
  std::span<const uint64_t> span(keys);
  cli.insert(span.subspan(0, 256));

  const std::string dir = wal_dir("feed_wal", GetParam());
  persist::durability_engine eng(rolling_wal(dir));
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  eng.reset(sr.store, std::span<const uint64_t>(sr.lane_seqs));
  net::server_config rcfg = config();
  rcfg.read_only = true;
  rcfg.durability = &eng;
  live_server replica{std::move(sr), rcfg};

  cli.insert(span.subspan(256, 256));  // the WAL works
  // Acked means logged and applied: no append is still writing into the
  // directory about to be removed.
  ASSERT_TRUE(wait_until([&] {
    const auto ps = primary.srv.stats();
    return ps.subscriber_acked == ps.repl_seq;
  }));
  EXPECT_EQ(primary.srv.stats().subscriber_errors, 0u);
  std::filesystem::remove_all(dir);
  for (size_t lo = 512; lo < keys.size(); lo += 1024)
    cli.insert(span.subspan(lo, std::min<size_t>(1024, keys.size() - lo)));
  EXPECT_TRUE(wait_until(
      [&] { return primary.srv.stats().subscriber_errors > 0; }))
      << "no feed frame hit the removed WAL directory";

  // Every key the primary acknowledged reaches the replica, which still
  // follows its feed and serves reads.
  auto reader = replica.connect();
  reader.ping();
  uint64_t hits = 0;
  EXPECT_TRUE(wait_until([&] {
    reader.query_bitmap(span, &hits);
    return hits == keys.size();
  })) << hits << " of " << keys.size() << " keys on the replica";
  const auto rs = replica.srv.stats();
  EXPECT_EQ(rs.feed_attached, 1u);
  EXPECT_EQ(rs.feed_gaps, 0u);
  EXPECT_EQ(rs.protocol_errors, 0u);
}

TEST_P(NetLoopback, EmptyMutationTakesNoSequence) {
  // An empty INSERT/ERASE changes nothing, so it is answered without a
  // stream sequence: no WAL frame, no subscriber copy.
  const std::string dir = wal_dir("empty", GetParam());
  persist::durability_engine eng(rolling_wal(dir));
  const auto cfg = small_config(store::backend_kind::gqf);
  auto st = eng.recover([&] {
    return std::pair<store::filter_store, uint64_t>(store::filter_store(cfg),
                                                    0);
  });
  net::server_config scfg = config();
  scfg.durability = &eng;
  live_server ls{std::move(st), scfg};
  auto cli = ls.connect();

  // The WAL position as the server reports it (rendered on its loop).
  auto wal_last_seq = [&] {
    const std::string json = cli.stats_json();
    const std::string field = "\"wal_last_seq\":";
    const size_t at = json.find(field);
    EXPECT_NE(at, std::string::npos);
    return at == std::string::npos
               ? uint64_t{0}
               : std::stoull(json.substr(at + field.size()));
  };

  auto keys = util::hashed_xorwow_items(256, 95);
  EXPECT_EQ(cli.insert(keys).ok, keys.size());
  const uint64_t seq = ls.srv.stats().repl_seq;
  const uint64_t wal_seq = wal_last_seq();
  EXPECT_EQ(wal_seq, seq);
  EXPECT_GT(seq, 0u);

  const std::vector<uint64_t> none;
  const auto ins = cli.insert(none);
  EXPECT_EQ(ins.ok, 0u);
  EXPECT_EQ(ins.failed, 0u);
  EXPECT_EQ(cli.erase(none).ok, 0u);
  EXPECT_EQ(ls.srv.stats().repl_seq, seq);
  EXPECT_EQ(wal_last_seq(), wal_seq);

  // A one-key insert lands on one reactor: exactly one new sequence.
  EXPECT_EQ(cli.insert(util::hashed_xorwow_items(1, 96)).ok, 1u);
  EXPECT_EQ(ls.srv.stats().repl_seq, seq + 1);
  EXPECT_EQ(wal_last_seq(), wal_seq + 1);
  std::filesystem::remove_all(dir);
}

TEST_P(NetLoopback, RangedMaintainGrowsOnlyItsRange) {
  // A MAINTAIN carrying {u32 begin, u32 end} maintains shards [begin, end)
  // only, and is replicated as one ranged frame per reactor slice it
  // touches.  With 8 shards, 4 reactors own two shards each: [2, 5) spans
  // reactors 1 and 2; one reactor owns all of it.
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf)),
                 config()};
  const uint64_t seq = ls.srv.stats().repl_seq;
  net::frame req;
  req.op = net::opcode::maintain;
  req.sequence = 5;
  net::put_u32(req.payload, 2);
  net::put_u32(req.payload, 5);
  const auto bytes = net::encode_frame(req);
  net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
  ASSERT_TRUE(net::send_all(raw.get(), bytes.data(), bytes.size()));
  net::frame_decoder dec;
  uint8_t buf[256];
  net::frame f;
  for (;;) {
    ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    dec.feed(buf, static_cast<size_t>(n));
    if (dec.next(f) == net::decode_status::ok) break;
  }
  ASSERT_EQ(f.status, net::wire_status::ok);
  EXPECT_EQ(f.sequence, 5u);
  const auto m = net::decode_maintain_response(f);
  EXPECT_EQ(m.shards_grown, 0u);
  EXPECT_EQ(m.max_depth, 1u);
  EXPECT_EQ(m.total_levels, 3u);  // one level per maintained shard
  EXPECT_EQ(ls.srv.stats().repl_seq, seq + (GetParam() == 1 ? 1 : 2));
}
