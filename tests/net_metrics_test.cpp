// End-to-end observability tests over loopback: a live net::server, a
// workload driven through net::client, then scrapes of the STATS-family
// surfaces — the Prometheus text exposition (kStatsMetricsHint), the
// chrome://tracing event dump (kStatsTraceHint), and the enriched STATS
// JSON.  Asserts the metric-name schema is stable, per-opcode and
// per-stage wire histograms actually fill, counters are monotone between
// scrapes, and a scrape leaves protocol_errors at zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "store/store.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

struct live_server {
  net::server srv;
  std::thread loop;

  explicit live_server(store::filter_store st)
      : srv({}, std::move(st)), loop([this] { srv.run(); }) {}
  ~live_server() {
    srv.request_stop();
    loop.join();
  }

  net::client connect() { return net::client("127.0.0.1", srv.port()); }
};

store::filter_store small_store() {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 16;
  return store::filter_store(cfg);
}

/// Value of the first sample line that starts exactly with `prefix`
/// followed by ' ' or '{' — tolerant of labels, strict about names.
uint64_t scrape(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      size_t after = pos + prefix.size();
      if (after < text.size() &&
          (text[after] == ' ' || text[after] == '{')) {
        size_t sp = text.find(' ', after);
        return std::stoull(text.substr(sp + 1));
      }
    }
    ++pos;
  }
  ADD_FAILURE() << "metric not found: " << prefix;
  return 0;
}

bool has_line(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

void drive_workload(net::client& cli, uint64_t seed) {
  auto keys = util::hashed_xorwow_items(8192, seed);
  std::span<const uint64_t> span(keys);
  for (size_t lo = 0; lo < keys.size(); lo += 1024) {
    cli.insert(span.subspan(lo, 1024));
    cli.query_bitmap(span.subspan(lo, 1024));
  }
  cli.erase(span.subspan(0, 1024));
  cli.counts(span.subspan(0, 1024));
  cli.maintain();
  cli.ping();
}

}  // namespace

TEST(NetMetrics, ExpositionSchemaAndStageHistograms) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 101);

  const std::string text = cli.metrics_text();

  // Golden name set: the stable scrape surface CI and dashboards key on.
  for (const char* name :
       {"gf_build_info", "gf_uptime_seconds", "gf_server_frames_total",
        "gf_server_keys_total", "gf_server_protocol_errors_total",
        "gf_server_bytes_total", "gf_server_connections_total",
        "gf_store_items", "gf_store_load_factor", "gf_store_shards",
        "gf_store_inserts_total", "gf_store_queries_total",
        "gf_repl_lag_frames", "gf_repl_subscribers",
        "gf_repl_dropped_subscribers_total", "gf_repl_reconnects_total",
        "gf_repl_reconnect_failures_total", "gf_repl_resyncs_total",
        "gf_repl_deltas_served_total", "gf_repl_ack_waits_total",
        "gf_repl_ack_degraded_total", "gf_repl_replay_ring_bytes",
        "gf_repl_replay_ring_frames",
        "gf_wire_latency_ns", "gf_wire_stage_ns", "gf_store_maintain_ns",
        "gf_store_bulk_shard_ns", "gf_pool_launches_total",
        "gf_stw_pauses_total", "gf_stw_pause_ns"}) {
    EXPECT_TRUE(has_line(text, std::string("\n") + name) ||
                text.rfind(name, 0) == 0)
        << "missing metric family: " << name;
  }
  for (const char* mode : {"parallel", "small", "contended"})
    EXPECT_TRUE(has_line(text, std::string("gf_pool_launches_total{mode=\"") +
                                   mode + "\"}"))
        << mode;
  // The workload's 1024-key frames sit below any multi-worker pool's
  // launch threshold, so the server ran some launch inline as small.
  EXPECT_GT(scrape(text, "gf_pool_launches_total{mode=\"small\"}"), 0u);

  // Per-opcode wire latency: the driven opcodes must have samples and a
  // nonzero p50 (a wire round trip cannot take 0ns).
  for (const char* op : {"insert", "query", "erase", "count", "maintain",
                         "ping"}) {
    const std::string count_line =
        std::string("gf_wire_latency_ns_count{op=\"") + op + "\"}";
    EXPECT_GT(scrape(text, count_line), 0u) << op;
    const std::string p50_line =
        std::string("gf_wire_latency_ns_p50{op=\"") + op + "\"}";
    EXPECT_GT(scrape(text, p50_line), 0u) << op;
  }

  // Per-stage breakdown: every frame passes decode/apply/encode, so all
  // three must have at least as many samples as frames served; flush fires
  // whenever responses were queued.
  const uint64_t frames = scrape(text, "gf_server_frames_total");
  EXPECT_GT(frames, 0u);
  for (const char* stage : {"decode", "apply", "encode", "flush"}) {
    const std::string line =
        std::string("gf_wire_stage_ns_count{stage=\"") + stage + "\"}";
    EXPECT_GT(scrape(text, line), 0u) << stage;
  }
  // The scrape renders mid-frame: the STATS frame itself is counted in
  // frames_served but records its stages only after rendering.
  EXPECT_GE(scrape(text, "gf_wire_stage_ns_count{stage=\"apply\"}"),
            frames - 1);

  // Every control op runs under the stop-the-world barrier, at one reactor
  // too: the workload's MAINTAIN (and any STATS before this scrape) paused
  // it, each pause counted once and timed once.
  const uint64_t pauses = scrape(text, "gf_stw_pauses_total");
  EXPECT_GT(pauses, 0u);
  EXPECT_EQ(scrape(text, "gf_stw_pause_ns_count"), pauses);

  // Store-side observability filled in by the workload.
  EXPECT_GT(scrape(text, "gf_store_inserts_total"), 0u);
  EXPECT_GT(scrape(text, "gf_store_queries_total"), 0u);
  EXPECT_GT(scrape(text, "gf_store_maintain_ns_count"), 0u);
  EXPECT_GT(scrape(text, "gf_store_bulk_shard_ns_count{path=\"insert\"}"),
            0u);
  EXPECT_GT(scrape(text, "gf_store_items"), 0u);

  // A healthy loopback session scrapes clean.
  EXPECT_EQ(scrape(text, "gf_server_protocol_errors_total"), 0u);
}

TEST(NetMetrics, CountersMonotoneBetweenScrapes) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 202);

  const std::string first = cli.metrics_text();
  drive_workload(cli, 203);
  const std::string second = cli.metrics_text();

  for (const char* name :
       {"gf_server_frames_total", "gf_server_keys_total",
        "gf_store_inserts_total", "gf_store_queries_total",
        "gf_wire_latency_ns_count{op=\"insert\"}"}) {
    const uint64_t a = scrape(first, name);
    const uint64_t b = scrape(second, name);
    EXPECT_GT(b, a) << name << " did not advance across a workload";
  }
  EXPECT_EQ(scrape(second, "gf_server_protocol_errors_total"), 0u);
}

TEST(NetMetrics, TraceExport) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 303);

  const std::string json = cli.trace_json();
  // chrome://tracing complete events, named by opcode, in a JSON array.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_TRUE(has_line(json, "\"ph\":\"X\""));
  EXPECT_TRUE(has_line(json, "\"cat\":\"wire\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"insert\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"query\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"maintain\""));
  EXPECT_TRUE(has_line(json, "\"args\":{\"keys\":1024}"));
}

TEST(NetMetrics, StatsJsonServerSection) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  cli.ping();

  const std::string json = cli.stats_json();
  EXPECT_TRUE(has_line(json, "\"server\":"));
  EXPECT_TRUE(has_line(json, "\"uptime_seconds\":"));
  EXPECT_TRUE(has_line(json, "\"version\":"));
  EXPECT_TRUE(has_line(json, "\"frames_served\":"));
  // A stats request from an old-style client (plain shard hint) still
  // returns the JSON document — hint multiplexing must not break it.
  EXPECT_TRUE(has_line(json, "\"backend\":\"tcf\""));
}

TEST(NetMetrics, ScrapeIsSideEffectFreeOnStoreCounters) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 404);

  const std::string first = cli.metrics_text();
  // Scraping (and the STATS JSON) must not advance store op counters.
  cli.stats_json();
  cli.trace_json();
  const std::string second = cli.metrics_text();
  EXPECT_EQ(scrape(first, "gf_store_inserts_total"),
            scrape(second, "gf_store_inserts_total"));
  EXPECT_EQ(scrape(first, "gf_store_queries_total"),
            scrape(second, "gf_store_queries_total"));
}

// -- Multi-reactor scrapes ----------------------------------------------------

TEST(NetMetrics, MultiReactorScrapeUnderFloodIsConsistent) {
  // Four reactors mutating concurrently while a fifth connection scrapes
  // in a loop.  Every scrape renders on reactor 0 under the stop-the-world
  // barrier, so it is a consistent cut: counters must be monotone across
  // scrapes (a torn render — half the reactors counted before the flood
  // advanced, half after — shows up as a counter going backwards), and
  // derived sums (frames >= keys-carrying frames) must stay coherent.
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 8;
  cfg.capacity = 1 << 16;
  net::server_config scfg;
  scfg.reactors = 4;
  net::server srv(std::move(scfg), store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int t = 0; t < 3; ++t)
    flood.emplace_back([&, t] {
      net::client cli("127.0.0.1", srv.port());
      auto keys = util::hashed_xorwow_items(2048, 505 + t);
      std::span<const uint64_t> span(keys);
      while (!stop.load(std::memory_order_relaxed)) {
        cli.insert(span);
        cli.query_bitmap(span);
        cli.erase(span.subspan(0, 256));
      }
    });

  {
    net::client scraper("127.0.0.1", srv.port());
    uint64_t last_frames = 0, last_keys = 0, last_inserts = 0, last_pauses = 0;
    for (int i = 0; i < 25; ++i) {
      const std::string text = scraper.metrics_text();
      const uint64_t frames = scrape(text, "gf_server_frames_total");
      const uint64_t keys = scrape(text, "gf_server_keys_total");
      const uint64_t inserts = scrape(text, "gf_store_inserts_total");
      const uint64_t pauses = scrape(text, "gf_stw_pauses_total");
      EXPECT_GE(frames, last_frames) << "frames_total went backwards";
      EXPECT_GE(keys, last_keys) << "keys_total went backwards";
      EXPECT_GE(inserts, last_inserts) << "store inserts went backwards";
      // Each scrape is a barrier, counted once it releases: the previous
      // scrape's pause shows in this one.
      if (i > 0) {
        EXPECT_GT(pauses, last_pauses) << "a scrape paused uncounted";
      }
      last_frames = frames;
      last_keys = keys;
      last_inserts = inserts;
      last_pauses = pauses;
      // Per-reactor gauges exist and lane labels appear at nr > 1.
      EXPECT_TRUE(has_line(text, "gf_reactor_connections{reactor=\"0\"}"));
      EXPECT_TRUE(has_line(text, "gf_reactor_connections{reactor=\"3\"}"));
      EXPECT_TRUE(has_line(text, "lane=\"0\""));
      EXPECT_TRUE(has_line(text, "lane=\"3\""));
    }
    EXPECT_GT(last_frames, 0u);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : flood) t.join();
  srv.request_stop();
  loop.join();
}

TEST(NetMetrics, SingleReactorScrapeHasNoLaneLabels) {
  // The nr == 1 exposition must stay byte-compatible with the pre-reactor
  // schema: no lane labels, no per-reactor gauge families.
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 606);
  const std::string text = cli.metrics_text();
  EXPECT_FALSE(has_line(text, "lane=\""));
  EXPECT_FALSE(has_line(text, "gf_reactor_connections"));
  EXPECT_FALSE(has_line(text, "gf_reactor_handoffs_total"));
}
