// End-to-end observability tests over loopback: a live net::server, a
// workload driven through net::client, then scrapes of the STATS-family
// surfaces — the Prometheus text exposition (kStatsMetricsHint), the
// chrome://tracing event dump (kStatsTraceHint), and the enriched STATS
// JSON.  Asserts the metric-name schema is stable (pinned sample by
// sample at one and four reactors), integer gauges render exactly,
// per-opcode and per-stage wire histograms actually fill, counters are
// monotone between scrapes, and a scrape leaves protocol_errors at zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
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
/// followed by ' ' or '{' — tolerant of labels, strict about names.  The
/// value must be an exact integer: `1.28154e+07` is a failure, not 1.
uint64_t scrape(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      size_t after = pos + prefix.size();
      if (after < text.size() &&
          (text[after] == ' ' || text[after] == '{')) {
        size_t sp = text.rfind(' ', text.find('\n', after));
        const std::string value =
            text.substr(sp + 1, text.find('\n', sp) - sp - 1);
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos) {
          ADD_FAILURE() << prefix << " is not an exact integer: " << value;
          return 0;
        }
        return std::stoull(value);
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

// -- Exact integer gauges -----------------------------------------------------

TEST(NetMetrics, IntegerGaugesRenderExactly) {
  // A byte size past six significant digits must not round: %.6g renders
  // 12,815,360 as 1.28154e+07.
  store::store_config cfg;
  cfg.backend = store::backend_kind::gqf;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 20;
  net::server srv({}, store::filter_store(cfg));
  auto keys = util::hashed_xorwow_items(50000, 707);
  srv.store().insert_bulk(keys);

  const uint64_t bytes = srv.store().memory_bytes();
  char rounded[48];
  std::snprintf(rounded, sizeof(rounded), "%.6g", static_cast<double>(bytes));
  ASSERT_NE(std::string(rounded), std::to_string(bytes))
      << "store too small to tell exact from rounded rendering";

  const std::string text = srv.metrics_text();
  EXPECT_EQ(scrape(text, "gf_store_memory_bytes"), bytes);
  EXPECT_EQ(scrape(text, "gf_store_items"), srv.store().size());
}

// -- Schema pin ---------------------------------------------------------------

namespace {

/// Sorted sample keys `name{labels}` of a scrape: values stripped, the
/// data-dependent `le="N"` bucket lines dropped (`le="+Inf"` stays), and
/// gf_build_info's build-dependent label values reduced to their names.
std::vector<std::string> sample_keys(const std::string& text) {
  std::vector<std::string> keys;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("le=\"") != std::string::npos &&
        line.find("le=\"+Inf\"") == std::string::npos)
      continue;
    if (line.rfind("gf_build_info{", 0) == 0)
      line = "gf_build_info{version,compiler,build} 1";
    keys.push_back(line.substr(0, line.rfind(' ')));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Sorted `section.key` paths of one flat object section of STATS JSON.
std::vector<std::string> json_keys(const std::string& json,
                                   const std::string& section) {
  std::vector<std::string> keys;
  size_t i = json.find("\"" + section + "\":{");
  if (i == std::string::npos) {
    ADD_FAILURE() << "no section " << section;
    return keys;
  }
  i += section.size() + 4;
  while (i < json.size() && json[i] == '"') {
    const size_t end = json.find('"', i + 1);
    keys.push_back(section + "." + json.substr(i + 1, end - i - 1));
    i = end + 2;  // past the closing quote and the colon
    if (json[i] == '"') {  // string value: skip to its unescaped close
      for (++i; json[i] != '"'; ++i)
        if (json[i] == '\\') ++i;
      ++i;
    }
    i = json.find_first_of(",}", i);
    if (json[i] == ',') ++i;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The golden scrape schema of a server with a WAL armed.
std::vector<std::string> golden_sample_keys(uint32_t reactors) {
  std::vector<std::string> keys = {
      "gf_build_info{version,compiler,build}",
      "gf_uptime_seconds",
      "gf_server_frames_total",
      "gf_server_keys_total",
      "gf_server_protocol_errors_total",
      "gf_server_bytes_total{dir=\"in\"}",
      "gf_server_bytes_total{dir=\"out\"}",
      "gf_server_connections_total{event=\"accepted\"}",
      "gf_server_connections_total{event=\"closed\"}",
      "gf_server_read_only_refusals_total",
      "gf_pool_launches_total{mode=\"parallel\"}",
      "gf_pool_launches_total{mode=\"small\"}",
      "gf_pool_launches_total{mode=\"contended\"}",
      "gf_stw_pauses_total",
      "gf_trace_events_total",
      "gf_repl_frames_forwarded_total",
      "gf_repl_dropped_subscribers_total",
      "gf_repl_subscriber_errors_total",
      "gf_repl_invites_failed_total",
      "gf_repl_feed_applied_total",
      "gf_repl_feed_gaps_total",
      "gf_repl_feed_lost_total",
      "gf_repl_reconnects_total",
      "gf_repl_reconnect_failures_total",
      "gf_repl_resyncs_total{kind=\"delta\"}",
      "gf_repl_resyncs_total{kind=\"snapshot\"}",
      "gf_repl_deltas_served_total",
      "gf_repl_wal_deltas_served_total",
      "gf_repl_ack_waits_total",
      "gf_repl_ack_degraded_total",
      "gf_repl_replay_ring_bytes",
      "gf_repl_replay_ring_frames",
      "gf_repl_seq",
      "gf_repl_subscribers",
      "gf_repl_subscriber_acked",
      "gf_repl_lag_frames",
      "gf_repl_ack_age_seconds",
      "gf_repl_feed_attached",
      "gf_repl_feed_last_seq",
      "gf_wal_bytes_total",
      "gf_wal_frames_total",
      "gf_wal_fsyncs_total",
      "gf_wal_segments_rotated_total",
      "gf_checkpoints_total",
      "gf_wal_segments",
      "gf_wal_last_seq",
      "gf_checkpoint_seq",
      "gf_checkpoint_bytes",
      "gf_recovery_replayed_frames",
      "gf_recovery_truncated_bytes",
      "gf_recovery_gaps",
      "gf_store_inserts_total",
      "gf_store_insert_failures_total",
      "gf_store_queries_total",
      "gf_store_query_hits_total",
      "gf_store_erases_total",
      "gf_store_erase_failures_total",
      "gf_store_batches_drained_total",
      "gf_store_overflow_answered_total",
      "gf_store_items",
      "gf_store_provisioned_capacity",
      "gf_store_memory_bytes",
      "gf_store_load_factor",
      "gf_store_shards",
      "gf_store_cascade_max_depth",
      "gf_filter_cache_lines_touched_total",
      "gf_filter_cas_attempts_total",
      "gf_filter_cas_failures_total",
      "gf_filter_backing_inserts_total",
      "gf_filter_shortcut_inserts_total",
      "gf_filter_ballot_rounds_total",
      "gf_filter_slots_shifted_total",
  };
  auto histogram = [&](const std::string& name, const std::string& labels) {
    const std::string braced = labels.empty() ? "" : "{" + labels + "}";
    keys.push_back(name + "_bucket{" + labels + (labels.empty() ? "" : ",") +
                   "le=\"+Inf\"}");
    for (const char* suffix : {"_sum", "_count", "_p50", "_p90", "_p99",
                               "_p999"})
      keys.push_back(name + suffix + braced);
  };
  histogram("gf_stw_pause_ns", "");
  histogram("gf_wal_fsync_ns", "");
  histogram("gf_checkpoint_duration_ns", "");
  histogram("gf_store_maintain_ns", "");
  for (const char* path : {"insert", "apply", "drain"})
    histogram("gf_store_bulk_shard_ns", std::string("path=\"") + path + "\"");
  for (uint32_t k = 0; k < reactors; ++k) {
    // One reactor keeps the pre-lane schema: no lane labels.
    const std::string lane =
        reactors > 1 ? ",lane=\"" + std::to_string(k) + "\"" : "";
    for (const char* op : {"insert", "insert_counted", "query", "erase",
                           "count", "stats", "maintain", "snapshot", "ping",
                           "sync"})
      histogram("gf_wire_latency_ns", std::string("op=\"") + op + "\"" + lane);
    for (const char* stage : {"decode", "apply", "encode", "flush"})
      histogram("gf_wire_stage_ns",
                std::string("stage=\"") + stage + "\"" + lane);
    if (reactors == 1) continue;
    const std::string rlbl = "{reactor=\"" + std::to_string(k) + "\"}";
    for (const char* family : {"gf_reactor_connections",
                               "gf_reactor_mailbox_depth",
                               "gf_reactor_handoffs_total"})
      keys.push_back(family + rlbl);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The golden STATS JSON key paths of the server-side sections.
std::vector<std::string> golden_json_keys() {
  std::vector<std::string> keys;
  for (const char* k : {"version", "build", "compiler", "counters_enabled",
                        "uptime_seconds", "reactors", "frames_served",
                        "keys_processed", "protocol_errors", "bytes_in",
                        "bytes_out"})
    keys.push_back(std::string("server.") + k);
  for (const char* k :
       {"role", "read_only", "repl_seq", "lanes", "subscribers",
        "frames_forwarded", "subscriber_acked", "subscriber_drops",
        "subscriber_errors", "feed_attached", "feed_last_seq",
        "feed_applied", "feed_gaps", "feed_lost", "feed_reconnects",
        "reconnect_failures", "resyncs_delta", "resyncs_snapshot",
        "deltas_served", "wal_deltas_served", "ack_replicas", "ack_waits",
        "ack_degraded", "ack_pending", "ring_frames", "ring_bytes",
        "read_only_refusals"})
    keys.push_back(std::string("replication.") + k);
  for (const char* k :
       {"armed", "wal_dir", "fsync", "wal_bytes", "wal_frames", "wal_fsyncs",
        "wal_segments", "segments_rotated", "wal_last_seq", "checkpoints",
        "checkpoint_seq", "checkpoint_bytes", "recovery_replayed_frames",
        "recovery_truncated_bytes", "recovery_gaps"})
    keys.push_back(std::string("durability.") + k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_same(const std::vector<std::string>& got,
                 const std::vector<std::string>& want) {
  std::vector<std::string> extra, missing;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  for (const auto& k : extra) ADD_FAILURE() << "unpinned: " << k;
  for (const auto& k : missing) ADD_FAILURE() << "missing: " << k;
  if (extra.empty() && missing.empty()) {
    EXPECT_EQ(got.size(), want.size()) << "duplicate keys";
  }
}

void check_pinned_schema(uint32_t reactors) {
  const std::string dir = std::string(::testing::TempDir()) + "gf_schema_r" +
                          std::to_string(reactors) + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    persist::wal_config wcfg;
    wcfg.dir = dir;
    wcfg.fsync = persist::fsync_policy::none;
    persist::durability_engine eng(wcfg);
    store::store_config cfg;
    cfg.backend = store::backend_kind::tcf;
    cfg.num_shards = 8;
    cfg.capacity = 1 << 16;
    auto st = eng.recover([&] {
      return std::pair<store::filter_store, uint64_t>(
          store::filter_store(cfg), 0);
    });
    net::server_config scfg;
    scfg.reactors = reactors;
    scfg.durability = &eng;
    net::server srv(std::move(scfg), std::move(st));
    std::thread loop([&] { srv.run(); });
    {
      // One subscriber: a SYNC'd stream kept open for the scrape.
      auto sub = net::sync_from("127.0.0.1", srv.port());
      net::client cli("127.0.0.1", srv.port());
      drive_workload(cli, 808);
      expect_same(sample_keys(cli.metrics_text()),
                  golden_sample_keys(reactors));
      const std::string json = cli.stats_json();
      std::vector<std::string> paths;
      for (const char* section : {"server", "replication", "durability"})
        for (auto& k : json_keys(json, section)) paths.push_back(k);
      std::sort(paths.begin(), paths.end());
      expect_same(paths, golden_json_keys());
      EXPECT_EQ(srv.stats().subscribers, 1u);
    }
    srv.request_stop();
    loop.join();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

TEST(NetMetrics, ExpositionSchemaIsPinned) {
  // Every sample key of the scrape and every key of the server-side STATS
  // JSON sections, with a WAL armed and a subscriber attached, at one
  // reactor and at four.  A fact added or dropped changes this list.
  check_pinned_schema(1);
  check_pinned_schema(4);
}
