// perfbench: the repository benchmark.
//
//   perfbench --workload bulk_tcf|churn_gqf --seed N --seconds S --trace 0|1
//             --out DIR
//
// Repeats end-to-end rounds of the workload until S seconds have passed
// (at least two: the first only warms up), checks every answer against the
// exact oracle, leaves rounds hit by CPU steal out of the timing metrics,
// and prints a human report followed by one JSON line: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  The traced run
// alternates untraced rounds with rounds that record spans, so the
// difference between the two is the tracing overhead; it then times each
// layer's public calls and writes every span to
// DIR/trace-<workload>-<seed>.json (chrome://tracing).  Exits 1 when an
// oracle check fails, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gpu/thread_pool.h"
#include "obs/build_info.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct metric_def {
  const char* name;
  const char* unit;
};

// End-to-end metrics, as BENCHMARK.json lists them.  The timed ones are CPU
// time, which leaves out what the hypervisor steals; the wall-clock figures
// are in kWall.
constexpr metric_def kEndToEnd[] = {
    {"cpu_ns_per_key", "ns/key"}, {"fp_rate", "share"},
    {"bits_per_key", "bits/key"}, {"restart_cpu_ms", "ms"},
    {"ok_share", "share"},        {"setup_s", "s"},
};

// Wall-clock end-to-end figures.  They are printed with the per-layer
// metrics and carry no bound: on a shared host they move with CPU steal.
constexpr metric_def kWall[] = {
    {"wall.write_mkeys_s", "Mkeys/s"}, {"wall.read_mkeys_s", "Mkeys/s"},
    {"wall.write_p50_us", "us"},       {"wall.write_p99_us", "us"},
    {"wall.read_p50_us", "us"},        {"wall.read_p99_us", "us"},
    {"wall.restart_ms", "ms"},         {"wall.setup_s", "s"},
    {"host.steal_share", "share"},
};

// Per-layer metrics, as BENCHMARK.json lists them (plus one
// trace.overhead.<name> per end-to-end metric).
constexpr metric_def kPerLayer[] = {
    {"gpu.launch_ns.p50", "ns"},
    {"gpu.launch_ns.p99", "ns"},
    {"gpu.contended_launch_ns.p50", "ns"},
    {"gpu.contended_launch_ns.p99", "ns"},
    {"gpu.inline_launch_share", "share"},
    {"store.insert_bulk_ns_per_key", "ns/key"},
    {"store.shard_insert_ns_per_key", "ns/key"},
    {"store.route_share", "share"},
    {"store.count_contained_ns_per_key", "ns/key"},
    {"store.apply_ns_per_op", "ns/op"},
    {"store.maintain_ms.p50", "ms"},
    {"store.maintain_ms.p99", "ms"},
    {"store.cascade_depth_max", "levels"},
    {"store.load_factor", "share"},
    {"store.insert_fail_share", "share"},
    {"tcf.insert_ns_per_key", "ns/key"},
    {"tcf.contains_ns_per_key", "ns/key"},
    {"tcf.absent_ns_per_key", "ns/key"},
    {"gqf.insert_ns_per_key", "ns/key"},
    {"gqf.count_ns_per_key", "ns/key"},
    {"gqf.erase_ns_per_key", "ns/key"},
    {"net.request_encode_ns_per_frame", "ns/frame"},
    {"net.decode_ns_per_frame", "ns/frame"},
    {"net.response_encode_ns_per_frame", "ns/frame"},
    {"net.wire_bytes_per_key", "bytes/key"},
    {"net.ping_rtt_us.p50", "us"},
    {"net.ping_rtt_us.p99", "us"},
    {"net.mailbox_handoff_ns.p50", "ns"},
    {"net.mailbox_handoff_ns.p99", "ns"},
    {"net.replay_ring_push_ns_per_frame", "ns/frame"},
    {"net.replica_catchup_ms", "ms"},
    {"net.frames_forwarded", "count"},
    {"net.subscriber_drops", "count"},
    {"net.stage.decode_ns.p99", "ns"},
    {"net.stage.apply_ns.p99", "ns"},
    {"net.stage.encode_ns.p99", "ns"},
    {"net.stage.flush_ns.p99", "ns"},
    {"persist.append_ns_per_frame", "ns/frame"},
    {"persist.sync_ms.p50", "ms"},
    {"persist.sync_ms.p99", "ms"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.wal_bytes_per_key", "bytes/key"},
    {"persist.replayed_frames", "count"},
    {"persist.replay_ns_per_frame", "ns/frame"},
};

/// Untraced rounds at the start of a run that only warm up.
constexpr size_t kWarmupRounds = 1;
/// Quiet rounds a run waits for past --seconds, up to kMaxRunFactor times
/// --seconds (and kMaxRunSeconds), before it settles for the least-stolen.
constexpr size_t kMinQuietRounds = 8;
constexpr double kMaxRunFactor = 2.5;
constexpr double kMaxRunSeconds = 140;

struct options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload bulk_tcf|churn_gqf "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end) usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end || o.seconds <= 0) usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("--trace takes 0 or 1");
      o.trace = v[0] == '1';
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (o.workload != "bulk_tcf" && o.workload != "churn_gqf")
    usage("--workload must be bulk_tcf or churn_gqf");
  return o;
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string cpu_model() {
  std::istringstream in(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// JSON string literal (the strings here are host facts and check names).
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// End-to-end metrics of a set of rounds.  The first `warmup` rounds warm
/// the allocator, the page tables and the caches and are left out of the
/// timed metrics, and so is every round quiet_rounds() passes over (CPU
/// steal above kQuietSteal).  Each measured round gives its server CPU per
/// key, its set-up, its restart, its throughput (keys of a kind over the
/// phase that carries them) and its nearest-rank p50 and p99 over all its
/// frames of a kind; a timed metric is the median of these over the
/// measured rounds.
/// A round spans every checkpoint, fsync and maintenance pass its phase
/// triggers, so their cost stays in it.  fp_rate, bits/key and ok_share do
/// not depend on timing and use every round.
std::map<std::string, double> end_to_end(const std::vector<round_result>& rounds,
                                         size_t warmup,
                                         std::vector<std::string>& report,
                                         std::string* rounds_json = nullptr) {
  std::vector<double> cpu, setup_cpu, setup, restart_cpu, restart, steal;
  std::vector<double> wtput, rtput, wp50, wp99, rp50, rp99, bits;
  std::vector<double> wpool, rpool;  // every frame of the measured rounds
  uint64_t fewest_w = UINT64_MAX, fewest_r = UINT64_MAX;
  std::vector<double> round_steal;
  for (size_t i = warmup; i < rounds.size(); ++i) round_steal.push_back(rounds[i].steal);
  const std::vector<size_t> quiet = quiet_rounds(round_steal, kMinQuietRounds);
  std::vector<bool> measured(rounds.size(), false);
  for (size_t i : quiet) measured[warmup + i] = true;
  size_t over = 0;  // measured rounds above the steal limit
  for (size_t i : quiet) over += round_steal[i] > kQuietSteal;
  op_tally tally;
  uint64_t probes = 0, hits = 0;
  std::ostringstream j;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const round_result& r = rounds[i];
    const double c = static_cast<double>(r.server_cpu_ns) /
                     static_cast<double>(std::max<uint64_t>(1, r.write_keys + r.read_keys));
    const double w = static_cast<double>(r.write_keys) / r.write_s / 1e6;
    const double q = static_cast<double>(r.read_keys) / r.read_s / 1e6;
    const latency_summary wr = summarize(r.write_us), rd = summarize(r.read_us);
    char line[300];
    std::snprintf(line, sizeof line,
                  "round %zu (%s): steal %.1f%%, cpu %.1f ns/key, setup %.4f s cpu "
                  "(%.4f s wall), restart %.2f ms cpu (%.2f ms wall), writes "
                  "%.3f Mkeys/s p99 %.0f us, reads %.3f Mkeys/s p99 %.0f us%s",
                  i, i < warmup ? "warm-up" : measured[i] ? "measured" : "left out",
                  r.steal * 100, c, r.setup_cpu_s,
                  r.setup_s, r.restart_cpu_ms, r.restart_ms, w, wr.p99, q, rd.p99,
                  r.log.ok() ? "" : ", oracle violation");
    report.push_back(line);
    j << (i ? "," : "") << "{\"warmup\":" << (i < warmup ? "true" : "false")
      << ",\"measured\":" << (measured[i] ? "true" : "false")
      << ",\"steal\":" << num(r.steal) << ",\"cpu_ns_per_key\":" << num(c)
      << ",\"setup_cpu_s\":" << num(r.setup_cpu_s) << ",\"setup_s\":" << num(r.setup_s)
      << ",\"restart_cpu_ms\":" << num(r.restart_cpu_ms)
      << ",\"restart_ms\":" << num(r.restart_ms) << ",\"write_mkeys_s\":" << num(w)
      << ",\"write_p50_us\":" << num(wr.p50) << ",\"write_p99_us\":" << num(wr.p99)
      << ",\"read_mkeys_s\":" << num(q) << ",\"read_p50_us\":" << num(rd.p50)
      << ",\"read_p99_us\":" << num(rd.p99) << "}";
    bits.push_back(r.bits_per_key);
    tally.merge(r.tally);
    probes += r.absent_probes;
    hits += r.absent_hits;
    if (!measured[i]) continue;
    cpu.push_back(c);
    setup_cpu.push_back(r.setup_cpu_s);
    setup.push_back(r.setup_s);
    restart_cpu.push_back(r.restart_cpu_ms);
    restart.push_back(r.restart_ms);
    steal.push_back(r.steal);
    wtput.push_back(w);
    rtput.push_back(q);
    wp50.push_back(wr.p50);
    wp99.push_back(wr.p99);
    rp50.push_back(rd.p50);
    rp99.push_back(rd.p99);
    wpool.insert(wpool.end(), r.write_us.begin(), r.write_us.end());
    rpool.insert(rpool.end(), r.read_us.begin(), r.read_us.end());
    fewest_w = std::min(fewest_w, wr.n);
    fewest_r = std::min(fewest_r, rd.n);
  }
  if (rounds_json) *rounds_json = "[" + j.str() + "]";

  std::map<std::string, double> m;
  m["cpu_ns_per_key"] = median(cpu);
  m["fp_rate"] = probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0;
  m["bits_per_key"] = median(bits);
  m["restart_cpu_ms"] = median(restart_cpu);
  m["ok_share"] = 1.0 - tally.fail_share();
  m["setup_s"] = median(setup_cpu);
  m["wall.write_mkeys_s"] = median(wtput);
  m["wall.read_mkeys_s"] = median(rtput);
  m["wall.write_p50_us"] = median(wp50);
  m["wall.write_p99_us"] = median(wp99);
  m["wall.read_p50_us"] = median(rp50);
  m["wall.read_p99_us"] = median(rp99);
  m["wall.restart_ms"] = median(restart);
  m["wall.setup_s"] = median(setup);
  m["host.steal_share"] = median(steal);

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "%zu of %zu rounds measured (%zu warm-up, %zu left out for CPU "
                "steal above %.0f%%%s)",
                quiet.size(), rounds.size(), std::min(warmup, rounds.size()),
                round_steal.size() - quiet.size(), kQuietSteal * 100,
                over ? "; too few were quiet, so the least-stolen are measured" : "");
  report.push_back(buf);
  for (const auto& [what, pool, fewest] :
       {std::tuple<const char*, std::vector<double>*, uint64_t>{"write", &wpool, fewest_w},
        {"read", &rpool, fewest_r}}) {
    if (pool->empty()) break;
    const latency_summary all = summarize(std::move(*pool));
    std::snprintf(buf, sizeof buf,
                  "%s frames: %llu in measured rounds, at least %llu per round "
                  "(p%g has >=10 beyond it); pooled, p%g = %.1fus",
                  what, static_cast<unsigned long long>(all.n),
                  static_cast<unsigned long long>(fewest),
                  highest_valid_percentile(fewest) * 100, all.top_p * 100,
                  all.top_value);
    report.push_back(buf);
    if (samples_beyond(fewest, 0.99) < 10)
      report.push_back(std::string("fewer than ten ") + what +
                       " frames of a round lie beyond its p99: p99 is not reliable");
  }
  std::snprintf(buf, sizeof buf, "fp_rate from %llu absent probes (%llu hits); "
                "%llu ops attempted, %llu failed; %zu rounds",
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), rounds.size());
  report.push_back(buf);
  return m;
}

/// Round r runs on inputs of its own, derived from the run's seed, so a
/// run's figures average over inputs (where a checkpoint falls, which keys
/// collide) instead of repeating one draw.
round_result run_round(const run_context& ctx, uint64_t r, bool traced) {
  run_context rc = ctx;
  rc.seed = mix64(ctx.seed) + r;
  if (ctx.workload == "bulk_tcf") return run_bulk_round(rc, bulk_params{}, traced);
  return run_churn_round(rc, churn_params{}, traced);
}

int run(const options& o) {
  std::filesystem::create_directories(o.out);
  span_log spans;
  run_context ctx{o.workload, o.seed, o.out, &spans};
  const bool bulk = o.workload == "bulk_tcf";
  const cpu_times cpu0 = parse_proc_stat(read_file("/proc/stat"));
  const uint64_t t_start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - t_start) / 1e9; };

  // Rounds fill the run.  When tracing, untraced and span-recording rounds
  // alternate, so drift in the host affects both halves alike.  Each round
  // records its CPU steal; while fewer than kMinQuietRounds untraced rounds
  // were quiet, the run goes on for up to kMaxRunFactor times its length.
  // A failed oracle check does not cut the run short: the metrics still
  // print, beside the named violation.
  std::vector<round_result> plain, traced;
  // Warm-up, then at least one measured round of each kind.
  const uint64_t min_rounds = kWarmupRounds + (o.trace ? 2 : 1);
  const double cap = std::min(kMaxRunFactor * o.seconds, kMaxRunSeconds);
  size_t quiet = 0;
  for (uint64_t r = 0; r < min_rounds || elapsed() < o.seconds ||
                       (quiet < kMinQuietRounds && elapsed() < cap);
       ++r) {
    const bool tr = o.trace && r % 2 == 1;
    spans.enable(tr);
    const cpu_times a = parse_proc_stat(read_file("/proc/stat"));
    round_result rr = run_round(ctx, r, tr);
    rr.steal = steal_share(a, parse_proc_stat(read_file("/proc/stat")));
    quiet += r >= kWarmupRounds && !tr && rr.steal <= kQuietSteal;
    (tr ? traced : plain).push_back(std::move(rr));
  }
  spans.enable(o.trace);

  violation_log log;
  op_tally tally;
  for (const auto* set : {&plain, &traced})
    for (const round_result& r : *set) {
      log.merge(r.log);
      tally.merge(r.tally);
    }

  std::vector<std::string> report, notes;
  std::map<std::string, double> out_metrics;
  std::string rounds_json;
  const std::map<std::string, double> e2e = end_to_end(plain, kWarmupRounds, report, &rounds_json);
  if (!o.trace) {
    out_metrics = e2e;
  } else {
    std::vector<std::string> traced_report;
    const std::map<std::string, double> e2e_traced = end_to_end(traced, 0, traced_report);
    out_metrics = measure_layers(ctx, notes);
    for (const auto& [k, v] : traced.back().layer) out_metrics[k] = v;
    for (const metric_def& d : kWall) out_metrics[d.name] = e2e.at(d.name);
    for (const metric_def& d : kEndToEnd) {
      const double base = e2e.at(d.name);
      out_metrics[std::string("trace.overhead.") + d.name] =
          base != 0 ? e2e_traced.at(d.name) / base - 1.0 : 0.0;
    }
    const std::string trace_path =
        o.out + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    if (!spans.write_chrome_json(trace_path))
      notes.push_back("could not write " + trace_path);
    else
      report.push_back("spans: " + std::to_string(spans.size()) + " written to " +
                       trace_path);
  }
  const cpu_times cpu1 = parse_proc_stat(read_file("/proc/stat"));

  // Host block.
  std::ostringstream host;
  host << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":" << quote(cpu_model())
       << ",\"compiler\":" << quote(gf::obs::kCompiler)
       << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
       << ",\"pool_width\":" << gf::gpu::query_pool_size()
       << ",\"reactors\":" << (bulk ? bulk_params{}.reactors : churn_params{}.reactors)
       << ",\"fsync\":"
       << quote(bulk ? "none (no WAL)"
                     : "interval " +
                           std::to_string(churn_params{}.fsync_interval_ms) + "ms")
       << ",\"workload\":" << quote(o.workload) << ",\"seed\":" << o.seed
       << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"steal_share\":" << num(steal_share(cpu0, cpu1)) << "}";

  std::printf("perfbench %s seed %llu%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? " (traced)" : "");
  std::printf("host %s\n", host.str().c_str());
  for (const std::string& line : report) std::printf("  %s\n", line.c_str());
  for (const std::string& line : notes) std::printf("  note: %s\n", line.c_str());
  for (const auto& [k, v] : out_metrics) {
    bool listed = k.rfind("trace.overhead.", 0) == 0;
    for (const metric_def& d : kPerLayer) listed = listed || k == d.name;
    for (const metric_def& d : kWall) listed = listed || k == d.name;
    for (const metric_def& d : kEndToEnd) listed = listed || k == d.name;
    if (!listed) std::printf("  also measured: %s = %.6g\n", k.c_str(), v);
  }
  if (!log.ok())
    std::printf("ORACLE VIOLATION %s: %s (%llu violations)\n", log.check.c_str(),
                log.detail.c_str(), static_cast<unsigned long long>(log.count));

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const std::string& name, const char* unit) {
    const auto it = out_metrics.find(name);
    const double v = it == out_metrics.end() ? 0.0 : it->second;
    std::printf("  %-36s %.6g %s\n", name.c_str(), v, unit);
    metrics << (first ? "" : ",") << quote(name) << ":{\"value\":" << num(v)
            << ",\"unit\":" << quote(unit) << "}";
    first = false;
  };
  if (!o.trace) {
    for (const metric_def& d : kEndToEnd) emit(d.name, d.unit);
    for (const metric_def& d : kWall)
      std::printf("  %-36s %.6g %s (not in the result line)\n", d.name,
                  out_metrics.at(d.name), d.unit);
  } else {
    for (const metric_def& d : kPerLayer) emit(d.name, d.unit);
    for (const metric_def& d : kWall) emit(d.name, d.unit);
    for (const metric_def& d : kEndToEnd)
      emit(std::string("trace.overhead.") + d.name, "share");
  }
  std::ostringstream result;
  result << "{\"correct\":" << (log.ok() ? "true" : "false")
         << ",\"attempted\":" << std::max<uint64_t>(1, tally.attempted)
         << ",\"failed\":" << tally.failed << ",\"metrics\":{" << metrics.str()
         << "}}";
  {
    std::ofstream keep(o.out + "/result-" + o.workload + "-" +
                       std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                       ".json");
    keep << "{\"host\":" << host.str() << ",\"rounds\":" << rounds_json
         << ",\"result\":" << result.str() << "}\n";
  }
  std::fflush(stdout);
  std::printf("%s\n", result.str().c_str());
  return log.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
