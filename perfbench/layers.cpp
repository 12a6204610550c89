// Per-layer measurements for the traced run.  Each times calls into one
// module's public functions (gpu, store, tcf/gqf, net, persist) on the
// workload's own generated inputs, from outside the program, and records a
// span around every timed call.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/launch.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/mailbox.h"
#include "net/replay_ring.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/any_filter.h"
#include "store/batch.h"
#include "store/store.h"
#include "store/store_io.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gf;

constexpr uint32_t kTid = 100;  ///< span thread id of the layer section

/// Results of timed calls are folded in here so the calls stay live.
volatile uint64_t g_sink = 0;

/// The workload's inputs, replayed in stream order on demand (bulk_tcf's
/// 3 * 2^22 keys are generated frame by frame rather than held).
struct inputs {
  std::function<void(const std::function<void(const wire_frame&)>&)> each;
  uint64_t frames = 0;
  uint64_t frame_keys = 0;
  /// Frames the apply() measurement covers (a prefix of the stream).
  uint64_t apply_frames = 0;
  store::store_config store_cfg;
  bool maintain = false;           ///< server-style maintenance cadence
  persist::fsync_policy fsync = persist::fsync_policy::none;
};

bool is_read(const wire_frame& f) {
  return f.op == net::opcode::query || f.op == net::opcode::count;
}

inputs bulk_inputs(const bulk_params& p, uint64_t seed) {
  inputs in;
  in.each = [p, seed](const std::function<void(const wire_frame&)>& fn) {
    wire_frame f;
    for (uint64_t i = 0; i < p.frames(); ++i) {
      bulk_insert_frame(p, seed, i, f);
      fn(f);
    }
    for (uint64_t q = 0; q < 2 * p.frames(); ++q) {
      bulk_query_frame(p, seed, q, f);
      fn(f);
    }
  };
  in.frames = 3 * p.frames();
  in.frame_keys = p.frame_keys;
  in.apply_frames = p.frames() / 4;
  in.store_cfg.backend = store::backend_kind::tcf;
  in.store_cfg.num_shards = p.shards;
  in.store_cfg.capacity = p.capacity();
  return in;
}

inputs churn_inputs(const churn_params& p, uint64_t seed) {
  auto frames = std::make_shared<std::vector<wire_frame>>();
  const zipf_table zipf(p.universe_per_conn, p.theta);
  std::vector<std::unique_ptr<churn_stream>> streams;
  for (int c = 0; c < kConns; ++c)
    streams.push_back(std::make_unique<churn_stream>(p, zipf, seed, c));
  for (uint64_t i = 0; i < p.frames_per_conn; ++i)
    for (auto& s : streams) {
      frames->emplace_back();
      s->next(frames->back());
    }
  inputs in;
  in.each = [frames](const std::function<void(const wire_frame&)>& fn) {
    for (const wire_frame& f : *frames) fn(f);
  };
  in.frames = frames->size();
  in.frame_keys = p.frame_keys;
  in.apply_frames = in.frames;
  in.store_cfg.backend = store::backend_kind::gqf;
  in.store_cfg.num_shards = p.shards;
  in.store_cfg.capacity = p.capacity;
  in.maintain = true;
  in.fsync = persist::fsync_policy::interval;
  return in;
}

/// Mirrors the server's cadence: maintain after every 64 mutating frames.
constexpr uint32_t kMaintainEvery = 64;

std::vector<uint8_t> encode_request(const wire_frame& f, uint64_t seq) {
  return f.op == net::opcode::insert_counted
             ? net::encode_insert_counted_request(seq, f.keys, f.counts)
             : net::encode_keys_request(f.op, seq, f.keys);
}

std::vector<store::op> to_ops(const wire_frame& f) {
  std::vector<store::op> ops;
  ops.reserve(f.keys.size());
  for (size_t i = 0; i < f.keys.size(); ++i) {
    switch (f.op) {
      case net::opcode::insert: ops.push_back(store::make_insert(f.keys[i])); break;
      case net::opcode::insert_counted:
        ops.push_back(store::make_insert(f.keys[i], f.counts[i]));
        break;
      default: ops.push_back(store::make_query(f.keys[i])); break;
    }
  }
  return ops;
}

double per(uint64_t ns, uint64_t n) {
  return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

using metrics = std::map<std::string, double>;

// -- gpu ---------------------------------------------------------------------

void gpu_layer(span_log& spans, uint32_t shards, metrics& m) {
  constexpr int kLaunches = 2000;
  constexpr int kCallers = 4;
  std::vector<double> solo;
  for (int i = 0; i < kLaunches; ++i) {
    const uint64_t t0 = now_ns();
    gpu::launch_threads(shards, [](uint64_t) {}, /*grain=*/1);
    const uint64_t t1 = now_ns();
    solo.push_back(static_cast<double>(t1 - t0));
    spans.add("gpu.launch_threads", t0, t1, kTid);
  }
  const latency_summary s = summarize(solo);
  m["gpu.launch_ns.p50"] = s.p50;
  m["gpu.launch_ns.p99"] = s.p99;

  std::vector<std::vector<double>> lat(kCallers);
  std::atomic<uint64_t> inline_launches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      const std::thread::id me = std::this_thread::get_id();
      for (int i = 0; i < kLaunches / kCallers; ++i) {
        std::atomic<uint32_t> off_caller{0};
        const uint64_t t0 = now_ns();
        gpu::launch_threads(
            shards,
            [&](uint64_t) {
              if (std::this_thread::get_id() != me)
                off_caller.fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/1);
        const uint64_t t1 = now_ns();
        lat[c].push_back(static_cast<double>(t1 - t0));
        spans.add("gpu.launch_threads.contended", t0, t1, kTid + 1 + c);
        if (off_caller.load() == 0) inline_launches.fetch_add(1);
      }
    });
  go.store(true);
  for (auto& t : callers) t.join();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const latency_summary cs = summarize(all);
  m["gpu.contended_launch_ns.p50"] = cs.p50;
  m["gpu.contended_launch_ns.p99"] = cs.p99;
  m["gpu.inline_launch_share"] =
      static_cast<double>(inline_launches.load()) / static_cast<double>(all.size());
}

// -- store -------------------------------------------------------------------

void store_layer(const inputs& in, span_log& spans, metrics& m) {
  // insert_bulk over the insert frames' keys, then count_contained over the
  // read frames.
  {
    store::filter_store st(in.store_cfg);
    uint64_t ins_ns = 0, ins_keys = 0, rd_ns = 0, rd_keys = 0, frames = 0;
    in.each([&](const wire_frame& f) {
      const bool read = is_read(f);
      const uint64_t t0 = now_ns();
      if (read)
        st.count_contained(f.keys);
      else
        st.insert_bulk(f.keys);
      const uint64_t t1 = now_ns();
      spans.add(read ? "store.count_contained" : "store.insert_bulk", t0, t1, kTid);
      (read ? rd_ns : ins_ns) += t1 - t0;
      (read ? rd_keys : ins_keys) += f.keys.size();
      if (!read && in.maintain && ++frames % kMaintainEvery == 0) st.maintain();
    });
    m["store.insert_bulk_ns_per_key"] = per(ins_ns, ins_keys);
    m["store.count_contained_ns_per_key"] = per(rd_ns, rd_keys);
  }
  // The same insert frames pre-split by owning shard and inserted shard by
  // shard on this thread: the per-key work without partition and launch.
  {
    store::filter_store st(in.store_cfg);
    std::vector<std::vector<uint64_t>> split(st.num_shards());
    uint64_t ns = 0, keys = 0, frames = 0;
    in.each([&](const wire_frame& f) {
      if (is_read(f)) return;
      for (auto& v : split) v.clear();
      for (uint64_t k : f.keys) split[st.shard_of(k)].push_back(k);
      const uint64_t t0 = now_ns();
      for (uint32_t s = 0; s < st.num_shards(); ++s)
        st.shard_at(s).insert_span(split[s]);
      const uint64_t t1 = now_ns();
      spans.add("store.shard_insert_span", t0, t1, kTid);
      ns += t1 - t0;
      keys += f.keys.size();
      if (in.maintain && ++frames % kMaintainEvery == 0) st.maintain();
    });
    m["store.shard_insert_ns_per_key"] = per(ns, keys);
    const double bulk = m["store.insert_bulk_ns_per_key"];
    m["store.route_share"] =
        bulk > 0 ? 1.0 - m["store.shard_insert_ns_per_key"] / bulk : 0.0;
  }
  // apply() on a prefix of the stream, with the server's maintenance
  // cadence timed separately.
  {
    store::filter_store st(in.store_cfg);
    uint64_t ns = 0, ops_n = 0, mutating = 0, seen = 0;
    std::vector<double> maintain_ms;
    in.each([&](const wire_frame& f) {
      if (seen++ >= in.apply_frames) return;
      const std::vector<store::op> ops = to_ops(f);
      const uint64_t t0 = now_ns();
      st.apply(ops);
      const uint64_t t1 = now_ns();
      spans.add("store.apply", t0, t1, kTid);
      ns += t1 - t0;
      ops_n += ops.size();
      if (is_read(f) || ++mutating % kMaintainEvery != 0) return;
      const uint64_t a = now_ns();
      st.maintain();
      const uint64_t b = now_ns();
      spans.add("store.maintain", a, b, kTid);
      maintain_ms.push_back(static_cast<double>(b - a) / 1e6);
    });
    m["store.apply_ns_per_op"] = per(ns, ops_n);
    const latency_summary s = summarize(maintain_ms);
    m["store.maintain_ms.p50"] = s.p50;
    m["store.maintain_ms.p99"] = s.p99;
    uint32_t depth = 1;
    for (uint32_t i = 0; i < st.num_shards(); ++i)
      depth = std::max(depth, st.shard_at(i).level_count());
    m["store.cascade_depth_max"] = depth;
  }
}

// -- tcf / gqf on a single shard ----------------------------------------------

/// Keys of the workload that route to shard 0, in stream order.
struct shard0_keys {
  std::vector<uint64_t> inserts, counts, present_reads, absent_reads;
};

shard0_keys shard0_of(const inputs& in) {
  store::store_config rc = in.store_cfg;
  rc.capacity = rc.num_shards;  // routing only
  const store::filter_store router(rc);
  shard0_keys k;
  in.each([&](const wire_frame& f) {
    for (size_t i = 0; i < f.keys.size(); ++i) {
      if (router.shard_of(f.keys[i]) != 0) continue;
      switch (f.op) {
        case net::opcode::insert:
          k.inserts.push_back(f.keys[i]);
          k.counts.push_back(1);
          break;
        case net::opcode::insert_counted:
          k.inserts.push_back(f.keys[i]);
          k.counts.push_back(f.counts[i]);
          break;
        default: {
          (f.absent[i] ? k.absent_reads : k.present_reads).push_back(f.keys[i]);
        }
      }
    }
  });
  return k;
}

template <class Fn>
double time_per_key(span_log& spans, const char* name,
                    const std::vector<uint64_t>& keys, Fn&& fn) {
  constexpr size_t kSpanKeys = 4096;  ///< one span per this many keys
  uint64_t ns = 0;
  for (size_t lo = 0; lo < keys.size(); lo += kSpanKeys) {
    const size_t hi = std::min(keys.size(), lo + kSpanKeys);
    const uint64_t t0 = now_ns();
    for (size_t i = lo; i < hi; ++i) fn(i);
    const uint64_t t1 = now_ns();
    spans.add(name, t0, t1, kTid);
    ns += t1 - t0;
  }
  return per(ns, keys.size());
}

void filter_layer(const inputs& in, span_log& spans, metrics& m) {
  const shard0_keys k = shard0_of(in);
  std::vector<uint64_t> distinct = k.inserts;
  std::sort(distinct.begin(), distinct.end());
  const uint64_t n_distinct = static_cast<uint64_t>(
      std::unique(distinct.begin(), distinct.end()) - distinct.begin());
  distinct = {};
  // One shard's share of the store, or room for every distinct key the
  // shard sees when the workload relies on cascades to hold them.
  const uint64_t cap = std::max<uint64_t>(
      store::filter_store::shard_capacity(in.store_cfg), 2 * n_distinct);
  uint64_t sink = 0;
  {
    auto f = store::make_filter(store::backend_kind::tcf, cap);
    m["tcf.insert_ns_per_key"] = time_per_key(
        spans, "tcf.insert", k.inserts, [&](size_t i) { sink += f->insert(k.inserts[i], 1); });
    m["tcf.contains_ns_per_key"] = time_per_key(
        spans, "tcf.contains", k.inserts, [&](size_t i) { sink += f->contains(k.inserts[i]); });
    m["tcf.absent_ns_per_key"] = time_per_key(
        spans, "tcf.contains_absent", k.absent_reads,
        [&](size_t i) { sink += f->contains(k.absent_reads[i]); });
  }
  {
    auto f = store::make_filter(store::backend_kind::gqf, cap);
    m["gqf.insert_ns_per_key"] = time_per_key(
        spans, "gqf.insert", k.inserts,
        [&](size_t i) { sink += f->insert(k.inserts[i], k.counts[i]); });
    const std::vector<uint64_t>& probe =
        k.present_reads.empty() ? k.inserts : k.present_reads;
    m["gqf.count_ns_per_key"] = time_per_key(
        spans, "gqf.count", probe, [&](size_t i) { sink += f->count(probe[i]); });
    // Neither workload erases on the wire; the GQF erase cost is measured
    // on the first quarter of the inserted keys.
    const std::vector<uint64_t> er(k.inserts.begin(),
                                   k.inserts.begin() + k.inserts.size() / 4);
    m["gqf.erase_ns_per_key"] = time_per_key(
        spans, "gqf.erase", er, [&](size_t i) { sink += f->erase(er[i]); });
  }
  g_sink = g_sink + sink;
}

/// Evenly spaced frames of the stream holding about kSampleKeys keys, so
/// the wire and log measurements see both workloads' frame mix at a bounded
/// memory and disk cost.
std::vector<wire_frame> sample_frames(const inputs& in, bool writes_only) {
  constexpr uint64_t kSampleKeys = uint64_t{1} << 20;
  const uint64_t want = std::max<uint64_t>(1, kSampleKeys / in.frame_keys);
  const uint64_t stride = std::max<uint64_t>(1, in.frames / want);
  std::vector<wire_frame> out;
  uint64_t i = 0;
  in.each([&](const wire_frame& f) {
    if (writes_only && is_read(f)) return;
    if (i++ % stride == 0 && out.size() < want) out.push_back(f);
  });
  return out;
}

// -- net ---------------------------------------------------------------------

void net_layer(const inputs& in, span_log& spans, metrics& m) {
  const std::vector<wire_frame> sample = sample_frames(in, /*writes_only=*/false);

  std::vector<std::vector<uint8_t>> encoded;
  uint64_t ns = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const uint64_t t0 = now_ns();
    encoded.push_back(encode_request(sample[i], i + 1));
    const uint64_t t1 = now_ns();
    spans.add("net.encode_request", t0, t1, kTid, i + 1);
    ns += t1 - t0;
  }
  m["net.request_encode_ns_per_frame"] = per(ns, sample.size());

  ns = 0;
  uint64_t decoded_keys = 0;
  for (size_t i = 0; i < encoded.size(); ++i) {
    const uint64_t t0 = now_ns();
    net::frame_decoder dec;
    dec.feed(encoded[i].data(), encoded[i].size());
    net::frame f;
    if (dec.next(f) == net::decode_status::ok && net::validate_request(f) == nullptr) {
      if (f.op == net::opcode::insert_counted) {
        std::vector<uint64_t> keys, counts;
        net::decode_pairs(f, keys, counts);
        decoded_keys += keys.size();
      } else {
        decoded_keys += net::decode_keys(f).size();
      }
    }
    const uint64_t t1 = now_ns();
    spans.add("net.decode_request", t0, t1, kTid, i + 1);
    ns += t1 - t0;
  }
  m["net.decode_ns_per_frame"] = per(ns, encoded.size());

  ns = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const wire_frame& f = sample[i];
    const uint32_t n = static_cast<uint32_t>(f.keys.size());
    std::vector<uint64_t> words(net::bitmap_words(n), ~uint64_t{0});
    const uint64_t t0 = now_ns();
    std::vector<uint8_t> out;
    if (f.op == net::opcode::query)
      out = net::encode_query_response(i + 1, n, words);
    else if (f.op == net::opcode::count)
      out = net::encode_count_response(i + 1, f.keys);
    else
      out = net::encode_pair_response(f.op, i + 1, n, n, 0);
    const uint64_t t1 = now_ns();
    spans.add("net.encode_response", t0, t1, kTid, i + 1);
    ns += t1 - t0;
  }
  m["net.response_encode_ns_per_frame"] = per(ns, sample.size());

  // Replay ring: the mutating frames as the server records them.
  {
    net::replay_ring ring(size_t{1} << 24);
    uint64_t seq = 0, pushes = 0;
    ns = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      if (is_read(sample[i])) continue;
      std::vector<uint8_t> bytes = encoded[i];
      const uint64_t t0 = now_ns();
      ring.push(++seq, std::move(bytes));
      const uint64_t t1 = now_ns();
      spans.add("net.replay_ring.push", t0, t1, kTid, seq);
      ns += t1 - t0;
      ++pushes;
    }
    m["net.replay_ring_push_ns_per_frame"] = per(ns, pushes);
  }

  // Mailbox handoff: one message in flight, producer to consumer thread.
  {
    constexpr int kMsgs = 20000;
    net::mailbox<uint64_t> box(1024);
    std::atomic<int> acked{0};
    std::vector<double> lat;
    lat.reserve(kMsgs);
    std::thread consumer([&] {
      uint64_t stamp = 0;
      for (int i = 0; i < kMsgs; ++i) {
        while (!box.try_pop(stamp)) std::this_thread::yield();
        lat.push_back(static_cast<double>(now_ns() - stamp));
        acked.store(i + 1, std::memory_order_release);
      }
    });
    for (int i = 0; i < kMsgs; ++i) {
      box.push(now_ns());
      while (acked.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    }
    consumer.join();
    const latency_summary s = summarize(lat);
    m["net.mailbox_handoff_ns.p50"] = s.p50;
    m["net.mailbox_handoff_ns.p99"] = s.p99;
  }
  g_sink = g_sink + decoded_keys;
}

// -- persist -----------------------------------------------------------------

void persist_layer(const run_context& ctx, const inputs& in, span_log& spans,
                   metrics& m, bool from_round) {
  const std::string dir = ctx.out_dir + "/layer_wal";
  std::filesystem::remove_all(dir);
  persist::wal_config wc;
  wc.dir = dir;
  wc.fsync = in.fsync;
  wc.checkpoint_every_bytes = 0;
  auto fresh = [&] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(in.store_cfg), 0);
  };
  const std::vector<wire_frame> writes = sample_frames(in, /*writes_only=*/true);
  const size_t frames = writes.size();
  uint64_t bytes = 0, keys = 0;
  {
    persist::durability_engine eng(wc);
    store::filter_store st = eng.recover(fresh);
    uint64_t ns = 0;
    std::vector<double> sync_ms;
    for (size_t i = 0; i < frames; ++i) {
      const std::vector<uint8_t> b = encode_request(writes[i], i + 1);
      const uint64_t t0 = now_ns();
      eng.append(i + 1, b);
      const uint64_t t1 = now_ns();
      spans.add("persist.append", t0, t1, kTid, i + 1);
      ns += t1 - t0;
      bytes += b.size();
      keys += writes[i].keys.size();
      st.apply(to_ops(writes[i]));
      if (in.maintain && (i + 1) % kMaintainEvery == 0) st.maintain();
      if ((i + 1) % 16 == 0) {
        const uint64_t a = now_ns();
        eng.sync();
        const uint64_t c = now_ns();
        spans.add("persist.sync", a, c, kTid);
        sync_ms.push_back(static_cast<double>(c - a) / 1e6);
      }
    }
    m["persist.append_ns_per_frame"] = per(ns, frames);
    const latency_summary s = summarize(sync_ms);
    m["persist.sync_ms.p50"] = s.p50;
    m["persist.sync_ms.p99"] = s.p99;
    const uint64_t a = now_ns();
    eng.checkpoint(st);
    const uint64_t c = now_ns();
    spans.add("persist.checkpoint", a, c, kTid);
    m["persist.checkpoint_ms"] = static_cast<double>(c - a) / 1e6;
    if (!from_round) {
      // Log a tail past the checkpoint for the replay measurement below.
      for (size_t i = 0; i < frames; ++i)
        eng.append(frames + i + 1, encode_request(writes[i], frames + i + 1));
      eng.sync();
    }
  }
  if (!from_round) {
    m["persist.wal_bytes_per_key"] = per(bytes, keys);
    persist::durability_engine again(wc);
    const uint64_t t0 = now_ns();
    store::filter_store back = again.recover(fresh);
    const uint64_t t1 = now_ns();
    spans.add("persist.recover", t0, t1, kTid);
    const uint64_t replayed = again.stats().recovery_replayed_frames;
    const persist::manifest man = persist::load_manifest(dir);
    const uint64_t a = now_ns();
    store::filter_store ck = store::load_store(dir + "/" + man.checkpoint_file);
    const uint64_t b = now_ns();
    m["persist.replayed_frames"] = static_cast<double>(replayed);
    m["persist.replay_ns_per_frame"] =
        replayed ? static_cast<double>((t1 - t0) - (b - a)) / static_cast<double>(replayed)
                 : 0.0;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

std::map<std::string, double> measure_layers(const run_context& ctx,
                                             std::vector<std::string>& notes) {
  span_log& spans = *ctx.spans;
  metrics m;
  const bool bulk = ctx.workload == "bulk_tcf";
  const inputs in = bulk ? bulk_inputs(bulk_params{}, ctx.seed)
                         : churn_inputs(churn_params{}, ctx.seed);
  gpu_layer(spans, in.store_cfg.num_shards, m);
  store_layer(in, spans, m);
  filter_layer(in, spans, m);
  net_layer(in, spans, m);
  persist_layer(ctx, in, spans, m, /*from_round=*/!bulk);
  if (bulk) {
    notes.push_back("persist.*: bulk_tcf runs no WAL; the layer is measured on "
                    "its insert frames in a scratch log");
    notes.push_back("gqf.*: bulk_tcf serves a TCF; the GQF is measured on its "
                    "shard-0 keys");
    notes.push_back("net.replica_catchup_ms: bulk_tcf runs no replica "
                    "(frames_forwarded and subscriber_drops are 0)");
  } else {
    notes.push_back("net.mailbox_handoff_ns: churn_gqf runs one reactor and "
                    "never hands off; measured as a two-thread micro-benchmark");
    notes.push_back("gpu.contended_launch_ns: on path in churn_gqf, where the "
                    "primary's and the replica's loops launch on the shared pool "
                    "at once");
    notes.push_back("tcf.*: churn_gqf serves a GQF; the TCF is measured on its "
                    "shard-0 keys");
  }
  return m;
}

}  // namespace perfbench
