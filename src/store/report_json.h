// Machine-readable store report: filter_store::report() as one JSON object.
//
// The single emitter behind every surface that exposes store telemetry —
// the network STATS opcode (net/server.cpp), store_server's shutdown
// report, and ad-hoc tooling — so the schema cannot drift between them.
// Schema (one object, stable key order):
//
//   { "backend": "...", "shards": N, "capacity": N,
//     "provisioned_capacity": N, "items": N, "load_factor": x.xxxx,
//     "memory_bytes": N, "max_depth": N,
//     "shard_reports": [ { "index": N, "items": N, "load_factor": x.xxxx,
//                          "levels": N, "deepest_load": x.xxxx,
//                          "ops": { "inserts": N, "insert_failures": N,
//                                   "queries": N, "query_hits": N,
//                                   "erases": N, "erase_failures": N,
//                                   "batches_drained": N } }, ... ] }
#pragma once

#include <cstdint>
#include <string>

#include "store/store.h"
#include "util/json.h"

namespace gf::store {

/// The shard op counters, one row each: the STATS `ops` key and the
/// metric net/server.cpp sums over every shard read the same field.
struct op_stat_fact {
  uint64_t util::op_stats::snapshot::* field;
  const char* key;
  const char* metric;
};
inline constexpr op_stat_fact kOpStatFacts[] = {
    {&util::op_stats::snapshot::inserts, "inserts", "gf_store_inserts_total"},
    {&util::op_stats::snapshot::insert_failures, "insert_failures",
     "gf_store_insert_failures_total"},
    {&util::op_stats::snapshot::queries, "queries", "gf_store_queries_total"},
    {&util::op_stats::snapshot::query_hits, "query_hits",
     "gf_store_query_hits_total"},
    {&util::op_stats::snapshot::erases, "erases", "gf_store_erases_total"},
    {&util::op_stats::snapshot::erase_failures, "erase_failures",
     "gf_store_erase_failures_total"},
    {&util::op_stats::snapshot::batches_drained, "batches_drained",
     "gf_store_batches_drained_total"},
};

/// Emit the report fields into an already-open JSON object — callers that
/// wrap the store report with extra sections (net/server.cpp adds a
/// "replication" object to STATS) reuse the exact schema instead of
/// re-emitting it.
inline void report_json_fields(const filter_store& store,
                               util::json_writer& w) {
  const auto reports = store.report();
  uint32_t max_depth = 1;
  for (const auto& r : reports)
    if (r.levels > max_depth) max_depth = r.levels;
  w.field("backend", backend_name(store.config().backend))
      .field("shards", store.num_shards())
      .field("capacity", store.config().capacity)
      .field("provisioned_capacity", store.provisioned_capacity())
      .field("items", store.size())
      .field("load_factor", store.load_factor(), 4)
      .field("memory_bytes", static_cast<uint64_t>(store.memory_bytes()))
      .field("max_depth", max_depth);
  w.key("shard_reports").array_begin();
  for (const auto& r : reports) {
    w.object_begin()
        .field("index", r.index)
        .field("items", r.items)
        .field("load_factor", r.load_factor, 4)
        .field("levels", r.levels)
        .field("deepest_load", r.deepest_load, 4);
    w.key("ops").object_begin();
    for (const op_stat_fact& f : kOpStatFacts) w.field(f.key, r.ops.*f.field);
    w.object_end().object_end();
  }
  w.array_end();
}

inline std::string report_json(const filter_store& store) {
  util::json_writer w;
  w.object_begin();
  report_json_fields(store, w);
  w.object_end();
  return w.str();
}

}  // namespace gf::store
