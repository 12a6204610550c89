// Native bulk tier of the sharded store: bulk-vs-point equivalence per
// backend, §5.4 count-compression (counted inserts, hot-key floods), edge
// cases, stats accounting, and bulk paths across a save/load round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/thread_pool.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"
#include "util/zipf.h"

namespace {

using namespace gf;
using store::backend_kind;

constexpr backend_kind kAllBackends[] = {
    backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom,
    backend_kind::bulk_tcf};

store::store_config config(backend_kind backend, uint32_t shards,
                           uint64_t capacity) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = shards;
  cfg.capacity = capacity;
  return cfg;
}

TEST(StoreBulk, BulkVsPointMembershipEquivalence) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(20000, 311);
    auto absent = util::hashed_xorwow_items(20000, 312);
    store::filter_store bulk(config(backend, 4, 1 << 15));
    store::filter_store point(config(backend, 4, 1 << 15));

    EXPECT_EQ(bulk.insert_bulk(keys), keys.size()) << backend_name(backend);
    for (uint64_t k : keys) ASSERT_TRUE(point.insert(k));

    // Same membership answers on every inserted key.
    for (uint64_t k : keys) {
      ASSERT_TRUE(bulk.contains(k)) << backend_name(backend);
      ASSERT_TRUE(point.contains(k)) << backend_name(backend);
    }
    // False positives stay at the backend's standalone rate on both paths.
    uint64_t fp_bulk = 0, fp_point = 0;
    for (uint64_t k : absent) {
      fp_bulk += bulk.contains(k) ? 1 : 0;
      fp_point += point.contains(k) ? 1 : 0;
    }
    EXPECT_LT(fp_bulk, absent.size() / 20) << backend_name(backend);
    EXPECT_LT(fp_point, absent.size() / 20) << backend_name(backend);
  }
}

TEST(StoreBulk, GqfCountsPreservedThroughCountedBulk) {
  // A multiset batch through the bulk path must land the same per-key
  // multiplicities as point inserts (GQF counter channel, §5.4).
  auto base = util::hashed_xorwow_items(3000, 321);
  std::vector<uint64_t> batch;
  for (size_t i = 0; i < base.size(); ++i)
    for (size_t c = 0; c < i % 5 + 1; ++c) batch.push_back(base[i]);

  store::filter_store bulk(config(backend_kind::gqf, 4, 1 << 14));
  store::filter_store point(config(backend_kind::gqf, 4, 1 << 14));
  EXPECT_EQ(bulk.insert_bulk(batch), batch.size());
  for (uint64_t k : batch) ASSERT_TRUE(point.insert(k));

  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(bulk.count(base[i]), point.count(base[i]))
        << "key index " << i;
    ASSERT_GE(bulk.count(base[i]), i % 5 + 1);  // aliases only ever add
  }
}

TEST(StoreBulk, InsertCountedStoresMultiplicity) {
  // Direct backend-level contract: counted pairs preserve counts on the
  // GQF and answer membership (once) everywhere else.
  for (backend_kind backend : kAllBackends) {
    auto f = store::make_filter(backend, 1 << 12);
    std::vector<uint64_t> keys = {101, 202, 303};
    std::vector<uint64_t> counts = {7, 1, 40};
    EXPECT_EQ(f->insert_counted(keys, counts), 48u) << backend_name(backend);
    for (uint64_t k : keys) EXPECT_TRUE(f->contains(k));
    if (f->supports_counting()) {
      EXPECT_EQ(f->count(101), 7u);
      EXPECT_EQ(f->count(303), 40u);
    }
  }
}

TEST(StoreBulk, EmptyAndSingleKeyBatches) {
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 12));
    EXPECT_EQ(s.insert_bulk({}), 0u) << backend_name(backend);
    EXPECT_EQ(s.size(), 0u);
    std::vector<uint64_t> one = {0xDEADBEEFull};
    EXPECT_EQ(s.insert_bulk(one), 1u) << backend_name(backend);
    EXPECT_TRUE(s.contains(one[0]));
    EXPECT_EQ(s.count_contained(one), 1u);
    EXPECT_EQ(s.count_contained({}), 0u);
  }
}

TEST(StoreBulk, AllDuplicatesBatchCompresses) {
  // 50k copies of one key: count-compression must collapse the flood to
  // one counted insert per shard slice instead of devouring slots.
  constexpr uint64_t kCopies = 50000;
  std::vector<uint64_t> batch(kCopies, 0xF00Dull);
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 12));
    EXPECT_EQ(s.insert_bulk(batch), kCopies) << backend_name(backend);
    EXPECT_TRUE(s.contains(0xF00Dull));
    if (backend == backend_kind::gqf) {
      EXPECT_EQ(s.count(0xF00Dull), kCopies);
    } else if (backend != backend_kind::blocked_bloom) {
      // Membership backends store one fingerprint, not 50k (a point-routed
      // flood would have filled both candidate blocks and failed).
      EXPECT_LE(s.size(), 4u) << backend_name(backend);
    }
  }
}

TEST(StoreBulk, DuplicateHeavyBatchReportsNoSpuriousFailures) {
  // any_filter bulk-insert contract: returns batch *instances* answered,
  // never distinct keys placed — and §5.4 dedup applies at every batch
  // size.  An all-duplicates batch whose one distinct key trivially fits
  // must report zero insert failures on all four backends.  The 200-copy
  // case is the regression: it sits below the TCF's parallel-slab
  // threshold, where the raw point loop used to flood the hot key's two
  // candidate blocks and refuse ~half the batch.
  for (backend_kind backend : kAllBackends) {
    for (uint64_t copies : {uint64_t{200}, uint64_t{4096}}) {
      store::filter_store s(config(backend, 1, 1 << 12));
      std::vector<uint64_t> batch(copies, 0xFEEDull);
      EXPECT_EQ(s.insert_bulk(batch), copies)
          << backend_name(backend) << " x" << copies;
      EXPECT_EQ(s.shard_at(0).stats().insert_failures, 0u)
          << backend_name(backend) << " x" << copies;
      EXPECT_TRUE(s.contains(0xFEEDull)) << backend_name(backend);
    }
  }
}

TEST(StoreBulk, MixedDuplicateBatchAccountsInInstanceUnits) {
  // Half hot-key copies, half distinct keys: batch_result::inserted must
  // come back in instance units (the full batch), not distinct-key units.
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 2, 1 << 13));
    auto distinct = util::hashed_xorwow_items(2000, 391);
    std::vector<uint64_t> batch(2000, 0xBEEFull);
    batch.insert(batch.end(), distinct.begin(), distinct.end());
    std::vector<store::op> ops;
    for (uint64_t k : batch) ops.push_back(store::make_insert(k));
    auto r = s.apply(ops);
    EXPECT_EQ(r.inserted, batch.size()) << backend_name(backend);
    EXPECT_EQ(r.insert_failed, 0u) << backend_name(backend);
  }
}

TEST(StoreBulk, ZipfFloodDoesNotCollapseTcf) {
  // The ROADMAP failure mode: a Zipf(0.99) hot-key flood point-routed into
  // a TCF overflows the hot keys' two candidate blocks and fails
  // unboundedly.  The compressed bulk tier inserts each distinct key once.
  constexpr uint64_t kN = 40000;
  auto zipf = util::zipfian_dataset(kN, 0.99, 331);
  for (backend_kind backend :
       {backend_kind::tcf, backend_kind::bulk_tcf}) {
    store::filter_store s(config(backend, 4, 1 << 16));
    EXPECT_EQ(s.insert_bulk(zipf), kN) << backend_name(backend);
    EXPECT_EQ(s.count_contained(zipf), kN) << backend_name(backend);
    // Dedup proof: stored entries = distinct keys, far below the flood.
    EXPECT_LT(s.size(), kN / 2) << backend_name(backend);
  }
}

TEST(StoreBulk, InsertSpanStatsCountOneBatch) {
  // Satellite contract: a bulk slice counts one drained batch + N inserts,
  // not N virtual-dispatch point-op stats.
  store::filter_store s(config(backend_kind::tcf, 1, 1 << 14));
  auto keys = util::hashed_xorwow_items(10000, 341);
  EXPECT_EQ(s.insert_bulk(keys), keys.size());
  auto stats = s.shard_at(0).stats();
  EXPECT_EQ(stats.inserts, keys.size());
  EXPECT_EQ(stats.insert_failures, 0u);
  EXPECT_EQ(stats.batches_drained, 1u);

  // Multi-shard: inserts sum to N, one batch per (non-empty) shard.
  store::filter_store m(config(backend_kind::tcf, 4, 1 << 14));
  EXPECT_EQ(m.insert_bulk(keys), keys.size());
  uint64_t inserts = 0, batches = 0;
  for (const auto& rep : m.report()) {
    inserts += rep.ops.inserts;
    batches += rep.ops.batches_drained;
  }
  EXPECT_EQ(inserts, keys.size());
  EXPECT_LE(batches, 4u);
  EXPECT_GE(batches, 1u);
}

TEST(StoreBulk, FlushStatsNotDoubleCounted) {
  // The drain path routes insert runs through the same bulk core; each
  // flush is one drained batch per non-empty shard and N insert stats.
  store::filter_store s(config(backend_kind::gqf, 2, 1 << 13));
  auto keys = util::hashed_xorwow_items(4000, 351);
  for (uint64_t k : keys) s.enqueue_insert(k);
  auto r = s.flush();
  EXPECT_EQ(r.inserted, keys.size());
  uint64_t inserts = 0, batches = 0;
  for (const auto& rep : s.report()) {
    inserts += rep.ops.inserts;
    batches += rep.ops.batches_drained;
  }
  EXPECT_EQ(inserts, keys.size());
  EXPECT_LE(batches, 2u);
}

TEST(StoreBulk, ApplyMixedRunsBatched) {
  // Mixed batches exercise the run scanner: large same-type runs go
  // through the native bulk ops, preserving cross-run ordering semantics.
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 14));
    auto keys = util::hashed_xorwow_items(5000, 361);
    std::vector<store::op> batch;
    for (uint64_t k : keys) batch.push_back(store::make_insert(k));
    for (uint64_t k : keys) batch.push_back(store::make_query(k));
    auto r = s.apply(batch);
    EXPECT_EQ(r.inserted, keys.size()) << backend_name(backend);
    EXPECT_EQ(r.query_hits, keys.size()) << backend_name(backend);
    EXPECT_EQ(r.query_misses, 0u) << backend_name(backend);

    if (s.shard_at(0).filter().supports_deletes()) {
      batch.clear();
      for (size_t i = 0; i < 1000; ++i)
        batch.push_back(store::make_erase(keys[i]));
      r = s.apply(batch);
      EXPECT_EQ(r.erased + r.erase_missing, 1000u) << backend_name(backend);
      EXPECT_GE(r.erased, 990u) << backend_name(backend);
    }
  }
}

// -- Launch size gate -------------------------------------------------------
//
// A batch below pool width x kDefaultGrain keys runs on the caller instead
// of waking the pool (gpu/thread_pool.h); the pool's launch counters say
// which way each launch went.

uint64_t launch_threshold() {
  return uint64_t{gpu::thread_pool::instance().size()} * gpu::kDefaultGrain;
}

uint64_t parallel_launches() {
  return gpu::thread_pool::instance().launches().parallel;
}

TEST(StoreBulk, SmallBatchesNeverWakeThePool) {
  store::filter_store s(config(backend_kind::gqf, 8, 1 << 16));
  auto keys = util::hashed_xorwow_items(128, 391);
  std::vector<store::op> ops;
  for (uint64_t k : keys) ops.push_back(store::make_insert(k, 2));

  const uint64_t before = parallel_launches();
  EXPECT_EQ(s.apply(ops).inserted, keys.size());
  EXPECT_EQ(s.insert_bulk(keys), keys.size());
  EXPECT_EQ(s.count_contained(keys), keys.size());
  EXPECT_EQ(parallel_launches(), before)
      << "a 128-key batch woke the pool";

  if (gpu::thread_pool::instance().size() == 1) return;  // nothing to wake
  auto big = util::hashed_xorwow_items(launch_threshold(), 392);
  store::filter_store large(config(backend_kind::gqf, 8, 4 * big.size()));
  EXPECT_EQ(large.insert_bulk(big), big.size());
  EXPECT_GT(parallel_launches(), before)
      << "a batch of pool width x kDefaultGrain keys ran inline";
}

TEST(StoreBulk, BatchesAtTheLaunchThresholdMatchThePointOracle) {
  // One key below the threshold runs on the caller, the threshold itself
  // on the pool; both must answer exactly what the point API answers.
  const uint64_t threshold = launch_threshold();
  for (backend_kind backend : kAllBackends) {
    for (uint64_t n : {threshold - 1, threshold}) {
      SCOPED_TRACE(std::string(backend_name(backend)) + " n=" +
                   std::to_string(n));
      auto keys = util::hashed_xorwow_items(n, 393 + n);
      const auto cfg = config(backend, 4, std::max<uint64_t>(1 << 16, 4 * n));
      store::filter_store bulk(cfg);
      store::filter_store point(cfg);

      for (uint64_t k : keys) ASSERT_TRUE(point.insert(k));
      EXPECT_EQ(bulk.insert_bulk(keys), n);
      EXPECT_EQ(bulk.count_contained(keys), n);
      EXPECT_EQ(point.count_contained(keys), n);

      std::vector<store::op> ops;
      for (uint64_t k : keys) ops.push_back(store::make_insert(k, 2));
      uint64_t point_inserted = 0;
      for (uint64_t k : keys) point_inserted += point.insert(k, 2) ? 1 : 0;
      EXPECT_EQ(bulk.apply(ops).inserted, point_inserted);

      if (bulk.shard_at(0).filter().supports_deletes()) {
        ops.clear();
        for (uint64_t k : keys) ops.push_back(store::make_erase(k));
        uint64_t point_erased = 0;
        for (uint64_t k : keys) point_erased += point.erase(k) ? 1 : 0;
        EXPECT_EQ(bulk.apply(ops).erased, point_erased);
      }
      for (uint64_t k : keys) ASSERT_EQ(bulk.count(k), point.count(k)) << k;
    }
  }
}

TEST(StoreBulk, BulkPathAcrossSaveLoadRoundTrip) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(8000, 371);
    auto more = util::hashed_xorwow_items(8000, 372);
    store::filter_store s(config(backend, 4, 1 << 15));
    EXPECT_EQ(s.insert_bulk(keys), keys.size()) << backend_name(backend);

    std::stringstream buf;
    store::save_store(s, buf);
    auto restored = store::load_store(buf);
    EXPECT_EQ(restored.size(), s.size()) << backend_name(backend);
    EXPECT_EQ(restored.count_contained(keys), keys.size())
        << backend_name(backend);

    // The restored store keeps a working bulk tier.
    EXPECT_EQ(restored.insert_bulk(more), more.size())
        << backend_name(backend);
    EXPECT_EQ(restored.count_contained(more), more.size())
        << backend_name(backend);
  }
}

TEST(StoreBulk, BulkTcfBackendPointOps) {
  // The §4.2 bulk TCF rides behind a reader-writer lock: point ops must
  // behave like every other backend's.
  store::filter_store s(config(backend_kind::bulk_tcf, 2, 1 << 13));
  auto keys = util::hashed_xorwow_items(4000, 381);
  for (uint64_t k : keys) ASSERT_TRUE(s.insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(s.contains(k));
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(s.erase(keys[i]));
  uint64_t still = 0;
  for (size_t i = 0; i < 200; ++i) still += s.contains(keys[i]) ? 1 : 0;
  EXPECT_LT(still, 20u);  // aliasing only
  EXPECT_EQ(s.size(), keys.size() - 200);
}

// -- Cascade bulk paths ------------------------------------------------------
//
// Multi-level shards used to abandon the native bulk tier for queries and
// erases the moment a cascade had a second level — exactly on the hot
// shards that grew children.  These tests grow real cascades and pin the
// per-level-bulk-with-remainder-narrowing rewrite to the point-op oracle.

namespace cascade {

/// A shard grown to 2+ levels by overfilling and maintaining — built
/// deterministically so two calls produce bit-identical cascades.  The
/// base is sized so the fixed-seed victim sets below carry no cross-victim
/// fingerprint aliasing: under aliasing, batch-erase attribution is
/// allowed to differ from the point walk by design (never over-erasing —
/// see shard::bulk_erase_keys), so the exact-equality regression pins the
/// alias-free common case.
std::unique_ptr<store::shard> grown_shard(backend_kind backend,
                                          std::span<const uint64_t> keys) {
  auto sh = std::make_unique<store::shard>(backend, 2048);
  store::maintain_config mcfg;
  mcfg.max_levels = 4;
  for (size_t lo = 0; lo < keys.size(); lo += 1024) {
    sh->insert_span(
        keys.subspan(lo, std::min<size_t>(1024, keys.size() - lo)));
    sh->maintain(mcfg);
  }
  return sh;
}

std::vector<store::op> query_run(std::span<const uint64_t> keys) {
  std::vector<store::op> ops;
  for (uint64_t k : keys) ops.push_back(store::make_query(k));
  return ops;
}

std::vector<store::op> erase_run(std::span<const uint64_t> keys) {
  std::vector<store::op> ops;
  for (uint64_t k : keys) ops.push_back(store::make_erase(k));
  return ops;
}

}  // namespace cascade

TEST(StoreBulk, CascadeBulkQueryMatchesPointWalk) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(6144, 611);
    auto sh = cascade::grown_shard(backend, keys);
    ASSERT_GT(sh->level_count(), 1u) << backend_name(backend);

    // Mixed batch: present keys, absent keys, interleaved — large enough
    // for apply() to take the bulk run path.
    std::vector<uint64_t> probes;
    auto absent = util::hashed_xorwow_items(1536, 612);
    keys.resize(1536);
    for (size_t i = 0; i < keys.size(); ++i) {
      probes.push_back(keys[i]);
      probes.push_back(absent[i]);
    }
    auto r = sh->apply(cascade::query_run(probes));
    uint64_t expect_hits = 0;
    for (uint64_t k : probes) expect_hits += sh->contains(k) ? 1 : 0;
    EXPECT_EQ(r.query_hits, expect_hits) << backend_name(backend);
    EXPECT_EQ(r.query_misses, probes.size() - expect_hits)
        << backend_name(backend);
  }
}

TEST(StoreBulk, CascadeBulkEraseMatchesPointWalk) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(6144, 621);
    // Two bit-identical cascades: one erased through the bulk run path,
    // the oracle through point ops.
    auto bulk = cascade::grown_shard(backend, keys);
    auto point = cascade::grown_shard(backend, keys);
    ASSERT_GT(bulk->level_count(), 1u) << backend_name(backend);
    ASSERT_EQ(bulk->level_count(), point->level_count());
    ASSERT_EQ(bulk->size(), point->size());

    const uint64_t initial = bulk->size();

    // Distinct victims, half present and half absent, shuffled together —
    // large enough for apply() to take the bulk run path.
    std::vector<uint64_t> victims;
    auto absent = util::hashed_xorwow_items(512, 622);
    for (size_t i = 0; i < 512; ++i) {
      victims.push_back(keys[i * 8]);
      victims.push_back(absent[i]);
    }
    auto r = bulk->apply(cascade::erase_run(victims));
    uint64_t point_ok = 0;
    for (uint64_t k : victims) point_ok += point->erase(k) ? 1 : 0;

    // The erase contract under cross-victim fingerprint aliasing (one
    // victim consuming another's aliased slot mid-batch): batch
    // attribution may *under*-count against the walk — a handful at this
    // density — but never over-erases and never mis-accounts.  The old
    // per-key fallback this regression guards against was off by entire
    // levels, not units.
    ASSERT_LE(r.erased, point_ok) << backend_name(backend);
    EXPECT_LE(point_ok - r.erased, 4u) << backend_name(backend);
    EXPECT_EQ(r.erased + r.erase_missing, victims.size())
        << backend_name(backend);
    // Each successful erase removes at most one live item (a counting
    // backend decrementing a multiplicity ≥ 2 removes none).
    EXPECT_LE(initial - bulk->size(), r.erased) << backend_name(backend);
    EXPECT_LE(initial - point->size(), point_ok) << backend_name(backend);

    // Post-state: both shards agree on (almost) every key; each divergent
    // erase can perturb at most a couple of aliased answers.
    uint64_t mismatches = 0;
    for (uint64_t k : keys)
      mismatches += bulk->contains(k) != point->contains(k) ? 1 : 0;
    for (uint64_t k : victims)
      mismatches += bulk->count(k) != point->count(k) ? 1 : 0;
    EXPECT_LE(mismatches, 4 * (point_ok - r.erased) + 2)
        << backend_name(backend);
  }
}

}  // namespace
