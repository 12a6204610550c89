// Kernel-style bulk launches over the SM scheduler.
//
// A CUDA kernel launch <<<grid, block>>> becomes a decomposition of work
// items over the thread pool:
//   * launch_threads(n, fn)         — one logical GPU thread per item
//                                     (point-API benches: one op per thread)
//   * launch_groups(n, cg_size, fn) — one cooperative group per item
//                                     (TCF block ops)
//   * launch_warps(n, fn)           — one warp-sized task per item
//
// Grain sizes are chosen so that scheduling overhead stays below the cost
// of the per-item filter operation.
#pragma once

#include <cstdint>

#include "gpu/coop_groups.h"
#include "gpu/thread_pool.h"

namespace gf::gpu {

/// One logical GPU thread per index in [0, n).
template <class Fn>
void launch_threads(uint64_t n, Fn&& fn, uint64_t grain = kDefaultGrain) {
  thread_pool::instance().parallel_for(0, n, grain,
                                       [&](uint64_t i) { fn(i); });
}

/// One cooperative group (of `cg_size` lanes) per index in [0, n).
/// `fn(index, cg)` runs with a group object it can ballot on.
template <class Fn>
void launch_groups(uint64_t n, unsigned cg_size, Fn&& fn,
                   uint64_t grain = kDefaultGrain) {
  cooperative_group cg(cg_size);
  thread_pool::instance().parallel_for(0, n, grain,
                                       [&](uint64_t i) { fn(i, cg); });
}

/// Static per-worker ranges: fn(worker, begin, end).  Bulk phases that need
/// per-worker scratch (histograms, buffers) use this.
template <class Fn>
void launch_ranges(uint64_t n, Fn&& fn) {
  thread_pool::instance().parallel_ranges(n, std::forward<Fn>(fn));
}

}  // namespace gf::gpu
