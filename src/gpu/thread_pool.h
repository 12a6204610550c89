// The "SM scheduler": a persistent thread pool that plays the role of the
// GPU's streaming multiprocessors.  Kernel-style bulk launches (gpu/launch.h)
// decompose their grid over this pool.
//
// Design notes:
//  * Workers are created once (first use) and parked on a condition
//    variable between launches; a launch is a single closure executed by
//    every worker, with work distribution done *inside* the closure via an
//    atomic cursor.  This mirrors persistent-kernel style scheduling and
//    keeps per-launch overhead at one wakeup.
//  * One rule decides who runs a launch: the pool runs it only when the
//    launch carries at least size() * kDefaultGrain items and no other
//    launch holds the pool.  Otherwise the caller runs every worker id
//    itself, serially and in id order — like a GPU kernel launch, a wake
//    of the whole pool only pays for itself on a batch large enough to
//    amortise it.
//  * Nested launches execute inline on the calling worker (GPUs do not
//    nest dynamic parallelism here either), which makes the primitives
//    composable without deadlock.  A caller running a launch inline is
//    marked as a worker for its duration, so launches nested inside it
//    stay inline too.
//  * Worker threads do not survive fork(): in a forked child every launch
//    on a pool built before the fork runs inline on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace gf::gpu {

/// Items per worker below which a launch is not worth waking the pool for,
/// and the default chunk of launch_threads/launch_groups.
inline constexpr uint64_t kDefaultGrain = 1024;

/// Number of workers the global pool uses: GF_NUM_WORKERS env var when set,
/// otherwise hardware concurrency.
unsigned query_pool_size();

class thread_pool {
 public:
  /// The process-wide pool (sized to hardware concurrency).
  static thread_pool& instance();

  explicit thread_pool(unsigned num_workers);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run `fn(worker_id)` on every worker (worker 0 is the caller) and wait
  /// for completion.  `fn` must partition its own work; see parallel_for.
  ///
  /// `items` is the work the launch carries.  Below size() * kDefaultGrain
  /// items, and whenever another launch holds the pool, the caller runs
  /// every worker id inline on itself instead (serial, in id order) — so
  /// `fn` must tolerate its worker ids executing sequentially on one
  /// thread, which every cursor/static-range decomposition in this
  /// codebase does.  Concurrent top-level launches from independent
  /// threads are therefore safe and never block behind a foreign launch.
  void run_on_all(const std::function<void(unsigned)>& fn,
                  uint64_t items = std::numeric_limits<uint64_t>::max());

  /// Dynamic parallel loop over [begin, end) in chunks of `grain`.
  /// Safe to call from inside a pool worker (executes inline).
  template <class Fn>
  void parallel_for(uint64_t begin, uint64_t end, uint64_t grain, Fn&& fn) {
    if (begin >= end) return;
    uint64_t n = end - begin;
    if (in_worker() || n <= grain || size() == 1) {
      for (uint64_t i = begin; i < end; ++i) fn(i);
      return;
    }
    std::atomic<uint64_t> cursor{begin};
    run_on_all([&](unsigned) {
      for (;;) {
        // relaxed: cursor hands out disjoint indices; data is read after the join.
        uint64_t chunk = cursor.fetch_add(grain, std::memory_order_relaxed);
        if (chunk >= end) break;
        uint64_t stop = chunk + grain < end ? chunk + grain : end;
        for (uint64_t i = chunk; i < stop; ++i) fn(i);
      }
    });
  }

  /// Static partition of [0, n) into one contiguous range per worker:
  /// fn(worker_id, begin, end).  Used where per-worker state matters
  /// (e.g. per-worker histograms in the radix sort).  `items` sizes the
  /// launch (run_on_all) when a range index stands for more work than one
  /// item, e.g. a bitmap word of 64 keys.
  template <class Fn>
  void parallel_ranges(uint64_t n, Fn&& fn, uint64_t items) {
    if (n == 0) return;
    if (in_worker()) {  // nested: one range, like parallel_for's one loop
      fn(0u, uint64_t{0}, n);
      return;
    }
    const unsigned p = size();
    run_on_all(
        [&](unsigned w) {
          uint64_t begin = n * w / p;
          uint64_t end = n * (w + 1) / p;
          if (begin < end) fn(w, begin, end);
        },
        items);
  }
  template <class Fn>
  void parallel_ranges(uint64_t n, Fn&& fn) {
    parallel_ranges(n, std::forward<Fn>(fn), n);
  }

  /// True when the calling thread is one of this pool's workers.
  bool in_worker() const;

  /// How top-level launches ran: on the pool, inline because they were
  /// too small for it (or there were no workers to wake: a one-worker
  /// pool, or a forked child), or inline because another launch held it.
  /// Nested launches are part of their enclosing launch and not counted.
  struct launch_counts {
    uint64_t parallel = 0;
    uint64_t small = 0;
    uint64_t contended = 0;
  };
  launch_counts launches() const;

 private:
  void worker_loop(unsigned id);
  /// Every worker id, in order, on the calling thread marked as a worker.
  void run_inline(const std::function<void(unsigned)>& fn);

  std::vector<std::thread> workers_;
  uint64_t fork_generation_;  ///< forks seen when the workers were spawned
  std::mutex launch_mu_;  ///< admits one top-level launch at a time
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  uint64_t epoch_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> parallel_launches_{0};
  std::atomic<uint64_t> small_launches_{0};
  std::atomic<uint64_t> contended_launches_{0};
};

}  // namespace gf::gpu
