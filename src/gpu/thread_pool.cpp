#include "gpu/thread_pool.h"

#include <pthread.h>

#include <cstdlib>

namespace gf::gpu {

namespace {
thread_local const thread_pool* tls_owner = nullptr;

/// Marks the calling thread as a worker of `pool` for its lifetime, so a
/// launch nested inside runs inline instead of re-entering admission.
class worker_scope {
 public:
  explicit worker_scope(const thread_pool* pool) : prev_(tls_owner) {
    tls_owner = pool;
  }
  ~worker_scope() { tls_owner = prev_; }
  worker_scope(const worker_scope&) = delete;
  worker_scope& operator=(const worker_scope&) = delete;

 private:
  const thread_pool* prev_;
};

/// Bumped in every forked child: a pool whose workers were spawned in an
/// earlier generation has no threads behind it in this process.
std::atomic<uint64_t> g_fork_generation{0};

uint64_t current_fork_generation() {
  static const bool registered = [] {
    // relaxed: the child runs this handler single-threaded, before any
    // thread it later spawns could read the counter.
    ::pthread_atfork(nullptr, nullptr, [] {
      g_fork_generation.fetch_add(1, std::memory_order_relaxed);
    });
    return true;
  }();
  (void)registered;
  // relaxed: written only by the single-threaded post-fork child handler.
  return g_fork_generation.load(std::memory_order_relaxed);
}
}  // namespace

thread_pool& thread_pool::instance() {
  static thread_pool pool(query_pool_size());
  return pool;
}

// Sizing hook kept out-of-line so tests can reason about it; honors
// GF_NUM_WORKERS for reproducible CI runs.
unsigned query_pool_size() {
  if (const char* env = std::getenv("GF_NUM_WORKERS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_pool::thread_pool(unsigned num_workers)
    : fork_generation_(current_fork_generation()) {
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(num_workers - 1);
  for (unsigned i = 1; i < num_workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool() {
  if (fork_generation_ != current_fork_generation()) {
    // A forked child's copy: the threads (and any lock they held at the
    // fork) exist only in the parent.  Touch neither.
    for (auto& t : workers_) t.detach();
    return;
  }
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

bool thread_pool::in_worker() const { return tls_owner == this; }

thread_pool::launch_counts thread_pool::launches() const {
  // relaxed: monotone telemetry tallies; readers need no ordering.
  return {parallel_launches_.load(std::memory_order_relaxed),
          small_launches_.load(std::memory_order_relaxed),
          contended_launches_.load(std::memory_order_relaxed)};
}

void thread_pool::run_inline(const std::function<void(unsigned)>& fn) {
  worker_scope as_worker(this);
  const unsigned p = size();
  for (unsigned w = 0; w < p; ++w) fn(w);
}

void thread_pool::run_on_all(const std::function<void(unsigned)>& fn,
                             uint64_t items) {
  if (in_worker()) {
    run_inline(fn);
    return;
  }
  // Small launches run on the caller: waking the workers costs more than
  // fewer than kDefaultGrain items each would save.  So does a pool with
  // no workers to wake — none at all, or none in this (forked) process.
  if (workers_.empty() || items < uint64_t{size()} * kDefaultGrain ||
      fork_generation_ != current_fork_generation()) {
    // relaxed: monotone telemetry tally; readers need no ordering.
    small_launches_.fetch_add(1, std::memory_order_relaxed);
    run_inline(fn);
    return;
  }
  // Top-level launches are exclusive: job_ / remaining_ / epoch_ describe
  // exactly one launch at a time.  Two independent non-worker threads (two
  // net::server event loops sharing the process pool, or a server plus a
  // caller-thread bulk build) used to double-book that state — workers from
  // both launches raced the same cursor, which is precisely what made
  // concurrent point-TCF slot placement schedule-dependent.  A contended
  // launch now degrades to inline serial execution of every worker id on
  // the caller (the same discipline nested launches already follow), so
  // exclusivity is never traded for a blocking wait that could stall an
  // event loop behind a long foreign launch.
  if (!launch_mu_.try_lock()) {
    // relaxed: monotone telemetry tally; readers need no ordering.
    contended_launches_.fetch_add(1, std::memory_order_relaxed);
    run_inline(fn);
    return;
  }
  // relaxed: monotone telemetry tally; readers need no ordering.
  parallel_launches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard launch_guard(launch_mu_, std::adopt_lock);
  {
    std::lock_guard lock(mu_);
    job_ = &fn;
    remaining_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  {
    // The caller is worker 0 — marked as such for the duration so that a
    // nested launch issued from inside fn executes inline, exactly like it
    // does on the spawned workers.  Without this, caller-side shard work
    // that launches (e.g. a per-shard bulk sort) would start a second
    // top-level launch while this one is in flight, double-booking job_ /
    // remaining_ (an unsigned underflow parks everyone forever).
    worker_scope as_worker(this);
    fn(0);
  }
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
}

void thread_pool::worker_loop(unsigned id) {
  tls_owner = this;
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    (*job)(id);
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace gf::gpu
