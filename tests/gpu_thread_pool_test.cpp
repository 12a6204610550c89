#include "gpu/thread_pool.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "gpu/launch.h"

// TSan barely supports fork from a multi-threaded process (see
// persist_wal_test.cpp); the fork test runs in every other build.
#if defined(__SANITIZE_THREAD__)
#define GF_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GF_TSAN_ACTIVE 1
#endif
#endif

namespace gf::gpu {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  auto& pool = thread_pool::instance();
  constexpr uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 128, [&](uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyAndTinyRanges) {
  auto& pool = thread_pool::instance();
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, 16, [&](uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(10, 13, 16, [&](uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelRangesPartition) {
  auto& pool = thread_pool::instance();
  constexpr uint64_t kN = 77777;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_ranges(kN, [&](unsigned, uint64_t b, uint64_t e) {
    ASSERT_LE(b, e);
    for (uint64_t i = b; i < e; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedLaunchExecutesInline) {
  // A kernel body can call parallel primitives (the bulk TCF phases do);
  // nesting must neither deadlock nor duplicate work.
  std::atomic<uint64_t> total{0};
  launch_threads(16, [&](uint64_t) {
    thread_pool::instance().parallel_for(0, 100, 10, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 1600u);
}

TEST(ThreadPool, NestedLaunchFromCallerThreadExecutesInline) {
  // run_on_all's caller acts as worker 0.  When the item it processes
  // itself launches (the shape of a per-shard bulk sort inside a
  // shard-parallel store build), that nested launch must execute inline
  // like it does on the spawned workers — a second top-level launch while
  // one is in flight would double-book job_/remaining_ and park the pool
  // forever.  An explicit multi-worker pool + grain 1 forces the caller
  // into the worker-0 role even on single-core CI hosts.
  thread_pool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.parallel_for(0, 16, 1, [&](uint64_t) {
    uint64_t local = 0;
    pool.parallel_for(0, 100, 8, [&](uint64_t j) { local += j; });
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 16u * 4950u);
}

TEST(ThreadPool, ConcurrentTopLevelLaunchesFromForeignThreads) {
  // Regression for the launch-admission path: two (here: four) independent
  // non-worker threads launching on the SAME pool at once used to
  // double-book job_/remaining_/epoch_ — the root cause of the
  // schedule-dependent point-TCF slot placement.  The pool now admits one
  // launch and the losers run their worker ids inline, so every launch
  // must cover its range exactly once and nothing may deadlock.
  thread_pool pool(4);
  constexpr int kLaunchers = 4;
  constexpr uint64_t kN = 5000;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<uint32_t>>> hits(kLaunchers);
  for (auto& v : hits) v = std::vector<std::atomic<uint32_t>>(kN);

  std::vector<std::thread> launchers;
  for (int t = 0; t < kLaunchers; ++t) {
    launchers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kN, 64, [&, t](uint64_t i) {
          hits[t][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : launchers) th.join();

  for (int t = 0; t < kLaunchers; ++t)
    for (uint64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[t][i].load(), kRounds) << "launcher " << t << " i " << i;
}

TEST(ThreadPool, ConcurrentLaunchesWithNestedLaunchesInside) {
  // The contended shape the store actually produces: each top-level launch
  // body itself launches (per-shard bulk phases).  Inline-fallback callers
  // mark themselves as workers, so the nested launches must still execute
  // inline rather than re-entering admission and deadlocking.
  thread_pool pool(3);
  constexpr int kLaunchers = 3;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> launchers;
  for (int t = 0; t < kLaunchers; ++t) {
    launchers.emplace_back([&] {
      pool.parallel_for(0, 8, 1, [&](uint64_t) {
        pool.parallel_for(0, 100, 10, [&](uint64_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  }
  for (auto& th : launchers) th.join();
  EXPECT_EQ(total.load(), uint64_t{kLaunchers} * 8 * 100);
}

TEST(ThreadPool, SmallLaunchRunsOnTheCallerMarkedAsWorker) {
  // Below size() * kDefaultGrain items a launch runs every worker id on
  // the caller, which counts as a worker meanwhile: launches nested inside
  // run inline too, so nothing in it can wake the pool.
  thread_pool pool(4);
  const uint64_t threshold = uint64_t{pool.size()} * kDefaultGrain;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<unsigned> ids;
  std::atomic<uint64_t> nested{0}, off_caller{0};
  pool.run_on_all(
      [&](unsigned w) {
        ids.push_back(w);
        EXPECT_TRUE(pool.in_worker());
        pool.parallel_for(0, threshold, 1, [&](uint64_t) {
          if (std::this_thread::get_id() != caller) ++off_caller;
          ++nested;
        });
        pool.parallel_ranges(threshold, [&](unsigned, uint64_t b,
                                            uint64_t e) {
          if (std::this_thread::get_id() != caller) ++off_caller;
          nested += e - b;
        });
      },
      threshold - 1);
  EXPECT_FALSE(pool.in_worker());
  EXPECT_EQ(ids, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(nested.load(), 4 * 2 * threshold);
  EXPECT_EQ(off_caller.load(), 0u);
  EXPECT_EQ(pool.launches().parallel, 0u);
  EXPECT_EQ(pool.launches().small, 1u);

  // The same rule sizes parallel_ranges: threshold - 1 items stay on the
  // caller, threshold items wake the pool.
  pool.parallel_ranges(threshold - 1, [](unsigned, uint64_t, uint64_t) {});
  EXPECT_EQ(pool.launches().parallel, 0u);
  EXPECT_EQ(pool.launches().small, 2u);
  pool.parallel_ranges(threshold, [](unsigned, uint64_t, uint64_t) {});
  EXPECT_EQ(pool.launches().parallel, 1u);
  // An explicit item count overrides the index count.
  pool.parallel_ranges(4, [](unsigned, uint64_t, uint64_t) {}, threshold);
  EXPECT_EQ(pool.launches().parallel, 2u);
  EXPECT_EQ(pool.launches().contended, 0u);
}

TEST(ThreadPool, LaunchAgainstABusyPoolCountsAsContended) {
  thread_pool pool(2);
  std::atomic<bool> holding{false}, released{false};
  std::thread holder([&] {
    pool.run_on_all([&](unsigned w) {
      if (w != 0) return;
      holding = true;
      while (!released) std::this_thread::yield();
    });
  });
  while (!holding) std::this_thread::yield();
  std::atomic<int> ran{0};
  pool.run_on_all([&](unsigned) { ++ran; });
  released = true;
  holder.join();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.launches().parallel, 1u);
  EXPECT_EQ(pool.launches().contended, 1u);
}

TEST(ThreadPool, ForkedChildRunsLaunchesInline) {
#ifdef GF_TSAN_ACTIVE
  GTEST_SKIP() << "fork from a multi-threaded process is unreliable under TSan";
#endif
  // Worker threads do not survive fork().  A child that launched on a
  // pool its parent had warmed used to wake workers that do not exist in
  // it and wait for them forever.
  thread_pool pool(4);
  const uint64_t n = uint64_t{pool.size()} * kDefaultGrain;
  std::atomic<uint64_t> warm{0};
  pool.parallel_for(0, n, 64, [&](uint64_t) { ++warm; });
  ASSERT_EQ(warm.load(), n);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::atomic<uint64_t> a{0}, b{0};
    pool.parallel_for(0, n, 64, [&](uint64_t) { ++a; });
    pool.parallel_ranges(n, [&](unsigned, uint64_t lo, uint64_t hi) {
      b += hi - lo;
    });
    ::_exit(a.load() == n && b.load() == n ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "forked child hung in a pool launch";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child launches lost items";
}

TEST(ThreadPool, SequentialLaunchesReuseWorkers) {
  // Many short launches in a row: exercises the epoch handshake.
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round)
    launch_threads(64, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 200u * 64);
}

TEST(ThreadPool, ConcurrentMutationVisibleAfterJoin) {
  // Writes made inside a launch are visible after it returns (the launch
  // acts as a synchronization point, like a CUDA kernel + deviceSync).
  std::vector<uint64_t> data(10000, 0);
  launch_threads(data.size(), [&](uint64_t i) { data[i] = i * i; });
  for (uint64_t i = 0; i < data.size(); ++i) ASSERT_EQ(data[i], i * i);
}

}  // namespace
}  // namespace gf::gpu
