// obs::metrics_registry exposition tests (stable names, TYPE headers,
// monotone counters across renders, the Prometheus histogram convention)
// plus the util::counters_scope TLS scoping that keeps two stores in one
// process from clobbering each other's filter counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "obs/histogram.h"
#include "obs/registry.h"
#include "util/counters.h"

using namespace gf;

namespace {

/// Number after the first exact `name ` (or `name{...} `) sample line.
uint64_t sample_value(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    // Must be at line start and followed by ' ' or '{'.
    if ((pos == 0 || text[pos - 1] == '\n')) {
      size_t after = pos + prefix.size();
      if (after < text.size() &&
          (text[after] == ' ' || text[after] == '{')) {
        size_t sp = text.find(' ', after);
        return std::stoull(text.substr(sp + 1));
      }
    }
    ++pos;
  }
  ADD_FAILURE() << "sample not found: " << prefix;
  return 0;
}

}  // namespace

TEST(ObsRegistry, CounterAndGaugeRendering) {
  obs::metrics_registry reg;
  uint64_t hits = 7;
  double load = 0.25;
  reg.add_counter("test_hits_total", "", [&] { return hits; });
  reg.add_counter("test_hits_total", "kind=\"b\"", [&] { return hits * 2; });
  reg.add_gauge("test_load", "", [&] { return load; });

  std::string text = reg.render();
  // One TYPE header per run of same-named entries, then the samples.
  EXPECT_NE(text.find("# TYPE test_hits_total counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_hits_total counter",
                      text.find("# TYPE test_hits_total counter") + 1),
            std::string::npos)
      << "TYPE header repeated for one name run";
  EXPECT_NE(text.find("test_hits_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("test_hits_total{kind=\"b\"} 14\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_load 0.25\n"), std::string::npos);
}

TEST(ObsRegistry, IntegerGaugesRenderExactly) {
  // Sizes and stream positions past six significant digits must not round
  // (4194304 as a double gauge renders 4.1943e+06).
  obs::metrics_registry reg;
  reg.add_int_gauge("test_items", "", [] { return uint64_t{4194304}; });
  reg.add_int_gauge("test_seq", "lane=\"1\"",
                    [] { return (uint64_t{1} << 56) + 1; });
  reg.add_gauge("test_items_double", "", [] { return 4194304.0; });

  const std::string text = reg.render();
  EXPECT_NE(text.find("# TYPE test_items gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\ntest_items 4194304\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ntest_seq{lane=\"1\"} 72057594037927937\n"),
            std::string::npos)
      << text;
  // A double gauge keeps %.6g.
  EXPECT_NE(text.find("\ntest_items_double 4.1943e+06\n"), std::string::npos)
      << text;
}

TEST(ObsRegistry, CountersMonotoneAcrossRenders) {
  obs::metrics_registry reg;
  uint64_t work = 0;
  reg.add_counter("test_work_total", "", [&] { return work; });

  uint64_t first = sample_value(reg.render(), "test_work_total");
  work += 41;
  uint64_t second = sample_value(reg.render(), "test_work_total");
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 41u);
  EXPECT_GE(second, first);
}

TEST(ObsRegistry, HistogramConvention) {
  obs::metrics_registry reg;
  obs::latency_histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);  // bucket upper 127
  h.record(100'000);                           // bucket upper 131071
  reg.add_histogram("test_lat_ns", "op=\"x\"", &h);

  std::string text = reg.render();
  EXPECT_NE(text.find("# TYPE test_lat_ns histogram\n"), std::string::npos);
  // Cumulative buckets: the 127 bucket holds 10, +Inf holds all 11, and
  // the empty interior buckets between 127 and 131071 are skipped.
  EXPECT_NE(text.find("test_lat_ns_bucket{op=\"x\",le=\"127\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_ns_bucket{op=\"x\",le=\"131071\"} 11\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_ns_bucket{op=\"x\",le=\"+Inf\"} 11\n"),
            std::string::npos);
  EXPECT_EQ(text.find("le=\"255\""), std::string::npos)
      << "empty interior bucket rendered";
  EXPECT_NE(text.find("test_lat_ns_count{op=\"x\"} 11\n"), std::string::npos);
  EXPECT_NE(text.find("test_lat_ns_sum{op=\"x\"} 101000\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_ns_p50{op=\"x\"} 127\n"), std::string::npos);
  // p999's rank among 11 samples is 10, still in the common bucket.
  EXPECT_NE(text.find("test_lat_ns_p999{op=\"x\"} 127\n"),
            std::string::npos);
}

TEST(ObsRegistry, LabelEscaping) {
  EXPECT_EQ(obs::metrics_registry::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::metrics_registry::escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
}

TEST(ObsRegistry, RegistryIsRebuildable) {
  // net::server re-registers after replacing its store (handle_invite);
  // assignment must drop the old closures and histogram pointers.
  obs::metrics_registry reg;
  uint64_t v = 1;
  reg.add_counter("test_v_total", "", [&] { return v; });
  EXPECT_NE(reg.render().find("test_v_total 1"), std::string::npos);
  reg = obs::metrics_registry();
  EXPECT_EQ(reg.render().find("test_v_total"), std::string::npos);
  reg.add_counter("test_v_total", "", [&] { return v + 1; });
  EXPECT_NE(reg.render().find("test_v_total 2"), std::string::npos);
}

TEST(CountersScope, DefaultInstanceWithoutScope) {
  // With no scope installed, counters() resolves to the process default on
  // every thread — the compatibility behavior raw-filter callers rely on.
  EXPECT_EQ(&util::counters(), &util::default_counters());
  std::thread t([] {
    EXPECT_EQ(&util::counters(), &util::default_counters());
  });
  t.join();
}

#if defined(GF_ENABLE_COUNTERS)
TEST(CountersScope, ScopedInstallAndRestore) {
  util::op_counters a, b;
  {
    util::counters_scope sa(a);
    EXPECT_EQ(&util::counters(), &a);
    {
      util::counters_scope sb(b);
      EXPECT_EQ(&util::counters(), &b);
    }
    EXPECT_EQ(&util::counters(), &a);  // nesting restores the outer scope
  }
  EXPECT_EQ(&util::counters(), &util::default_counters());
}

TEST(CountersScope, TwoScopesDoNotClobber) {
  // The bug this PR fixes: two stores in one process incrementing one
  // global.  With per-store scoping, each store's work lands in its own
  // op_counters instance.
  util::op_counters a, b;
  {
    util::counters_scope sa(a);
    GF_COUNT(cas_attempts, 3);
  }
  {
    util::counters_scope sb(b);
    GF_COUNT(cas_attempts, 5);
  }
  EXPECT_EQ(a.cas_attempts.load(), 3u);
  EXPECT_EQ(b.cas_attempts.load(), 5u);
  EXPECT_EQ(util::default_counters().cas_attempts.load(), 0u);
}

TEST(CountersScope, ScopeIsThreadLocal) {
  util::op_counters a;
  util::counters_scope sa(a);
  // A scope installed on this thread must not leak to another.
  std::thread t([] {
    EXPECT_EQ(&util::counters(), &util::default_counters());
  });
  t.join();
  EXPECT_EQ(&util::counters(), &a);
}
#endif  // GF_ENABLE_COUNTERS
