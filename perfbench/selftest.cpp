// Checks of the benchmark's own logic: the percentile rule, the choice of
// quiet rounds, failure accounting, the oracles, and the /proc/stat steal
// reader.  Exits 1 and names the first failed check.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void percentile_rule() {
  using perfbench::highest_valid_percentile;
  using perfbench::samples_beyond;
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(highest_valid_percentile(1000) == 0.99, "n=1000 reaches p99");
  expect(highest_valid_percentile(999) == 0.9, "n=999 stops at p90");
  expect(highest_valid_percentile(10000) == 0.999, "n=10000 reaches p99.9");
  expect(highest_valid_percentile(100000) == 0.9999, "n=100000 reaches p99.99");
  expect(highest_valid_percentile(20) == 0.5, "n=20 reaches the median");
  expect(highest_valid_percentile(19) == 0, "n=19 has no valid percentile");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::latency_summary s = perfbench::summarize(v);
  expect(s.p50 == 500 && s.p99 == 990, "nearest-rank p50 and p99");
  expect(s.top_p == 0.99 && s.top_value == 990, "top percentile of 1000");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "even median");
}

void quiet() {
  using perfbench::quiet_rounds;
  const std::vector<double> some = {0.01, 0.20, 0.02, 0.021, 0.0};
  expect(quiet_rounds(some, 2, 0.02) == std::vector<size_t>({0, 2, 4}),
         "every quiet round is used when there are enough");
  expect(quiet_rounds(some, 4, 0.02) == std::vector<size_t>({0, 2, 3, 4}),
         "too few quiet rounds: the least-stolen ones are used");
  expect(quiet_rounds({0.3, 0.1}, 4, 0.02) == std::vector<size_t>({0, 1}),
         "fewer rounds than wanted: all of them");
  expect(quiet_rounds({}, 3).empty(), "no rounds, none used");
}

void fail_accounting() {
  perfbench::op_tally t;
  t.account(perfbench::reply_kind::ok, 100, 0);
  t.account(perfbench::reply_kind::ok_async, 100, 0);
  expect(t.attempted == 200 && t.failed == 0, "ok_async counts as success");
  t.account(perfbench::reply_kind::ok, 100, 3);
  expect(t.failed == 3, "refused keys of an ok reply fail");
  t.account(perfbench::reply_kind::error, 100, 0);
  expect(t.attempted == 400 && t.failed == 103, "an error reply fails every key");
  t.account(perfbench::reply_kind::ok, 10, 50);
  expect(t.failed == 113, "refusals are capped at the frame's keys");
  expect(t.fail_share() == 113.0 / 410.0, "fail_share is failed over attempted");
  expect(perfbench::op_tally{}.fail_share() == 0, "empty tally has no failures");
}

void oracles() {
  // An injected false negative: key 70 of 100 answered absent.  Keys
  // marked absent may answer either way.
  std::vector<uint64_t> keys(100), bits(2, ~uint64_t{0});
  std::vector<uint8_t> absent(100, 0);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i + 1;
  absent[3] = 1;
  bits[0] &= ~(uint64_t{1} << 3);
  perfbench::violation_log ok_log;
  perfbench::check_no_false_negatives(bits, keys, absent, ok_log);
  expect(ok_log.ok(), "present keys set, an absent key unset: passes");
  bits[1] &= ~(uint64_t{1} << (70 - 64));
  perfbench::violation_log fn_log;
  perfbench::check_no_false_negatives(bits, keys, absent, fn_log);
  expect(fn_log.count == 1 && fn_log.check == "bulk_tcf.no_false_negatives",
         "an injected false negative is caught and named");
  perfbench::violation_log short_log;
  perfbench::check_no_false_negatives({~uint64_t{0}}, keys, absent, short_log);
  expect(short_log.count == 36, "bits past a short bitmap read absent");

  // An injected under-count, and over-counts that are allowed.
  perfbench::count_truth truth(8);
  perfbench::violation_log log;
  truth.add(3, 4);
  truth.add(3, 1);
  expect(truth.truth(3) == 5 && truth.live() == 1, "counted inserts add up");
  perfbench::check_count_floor(5, truth.truth(3), 3, log);
  perfbench::check_count_floor(9, truth.truth(3), 3, log);
  expect(log.ok(), "exact and over-counts pass");
  perfbench::check_count_floor(4, truth.truth(3), 3, log);
  expect(log.count == 1 && log.check == "churn_gqf.count_not_below_truth",
         "an injected under-count is caught and named");
  perfbench::check_no_false_negatives({0}, {7}, {0}, log);
  expect(log.count == 2 && log.check == "churn_gqf.count_not_below_truth",
         "the first violation keeps its name");
}

void steal() {
  const std::string a =
      "cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
  const std::string b = "cpu  200 0 70 880 10 0 0 80 5 0\n";
  const perfbench::cpu_times ta = perfbench::parse_proc_stat(a);
  const perfbench::cpu_times tb = perfbench::parse_proc_stat(b);
  expect(ta.valid && ta.total == 1000 && ta.steal == 40, "parse the cpu line");
  expect(tb.total == 1240 && tb.steal == 80, "guest time is not added");
  expect(perfbench::steal_share(ta, tb) == 40.0 / 240.0, "steal share of the interval");
  expect(!perfbench::parse_proc_stat("intr 1 2 3\n").valid, "reject a non-cpu line");
  const perfbench::cpu_times old = perfbench::parse_proc_stat("cpu 1 2 3 4\n");
  expect(old.valid && old.steal == 0 && old.total == 10, "kernels without steal");
  expect(perfbench::steal_share(tb, ta) == 0, "a clock going backwards reads 0");
}

void inputs() {
  // Distinct indices give distinct keys, so absent keys are truly absent.
  std::vector<uint64_t> k;
  for (uint64_t i = 0; i < 4096; ++i) k.push_back(perfbench::key_at(42, i));
  std::sort(k.begin(), k.end());
  expect(std::adjacent_find(k.begin(), k.end()) == k.end(), "keys are distinct");
  perfbench::rng a(7), b(7);
  expect(a.next() == b.next(), "same seed, same draws");
  perfbench::zipf_table z(1024, 0.99);
  perfbench::rng g(1);
  uint64_t hot = 0;
  for (int i = 0; i < 10000; ++i) hot += z.sample(g) == 0;
  expect(hot > 1000 && hot < 2000, "rank 0 draws about 1/H(1024) of samples");
}

}  // namespace

int main() {
  percentile_rule();
  quiet();
  fail_accounting();
  oracles();
  steal();
  inputs();
  if (failures) return 1;
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
