// Workload-independent pieces of the repository benchmark: input
// generation, the percentile rule, failure accounting, the exact oracles
// and the /proc/stat steal reader.  Everything here is pure so that
// selftest.cpp can check it without a server.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

// -- Input generation --------------------------------------------------------

/// splitmix64 finalizer: a bijection on 64-bit words.
inline uint64_t mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The i-th key of a workload.  `salt ^ i` and mix64 are both bijections,
/// so distinct indices always give distinct keys: a key drawn from an
/// index range disjoint from the inserted one is certainly absent.
inline uint64_t key_at(uint64_t salt, uint64_t i) { return mix64(salt ^ i); }

/// Deterministic generator for the bench's own draws (splitmix64 stream).
class rng {
 public:
  explicit rng(uint64_t seed) : s_(seed) {}
  uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t s_;
};

/// Zipf(theta) over ranks [0, n): rank 0 is the hottest.  Inverse-CDF
/// sampling over a precomputed table; the bench owns it so the inputs do
/// not change when the program's own generators do.
class zipf_table {
 public:
  zipf_table(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint64_t sample(rng& g) const {
    const double u = g.unit();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// -- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the value at index
/// ceil(p*n) - 1.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline uint64_t samples_beyond(uint64_t n, double p) {
  const auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least ten samples beyond it; 0 when even the median has fewer.
inline double highest_valid_percentile(uint64_t n) {
  double best = 0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

/// A latency sample set summarised by the percentile rule.
struct latency_summary {
  uint64_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double top_p = 0;      ///< highest_valid_percentile(n)
  double top_value = 0;  ///< value at top_p
};

inline latency_summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  latency_summary s;
  s.n = samples.size();
  s.p50 = percentile_sorted(samples, 0.5);
  s.p99 = percentile_sorted(samples, 0.99);
  s.top_p = highest_valid_percentile(s.n);
  s.top_value = percentile_sorted(samples, s.top_p);
  return s;
}

// -- Quiet rounds ------------------------------------------------------------

/// A round whose CPU steal share is at most this counts as quiet.  On a
/// shared KVM host the server's CPU time per key rose about 2.5 times as
/// fast as steal (steal leaves the CPU clocks, but not the cold caches and
/// memory traffic that come with it), so a quiet round's CPU time is within
/// about 5% of an idle host's.
inline constexpr double kQuietSteal = 0.02;

/// Indices of the rounds the timed metrics use: every round whose steal is
/// at most `max_steal` when there are at least `min_count` of them, else
/// the `min_count` least-stolen rounds (all of them when there are fewer),
/// in round order.
inline std::vector<size_t> quiet_rounds(const std::vector<double>& steal,
                                        size_t min_count,
                                        double max_steal = kQuietSteal) {
  std::vector<size_t> idx(steal.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t n = 0;
  while (n < idx.size() && steal[idx[n]] <= max_steal) ++n;
  idx.resize(std::min(idx.size(), std::max(n, min_count)));
  std::sort(idx.begin(), idx.end());
  return idx;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// -- Failure accounting ------------------------------------------------------

/// How a response frame ended, as the client saw it.
enum class reply_kind { ok, ok_async, error };

/// Operations attempted and failed.  An error-status reply fails every key
/// of its frame; an ok or ok_async reply fails only the keys it reports as
/// refused (ok_async means the mutation was applied and only the replica
/// acknowledgement was softened, so it is a success).
struct op_tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void account(reply_kind kind, uint64_t keys, uint64_t refused) {
    attempted += keys;
    failed += kind == reply_kind::error ? keys : std::min(refused, keys);
  }
  void merge(const op_tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double fail_share() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

// -- Oracles -----------------------------------------------------------------

/// First violated correctness check, named so the failure says which.
struct violation_log {
  std::string check;   ///< empty while every check holds
  std::string detail;
  uint64_t count = 0;  ///< violations seen in total

  void record(const std::string& name, const std::string& what) {
    if (count++ == 0) {
      check = name;
      detail = what;
    }
  }
  bool ok() const { return count == 0; }
  void merge(const violation_log& o) {
    if (o.count && count == 0) {
      check = o.check;
      detail = o.detail;
    }
    count += o.count;
  }
};

/// Bit i of a query reply's bitmap; a bit past the bitmap reads absent.
inline bool bit_at(const std::vector<uint64_t>& bitmap, size_t i) {
  return i / 64 < bitmap.size() && ((bitmap[i / 64] >> (i % 64)) & 1);
}

/// Membership answers for a query frame: every key not marked absent was
/// inserted, so its bit must be set (a filter has no false negatives).
inline void check_no_false_negatives(const std::vector<uint64_t>& bitmap,
                                     const std::vector<uint64_t>& keys,
                                     const std::vector<uint8_t>& absent,
                                     violation_log& log) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (absent[i] || bit_at(bitmap, i)) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "inserted key %016llx answered absent",
                  static_cast<unsigned long long>(keys[i]));
    log.record("bulk_tcf.no_false_negatives", buf);
  }
}

/// Exact multiset of one connection's key slice, kept in submission
/// order.  Frames of one connection are applied in order, so the truth at
/// submit time is the truth the server sees when it runs the frame.
class count_truth {
 public:
  explicit count_truth(uint64_t universe) : truth_(universe, 0) {}

  uint64_t truth(uint64_t rank) const { return truth_[rank]; }
  void add(uint64_t rank, uint64_t n) {
    if (truth_[rank] == 0) ++live_;
    truth_[rank] += n;
  }
  uint64_t live() const { return live_; }

 private:
  std::vector<uint64_t> truth_;
  uint64_t live_ = 0;
};

/// A counting filter may over-count (a fingerprint collision) but never
/// under-count a key it holds.
inline void check_count_floor(uint64_t answered, uint64_t exact,
                              uint64_t key, violation_log& log) {
  if (answered < exact) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "key %016llx counted %llu, exact multiset holds %llu",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(answered),
                  static_cast<unsigned long long>(exact));
    log.record("churn_gqf.count_not_below_truth", buf);
  }
}

// -- CPU steal ---------------------------------------------------------------

/// Aggregate CPU times of the first "cpu" line of /proc/stat.
struct cpu_times {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool valid = false;
};

/// Parse /proc/stat text: "cpu user nice system idle iowait irq softirq
/// steal ...".  Guest time is already folded into user and nice, so it
/// is not added to the total.
inline cpu_times parse_proc_stat(const std::string& text) {
  cpu_times t;
  std::istringstream in(text);
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  uint64_t v[8] = {};
  int got = 0;
  while (got < 8 && in >> v[got]) ++got;
  if (got < 4) return t;
  for (int i = 0; i < got; ++i) t.total += v[i];
  t.steal = got >= 8 ? v[7] : 0;
  t.valid = true;
  return t;
}

/// Share of CPU time stolen by the hypervisor between two readings.
inline double steal_share(const cpu_times& a, const cpu_times& b) {
  if (!a.valid || !b.valid || b.total <= a.total || b.steal < a.steal)
    return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

}  // namespace perfbench
