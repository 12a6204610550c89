// Span recorder for the benchmark's traced run.  Spans are recorded from
// the benchmark's own code around each call into a layer, kept in memory,
// and written as chrome://tracing JSON when the run ends.  Recording is
// off unless enabled, so the untraced run pays one branch per call site.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread, live or ended) and of the
/// calling thread.  The kernel leaves time stolen by the hypervisor out of
/// both, which wall time cannot do.
inline uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

class span_log {
 public:
  struct span {
    const char* name;  ///< layer.call, a string literal
    uint64_t start_ns;
    uint64_t dur_ns;
    uint32_t tid;      ///< client connection or bench thread
    uint64_t id;       ///< request (frame) the span belongs to
  };

  /// Spans beyond this many are counted but not kept, so a long traced
  /// run cannot grow memory without bound.
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  void add(const char* name, uint64_t start_ns, uint64_t end_ns, uint32_t tid,
           uint64_t id = 0) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, start_ns, end_ns - start_ns, tid, id});
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Write every kept span as chrome://tracing "complete" events.
  bool write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"droppedSpans\":%llu,"
                    "\"traceEvents\":[",
                 static_cast<unsigned long long>(dropped_));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      const double ts = static_cast<double>(s.start_ns - std::min(base, s.start_ns)) / 1e3;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"id\":%llu}}",
                   i ? "," : "", s.name, layer_len(s.name), s.name, ts,
                   static_cast<double>(s.dur_ns) / 1e3, s.tid,
                   static_cast<unsigned long long>(s.id));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  /// The layer is the span name up to its first '.'.
  static int layer_len(const char* name) {
    int n = 0;
    while (name[n] && name[n] != '.') ++n;
    return n;
  }

  bool enabled_ = false;  // set only while no recording thread runs
  mutable std::mutex mu_;
  std::vector<span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench
