// Metrics registry with a Prometheus-style text exposition.
//
// The registry is a declaration surface: components register named
// counters (monotone uint64), gauges, and latency histograms once at
// startup, each as a name + label string + a way to read the current
// value.  A gauge is either an integer gauge (uint64, rendered exactly
// with %llu — sizes, positions, counts) or a double gauge (rendered with
// %.6g — ratios, seconds).  Counters and gauges are pull-based closures,
// so registration never changes how a component stores its state: the
// reader loads the component's own atomic or field at render time
// (net/server.cpp builds its closures from one fact table).  Histograms
// register by pointer and are snapshotted at render time.
//
// render() produces the classic text format, one `name{labels} value` per
// line with `# TYPE` headers, so CI and operators can scrape with grep
// instead of a JSON parser.  Histograms follow the Prometheus histogram
// convention (cumulative `_bucket{le="..."}` plus `_sum`/`_count`) and
// additionally emit precomputed `_p50/_p90/_p99/_p999` gauges, because the
// first question a scrape answers in this repo is "what is p99 right now"
// and quantile math does not belong in a shell script.
//
// Rendering reads live atomics with relaxed ordering — values are
// point-in-time approximations, which is all a scrape ever is.  Register
// and render from one thread (the server event loop); the *values* may be
// written concurrently from anywhere.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace gf::obs {

class metrics_registry {
 public:
  using counter_fn = std::function<uint64_t()>;
  using gauge_fn = std::function<double()>;

  /// labels: pre-rendered `key="value"` pairs, comma separated, no braces
  /// (empty for none).  Values must not contain unescaped `"` or `\`;
  /// escape_label_value() handles arbitrary text.
  void add_counter(std::string name, std::string labels, counter_fn read) {
    counters_.push_back({std::move(name), std::move(labels), std::move(read)});
  }
  /// A double gauge, rendered with %.6g (six significant digits).
  void add_gauge(std::string name, std::string labels, gauge_fn read) {
    gauges_.push_back(
        {std::move(name), std::move(labels), std::move(read), {}});
  }
  /// An integer gauge, rendered exactly.
  void add_int_gauge(std::string name, std::string labels, counter_fn read) {
    gauges_.push_back(
        {std::move(name), std::move(labels), {}, std::move(read)});
  }
  /// The histogram must outlive the registry (registries live on the
  /// component that owns the histograms, so this is structural).
  void add_histogram(std::string name, std::string labels,
                     const latency_histogram* hist) {
    histograms_.push_back({std::move(name), std::move(labels), hist});
  }

  static std::string escape_label_value(std::string_view v) {
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  }

  std::string render() const {
    std::string out;
    out.reserve(4096);
    const std::string* last_type_name = nullptr;
    auto type_line = [&](const std::string& name, const char* type) {
      // Entries registered under one name share a TYPE; emit the header
      // once per run of same-named entries (registration groups them).
      if (last_type_name != nullptr && *last_type_name == name) return;
      out += "# TYPE ";
      out += name;
      out += ' ';
      out += type;
      out += '\n';
      last_type_name = &name;
    };

    for (const auto& c : counters_) {
      type_line(c.name, "counter");
      append_sample(out, c.name, c.labels, nullptr, c.read());
    }
    last_type_name = nullptr;
    for (const auto& g : gauges_) {
      type_line(g.name, "gauge");
      if (g.read_int)
        append_sample(out, g.name, g.labels, nullptr, g.read_int());
      else
        append_sample(out, g.name, g.labels, nullptr, g.read());
    }
    last_type_name = nullptr;
    for (const auto& h : histograms_) {
      render_histogram(out, h);
    }
    return out;
  }

 private:
  struct counter_entry {
    std::string name, labels;
    counter_fn read;
  };
  struct gauge_entry {
    std::string name, labels;
    gauge_fn read;        ///< double gauge, or
    counter_fn read_int;  ///< integer gauge when set
  };
  struct histogram_entry {
    std::string name, labels;
    const latency_histogram* hist;
  };

  static void append_name_labels(std::string& out, const std::string& name,
                                 const std::string& labels,
                                 const char* extra_label) {
    out += name;
    if (!labels.empty() || extra_label != nullptr) {
      out += '{';
      out += labels;
      if (extra_label != nullptr) {
        if (!labels.empty()) out += ',';
        out += extra_label;
      }
      out += '}';
    }
  }

  static void append_sample(std::string& out, const std::string& name,
                            const std::string& labels, const char* extra_label,
                            uint64_t value) {
    append_name_labels(out, name, labels, extra_label);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(value));
    out += buf;
  }

  static void append_sample(std::string& out, const std::string& name,
                            const std::string& labels, const char* extra_label,
                            double value) {
    append_name_labels(out, name, labels, extra_label);
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.6g\n", value);
    out += buf;
  }

  static void render_histogram(std::string& out, const histogram_entry& h) {
    histogram_snapshot s = h.hist->snapshot();
    out += "# TYPE " + h.name + " histogram\n";
    // Cumulative buckets up to the highest non-empty one, then +Inf.
    unsigned top = 0;
    for (unsigned i = 0; i < kHistogramBuckets; ++i)
      if (s.buckets[i] != 0) top = i;
    uint64_t cum = 0;
    for (unsigned i = 0; i <= top; ++i) {
      cum += s.buckets[i];
      if (s.buckets[i] == 0 && i != top) continue;  // skip empty interior
      char le[48];
      std::snprintf(le, sizeof(le), "le=\"%llu\"",
                    static_cast<unsigned long long>(
                        histogram_snapshot::bucket_upper(i)));
      append_sample(out, h.name + "_bucket", h.labels, le, cum);
    }
    append_sample(out, h.name + "_bucket", h.labels, "le=\"+Inf\"", cum);
    append_sample(out, h.name + "_sum", h.labels, nullptr, s.sum);
    append_sample(out, h.name + "_count", h.labels, nullptr, cum);
    append_sample(out, h.name + "_p50", h.labels, nullptr, s.percentile(0.50));
    append_sample(out, h.name + "_p90", h.labels, nullptr, s.percentile(0.90));
    append_sample(out, h.name + "_p99", h.labels, nullptr, s.percentile(0.99));
    append_sample(out, h.name + "_p999", h.labels, nullptr,
                  s.percentile(0.999));
  }

  std::vector<counter_entry> counters_;
  std::vector<gauge_entry> gauges_;
  std::vector<histogram_entry> histograms_;
};

}  // namespace gf::obs
