// Counters and latency histograms used by benches and node instrumentation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sedna {

/// Monotone counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Log-bucketed histogram for latency-like quantities (microseconds).
/// Buckets are [2^i, 2^(i+1)); quantile estimates interpolate inside a
/// bucket. Cheap enough to record every simulated request.
///
/// Each bucket optionally keeps one *exemplar* — the trace id of a
/// representative request that landed there (largest value wins; ties
/// keep the earliest trace). Tail buckets thereby link straight from a
/// p99 number to a retained trace that explains it.
class Histogram {
 public:
  struct Exemplar {
    std::uint64_t value = 0;
    std::uint64_t trace = 0;
  };

  void record(std::uint64_t v) { record(v, 0); }

  /// Records a sample with the trace that produced it (0 = untraced).
  void record(std::uint64_t v, std::uint64_t trace) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[bucket_index(v)];
    if (trace != 0) offer_exemplar(bucket_index(v), Exemplar{v, trace});
  }

  /// Bucket index → exemplar, for populated buckets with a traced sample.
  [[nodiscard]] const std::map<std::size_t, Exemplar>& exemplars() const {
    return exemplars_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// q in [0, 1].
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (seen + buckets_[i] > target) {
        // Bucket i covers [2^i, 2^(i+1)); bucket 0 additionally absorbs
        // value 0, so its lower bound is 2^0 like every other bucket
        // rather than 0.0 (which dragged estimates below the smallest
        // recordable latency — simulated durations are clamped >= 1).
        const double lo = static_cast<double>(1ULL << i);
        const double hi = static_cast<double>(2ULL << i);
        const double frac =
            buckets_[i] == 0
                ? 0.0
                : static_cast<double>(target - seen) /
                      static_cast<double>(buckets_[i]);
        // Interpolation never needs to leave the observed range.
        return std::clamp(lo + frac * (hi - lo),
                          static_cast<double>(count_ ? min_ : 0),
                          static_cast<double>(max_));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(max_);
  }

  void reset() { *this = Histogram{}; }

  void merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    for (const auto& [bucket, e] : other.exemplars_) {
      offer_exemplar(bucket, e);
    }
  }

 private:
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < 2) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(v));
  }

  void offer_exemplar(std::size_t bucket, Exemplar e) {
    Exemplar& cur = exemplars_[bucket];
    if (cur.trace == 0 || e.value > cur.value ||
        (e.value == cur.value && e.trace < cur.trace)) {
      cur = e;
    }
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = static_cast<std::uint64_t>(-1);
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, 64> buckets_{};
  std::map<std::size_t, Exemplar> exemplars_;
};

/// Named metric registry; one per node / per bench run. (For the
/// cluster-wide registry-of-registries see MetricsRegistry below.)
/// A metric, once created, lives as long as the registry at a fixed
/// address, so callers may cache the reference (see MetricHandle).
class MetricRegistry {
 public:
  Counter& counter(std::string_view name) {
    return find_or_add(counters_, name);
  }
  Histogram& histogram(std::string_view name) {
    return find_or_add(histograms_, name);
  }

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  template <class Map>
  static typename Map::mapped_type& find_or_add(Map& map,
                                                std::string_view name) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) {
      it = map.emplace_hint(it, name, typename Map::mapped_type{});
    }
    return it->second;
  }

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// A registry metric looked up by name on first use and cached after, for
/// hot paths. Resolving lazily keeps a series that never fires out of the
/// registry, so dumps list exactly the metrics that were touched.
template <class Metric>
class MetricHandle {
 public:
  /// `name` must outlive the handle (a string literal in practice).
  MetricHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  Metric& operator*() {
    if (metric_ == nullptr) metric_ = &lookup();
    return *metric_;
  }
  Metric* operator->() { return &**this; }

 private:
  Metric& lookup() {
    if constexpr (std::is_same_v<Metric, Counter>) {
      return registry_->counter(name_);
    } else {
      return registry_->histogram(name_);
    }
  }

  MetricRegistry* registry_;
  const char* name_;
  Metric* metric_ = nullptr;
};

using CounterHandle = MetricHandle<Counter>;
using HistogramHandle = MetricHandle<Histogram>;

/// Cluster-wide metrics registry: names each per-node MetricRegistry with
/// a stable label ("node-100", "client-1000", ...) and renders
/// deterministic aggregate views. Output ordering is (metric name, label),
/// both lexicographic, so dumps from identically-seeded runs are
/// byte-identical.
class MetricsRegistry {
 public:
  /// The registry must outlive this aggregator.
  void attach(std::string label, const MetricRegistry& reg) {
    members_.emplace_back(std::move(label), &reg);
  }

  /// Label-free sum of every attached registry.
  [[nodiscard]] MetricRegistry merged() const {
    MetricRegistry out;
    for (const auto& [label, reg] : members_) {
      for (const auto& [name, c] : reg->counters()) {
        out.counter(name).add(c.value());
      }
      for (const auto& [name, h] : reg->histograms()) {
        out.histogram(name).merge(h);
      }
    }
    return out;
  }

  /// Prometheus-style text exposition. Counters emit one sample per
  /// label; histograms emit p50/p95/p99 quantiles plus _sum and _count
  /// (summary convention).
  [[nodiscard]] std::string prometheus_text() const {
    std::map<std::string, std::map<std::string, const Counter*>> counters;
    std::map<std::string, std::map<std::string, const Histogram*>> histos;
    for (const auto& [label, reg] : members_) {
      for (const auto& [name, c] : reg->counters()) {
        counters[name][label] = &c;
      }
      for (const auto& [name, h] : reg->histograms()) {
        histos[name][label] = &h;
      }
    }
    std::string out;
    char buf[128];
    for (const auto& [name, by_label] : counters) {
      const std::string metric = prometheus_name(name);
      out += "# TYPE " + metric + " counter\n";
      for (const auto& [label, c] : by_label) {
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(c->value()));
        out += metric + "{node=\"" + escape_label_value(label) + "\"}" + buf;
      }
    }
    for (const auto& [name, by_label] : histos) {
      const std::string metric = prometheus_name(name);
      out += "# TYPE " + metric + " summary\n";
      for (const auto& [label, h] : by_label) {
        const std::string esc = escape_label_value(label);
        for (const double q : {0.5, 0.95, 0.99}) {
          std::snprintf(buf, sizeof buf, ",quantile=\"%g\"} %.6g\n", q,
                        h->quantile(q));
          out += metric + "{node=\"" + esc + "\"" + buf;
        }
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(h->sum()));
        out += metric + "_sum{node=\"" + esc + "\"}" + buf;
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(h->count()));
        out += metric + "_count{node=\"" + esc + "\"}" + buf;
        // Exemplar comments: the two highest populated buckets link the
        // tail of this series to retained traces. The exposition format
        // has no native exemplars for summaries, so these ride as
        // structured comments a scraper (and our promlint) can parse.
        const auto& exemplars = h->exemplars();
        int emitted = 0;
        for (auto it = exemplars.rbegin();
             it != exemplars.rend() && emitted < 2; ++it, ++emitted) {
          std::snprintf(
              buf, sizeof buf,
              " bucket_lo=%llu value=%llu trace_id=%llu\n",
              static_cast<unsigned long long>(1ULL << it->first),
              static_cast<unsigned long long>(it->second.value),
              static_cast<unsigned long long>(it->second.trace));
          out += "# exemplar " + metric + "{node=\"" + esc + "\"}" + buf;
        }
      }
    }
    return out;
  }

  /// Prometheus label-value escaping: backslash, double-quote and newline
  /// must be escaped or a hostile label breaks the exposition line format.
  static std::string escape_label_value(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  }

 private:
  /// "coordinator.read_latency_us" → "sedna_coordinator_read_latency_us".
  static std::string prometheus_name(const std::string& name) {
    std::string out = "sedna_" + name;
    for (char& c : out) {
      if (c == '.' || c == '-') c = '_';
    }
    return out;
  }

  std::vector<std::pair<std::string, const MetricRegistry*>> members_;
};

}  // namespace sedna
