// Lock-cheap service metrics: counters, gauges and fixed-bucket latency
// histograms, collected per subsystem and exposed through one registry.
//
// The collection idiom is one plain struct of Counter/LatencyHistogram
// members per subsystem (SchedulerMetrics, HttpServerMetrics, ...), owned
// by the subsystem itself and incremented inline on the hot path — every
// mutation is a single relaxed atomic add, no lock, no allocation, so
// instrumentation cannot perturb the concurrency the service tests pin
// down. Metrics are strictly observational: nothing in an analysis result
// reads them, which is what keeps reports bit-identical to cold serial
// execution with metrics on (the digest-neutrality invariant, asserted
// under TSan in tests/metrics_test.cpp).
//
// The MetricsRegistry does not own metric storage. Subsystems register
// pointers to their counters/histograms (or value callbacks for derived
// gauges like queue depth) under a Prometheus-style name + help + labels;
// a scrape takes a consistent-enough relaxed snapshot and renders it as
// Prometheus text (here) or JSON (net/json.h MetricsToJson — rendering
// with the JSON library lives in net because util cannot depend on net).
// Registered pointers must outlive every scrape: the service owns its
// registry and registers members of subsystems it also owns, and
// front-end objects (HttpServer, handlers) register post-construction and
// are torn down only after serving stops.

#ifndef HYPDB_UTIL_METRICS_H_
#define HYPDB_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hypdb {

/// Monotone event count. All operations are relaxed atomics — safe to
/// bump from any thread, never a synchronization point.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of a LatencyHistogram with quantile extraction.
struct HistogramSnapshot {
  /// Inclusive upper bound (seconds) of each bucket; the last is +inf.
  std::vector<double> upper_bounds;
  /// Per-bucket observation counts (NOT cumulative).
  std::vector<int64_t> counts;
  int64_t count = 0;        // sum of `counts`
  double sum_seconds = 0.0;

  /// The q-quantile (q in [0,1]) estimated by linear interpolation inside
  /// the bucket holding the target rank. Exact to within one bucket
  /// (buckets are spaced 2x apart). 0 when the histogram is empty; the
  /// overflow bucket reports its lower bound.
  double Quantile(double q) const;
};

/// Fixed-bucket latency histogram: 36 log-spaced buckets with upper
/// bounds 1us * 2^i (covering 1us .. ~4.8h; the last bucket is +inf).
/// Observe() is two relaxed atomic adds — cheap enough for per-request
/// and per-morsel call sites. Sums accumulate in integer nanoseconds so
/// concurrent adds need no compare-exchange loop.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 36;

  /// Upper bound (seconds) of bucket `i`; +inf for the last bucket.
  static double BucketUpperBound(int i);

  void Observe(double seconds);
  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> sum_nanos_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Everything a scrape saw, grouped into Prometheus-style families
/// (same-name series share one HELP/TYPE header and differ by labels).
struct MetricsSnapshot {
  struct Sample {
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0.0;           // counters and gauges
    HistogramSnapshot histogram;  // histograms only
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Sample> samples;
  };
  std::vector<Family> families;
};

/// Thread-safe registry of externally-owned metrics. Registration may
/// happen at any time (front-end objects are constructed after the
/// service); every registered pointer/callback must stay valid for as
/// long as Snapshot() can be called, and callbacks must be thread-safe.
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;
  /// Value callback for derived metrics (queue depth, live sessions,
  /// aggregated engine stats). Runs on the scraping thread.
  using ValueFn = std::function<double()>;

  void RegisterCounter(std::string name, std::string help, Labels labels,
                       const Counter* counter);
  /// Counter-typed metric computed at scrape time (values must still be
  /// monotone for the type to be truthful).
  void RegisterCounterFn(std::string name, std::string help, Labels labels,
                         ValueFn fn);
  void RegisterGaugeFn(std::string name, std::string help, Labels labels,
                       ValueFn fn);
  void RegisterHistogram(std::string name, std::string help, Labels labels,
                         const LatencyHistogram* histogram);

  /// Point-in-time view of every registered metric, families in first-
  /// registration order, same-name registrations merged into one family.
  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    Labels labels;
    const Counter* counter = nullptr;
    const LatencyHistogram* histogram = nullptr;
    ValueFn fn;
  };

  void Register(Entry entry);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Prometheus text exposition (version 0.0.4): HELP/TYPE per family,
/// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`. Deterministic for a given snapshot.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace hypdb

#endif  // HYPDB_UTIL_METRICS_H_
