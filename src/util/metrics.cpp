#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace hypdb {
namespace {

// Bucket i covers latencies up to 1us * 2^i; the table is precomputed so
// Observe() only walks it (35 compares worst-case, typically ~15).
struct BucketTable {
  double bounds[LatencyHistogram::kNumBuckets];
  BucketTable() {
    double b = 1e-6;
    for (int i = 0; i < LatencyHistogram::kNumBuckets - 1; ++i) {
      bounds[i] = b;
      b *= 2.0;
    }
    bounds[LatencyHistogram::kNumBuckets - 1] =
        std::numeric_limits<double>::infinity();
  }
};

const BucketTable& Buckets() {
  static const BucketTable table;
  return table;
}

void AppendDouble(std::string* out, double value) {
  if (std::isinf(value)) {
    out->append(value > 0 ? "+Inf" : "-Inf");
    return;
  }
  // %.17g round-trips doubles exactly; integral values render without a
  // trailing ".0" which matches what Prometheus emits for counters.
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out->append(buf);
}

void AppendLabelValue(std::string* out, const std::string& value) {
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

// Renders `{a="x",b="y"}` with `extra` (the le bucket bound, already
// formatted) appended last; empty string when there are no labels at all.
void AppendLabels(std::string* out, const MetricsRegistry::Labels& labels,
                  const char* extra_name, const std::string& extra_value) {
  const bool has_extra = extra_name != nullptr;
  if (labels.empty() && !has_extra) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(name);
    out->append("=\"");
    AppendLabelValue(out, value);
    out->push_back('"');
  }
  if (has_extra) {
    if (!first) out->push_back(',');
    out->append(extra_name);
    out->append("=\"");
    out->append(extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

std::string FormatBound(double bound) {
  if (std::isinf(bound)) return "+Inf";
  std::string s;
  AppendDouble(&s, bound);
  return s;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0 || counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Target rank in [1, count]; walk buckets until the cumulative count
  // reaches it, then interpolate linearly between the bucket's bounds.
  const double rank = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const int64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double upper = upper_bounds[i];
      if (std::isinf(upper)) return lower;  // overflow bucket: lower bound
      const double fraction =
          (rank - static_cast<double>(before)) /
          static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
    }
  }
  const double last = upper_bounds.empty() ? 0.0 : upper_bounds.back();
  return std::isinf(last) ? upper_bounds[upper_bounds.size() - 2] : last;
}

double LatencyHistogram::BucketUpperBound(int i) {
  return Buckets().bounds[i];
}

void LatencyHistogram::Observe(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // also catches NaN
  const double* bounds = Buckets().bounds;
  int i = 0;
  while (i < kNumBuckets - 1 && seconds > bounds[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  // Saturate rather than overflow for absurd inputs (> ~292 years).
  const double nanos = seconds * 1e9;
  const int64_t add =
      nanos >= static_cast<double>(std::numeric_limits<int64_t>::max())
          ? std::numeric_limits<int64_t>::max()
          : static_cast<int64_t>(nanos);
  sum_nanos_.fetch_add(add, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.upper_bounds.resize(kNumBuckets);
  snap.counts.resize(kNumBuckets);
  // `count` is derived from the bucket loads (not a separate atomic) so
  // the snapshot is internally consistent even while writers race.
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.upper_bounds[i] = Buckets().bounds[i];
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

void MetricsRegistry::Register(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
}

void MetricsRegistry::RegisterCounter(std::string name, std::string help,
                                      Labels labels, const Counter* counter) {
  Entry e;
  e.name = std::move(name);
  e.help = std::move(help);
  e.type = MetricType::kCounter;
  e.labels = std::move(labels);
  e.counter = counter;
  Register(std::move(e));
}

void MetricsRegistry::RegisterCounterFn(std::string name, std::string help,
                                        Labels labels, ValueFn fn) {
  Entry e;
  e.name = std::move(name);
  e.help = std::move(help);
  e.type = MetricType::kCounter;
  e.labels = std::move(labels);
  e.fn = std::move(fn);
  Register(std::move(e));
}

void MetricsRegistry::RegisterGaugeFn(std::string name, std::string help,
                                      Labels labels, ValueFn fn) {
  Entry e;
  e.name = std::move(name);
  e.help = std::move(help);
  e.type = MetricType::kGauge;
  e.labels = std::move(labels);
  e.fn = std::move(fn);
  Register(std::move(e));
}

void MetricsRegistry::RegisterHistogram(std::string name, std::string help,
                                        Labels labels,
                                        const LatencyHistogram* histogram) {
  Entry e;
  e.name = std::move(name);
  e.help = std::move(help);
  e.type = MetricType::kHistogram;
  e.labels = std::move(labels);
  e.histogram = histogram;
  Register(std::move(e));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const Entry& entry : entries_) {
    MetricsSnapshot::Family* family = nullptr;
    for (auto& f : snap.families) {
      if (f.name == entry.name) {
        family = &f;
        break;
      }
    }
    if (family == nullptr) {
      snap.families.emplace_back();
      family = &snap.families.back();
      family->name = entry.name;
      family->help = entry.help;
      family->type = entry.type;
    }
    MetricsSnapshot::Sample sample;
    sample.labels = entry.labels;
    if (entry.histogram != nullptr) {
      sample.histogram = entry.histogram->Snapshot();
    } else if (entry.counter != nullptr) {
      sample.value = static_cast<double>(entry.counter->value());
    } else if (entry.fn) {
      sample.value = entry.fn();
    }
    family->samples.push_back(std::move(sample));
  }
  return snap;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& family : snapshot.families) {
    out.append("# HELP ");
    out.append(family.name);
    out.push_back(' ');
    out.append(family.help);
    out.push_back('\n');
    out.append("# TYPE ");
    out.append(family.name);
    out.push_back(' ');
    switch (family.type) {
      case MetricType::kCounter:
        out.append("counter");
        break;
      case MetricType::kGauge:
        out.append("gauge");
        break;
      case MetricType::kHistogram:
        out.append("histogram");
        break;
    }
    out.push_back('\n');
    for (const auto& sample : family.samples) {
      if (family.type == MetricType::kHistogram) {
        const HistogramSnapshot& h = sample.histogram;
        int64_t cumulative = 0;
        for (size_t i = 0; i < h.counts.size(); ++i) {
          cumulative += h.counts[i];
          out.append(family.name);
          out.append("_bucket");
          AppendLabels(&out, sample.labels, "le",
                       FormatBound(h.upper_bounds[i]));
          out.push_back(' ');
          AppendDouble(&out, static_cast<double>(cumulative));
          out.push_back('\n');
        }
        out.append(family.name);
        out.append("_sum");
        AppendLabels(&out, sample.labels, nullptr, "");
        out.push_back(' ');
        AppendDouble(&out, h.sum_seconds);
        out.push_back('\n');
        out.append(family.name);
        out.append("_count");
        AppendLabels(&out, sample.labels, nullptr, "");
        out.push_back(' ');
        AppendDouble(&out, static_cast<double>(h.count));
        out.push_back('\n');
      } else {
        out.append(family.name);
        AppendLabels(&out, sample.labels, nullptr, "");
        out.push_back(' ');
        AppendDouble(&out, sample.value);
        out.push_back('\n');
      }
    }
  }
  return out;
}

}  // namespace hypdb
