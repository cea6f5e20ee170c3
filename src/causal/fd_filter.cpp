#include "causal/fd_filter.h"

#include <algorithm>
#include <cmath>

#include "stats/entropy.h"

namespace hypdb {
namespace {

// Conditional-entropy threshold (nats) for approximate FDs: a bijection
// leaves H(A|X) and H(X|A) near 0, while a real dependence keeps them
// well above it.
constexpr double kFdEpsilon = 0.01;
// The key-like ladder subsamples kNumSizes sizes kBaseSize, 2·kBaseSize,
// ... (capped at the view's rows) and averages kReplicates subsample
// entropies per size: 256 to 4,096 rows span ln(size) by ~2.8, enough to
// fit a slope, at a cost independent of the table's size.
constexpr int kNumSizes = 5;
constexpr int64_t kBaseSize = 256;
constexpr int kReplicates = 3;
// Ĥ-vs-ln(size) slope above which an attribute is key-like: a true key
// has slope 1, an ordinary attribute ≈ 0.
constexpr double kSlopeThreshold = 0.3;

// Plugin entropy of `col` over a random subsample of `size` view rows.
double SubsampleEntropy(const TableView& view, int col, int64_t size,
                        Rng& rng) {
  const int64_t n = view.NumRows();
  const Column& column = view.table().column(col);
  std::vector<int64_t> counts(column.Cardinality(), 0);
  for (int64_t i = 0; i < size; ++i) {
    int64_t row = view.RowId(static_cast<int64_t>(rng.NextBounded(n)));
    ++counts[column.CodeAt(row)];
  }
  return EntropyFromCounts(counts, size, EntropyEstimator::kPlugin);
}

// Least-squares slope of y against x.
double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  double denom = n * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace

StatusOr<FdFilterReport> FilterLogicalDependencies(
    const TableView& view, CountEngine& engine,
    const std::vector<int>& candidates, Rng& rng) {
  FdFilterReport report;
  const int64_t n = view.NumRows();
  if (n == 0) {
    report.kept = candidates;
    return report;
  }

  // --- Key-like attributes: entropy must not depend on sample size.
  std::vector<int> survivors;
  for (int col : candidates) {
    std::vector<double> log_sizes;
    std::vector<double> entropies;
    for (int s = 0; s < kNumSizes; ++s) {
      int64_t size = std::min<int64_t>(kBaseSize << s, n);
      double h = 0.0;
      for (int r = 0; r < kReplicates; ++r) {
        h += SubsampleEntropy(view, col, size, rng);
      }
      log_sizes.push_back(std::log(static_cast<double>(size)));
      entropies.push_back(h / kReplicates);
      if (size == n) break;
    }
    if (Slope(log_sizes, entropies) > kSlopeThreshold) {
      report.dropped_keys.push_back(col);
    } else {
      survivors.push_back(col);
    }
  }

  // --- Approximate two-way FDs among the survivors. Bijective pairs have
  // H(X) ≈ H(Y) ≈ H(XY); prefilter on the (cheap) marginal entropies so
  // only plausible pairs pay for a joint count. Plug-in estimates.
  std::vector<double> h(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    HYPDB_ASSIGN_OR_RETURN(SetEntropy e, engine.Entropy({survivors[i]}));
    h[i] = e.plugin;
  }

  std::vector<bool> dropped(survivors.size(), false);
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (dropped[i]) continue;
    for (size_t j = i + 1; j < survivors.size(); ++j) {
      if (dropped[j]) continue;
      if (std::fabs(h[i] - h[j]) > 2.0 * kFdEpsilon) continue;
      HYPDB_ASSIGN_OR_RETURN(
          SetEntropy joint,
          engine.Entropy(SortedUniqueColumns({survivors[i], survivors[j]})));
      double h_i_given_j = joint.plugin - h[j];
      double h_j_given_i = joint.plugin - h[i];
      if (h_i_given_j <= kFdEpsilon && h_j_given_i <= kFdEpsilon) {
        dropped[j] = true;
        report.dropped_fd.emplace_back(survivors[j], survivors[i]);
      }
    }
  }
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (!dropped[i]) report.kept.push_back(survivors[i]);
  }
  return report;
}

}  // namespace hypdb
