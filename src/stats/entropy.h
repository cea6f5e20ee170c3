// Entropy estimation from counts (paper Sec. 2 / Appendix 10.1).
//
// All entropies are in nats (natural log). The population distribution Pr
// is unknown; entropies are estimated from the sample, optionally with the
// Miller-Madow bias correction Ĥ_MM = Ĥ_plugin + (m-1)/(2n) where m is the
// number of distinct observed values.

#ifndef HYPDB_STATS_ENTROPY_H_
#define HYPDB_STATS_ENTROPY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataframe/group_by.h"

namespace hypdb {

enum class EntropyEstimator {
  kPlugin,       // empirical -Σ p̂ log p̂
  kMillerMadow,  // plugin + (m-1)/(2n)
};

/// Entropy of the empirical distribution given by `counts` over `total`
/// observations. Zero counts are permitted and ignored; `m` counts only
/// strictly-positive cells. Returns 0 for total <= 0.
double EntropyFromCounts(const std::vector<int64_t>& counts, int64_t total,
                         EntropyEstimator estimator);

/// EntropyFromCounts over `size` counts with ln(c) taken from `log_of(c)`
/// (called for `total` and for every positive count). It is the one loop
/// behind EntropyFromCounts, so a `log_of` that returns std::log(c), or a
/// memo of it, gives the same entropy bit for bit.
template <typename LogOf>
double EntropyFromCountsWith(const int64_t* counts, size_t size,
                             int64_t total, EntropyEstimator estimator,
                             LogOf&& log_of) {
  if (total <= 0) return 0.0;
  const double n = static_cast<double>(total);
  const double log_n = log_of(total);
  double h = 0.0;
  int64_t support = 0;
  for (size_t i = 0; i < size; ++i) {
    const int64_t c = counts[i];
    if (c <= 0) continue;
    ++support;
    const double dc = static_cast<double>(c);
    h -= dc * (log_of(c) - log_n);
  }
  h /= n;
  if (estimator == EntropyEstimator::kMillerMadow && support > 0) {
    h += static_cast<double>(support - 1) / (2.0 * n);
  }
  return h < 0.0 ? 0.0 : h;
}

/// Entropy of a GroupCounts summary (one group = one support point).
double EntropyOf(const GroupCounts& counts, EntropyEstimator estimator);

}  // namespace hypdb

#endif  // HYPDB_STATS_ENTROPY_H_
