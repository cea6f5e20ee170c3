#include "stats/entropy.h"

#include <cmath>

namespace hypdb {

double EntropyFromCounts(const std::vector<int64_t>& counts, int64_t total,
                         EntropyEstimator estimator) {
  return EntropyFromCountsWith(
      counts.data(), counts.size(), total, estimator,
      [](int64_t c) { return std::log(static_cast<double>(c)); });
}

double EntropyOf(const GroupCounts& counts, EntropyEstimator estimator) {
  return EntropyFromCounts(counts.counts, counts.total, estimator);
}

}  // namespace hypdb
