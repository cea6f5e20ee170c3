// Entropy estimation from counts (paper Sec. 2 / Appendix 10.1).
//
// The estimators and the loop itself live in util/entropy_from_counts.h,
// below the count engines that memoize plug-in entropies with them.

#ifndef HYPDB_STATS_ENTROPY_H_
#define HYPDB_STATS_ENTROPY_H_

#include "dataframe/group_by.h"
#include "util/entropy_from_counts.h"

namespace hypdb {

/// Entropy of a GroupCounts summary (one group = one support point).
inline double EntropyOf(const GroupCounts& counts,
                        EntropyEstimator estimator) {
  return EntropyFromCounts(counts.counts, counts.total, estimator);
}

}  // namespace hypdb

#endif  // HYPDB_STATS_ENTROPY_H_
