// Dropping logical dependencies before causal discovery (paper Sec. 4).
//
// Integrity constraints confuse constraint-based discovery: if X ⇒ T
// functionally, conditioning on X makes T independent of everything, so
// MB(T) collapses to {X} and all causal structure is lost (e.g.
// AirportWAC ⇔ Airport in FlightData). Key-like attributes (ID,
// FlightNum, TailNum) have the same effect through near-unique values.
//
// Two detectors, both from Sec. 4:
//  * approximate two-way FDs: drop X when H(A|X) ≤ ε ∧ H(X|A) ≤ ε for an
//    already-kept attribute A (the pair is a bijection; one copy
//    suffices);
//  * key-like attributes: entropy is a property of the generating
//    distribution, not of the sample size — estimate each attribute's
//    entropy on subsamples of increasing size and drop attributes whose
//    entropy keeps growing with ln(size) (for a true key Ĥ = ln(size),
//    slope 1; for ordinary attributes the slope is ≈ 0).

#ifndef HYPDB_CAUSAL_FD_FILTER_H_
#define HYPDB_CAUSAL_FD_FILTER_H_

#include <utility>
#include <vector>

#include "dataframe/view.h"
#include "engine/count_engine.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace hypdb {

struct FdFilterOptions {
  /// Conditional-entropy threshold (nats) for approximate FDs.
  double fd_epsilon = 0.01;
  /// Subsample ladder for key detection: sizes base, 2·base, 4·base, ...
  int num_sizes = 5;
  int64_t base_size = 256;
  /// Replicate subsamples per size (entropies are averaged).
  int replicates = 3;
  /// Ĥ-vs-ln(size) slope above which an attribute is key-like.
  double slope_threshold = 0.3;
};

struct FdFilterReport {
  /// Surviving candidate columns, in input order.
  std::vector<int> kept;
  /// (dropped, kept_partner) pairs of detected bijections.
  std::vector<std::pair<int, int>> dropped_fd;
  /// Columns dropped as key-like.
  std::vector<int> dropped_keys;
};

/// Filters `candidates` (column indices into `view`). The key-like ladder
/// subsamples `view`'s rows; the marginal and pairwise entropies of the
/// FD test count through `engine`, which must aggregate exactly `view`'s
/// rows (an analysis hands it its population engine, so the counts land
/// in the cache discovery reads next).
StatusOr<FdFilterReport> FilterLogicalDependencies(
    const TableView& view, CountEngine& engine,
    const std::vector<int>& candidates, const FdFilterOptions& options,
    Rng& rng);

}  // namespace hypdb

#endif  // HYPDB_CAUSAL_FD_FILTER_H_
