// Bounding the total effect when the parents of the treatment are not
// identifiable (paper Sec. 4, left as future work there):
//
//   "one can learn MB(T) from data, and then set Z = {U,V}, Z = {U},
//    Z = {V} and Z = ∅, i.e., all subsets of MB(T) − {Y}, to infer a
//    bound on the effect."
//
// When the two-nonadjacent-parents assumption fails (Markov-equivalent
// structures), the true PA_T is *some* subset of MB(T) − {Y}. Computing
// the adjustment-formula estimate under every admissible subset yields
// an interval that contains the estimate the (unknowable) correct
// adjustment set would give.

#ifndef HYPDB_CORE_EFFECT_BOUNDS_H_
#define HYPDB_CORE_EFFECT_BOUNDS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "util/statusor.h"

namespace hypdb {

struct EffectBoundsOptions {
  /// Cap on |Z'| (-1 = up to the full candidate set).
  int max_subset_size = -1;
  /// Enumeration guard: stop after this many subsets (reported via
  /// `truncated`).
  int max_subsets = 512;
};

/// Adjusted difference under one candidate adjustment set.
struct SubsetEffect {
  std::vector<std::string> adjustment_set;   // attribute names
  std::vector<double> diffs;                 // per outcome, t1 - t0
  int64_t blocks_used = 0;
};

/// The effect interval over all evaluated adjustment sets.
struct EffectBounds {
  std::string t0;  // smaller treatment label
  std::string t1;  // larger treatment label
  /// Per outcome: the range of adjusted differences (t1 - t0).
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<SubsetEffect> subsets;  // every evaluated candidate
  bool truncated = false;

  /// True when the interval for `outcome` excludes 0 — the effect's
  /// direction is identified despite the ambiguous adjustment set.
  bool SignIdentified(int outcome) const {
    return lower[outcome] > 0.0 || upper[outcome] < 0.0;
  }
};

/// Evaluates the adjustment formula under every subset of `candidates`
/// (column indices; typically MB(T) minus the outcomes) over the bound
/// query's population, ignoring its grouping. The treatment must be
/// binary in the population. The treatment census and every subset
/// count through `population`, which must aggregate exactly
/// bound.population, so a caching engine scans each distinct column set
/// at most once.
StatusOr<EffectBounds> BoundTotalEffect(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<int>& candidates,
    const std::shared_ptr<CountEngine>& population,
    const EffectBoundsOptions& options = {});

}  // namespace hypdb

#endif  // HYPDB_CORE_EFFECT_BOUNDS_H_
