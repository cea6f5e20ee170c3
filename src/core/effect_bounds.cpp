#include "core/effect_bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "causal/subsets.h"
#include "core/rewriter.h"

namespace hypdb {

StatusOr<EffectBounds> BoundTotalEffect(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<int>& candidates,
    const std::shared_ptr<CountEngine>& population,
    const EffectBoundsOptions& options) {
  // The treatment census, counted through the engine every subset uses.
  HYPDB_ASSIGN_OR_RETURN(auto treatments,
                         TreatmentsIn(*population, *table, bound.treatment));
  if (treatments.size() != 2) {
    return Status::FailedPrecondition(
        "effect bounds require a binary treatment in the population");
  }
  for (int c : candidates) {
    if (c == bound.treatment ||
        std::find(bound.outcomes.begin(), bound.outcomes.end(), c) !=
            bound.outcomes.end()) {
      return Status::InvalidArgument(
          "candidate adjustment attributes must exclude the treatment and "
          "the outcomes");
    }
  }

  EffectBounds bounds;
  bounds.t0 = treatments[0].second;
  bounds.t1 = treatments[1].second;
  const int num_outcomes = static_cast<int>(bound.outcomes.size());
  bounds.lower.assign(num_outcomes, std::numeric_limits<double>::infinity());
  bounds.upper.assign(num_outcomes,
                      -std::numeric_limits<double>::infinity());

  // The rewriter operates per context; bounds are computed over the full
  // population (one anonymous context).
  const Context whole{{}, bound.population};

  RewriterOptions rewrite_options;
  rewrite_options.compute_direct = false;
  rewrite_options.compute_significance = false;

  int evaluated = 0;
  HYPDB_ASSIGN_OR_RETURN(
      bool stopped,
      ForEachSubset(
          candidates, options.max_subset_size,
          [&](const std::vector<int>& subset) -> StatusOr<bool> {
            if (evaluated >= options.max_subsets) {
              bounds.truncated = true;
              return true;  // stop enumeration
            }
            ++evaluated;
            HYPDB_ASSIGN_OR_RETURN(
                ContextRewrite rewrite,
                RewriteContextAndEstimate(table, bound, whole, treatments,
                                          subset, {}, rewrite_options,
                                          /*sig_seed=*/0, population));
            if (rewrite.total.size() != 2) {
              return false;  // overlap failed entirely; skip
            }
            SubsetEffect effect;
            for (int col : subset) {
              effect.adjustment_set.push_back(table->column(col).name());
            }
            effect.blocks_used = rewrite.blocks_used;
            if (effect.blocks_used == 0) return false;  // nothing matched
            for (int o = 0; o < num_outcomes; ++o) {
              double diff = rewrite.Difference(bounds.t1, bounds.t0, o, true);
              if (std::isnan(diff)) return false;
              effect.diffs.push_back(diff);
              bounds.lower[o] = std::min(bounds.lower[o], diff);
              bounds.upper[o] = std::max(bounds.upper[o], diff);
            }
            bounds.subsets.push_back(std::move(effect));
            return false;
          }));
  (void)stopped;

  if (bounds.subsets.empty()) {
    return Status::FailedPrecondition(
        "no adjustment subset satisfied overlap");
  }
  return bounds;
}

}  // namespace hypdb
