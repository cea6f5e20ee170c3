// Bias detection (paper Sec. 3.1, Def. 3.1 / Prop. 3.2).
//
// A query is *balanced* w.r.t. a variable set V in context Γ iff
// T ⊥ V | Γ, i.e. I(T;V|Γ) = 0: the groups being compared then have the
// same covariate distribution and the naive group-by difference is an
// unbiased effect estimate. Detection tests that null per context —
// against the covariates Z for total effect, against Z ∪ M for direct
// effect.

#ifndef HYPDB_CORE_DETECTOR_H_
#define HYPDB_CORE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "stats/ci_test.h"
#include "util/statusor.h"

namespace hypdb {

/// Result of one balance test (one context, one variable set).
struct BalanceTest {
  std::vector<std::string> variables;  // V, by name
  CiResult ci;
  bool biased = false;  // null rejected at alpha (raw p-value)

  /// Benjamini-Hochberg adjusted p-value across all balance tests of the
  /// query (every context × {total, direct}) — the Sec. 8 extension for
  /// controlling the false-discovery rate over simultaneous tests.
  double p_adjusted = 1.0;
  /// Null rejected at alpha using the adjusted p-value.
  bool biased_fdr = false;

  double mutual_information() const { return ci.statistic; }
};

/// Bias verdict for one context.
struct ContextBias {
  std::vector<std::string> context_labels;
  int64_t rows = 0;
  BalanceTest total;   // V = Z
  BalanceTest direct;  // V = Z ∪ M (only when mediators were requested)
  bool has_direct = false;
};

struct DetectorOptions {
  CiOptions ci;
  double alpha = 0.01;
  uint64_t seed = 0xB1A5;
  /// Estimator of the balance tests' entropies.
  EntropyEstimator estimator = EntropyEstimator::kMillerMadow;
};

/// Tests balance of the bound query w.r.t. covariates (and, when
/// `mediators` is non-null, covariates ∪ mediators) in every context
/// (`contexts` must be SplitContexts of `bound`). `context_engines` is
/// aligned with `contexts`: entry i counts exactly context i's rows and
/// serves both of its tests. When `count_stats` is non-null, the stats
/// delta of the call is accumulated into it (Fig. 6c accounting).
/// Detection is one whole-query stage — the FDR adjustment spans every
/// context — which is why there is no per-context variant.
StatusOr<std::vector<ContextBias>> DetectBias(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<Context>& contexts,
    const std::vector<int>& covariates, const std::vector<int>* mediators,
    const DetectorOptions& options,
    const std::vector<std::shared_ptr<CountEngine>>& context_engines,
    CountEngineStats* count_stats = nullptr);

}  // namespace hypdb

#endif  // HYPDB_CORE_DETECTOR_H_
