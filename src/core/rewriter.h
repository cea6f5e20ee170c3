// Bias removal by query rewriting (paper Sec. 3.3, Listing 2).
//
// Total effect: the adjustment formula (Eq. 2). The context is
// partitioned into blocks homogeneous on the covariates Z; per-block
// group-by-T averages are re-aggregated with the block probabilities as
// weights. Blocks missing one of the compared treatments are discarded —
// exact matching, SQL's HAVING count(DISTINCT T) = k — and the weights
// are renormalized over the surviving blocks (Overlap, Assumption 2.1).
//
// Direct effect: the mediator formula (Eq. 3) with Z = PA_T and
// M = PA_Y − {T}. Both counterfactual means are estimated:
//   E[Y(t)] with M held at the reference group's mediator distribution:
//   Σ_{z,m} E[Y | t, m] · Pr(m | t_ref, z) · Pr(z)
// so NDE = mean(t_ref) - mean(t_other) answers "would the outcome gap
// persist if the other group kept the reference group's mediators?"
// (gender discrimination's legal standard, Sec. 8).
//
// Significance of the rewritten answers: the difference is zero iff
// I(T;Y|Z) = 0 (total) / I(T;Y|Z∪M) = 0 (direct) — tested with the
// configured CI test (Sec. 7.1 uses MIT with 1000 permutations).

#ifndef HYPDB_CORE_REWRITER_H_
#define HYPDB_CORE_REWRITER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "stats/ci_test.h"
#include "util/statusor.h"

namespace hypdb {

/// Re-aggregated answer for one treatment group.
struct AdjustedGroup {
  std::string treatment_label;
  std::vector<double> means;  // per outcome
  int64_t rows = 0;           // rows contributing (surviving blocks)
};

/// Rewritten answers for one context.
struct ContextRewrite {
  std::vector<std::string> context_labels;
  int64_t rows = 0;

  /// Adjustment-formula answers, one per treatment value in the context.
  std::vector<AdjustedGroup> total;
  /// Exact-matching bookkeeping: covariate blocks seen / surviving.
  int64_t blocks_seen = 0;
  int64_t blocks_used = 0;

  /// Mediator-formula answers (binary treatment only).
  bool has_direct = false;
  std::vector<AdjustedGroup> direct;
  std::string direct_reference;  // the group whose mediators are held
  int64_t direct_blocks_seen = 0;
  int64_t direct_blocks_used = 0;

  /// Per-outcome significance: plain I(T;Y), total I(T;Y|Z), direct
  /// I(T;Y|Z∪M).
  std::vector<CiResult> plain_sig;
  std::vector<CiResult> total_sig;
  std::vector<CiResult> direct_sig;

  /// Difference of adjusted means between two labeled groups (NaN when a
  /// group is missing). `which` selects total (true) or direct (false).
  double Difference(const std::string& t1, const std::string& t0,
                    int outcome_idx, bool total_effect = true) const;
};

struct RewriterOptions {
  CiOptions ci;
  bool compute_direct = true;
  /// Reference group for the mediator formula; empty = the
  /// lexicographically largest treatment label.
  std::string direct_reference;
  bool compute_significance = true;
  /// Estimator of the significance tests' entropies.
  EntropyEstimator estimator = EntropyEstimator::kMillerMadow;
};

/// Observed treatment (code, label) pairs in `engine`'s population,
/// sorted by label — the treatment census: a population's labels, or a
/// context's inventory the rewrite formulas compare. One count(*) GROUP
/// BY T through `engine`; `table` supplies the labels.
StatusOr<std::vector<std::pair<int32_t, std::string>>> TreatmentsIn(
    CountEngine& engine, const Table& table, int treatment);

/// Rewrites the bound query w.r.t. `covariates` (total effect) and
/// `mediators` (direct effect) and evaluates it in one context.
/// `treatments` must be TreatmentsIn(*engine). The significance tests
/// draw from `sig_seed` (AnalysisSession numbers the seeds of a query's
/// contexts). Both formulas' averages and joint counts and the
/// significance tests count through `engine`, which must aggregate
/// exactly ctx.view's rows; when `count_stats` is non-null, the stats
/// delta of the call is accumulated into it.
StatusOr<ContextRewrite> RewriteContextAndEstimate(
    const TablePtr& table, const BoundQuery& bound, const Context& ctx,
    const std::vector<std::pair<int32_t, std::string>>& treatments,
    const std::vector<int>& covariates, const std::vector<int>& mediators,
    const RewriterOptions& options, uint64_t sig_seed,
    const std::shared_ptr<CountEngine>& engine,
    CountEngineStats* count_stats = nullptr);

}  // namespace hypdb

#endif  // HYPDB_CORE_REWRITER_H_
