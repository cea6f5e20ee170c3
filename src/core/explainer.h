// Bias explanations (paper Sec. 3.2).
//
// Coarse-grained: each variable Z ∈ V gets a degree of responsibility
// (Eq. 4)
//     ρ_Z = [I(T;V|Γ) - I(T;V|Z,Γ)] / Σ_{V∈V} [I(T;V|Γ) - I(T;V|V,Γ)],
// the normalized share of the dependence I(T;V|Γ) > 0 that conditioning
// on Z alone removes (each numerator is ≥ 0 by submodularity).
//
// Fine-grained (Alg. 3, FGE): for a covariate Z, triples
// (t, y, z) ∈ Π_{TYZ}(σ_Γ D) are ranked by their contribution (Eq. 5)
//     κ(x,y) = Pr(x,y)·ln( Pr(x,y) / (Pr(x)Pr(y)) )
// to I(T;Z) and to I(Y;Z); the two rankings are combined with Borda's
// method and the top-k triples are reported — these are the ground-level
// confounding relationships (e.g. (UA, ROC, Delayed=1) in Fig. 1d).

#ifndef HYPDB_CORE_EXPLAINER_H_
#define HYPDB_CORE_EXPLAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "stats/mi_engine.h"
#include "util/statusor.h"

namespace hypdb {

/// Coarse-grained entry: a covariate/mediator and its responsibility.
struct Responsibility {
  std::string attribute;
  int column = -1;
  double rho = 0.0;
};

/// One fine-grained explanation triple.
struct ExplanationTriple {
  std::string t_label;
  std::string y_label;
  std::string z_label;
  double kappa_tz = 0.0;  // contribution of (t, z) to I(T;Z)
  double kappa_yz = 0.0;  // contribution of (y, z) to I(Y;Z)
  int borda_rank = 0;     // 1 = best
};

/// Fine-grained explanations for one covariate.
struct FineGrained {
  std::string covariate;
  int column = -1;
  std::vector<ExplanationTriple> top;  // borda-ranked, best first
};

/// Explanations for one context.
struct ContextExplanation {
  std::vector<std::string> context_labels;
  std::vector<Responsibility> coarse;  // sorted by rho, descending
  std::vector<FineGrained> fine;       // for the top covariates
};

struct ExplainerOptions {
  /// Number of top triples per covariate (paper figures show top-2/3).
  int top_k = 3;
  /// Fine-grained explanations are produced for this many of the
  /// highest-responsibility variables.
  int fine_covariates = 2;
  /// Outcome used for the Y side of fine-grained triples.
  int outcome_index = 0;
  /// Estimator of the responsibilities' entropies.
  EntropyEstimator estimator = EntropyEstimator::kMillerMadow;
};

/// Explains the bias of the bound query w.r.t. V = covariates ∪ mediators
/// in one context. Explanations are deterministic and context-local, so
/// any subset and order of contexts gives the same results. Every count
/// goes through `engine`, which must aggregate exactly ctx.view's rows;
/// when `count_stats` is non-null, the stats delta of the call is
/// accumulated into it.
StatusOr<ContextExplanation> ExplainContext(
    const TablePtr& table, const BoundQuery& bound, const Context& ctx,
    const std::vector<int>& variables, const ExplainerOptions& options,
    const std::shared_ptr<CountEngine>& engine,
    CountEngineStats* count_stats = nullptr);

/// Alg. 3 over engine-served counts: top-k triples for covariate `z_col`.
/// The (T, Y, Z) summary is queried first so the pairwise marginals can
/// derive from it when the engine caches.
StatusOr<std::vector<ExplanationTriple>> FineGrainedExplanations(
    CountEngine& engine, const Table& table, int t_col, int y_col,
    int z_col, int top_k);

}  // namespace hypdb

#endif  // HYPDB_CORE_EXPLAINER_H_
