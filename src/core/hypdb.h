// HypDb: the system facade — detect, explain, and resolve bias in
// group-by-average OLAP queries (the paper's end-to-end pipeline).
//
// Pipeline of Analyze():
//  1. bind + evaluate the plain query (the potentially-biased answers);
//  2. drop logical dependencies (FDs, key-like attributes — Sec. 4);
//  3. discover covariates Z = PA_T and mediators M = PA_Y − {T} with the
//     CD algorithm on the WHERE-subpopulation (Alg. 1);
//  4. detect bias per context: test T ⊥ Z | Γ and T ⊥ Z∪M | Γ (Def. 3.1);
//  5. explain: responsibilities (Eq. 4) + fine-grained triples (Alg. 3);
//  6. resolve: rewrite per Listing 2 / Eq. 3 and re-estimate, with
//     significance tests on the rewritten answers.

#ifndef HYPDB_CORE_HYPDB_H_
#define HYPDB_CORE_HYPDB_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "causal/cd_algorithm.h"
#include "causal/fd_filter.h"
#include "core/detector.h"
#include "core/explainer.h"
#include "core/query.h"
#include "core/effect_bounds.h"
#include "core/rewriter.h"
#include "stats/ci_test.h"
#include "util/statusor.h"

namespace hypdb {

struct HypDbOptions {
  /// Independence-test configuration shared by discovery, detection and
  /// significance testing. Default: HyMIT (Sec. 6).
  CiOptions ci;
  /// Count-engine configuration (caching, marginalization, scan threads)
  /// shared by every stage that reads contingency counts.
  MiEngineOptions engine;
  /// Significance level for all tests (Sec. 7.3 uses 0.01).
  double alpha = 0.01;
  CdOptions cd;
  FdFilterOptions fd;
  bool apply_fd_filter = true;
  /// Discover PA_Y and compute direct effects.
  bool discover_mediators = true;
  ExplainerOptions explain;
  /// Reference group for the mediator formula (empty = largest label).
  std::string direct_reference;
  bool compute_significance = true;
  uint64_t seed = 0xC0FFEE;
};

/// Covariate/mediator discovery outcome.
struct DiscoveryReport {
  std::vector<int> covariate_cols;
  std::vector<int> mediator_cols;
  /// MB(T) as learned (for the effect-bounds extension).
  std::vector<int> treatment_blanket_cols;
  std::vector<std::string> covariates;
  std::vector<std::string> mediators;
  bool covariates_fell_back = false;
  bool mediators_fell_back = false;
  /// Attributes removed before discovery (Sec. 4).
  std::vector<std::string> dropped_fd;
  std::vector<std::string> dropped_keys;
  int64_t tests_used = 0;
  /// Count-engine work of the discovery stage (Fig. 6c accounting).
  CountEngineStats count_stats;
  double seconds = 0.0;
};

/// Maps a context's WHERE conjunction (the query's WHERE plus one
/// `attr IN {label}` term per grouping attribute — the subpopulation
/// Γ_i = C ∧ X = x_i) and its row view to a count engine aggregating
/// exactly that view's rows. A null return means no shared engine counts
/// those rows (e.g. the service keeps no generation of the shard at or
/// below the bind watermark); the session builds its default stack.
using ContextEngineProvider = std::function<std::shared_ptr<CountEngine>(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        context_where,
    const TableView& view)>;

/// Hooks the service layer threads into an AnalysisSession to share work
/// across concurrent queries. All members
/// optional; default-constructed hooks reproduce the self-contained
/// one-shot behavior. The hooked engines must count a fixed population,
/// the one the session bound, for as long as the session holds them: the
/// service hands shard generations fixed at the bind watermark, which
/// appends to the store never move.
struct SessionHooks {
  /// Count engine aggregating exactly the bound WHERE population. When
  /// set, the treatment census, the plain answers, the FD filter,
  /// discovery and the one context of an ungrouped query count through
  /// it instead of the session's default stack (MakeViewEngine), so
  /// concurrent queries on the same subpopulation share cached
  /// contingency summaries. Must be thread-safe when shared
  /// (CachingCountEngine over ViewCountProvider is).
  std::shared_ptr<CountEngine> population_engine;
  /// When set, the discovery stage routes its computation through this
  /// wrapper (the DiscoveryCache lookup-or-compute path; `compute` runs
  /// the session's own discovery, and the wrapper may instead return a
  /// report computed earlier for the same table, treatment, outcomes and
  /// subpopulation under equivalent options).
  std::function<StatusOr<DiscoveryReport>(
      const std::function<StatusOr<DiscoveryReport>()>& compute)>
      discovery_interceptor;
  /// The engine of each context of a grouped query (never asked for an
  /// ungrouped one, whose one context is the population); the service
  /// serves the registry's per-context shard. It counts the context's
  /// treatment inventory, detection, explanation and resolution.
  ContextEngineProvider context_engine_provider;
};

/// Everything HypDB has to say about one query (Fig. 1/3/4 reports).
struct HypDbReport {
  AggQuery query;
  QueryAnswers plain;
  DiscoveryReport discovery;
  std::vector<ContextBias> bias;
  std::vector<ContextExplanation> explanations;
  std::vector<ContextRewrite> rewrites;
  std::string sql_plain;
  std::string sql_total;
  std::string sql_direct;
  double detect_seconds = 0.0;
  double explain_seconds = 0.0;
  double resolve_seconds = 0.0;
  /// Count-engine work of this analysis (scans vs cache hits vs
  /// marginalizations — Fig. 6c): answers, detection, explanation and
  /// resolution, plus discovery when this analysis computed it. A
  /// discovery reused from a cache adds nothing here; its original work
  /// stays in discovery.count_stats.
  CountEngineStats count_stats;

  /// True when any context is biased w.r.t. the covariates.
  bool AnyBias() const;
};

class HypDb {
 public:
  explicit HypDb(TablePtr table, HypDbOptions options = {});

  const TablePtr& table() const { return table_; }
  const HypDbOptions& options() const { return options_; }

  /// Full pipeline.
  StatusOr<HypDbReport> Analyze(const AggQuery& query);
  /// Full pipeline from Listing-1 SQL text.
  StatusOr<HypDbReport> AnalyzeSql(const std::string& sql);

  /// The plain (biased) query answers only.
  StatusOr<QueryAnswers> Answers(const AggQuery& query) const;

  /// Steps 2-3 only: logical-dependency filtering + CD discovery.
  StatusOr<DiscoveryReport> Discover(const AggQuery& query) const;

  /// The Sec. 4 future-work extension: when the parents of T are not
  /// identifiable, evaluate the adjustment formula under every subset of
  /// MB(T) − outcomes and return the resulting effect interval.
  StatusOr<EffectBounds> BoundEffects(
      const AggQuery& query, const EffectBoundsOptions& options = {}) const;

 private:
  TablePtr table_;
  HypDbOptions options_;
};

/// Human-readable rendering of a report (the Fig. 3/4 layout).
std::string RenderReport(const HypDbReport& report);

}  // namespace hypdb

#endif  // HYPDB_CORE_HYPDB_H_
