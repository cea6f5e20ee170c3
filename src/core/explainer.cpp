#include "core/explainer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dataframe/group_by.h"
#include "stats/mi_engine.h"

namespace hypdb {
namespace {

// κ(x, y) per Eq. 5 for every observed pair of the two codec columns of
// `counts` (position 0 = X, position 1 = Y).
std::unordered_map<uint64_t, double> ContributionMap(
    const GroupCounts& counts) {
  std::unordered_map<uint64_t, int64_t> x_margin;
  std::unordered_map<uint64_t, int64_t> y_margin;
  for (size_t g = 0; g < counts.keys.size(); ++g) {
    x_margin[counts.codec.DecodeAt(counts.keys[g], 0)] += counts.counts[g];
    y_margin[counts.codec.DecodeAt(counts.keys[g], 1)] += counts.counts[g];
  }
  const double n = static_cast<double>(counts.total);
  std::unordered_map<uint64_t, double> kappa;
  kappa.reserve(counts.keys.size());
  for (size_t g = 0; g < counts.keys.size(); ++g) {
    double p_xy = static_cast<double>(counts.counts[g]) / n;
    double p_x =
        static_cast<double>(x_margin[counts.codec.DecodeAt(counts.keys[g], 0)]) /
        n;
    double p_y =
        static_cast<double>(y_margin[counts.codec.DecodeAt(counts.keys[g], 1)]) /
        n;
    kappa[counts.keys[g]] = p_xy * std::log(p_xy / (p_x * p_y));
  }
  return kappa;
}

}  // namespace

StatusOr<std::vector<ExplanationTriple>> FineGrainedExplanations(
    CountEngine& engine, const Table& table, int t_col, int y_col,
    int z_col, int top_k) {
  // Observed triples first (Alg. 3 line 2): a caching engine then derives
  // both pairwise marginals from this summary without touching the data.
  HYPDB_ASSIGN_OR_RETURN(GroupCounts triples,
                         engine.Counts({t_col, y_col, z_col}));

  // Pairwise contributions.
  HYPDB_ASSIGN_OR_RETURN(GroupCounts tz, engine.Counts({t_col, z_col}));
  HYPDB_ASSIGN_OR_RETURN(GroupCounts yz, engine.Counts({y_col, z_col}));
  std::unordered_map<uint64_t, double> kappa_tz = ContributionMap(tz);
  std::unordered_map<uint64_t, double> kappa_yz = ContributionMap(yz);

  struct Scored {
    int32_t t, y, z;
    double k_tz, k_yz;
    int rank_t = 0, rank_y = 0;
  };
  std::vector<Scored> scored;
  scored.reserve(triples.keys.size());
  for (uint64_t key : triples.keys) {
    Scored s;
    s.t = triples.codec.DecodeAt(key, 0);
    s.y = triples.codec.DecodeAt(key, 1);
    s.z = triples.codec.DecodeAt(key, 2);
    s.k_tz = kappa_tz[tz.codec.EncodeCodes({s.t, s.z})];
    s.k_yz = kappa_yz[yz.codec.EncodeCodes({s.y, s.z})];
    scored.push_back(s);
  }

  // Two rankings by contribution, aggregated with Borda's method
  // (smaller rank sum = better).
  std::vector<int> order(scored.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return scored[a].k_tz > scored[b].k_tz;
  });
  for (size_t r = 0; r < order.size(); ++r) {
    scored[order[r]].rank_t = static_cast<int>(r);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return scored[a].k_yz > scored[b].k_yz;
  });
  for (size_t r = 0; r < order.size(); ++r) {
    scored[order[r]].rank_y = static_cast<int>(r);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    int sa = scored[a].rank_t + scored[a].rank_y;
    int sb = scored[b].rank_t + scored[b].rank_y;
    return sa != sb ? sa < sb : a < b;
  });

  const Column& t_column = table.column(t_col);
  const Column& y_column = table.column(y_col);
  const Column& z_column = table.column(z_col);
  std::vector<ExplanationTriple> out;
  for (size_t r = 0; r < order.size() && r < static_cast<size_t>(top_k);
       ++r) {
    const Scored& s = scored[order[r]];
    ExplanationTriple triple;
    triple.t_label = t_column.dict().Label(s.t);
    triple.y_label = y_column.dict().Label(s.y);
    triple.z_label = z_column.dict().Label(s.z);
    triple.kappa_tz = s.k_tz;
    triple.kappa_yz = s.k_yz;
    triple.borda_rank = static_cast<int>(r) + 1;
    out.push_back(std::move(triple));
  }
  return out;
}

StatusOr<ContextExplanation> ExplainContext(
    const TablePtr& table, const BoundQuery& bound, const Context& ctx,
    const std::vector<int>& variables, const ExplainerOptions& options,
    const std::shared_ptr<CountEngine>& engine,
    CountEngineStats* count_stats) {
  if (options.outcome_index < 0 ||
      options.outcome_index >= static_cast<int>(bound.outcomes.size())) {
    return Status::OutOfRange("outcome_index out of range");
  }
  const int y_col = bound.outcomes[options.outcome_index];

  ContextExplanation expl;
  expl.context_labels = ctx.labels;

  // Coarse-grained responsibilities (Eq. 4). The same count engine
  // serves the fine-grained triples below.
  MiEngine mi(engine, MiEngineOptions{.estimator = options.estimator});
  const CountEngineStats stats_before = mi.count_engine().stats();
  std::vector<double> numerators(variables.size(), 0.0);
  HYPDB_ASSIGN_OR_RETURN(double i_full,
                         mi.MiSets({bound.treatment}, variables, {}));
  double denom = 0.0;
  for (size_t i = 0; i < variables.size(); ++i) {
    HYPDB_ASSIGN_OR_RETURN(
        double i_given,
        mi.MiSets({bound.treatment}, variables, {variables[i]}));
    numerators[i] = std::max(0.0, i_full - i_given);
    denom += numerators[i];
  }
  for (size_t i = 0; i < variables.size(); ++i) {
    Responsibility r;
    r.attribute = table->column(variables[i]).name();
    r.column = variables[i];
    r.rho = denom > 0.0 ? numerators[i] / denom : 0.0;
    expl.coarse.push_back(std::move(r));
  }
  std::sort(expl.coarse.begin(), expl.coarse.end(),
            [](const Responsibility& a, const Responsibility& b) {
              return a.rho != b.rho ? a.rho > b.rho
                                    : a.attribute < b.attribute;
            });

  // Fine-grained for the top covariates.
  int fine_count = std::min<int>(options.fine_covariates,
                                 static_cast<int>(expl.coarse.size()));
  for (int i = 0; i < fine_count; ++i) {
    if (expl.coarse[i].rho <= 0.0) break;
    FineGrained fine;
    fine.covariate = expl.coarse[i].attribute;
    fine.column = expl.coarse[i].column;
    HYPDB_ASSIGN_OR_RETURN(
        fine.top,
        FineGrainedExplanations(mi.count_engine(), *table,
                                bound.treatment, y_col, fine.column,
                                options.top_k));
    expl.fine.push_back(std::move(fine));
  }
  if (count_stats != nullptr) {
    *count_stats += mi.count_engine().stats() - stats_before;
  }
  return expl;
}

}  // namespace hypdb
