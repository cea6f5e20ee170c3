#include "stats/ci_test.h"

#include <algorithm>
#include <cmath>

#include "stats/patefield.h"
#include "stats/special_math.h"
#include "util/trace.h"

namespace hypdb {

const char* CiMethodName(CiMethod method) {
  switch (method) {
    case CiMethod::kGTest:
      return "chi2(G)";
    case CiMethod::kPearson:
      return "pearson";
    case CiMethod::kMit:
      return "MIT";
    case CiMethod::kMitSampled:
      return "MIT(sampling)";
    case CiMethod::kHybrid:
      return "HyMIT";
  }
  return "?";
}

CiTester::CiTester(MiEngine* engine, CiOptions options, uint64_t seed)
    : engine_(engine), options_(options), rng_(seed) {}

StatusOr<StratifiedTable> CiTester::Stratify(const std::vector<int>& xs,
                                             const std::vector<int>& ys,
                                             const std::vector<int>& z,
                                             bool cells) {
  // Counts come from the engine's CountEngine, so stratified summaries
  // share the cache / cube with the entropy path instead of re-scanning.
  std::vector<int> all = z;
  all.insert(all.end(), xs.begin(), xs.end());
  all.insert(all.end(), ys.begin(), ys.end());
  HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, engine_->CountsFor(all));
  return BuildStratifiedFromCounts(counts, static_cast<int>(z.size()),
                                   static_cast<int>(xs.size()),
                                   static_cast<int>(ys.size()), cells);
}

StatusOr<CiResult> CiTester::Test(int x, int y, const std::vector<int>& z) {
  return TestSets({x}, {y}, z);
}

StatusOr<CiResult> CiTester::TestSets(const std::vector<int>& xs,
                                      const std::vector<int>& ys,
                                      const std::vector<int>& z) {
  if (xs.empty() || ys.empty()) {
    return Status::InvalidArgument("CI test requires non-empty sides");
  }
  for (int x : xs) {
    for (int y : ys) {
      if (x == y) {
        return Status::InvalidArgument("CI test sides must be disjoint");
      }
    }
  }
  for (int c : z) {
    for (int x : xs) {
      if (c == x) {
        return Status::InvalidArgument(
            "conditioning set must not contain the tested variables");
      }
    }
    for (int y : ys) {
      if (c == y) {
        return Status::InvalidArgument(
            "conditioning set must not contain the tested variables");
      }
    }
  }
  ++num_tests_;
  // Deep trace level only: discovery runs hundreds of these. arg0 packs
  // the side/conditioning-set sizes, arg1 the first tested column pair.
  TraceSpanScope span(
      TraceEventKind::kCiTest, 2,
      (static_cast<uint64_t>(xs.size()) << 32) |
          (static_cast<uint64_t>(ys.size()) << 16) |
          static_cast<uint64_t>(z.size() & 0xffff),
      (static_cast<uint64_t>(static_cast<uint32_t>(xs[0])) << 32) |
          static_cast<uint64_t>(static_cast<uint32_t>(ys[0])));
  switch (options_.method) {
    case CiMethod::kGTest:
      return RunGTest(xs, ys, z);
    case CiMethod::kPearson:
      return RunPearson(xs, ys, z);
    case CiMethod::kMit:
      return RunMit(xs, ys, z, /*sampled=*/false);
    case CiMethod::kMitSampled:
      return RunMit(xs, ys, z, /*sampled=*/true);
    case CiMethod::kHybrid: {
      // HyMIT: χ² when the data is dense enough for the asymptotics.
      HYPDB_ASSIGN_OR_RETURN(int64_t rx, engine_->Support(xs));
      HYPDB_ASSIGN_OR_RETURN(int64_t ry, engine_->Support(ys));
      int64_t strata = 1;
      if (!z.empty()) {
        HYPDB_ASSIGN_OR_RETURN(strata, engine_->Support(z));
      }
      int64_t df = std::max<int64_t>(rx - 1, 1) *
                   std::max<int64_t>(ry - 1, 1) * std::max<int64_t>(strata, 1);
      double n = static_cast<double>(engine_->NumRows());
      if (static_cast<double>(df) <= n / options_.hybrid_beta) {
        return RunGTest(xs, ys, z);
      }
      bool sampled = strata > options_.sampled_strata_threshold;
      return RunMit(xs, ys, z, sampled);
    }
  }
  return Status::Internal("unknown CI method");
}

StatusOr<bool> CiTester::Independent(int x, int y, const std::vector<int>& z,
                                     double alpha) {
  HYPDB_ASSIGN_OR_RETURN(CiResult r, Test(x, y, z));
  return r.IndependentAt(alpha);
}

StatusOr<CiResult> CiTester::RunGTest(const std::vector<int>& xs,
                                      const std::vector<int>& ys,
                                      const std::vector<int>& z) {
  HYPDB_ASSIGN_OR_RETURN(
      double mi, engine_->MiSets(xs, ys, z, EntropyEstimator::kPlugin));
  HYPDB_ASSIGN_OR_RETURN(int64_t rx, engine_->Support(xs));
  HYPDB_ASSIGN_OR_RETURN(int64_t ry, engine_->Support(ys));
  int64_t strata = 1;
  if (!z.empty()) {
    HYPDB_ASSIGN_OR_RETURN(strata, engine_->Support(z));
  }
  CiResult result;
  result.method_used = CiMethod::kGTest;
  result.statistic = mi;
  result.df = std::max<int64_t>(rx - 1, 1) * std::max<int64_t>(ry - 1, 1) *
              std::max<int64_t>(strata, 1);
  double g = 2.0 * static_cast<double>(engine_->NumRows()) * mi;
  result.p_value =
      ChiSquaredSurvival(static_cast<double>(result.df), g);
  result.p_low = result.p_high = result.p_value;
  return result;
}

StatusOr<CiResult> CiTester::RunPearson(const std::vector<int>& xs,
                                        const std::vector<int>& ys,
                                        const std::vector<int>& z) {
  HYPDB_ASSIGN_OR_RETURN(StratifiedTable table,
                         Stratify(xs, ys, z, /*cells=*/true));
  CiResult result;
  result.method_used = CiMethod::kPearson;
  result.statistic = table.PearsonStatistic();
  result.df = table.DegreesOfFreedom();
  result.p_value =
      ChiSquaredSurvival(static_cast<double>(result.df), result.statistic);
  result.p_low = result.p_high = result.p_value;
  return result;
}

StatusOr<CiResult> CiTester::RunMit(const std::vector<int>& xs,
                                    const std::vector<int>& ys,
                                    const std::vector<int>& z, bool sampled) {
  // Sampling reads every stratum's margins but the cells of only the
  // strata it draws.
  HYPDB_ASSIGN_OR_RETURN(StratifiedTable table,
                         Stratify(xs, ys, z, /*cells=*/!sampled));
  const int num_strata = table.NumStrata();

  std::vector<int> chosen(num_strata);
  for (int i = 0; i < num_strata; ++i) chosen[i] = i;

  if (sampled) {
    // Sec. 5 "sampling from groups": a stratum can only move the statistic
    // by Pr(z)·max(Ĥ_z(X), Ĥ_z(Y)); sample strata by that weight.
    std::vector<double> weights(num_strata);
    int positive = 0;
    for (int i = 0; i < num_strata; ++i) {
      const Table2D& t = table.strata[i].table;
      double pr_z = table.total > 0 ? static_cast<double>(t.total()) /
                                          static_cast<double>(table.total)
                                    : 0.0;
      weights[i] = pr_z * std::max(t.RowEntropy(EntropyEstimator::kPlugin),
                                   t.ColEntropy(EntropyEstimator::kPlugin));
      if (weights[i] > 0.0) ++positive;
    }
    int k = std::max(
        options_.min_sampled_strata,
        static_cast<int>(std::ceil(options_.strata_sample_factor *
                                   std::log(1.0 + num_strata))));
    k = std::min(k, positive);
    if (k <= 0) {
      // No stratum can contribute: the conditional MI is exactly 0.
      CiResult result;
      result.method_used = CiMethod::kMitSampled;
      result.df = table.DegreesOfFreedom();
      return result;
    }
    // Weighted sampling without replacement.
    chosen.clear();
    std::vector<double> w = weights;
    for (int draw = 0; draw < k; ++draw) {
      int idx = rng_.WeightedIndex(w);
      chosen.push_back(idx);
      w[idx] = 0.0;
    }
    std::sort(chosen.begin(), chosen.end());
    table.FillCells(chosen);
  }

  return MitOnStrata(table, chosen, sampled);
}

CiResult CiTester::MitOnStrata(const StratifiedTable& table,
                               const std::vector<int>& strata_idx,
                               bool sampled) {
  const EntropyEstimator est = options_.mit_estimator;
  const int m = options_.permutations;

  // Stratum weights renormalized over the selection.
  int64_t selected_total = 0;
  int64_t max_stratum_total = 0;
  for (int i : strata_idx) {
    selected_total += table.strata[i].table.total();
    max_stratum_total =
        std::max(max_stratum_total, table.strata[i].table.total());
  }

  CiResult result;
  result.method_used = sampled ? CiMethod::kMitSampled : CiMethod::kMit;
  result.df = table.DegreesOfFreedom();
  if (selected_total == 0 || m <= 0) return result;

  // Observed statistic over the selected strata (Alg. 2 line 1).
  double s0 = 0.0;
  for (int i : strata_idx) {
    const Table2D& t = table.strata[i].table;
    double pr_z = static_cast<double>(t.total()) /
                  static_cast<double>(selected_total);
    s0 += pr_z * t.MutualInformation(est);
  }
  result.statistic = s0;

  // Permutation replicates: per stratum, draw m tables with the observed
  // margins (Alg. 2 lines 2-5), then aggregate s_i = Σ_z Pr(z)·Î_Ci
  // (lines 7-10).
  ExtendLogFactorialTable(max_stratum_total, &log_fact_);
  for (int64_t c = static_cast<int64_t>(log_.size()); c <= max_stratum_total;
       ++c) {
    log_.push_back(std::log(static_cast<double>(c)));
  }
  const auto log_of = [this](int64_t c) { return log_[c]; };
  std::vector<double> replicate(m, 0.0);
  std::vector<int64_t> cells;
  std::vector<int64_t> jwork;
  for (int i : strata_idx) {
    const Table2D& t = table.strata[i].table;
    double pr_z = static_cast<double>(t.total()) /
                  static_cast<double>(selected_total);
    if (t.total() == 0) continue;
    // Degenerate margins admit a single table: MI is always 0.
    int nonzero_rows = 0;
    int nonzero_cols = 0;
    for (int64_t v : t.row_margins()) nonzero_rows += v > 0 ? 1 : 0;
    for (int64_t v : t.col_margins()) nonzero_cols += v > 0 ? 1 : 0;
    if (nonzero_rows <= 1 || nonzero_cols <= 1) continue;
    // Every draw keeps the stratum's margins, so H(row) + H(col) is fixed;
    // a replicate's Î is that minus its joint entropy, with
    // Table2D::MutualInformation's clamp.
    const double h_margins = t.RowEntropy(est) + t.ColEntropy(est);
    cells.resize(t.cells().size());
    for (int rep = 0; rep < m; ++rep) {
      if (!DrawTableWithMargins(t.row_margins(), t.col_margins(), t.total(),
                                log_fact_.data(), rng_, cells.data(),
                                &jwork)) {
        continue;  // underflow: skip this replicate's stratum
      }
      const double mi =
          h_margins - EntropyFromCountsWith(cells.data(), cells.size(),
                                            t.total(), est, log_of);
      replicate[rep] += pr_z * (mi < 0.0 ? 0.0 : mi);
    }
  }

  // Mid-p convention: contingency tables are discrete, so exact ties
  // between the replicate statistic and s0 carry real probability mass;
  // counting them half keeps the p-value calibrated (the paper's strict
  // ">" is anti-conservative, ">=" alone over-covers).
  double exceed = 0.0;
  for (double s : replicate) {
    if (s > s0 + 1e-12) {
      exceed += 1.0;
    } else if (s >= s0 - 1e-12) {
      exceed += 0.5;
    }
  }
  double p = exceed / static_cast<double>(m);
  double half_width =
      1.96 * std::sqrt(std::max(p * (1.0 - p), 0.0) / static_cast<double>(m));
  result.p_value = p;
  result.p_low = std::max(0.0, p - half_width);
  result.p_high = std::min(1.0, p + half_width);
  return result;
}

}  // namespace hypdb
