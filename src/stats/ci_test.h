// Conditional-independence testing (paper Sec. 5 & 6).
//
// Tests H0: I(X;Y|Z) = 0 against the data. Methods:
//  * kGTest    — the χ² approximation: G = 2n·Î_plugin(X;Y|Z) is
//                asymptotically χ²((|Π_X|-1)(|Π_Y|-1)|Π_Z|). This is the
//                paper's "χ² test" (bnlearn's mutual-information test).
//  * kPearson  — classic Pearson X² summed over strata (for reference).
//  * kMit      — Alg. 2: Monte-Carlo permutation test whose replicates are
//                drawn per-stratum from fixed-marginals contingency tables
//                via Patefield's algorithm, never by shuffling rows.
//  * kMitSampled — MIT restricted to a weighted sample of strata, weights
//                w_z = Pr(z)·max(Ĥ_z(X), Ĥ_z(Y)) (Sec. 5 "sampling from
//                groups"); sample size ⌈factor·ln(1+|Π_Z|)⌉.
//  * kHybrid   — HyMIT (Sec. 6): the χ² approximation when the sample is
//                large relative to the degrees of freedom (df ≤ n/β,
//                β = 5), MIT otherwise.

#ifndef HYPDB_STATS_CI_TEST_H_
#define HYPDB_STATS_CI_TEST_H_

#include <string>
#include <vector>

#include "stats/contingency.h"
#include "stats/mi_engine.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace hypdb {

enum class CiMethod {
  kGTest,
  kPearson,
  kMit,
  kMitSampled,
  kHybrid,
};

const char* CiMethodName(CiMethod method);

struct CiOptions {
  CiMethod method = CiMethod::kHybrid;
  /// Permutation replicates (m in Alg. 2).
  int permutations = 1000;
  /// HyMIT validity rule: χ² used iff df ≤ n / hybrid_beta.
  double hybrid_beta = 5.0;
  /// Sampled strata count = max(min_sampled_strata,
  /// ⌈strata_sample_factor·ln(1+L)⌉), never more than L.
  double strata_sample_factor = 2.0;
  int min_sampled_strata = 3;
  /// Within kHybrid, the MIT fallback samples strata when L exceeds this.
  int sampled_strata_threshold = 64;
  /// Estimator for the permutation statistic (s0 and replicates alike).
  EntropyEstimator mit_estimator = EntropyEstimator::kMillerMadow;
};

struct CiResult {
  /// The observed statistic the p-value refers to: Î(X;Y|Z) for G/MIT
  /// (nats; G additionally scales by 2n internally), Pearson X² for
  /// kPearson.
  double statistic = 0.0;
  double p_value = 1.0;
  /// 95% binomial confidence bounds on the p-value (permutation methods;
  /// equal to p_value for analytic methods).
  double p_low = 1.0;
  double p_high = 1.0;
  int64_t df = 0;
  CiMethod method_used = CiMethod::kGTest;

  /// True when H0 (independence) is NOT rejected at level `alpha`.
  bool IndependentAt(double alpha) const { return p_value > alpha; }
};

/// Runs conditional-independence tests over one MiEngine (one view).
/// Counts every test issued — the Fig. 6(a) metric.
class CiTester {
 public:
  /// `engine` must outlive the tester.
  CiTester(MiEngine* engine, CiOptions options, uint64_t seed);

  /// Tests X ⊥ Y | Z. X, Y must differ and not appear in Z.
  StatusOr<CiResult> Test(int x, int y, const std::vector<int>& z);

  /// Set version: tests (compound of xs) ⊥ (compound of ys) | Z — e.g.
  /// the paper's balance test T ⊥ V | Γ with a whole covariate set V.
  StatusOr<CiResult> TestSets(const std::vector<int>& xs,
                              const std::vector<int>& ys,
                              const std::vector<int>& z);

  /// Convenience: true iff independent at `alpha`.
  StatusOr<bool> Independent(int x, int y, const std::vector<int>& z,
                             double alpha);

  int64_t num_tests() const { return num_tests_; }
  void ResetStats() { num_tests_ = 0; }

  MiEngine* engine() { return engine_; }
  const CiOptions& options() const { return options_; }

 private:
  /// Stratified (X, Y | Z) summary built from engine-served counts,
  /// with every stratum's cells or (`cells` false) margins only.
  StatusOr<StratifiedTable> Stratify(const std::vector<int>& xs,
                                     const std::vector<int>& ys,
                                     const std::vector<int>& z, bool cells);
  StatusOr<CiResult> RunGTest(const std::vector<int>& xs,
                              const std::vector<int>& ys,
                              const std::vector<int>& z);
  StatusOr<CiResult> RunPearson(const std::vector<int>& xs,
                                const std::vector<int>& ys,
                                const std::vector<int>& z);
  StatusOr<CiResult> RunMit(const std::vector<int>& xs,
                            const std::vector<int>& ys,
                            const std::vector<int>& z, bool sampled);
  CiResult MitOnStrata(const StratifiedTable& table,
                       const std::vector<int>& strata_idx, bool sampled);

  MiEngine* engine_;
  CiOptions options_;
  Rng rng_;
  int64_t num_tests_ = 0;
  // Grow-only memos up to the largest stratum total MIT has seen:
  // log_fact_[k] = ln k! for the Patefield draws, log_[c] = ln c for the
  // replicates' joint entropies.
  std::vector<double> log_fact_;
  std::vector<double> log_;
};

}  // namespace hypdb

#endif  // HYPDB_STATS_CI_TEST_H_
