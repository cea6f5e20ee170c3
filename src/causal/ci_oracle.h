// Conditional-independence oracles for structure discovery.
//
// Sec. 4 of the paper assumes "an oracle for testing conditional
// independence in the data". The discovery algorithms (Grow-Shrink, IAMB,
// CD, FGS) are written against this interface so they run identically on:
//  * DataCiOracle  — statistical tests on a view (CiTester, Sec. 5/6);
//  * DSeparationOracle — exact d-separation on a known DAG, the
//    ground-truth oracle used by unit tests and quality benchmarks.

#ifndef HYPDB_CAUSAL_CI_ORACLE_H_
#define HYPDB_CAUSAL_CI_ORACLE_H_

#include <vector>

#include "graph/d_separation.h"
#include "graph/dag.h"
#include "stats/ci_test.h"
#include "util/statusor.h"

namespace hypdb {

/// Answers "is X independent of Y given Z?" over variables identified by
/// integer ids (table column indices for data oracles, node ids for
/// graph oracles).
class CiOracle {
 public:
  virtual ~CiOracle() = default;

  virtual StatusOr<bool> Independent(int x, int y,
                                     const std::vector<int>& z) = 0;

  /// Like Independent but with the rejection threshold scaled by
  /// `alpha_scale` < 1 — i.e. dependence must be *more* significant to be
  /// asserted. Phase I of the CD algorithm enumerates many (S, W)
  /// hypotheses and uses this to keep its family-wise false-admission
  /// rate in check (the paper defers FDR control to future work, Sec. 8).
  /// Exact oracles ignore the scale.
  virtual StatusOr<bool> IndependentStrict(int x, int y,
                                           const std::vector<int>& z,
                                           double alpha_scale) {
    (void)alpha_scale;
    return Independent(x, y, z);
  }

  /// Dependence strength used by IAMB's greedy ordering. Data oracles
  /// return Î(x;y|z); the default maps Independent() to {0, 1}.
  virtual StatusOr<double> Association(int x, int y,
                                       const std::vector<int>& z) {
    HYPDB_ASSIGN_OR_RETURN(bool indep, Independent(x, y, z));
    return indep ? 0.0 : 1.0;
  }

  /// Hints that upcoming tests touch only `cols`; data oracles respond by
  /// materializing a contingency table over the set (Sec. 6). Default
  /// no-op.
  virtual Status Focus(const std::vector<int>& cols) {
    (void)cols;
    return Status::Ok();
  }

  /// Number of independence queries answered — the Fig. 6(a) metric.
  int64_t num_tests() const { return num_tests_; }

 protected:
  int64_t num_tests_ = 0;
};

/// Statistical oracle: rejects independence when the CiTester p-value is
/// ≤ alpha (the paper uses alpha = 0.01 throughout Sec. 7).
class DataCiOracle : public CiOracle {
 public:
  /// `tester` must outlive the oracle.
  DataCiOracle(CiTester* tester, double alpha)
      : tester_(tester), alpha_(alpha) {}

  StatusOr<bool> Independent(int x, int y,
                             const std::vector<int>& z) override {
    ++num_tests_;
    HYPDB_ASSIGN_OR_RETURN(CiResult r, tester_->Test(x, y, z));
    return r.IndependentAt(alpha_);
  }

  StatusOr<double> Association(int x, int y,
                               const std::vector<int>& z) override {
    ++num_tests_;
    HYPDB_ASSIGN_OR_RETURN(CiResult r, tester_->Test(x, y, z));
    return r.IndependentAt(alpha_) ? 0.0 : r.statistic;
  }

  StatusOr<bool> IndependentStrict(int x, int y, const std::vector<int>& z,
                                   double alpha_scale) override {
    ++num_tests_;
    HYPDB_ASSIGN_OR_RETURN(CiResult r, tester_->Test(x, y, z));
    return r.IndependentAt(alpha_ * alpha_scale);
  }

  Status Focus(const std::vector<int>& cols) override {
    // A focus that cannot be materialized (domain overflow) is a missed
    // optimization, not an error.
    (void)tester_->engine()->SetFocus(cols);
    return Status::Ok();
  }

  double alpha() const { return alpha_; }
  CiTester* tester() { return tester_; }

 private:
  CiTester* tester_;
  double alpha_;
};

/// Exact oracle over a known causal DAG (faithfulness assumed).
class DSeparationOracle : public CiOracle {
 public:
  explicit DSeparationOracle(const Dag* dag) : dag_(dag) {}

  StatusOr<bool> Independent(int x, int y,
                             const std::vector<int>& z) override {
    ++num_tests_;
    return DSeparated(*dag_, x, y, z);
  }

 private:
  const Dag* dag_;
};

}  // namespace hypdb

#endif  // HYPDB_CAUSAL_CI_ORACLE_H_
