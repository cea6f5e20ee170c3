// Discrete Bayesian networks: CPTs, ancestral sampling, exact joints.
//
// This is the reproduction of the paper's RandomData pipeline (Sec. 7.1):
// the authors drew samples from random causal DAGs with the catnet R
// package; here the same machinery is built natively. A BayesNet pairs a
// DAG with one conditional probability table per node; Sample() performs
// ancestral (forward) sampling in topological order.

#ifndef HYPDB_BN_BAYES_NET_H_
#define HYPDB_BN_BAYES_NET_H_

#include <string>
#include <vector>

#include "dataframe/table.h"
#include "graph/dag.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace hypdb {

/// Conditional probability table of one node given its parents. Rows are
/// parent configurations in mixed-radix order (parents as listed, first
/// parent = lowest-order digit); each row holds a distribution over the
/// node's categories.
struct Cpt {
  std::vector<int> parents;        // node ids, fixed order
  std::vector<int32_t> parent_cards;
  int32_t card = 2;                // this node's category count
  std::vector<std::vector<double>> rows;  // rows[config][value]

  /// Row index for the given parent values (aligned with `parents`).
  int64_t ConfigIndex(const std::vector<int32_t>& parent_values) const;
};

/// A discrete Bayesian network over nodes 0..n-1.
class BayesNet {
 public:
  BayesNet() = default;

  /// Builds a network with uniform-random Dirichlet(alpha) CPT rows.
  /// `cards[i]` is node i's category count. Small alpha yields skewed,
  /// near-deterministic rows (strong dependencies); alpha = 1 is uniform
  /// over the simplex.
  static StatusOr<BayesNet> Random(const Dag& dag,
                                   const std::vector<int32_t>& cards,
                                   double alpha, Rng& rng);

  /// Builds a network from explicit CPTs (validated against `dag`).
  static StatusOr<BayesNet> FromCpts(const Dag& dag, std::vector<Cpt> cpts);

  const Dag& dag() const { return dag_; }
  int NumNodes() const { return dag_.NumNodes(); }
  const Cpt& cpt(int node) const { return cpts_[node]; }
  int32_t Cardinality(int node) const { return cpts_[node].card; }

  /// Draws `num_rows` joint samples; returns a table whose columns are
  /// `names` (default "X0".."Xn-1"). Category labels are "0", "1", ....
  StatusOr<Table> Sample(int64_t num_rows, Rng& rng,
                         std::vector<std::string> names = {}) const;

  /// Draws one joint sample into `values` (size n, codes per node).
  void SampleRow(Rng& rng, std::vector<int32_t>* values) const;

  /// Joint probability of a full assignment (for exactness tests).
  double JointProbability(const std::vector<int32_t>& values) const;

 private:
  Dag dag_;
  std::vector<Cpt> cpts_;
  std::vector<int> topo_order_;
};

}  // namespace hypdb

#endif  // HYPDB_BN_BAYES_NET_H_
