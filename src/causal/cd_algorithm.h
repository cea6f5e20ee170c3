// The CD (Covariate Detection) algorithm — paper Alg. 1, Sec. 4.
//
// Given a treatment T, CD discovers the parents PA_T in the (unknown)
// causal DAG directly from independence tests, without learning the full
// DAG. The idea (Prop. 4.1): Z ∈ MB(T) is a parent iff
//  (a) T is a collider on a path between Z and some W ∈ MB(T): there are
//      S ⊆ MB(Z) − {T} and W with (Z ⊥ W | S) ∧ (Z ⊮ W | S ∪ {T}); and
//  (b) no S' ⊆ MB(T) − {Z} separates Z from T (Z is a true neighbor).
// Phase I collects candidates by (a) — parents and possibly spouses;
// phase II evicts spouses by (b).
//
// The identifiability assumption: every parent has a non-adjacent
// co-parent. When phase I finds nothing the assumption failed (e.g. a
// single parent); HypDB then falls back to Z = MB(T) − {outcomes}
// (Sec. 4), reported via `fell_back_to_blanket`.

#ifndef HYPDB_CAUSAL_CD_ALGORITHM_H_
#define HYPDB_CAUSAL_CD_ALGORITHM_H_

#include <vector>

#include "causal/ci_oracle.h"
#include "util/statusor.h"

namespace hypdb {

struct CdResult {
  /// The discovered covariates Z = PA_T (sorted), or MB(T) − outcomes
  /// when the fallback fired.
  std::vector<int> parents;
  /// MB(T) as learned from the oracle (sorted).
  std::vector<int> markov_blanket;
  /// True when phase I/II produced nothing and Z fell back to the
  /// Markov boundary minus the outcomes.
  bool fell_back_to_blanket = false;
  /// Independence tests consumed (oracle delta).
  int64_t tests_used = 0;
};

/// Runs CD for `treatment` over `candidates` (ids the oracle understands;
/// must not contain the treatment). Boundaries are learned by Grow-Shrink
/// (LearnBlanket). `outcomes` are excluded from any fallback covariate
/// set.
StatusOr<CdResult> DiscoverParents(CiOracle& oracle, int treatment,
                                   const std::vector<int>& candidates,
                                   const std::vector<int>& outcomes = {});

}  // namespace hypdb

#endif  // HYPDB_CAUSAL_CD_ALGORITHM_H_
