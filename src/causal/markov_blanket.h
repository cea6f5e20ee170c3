// Markov-boundary discovery: Grow-Shrink and IAMB (paper Sec. 2 & 4).
//
// Under DAG-isomorphism the Markov boundary of T is exactly parents ∪
// children ∪ spouses (Prop. 2.5); the CD algorithm starts from MB(T) and
// extracts the parents. Grow-Shrink (Margaritis & Thrun 2000) is the
// learner the paper uses; IAMB (Tsamardinos et al. 2003) is the improved
// variant used by the baseline comparison.

#ifndef HYPDB_CAUSAL_MARKOV_BLANKET_H_
#define HYPDB_CAUSAL_MARKOV_BLANKET_H_

#include <vector>

#include "causal/ci_oracle.h"
#include "util/statusor.h"

namespace hypdb {

/// Grow-Shrink: grow = repeatedly admit any candidate dependent on the
/// target given the current blanket; shrink = evict members independent
/// of the target given the rest. `candidates` must not contain `target`.
StatusOr<std::vector<int>> GrowShrinkMb(CiOracle& oracle, int target,
                                        const std::vector<int>& candidates);

/// IAMB: like Grow-Shrink but the grow phase admits the *strongest*
/// dependent candidate each round (by oracle Association), which keeps
/// the conditioning sets smaller and the tests more reliable.
StatusOr<std::vector<int>> IambMb(CiOracle& oracle, int target,
                                  const std::vector<int>& candidates);

/// Boundaries larger than this are truncated before the separating-set
/// searches of CD and FGS, which are exponential in the boundary size: a
/// safety valve that bounds the worst case (the boundaries of the paper's
/// experiments never exceed 8 members).
inline constexpr int kMaxBlanket = 16;

/// Cap on the size of a conditioning set drawn from a boundary, in
/// ForEachSubset's terms (-1 = every subset): kMaxBlanket already bounds
/// the search, and a cap would skip separating sets the paper tests.
inline constexpr int kMaxSepset = -1;

/// The blanket learner of CD and FGS: MB(target) by Grow-Shrink (IAMB
/// when `use_iamb`, the Fig. 5 baselines), truncated to kMaxBlanket
/// members.
StatusOr<std::vector<int>> LearnBlanket(CiOracle& oracle, int target,
                                        const std::vector<int>& candidates,
                                        bool use_iamb = false);

}  // namespace hypdb

#endif  // HYPDB_CAUSAL_MARKOV_BLANKET_H_
