// FGS: full structure learning via Grow-Shrink Markov boundaries
// (Margaritis & Thrun 2000) — the constraint-based baseline of Sec. 7.4.
//
// Pipeline: (1) learn MB(X) for every variable; (2) resolve direct
// neighbors inside each boundary by exhaustive separating-set search;
// (3) orient colliders X→Y←Z via the same (⊥ without, ⊮ with) collider
// signature the CD algorithm uses; (4) propagate with Meek rules R1-R3.
// Edges whose direction is not identified remain undirected (Markov
// equivalence class).

#ifndef HYPDB_CAUSAL_GS_STRUCTURE_H_
#define HYPDB_CAUSAL_GS_STRUCTURE_H_

#include <vector>

#include "causal/ci_oracle.h"
#include "causal/pdag.h"
#include "util/statusor.h"

namespace hypdb {

struct GsStructureOptions {
  /// IAMB instead of Grow-Shrink for boundaries (LearnBlanket).
  bool use_iamb = false;
};

struct GsStructureResult {
  Pdag pdag;
  /// Markov boundary learned for each variable (indexed as `variables`).
  std::vector<std::vector<int>> blankets;
  int64_t tests_used = 0;
};

/// Learns the structure over `variables` (oracle ids; the Pdag is sized
/// max(variables)+1 and uses the ids directly).
StatusOr<GsStructureResult> LearnStructureGs(
    CiOracle& oracle, const std::vector<int>& variables,
    const GsStructureOptions& options = {});

}  // namespace hypdb

#endif  // HYPDB_CAUSAL_GS_STRUCTURE_H_
