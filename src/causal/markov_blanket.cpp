#include "causal/markov_blanket.h"

#include <algorithm>

namespace hypdb {
namespace {

// Shared shrink phase: evict any member independent of the target given
// the remaining members, repeating until stable.
Status Shrink(CiOracle& oracle, int target, std::vector<int>* blanket) {
  // Every shrink test runs within target ∪ blanket; hint the count engine
  // so one materialized summary serves the whole phase (Sec. 6).
  std::vector<int> focus = *blanket;
  focus.push_back(target);
  HYPDB_RETURN_IF_ERROR(oracle.Focus(focus));
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < blanket->size(); ++i) {
      std::vector<int> rest;
      rest.reserve(blanket->size() - 1);
      for (size_t j = 0; j < blanket->size(); ++j) {
        if (j != i) rest.push_back((*blanket)[j]);
      }
      HYPDB_ASSIGN_OR_RETURN(bool indep,
                             oracle.Independent(target, (*blanket)[i], rest));
      if (indep) {
        blanket->erase(blanket->begin() + i);
        changed = true;
        break;  // restart: the conditioning sets changed
      }
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<int>> GrowShrinkMb(CiOracle& oracle, int target,
                                        const std::vector<int>& candidates) {
  std::vector<int> blanket;
  std::vector<bool> in_blanket(candidates.size(), false);

  // Grow until a full pass admits nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (in_blanket[i] || candidates[i] == target) continue;
      HYPDB_ASSIGN_OR_RETURN(
          bool indep, oracle.Independent(target, candidates[i], blanket));
      if (!indep) {
        in_blanket[i] = true;
        blanket.push_back(candidates[i]);
        changed = true;
      }
    }
  }

  HYPDB_RETURN_IF_ERROR(Shrink(oracle, target, &blanket));
  std::sort(blanket.begin(), blanket.end());
  return blanket;
}

StatusOr<std::vector<int>> IambMb(CiOracle& oracle, int target,
                                  const std::vector<int>& candidates) {
  std::vector<int> blanket;
  std::vector<bool> in_blanket(candidates.size(), false);

  // Grow: admit the strongest dependent candidate each round.
  for (;;) {
    int best = -1;
    double best_assoc = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (in_blanket[i] || candidates[i] == target) continue;
      HYPDB_ASSIGN_OR_RETURN(
          double assoc, oracle.Association(target, candidates[i], blanket));
      if (assoc > best_assoc) {
        best_assoc = assoc;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // every remaining candidate is independent
    in_blanket[best] = true;
    blanket.push_back(candidates[best]);
  }

  HYPDB_RETURN_IF_ERROR(Shrink(oracle, target, &blanket));
  std::sort(blanket.begin(), blanket.end());
  return blanket;
}

StatusOr<std::vector<int>> LearnBlanket(CiOracle& oracle, int target,
                                        const std::vector<int>& candidates,
                                        bool use_iamb) {
  std::vector<int> mb;
  if (use_iamb) {
    HYPDB_ASSIGN_OR_RETURN(mb, IambMb(oracle, target, candidates));
  } else {
    HYPDB_ASSIGN_OR_RETURN(mb, GrowShrinkMb(oracle, target, candidates));
  }
  if (static_cast<int>(mb.size()) > kMaxBlanket) mb.resize(kMaxBlanket);
  return mb;
}

}  // namespace hypdb
