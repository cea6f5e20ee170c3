#include "causal/cd_algorithm.h"

#include <algorithm>
#include <map>

#include "causal/markov_blanket.h"
#include "causal/subsets.h"

namespace hypdb {
namespace {

// Alpha scale for the collider-admission test of phase I
// ((Z ⊮ W | S ∪ {T}) must hold at alpha·scale). Phase I enumerates many
// (S, W) hypotheses; without the stricter threshold a single chance
// rejection among dozens of truly-independent pairs admits a non-parent
// (a multiple-testing guard; 1.0 would be the paper's behavior).
constexpr double kColliderAlphaScale = 0.05;

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

StatusOr<CdResult> DiscoverParents(CiOracle& oracle, int treatment,
                                   const std::vector<int>& candidates,
                                   const std::vector<int>& outcomes) {
  if (Contains(candidates, treatment)) {
    return Status::InvalidArgument("candidates must not contain treatment");
  }
  const int64_t tests_before = oracle.num_tests();
  CdResult result;

  HYPDB_ASSIGN_OR_RETURN(result.markov_blanket,
                         LearnBlanket(oracle, treatment, candidates));
  const std::vector<int>& mb_t = result.markov_blanket;

  // Blankets of MB(T) members are learned over candidates ∪ {T} − {Z}.
  std::map<int, std::vector<int>> blanket_cache;
  auto blanket_of = [&](int z) -> StatusOr<std::vector<int>> {
    auto it = blanket_cache.find(z);
    if (it != blanket_cache.end()) return it->second;
    std::vector<int> pool;
    pool.reserve(candidates.size() + 1);
    for (int c : candidates) {
      if (c != z) pool.push_back(c);
    }
    pool.push_back(treatment);
    HYPDB_ASSIGN_OR_RETURN(std::vector<int> mb,
                           LearnBlanket(oracle, z, pool));
    blanket_cache.emplace(z, mb);
    return mb;
  };

  // ---- Phase I: collect Z (and W) for which T is a collider between
  // them: (Z ⊥ W | S) ∧ (Z ⊮ W | S ∪ {T}) for some S ⊆ MB(Z) − {T}.
  std::vector<int> collected;
  for (int z : mb_t) {
    if (Contains(collected, z)) continue;
    HYPDB_ASSIGN_OR_RETURN(std::vector<int> mb_z, blanket_of(z));
    // Focus the oracle on the attribute set this phase touches (Sec. 6
    // materialization).
    std::vector<int> focus = mb_z;
    focus.insert(focus.end(), mb_t.begin(), mb_t.end());
    focus.push_back(treatment);
    focus.push_back(z);
    HYPDB_RETURN_IF_ERROR(oracle.Focus(focus));

    std::vector<int> pool;  // MB(Z) − {T}
    for (int s : mb_z) {
      if (s != treatment) pool.push_back(s);
    }
    int found_w = -1;
    HYPDB_ASSIGN_OR_RETURN(
        bool found,
        ForEachSubset(
            pool, kMaxSepset,
            [&](const std::vector<int>& s) -> StatusOr<bool> {
              for (int w : mb_t) {
                if (w == z || Contains(s, w)) continue;
                HYPDB_ASSIGN_OR_RETURN(bool sep,
                                       oracle.Independent(z, w, s));
                if (!sep) continue;
                std::vector<int> s_t = s;
                s_t.push_back(treatment);
                HYPDB_ASSIGN_OR_RETURN(
                    bool sep_t,
                    oracle.IndependentStrict(z, w, s_t, kColliderAlphaScale));
                if (!sep_t) {
                  found_w = w;
                  return true;
                }
              }
              return false;
            }));
    if (found) {
      if (!Contains(collected, z)) collected.push_back(z);
      if (!Contains(collected, found_w)) collected.push_back(found_w);
    }
  }
  std::sort(collected.begin(), collected.end());

  // ---- Phase II: evict candidates separable from T within MB(T) —
  // those were spouses (parents of children), not parents.
  // Every phase-II test conditions within MB(T), so one materialized
  // summary over MB(T) ∪ {T} ∪ candidates serves the whole phase.
  {
    std::vector<int> focus = mb_t;
    focus.push_back(treatment);
    for (int c : collected) {
      if (!Contains(focus, c)) focus.push_back(c);
    }
    HYPDB_RETURN_IF_ERROR(oracle.Focus(focus));
  }
  std::vector<int> parents;
  for (int c : collected) {
    std::vector<int> pool;  // MB(T) − {C}
    for (int s : mb_t) {
      if (s != c) pool.push_back(s);
    }
    HYPDB_ASSIGN_OR_RETURN(
        bool separable,
        ForEachSubset(pool, kMaxSepset,
                      [&](const std::vector<int>& s) -> StatusOr<bool> {
                        return oracle.Independent(treatment, c, s);
                      }));
    if (!separable) parents.push_back(c);
  }

  if (parents.empty()) {
    // Identifiability assumption failed (Sec. 4): fall back to the full
    // boundary minus the outcomes.
    result.fell_back_to_blanket = true;
    for (int z : mb_t) {
      if (!Contains(outcomes, z)) result.parents.push_back(z);
    }
  } else {
    result.parents = std::move(parents);
  }
  std::sort(result.parents.begin(), result.parents.end());
  result.tests_used = oracle.num_tests() - tests_before;
  return result;
}

}  // namespace hypdb
