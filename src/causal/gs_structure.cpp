#include "causal/gs_structure.h"

#include <algorithm>
#include <map>

#include "causal/markov_blanket.h"
#include "causal/subsets.h"

namespace hypdb {
namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

std::vector<int> Minus(const std::vector<int>& v,
                       std::initializer_list<int> drop) {
  std::vector<int> out;
  out.reserve(v.size());
  for (int x : v) {
    if (std::find(drop.begin(), drop.end(), x) == drop.end()) {
      out.push_back(x);
    }
  }
  return out;
}

// Meek rules R1-R3 until fixpoint. (R4 only fires with background
// knowledge edges, which this learner never produces.)
void MeekPropagate(Pdag* g, const std::vector<int>& variables) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int y : variables) {
      for (int z : variables) {
        if (y == z || !g->HasUndirected(y, z)) continue;
        // R1: x -> y, y - z, x and z non-adjacent  =>  y -> z.
        for (int x : variables) {
          if (x == y || x == z) continue;
          if (g->HasDirected(x, y) && !g->Adjacent(x, z)) {
            if (g->Direct(y, z)) changed = true;
            break;
          }
        }
        if (!g->HasUndirected(y, z)) continue;
        // R2: y -> w -> z with y - z  =>  y -> z.
        for (int w : variables) {
          if (w == y || w == z) continue;
          if (g->HasDirected(y, w) && g->HasDirected(w, z)) {
            if (g->Direct(y, z)) changed = true;
            break;
          }
        }
        if (!g->HasUndirected(y, z)) continue;
        // R3: y - w1, y - w2, w1 -> z, w2 -> z, w1 and w2 non-adjacent
        //     => y -> z.
        for (int w1 : variables) {
          if (w1 == y || w1 == z || !g->HasUndirected(y, w1) ||
              !g->HasDirected(w1, z)) {
            continue;
          }
          bool fired = false;
          for (int w2 : variables) {
            if (w2 == y || w2 == z || w2 == w1) continue;
            if (g->HasUndirected(y, w2) && g->HasDirected(w2, z) &&
                !g->Adjacent(w1, w2)) {
              if (g->Direct(y, z)) changed = true;
              fired = true;
              break;
            }
          }
          if (fired) break;
        }
      }
    }
  }
}

}  // namespace

StatusOr<GsStructureResult> LearnStructureGs(
    CiOracle& oracle, const std::vector<int>& variables,
    const GsStructureOptions& options) {
  const int64_t tests_before = oracle.num_tests();
  int max_id = 0;
  for (int v : variables) max_id = std::max(max_id, v);
  GsStructureResult result;
  result.pdag = Pdag(max_id + 1);

  // --- Step 1: Markov boundaries.
  std::map<int, std::vector<int>> mb;
  for (int v : variables) {
    HYPDB_ASSIGN_OR_RETURN(
        std::vector<int> blanket,
        LearnBlanket(oracle, v, Minus(variables, {v}), options.use_iamb));
    mb[v] = blanket;
    result.blankets.push_back(std::move(blanket));
  }

  // --- Step 2: skeleton. x, y are direct neighbors iff no subset of the
  // smaller boundary separates them.
  for (size_t i = 0; i < variables.size(); ++i) {
    for (size_t j = i + 1; j < variables.size(); ++j) {
      int x = variables[i];
      int y = variables[j];
      if (!Contains(mb[x], y) && !Contains(mb[y], x)) continue;
      std::vector<int> pool_x = Minus(mb[x], {y});
      std::vector<int> pool_y = Minus(mb[y], {x});
      const std::vector<int>& pool =
          pool_x.size() <= pool_y.size() ? pool_x : pool_y;
      HYPDB_ASSIGN_OR_RETURN(
          bool separable,
          ForEachSubset(pool, kMaxSepset,
                        [&](const std::vector<int>& s) -> StatusOr<bool> {
                          return oracle.Independent(x, y, s);
                        }));
      if (!separable) result.pdag.SetUndirected(x, y);
    }
  }

  // --- Step 3: colliders. For y - x - z with y, z non-adjacent: if some
  // S separates y from z but S ∪ {x} does not, x is a collider.
  for (int x : variables) {
    std::vector<int> neighbors = result.pdag.Neighbors(x);
    for (size_t a = 0; a < neighbors.size(); ++a) {
      for (size_t b = a + 1; b < neighbors.size(); ++b) {
        int y = neighbors[a];
        int z = neighbors[b];
        if (result.pdag.Adjacent(y, z)) continue;
        if (result.pdag.HasDirected(y, x) && result.pdag.HasDirected(z, x)) {
          continue;  // already oriented as a collider
        }
        std::vector<int> pool_y = Minus(mb[y], {x, z});
        std::vector<int> pool_z = Minus(mb[z], {x, y});
        const std::vector<int>& pool =
            pool_y.size() <= pool_z.size() ? pool_y : pool_z;
        HYPDB_ASSIGN_OR_RETURN(
            bool is_collider,
            ForEachSubset(
                pool, kMaxSepset,
                [&](const std::vector<int>& s) -> StatusOr<bool> {
                  HYPDB_ASSIGN_OR_RETURN(bool sep,
                                         oracle.Independent(y, z, s));
                  if (!sep) return false;
                  std::vector<int> s_x = s;
                  s_x.push_back(x);
                  HYPDB_ASSIGN_OR_RETURN(bool sep_x,
                                         oracle.Independent(y, z, s_x));
                  return !sep_x;
                }));
        if (is_collider) {
          result.pdag.Direct(y, x);
          result.pdag.Direct(z, x);
        }
      }
    }
  }

  // --- Step 4: Meek propagation.
  MeekPropagate(&result.pdag, variables);

  result.tests_used = oracle.num_tests() - tests_before;
  return result;
}

}  // namespace hypdb
