// Patefield's algorithm AS 159 (Patefield 1981): uniform sampling of r×c
// contingency tables with fixed row and column totals.
//
// Randomly shuffling a data column only changes the cells of its
// contingency table, never the margins, and the induced distribution over
// tables is exactly the fixed-margins hypergeometric distribution AS 159
// samples from. This replaces O(n) shuffles with O(r·c) table draws — the
// key optimization behind the MIT permutation test (paper Sec. 5).

#ifndef HYPDB_STATS_PATEFIELD_H_
#define HYPDB_STATS_PATEFIELD_H_

#include <cstdint>
#include <vector>

#include "stats/contingency.h"
#include "util/rng.h"
#include "util/status.h"

namespace hypdb {

/// The one AS 159 draw: fills the row-major r×c `cells` (r, c the margin
/// lengths) with a random table whose margins are `row_totals` and
/// `col_totals`, both summing to `total`. `jwork` is scratch that callers
/// reuse across draws. Nothing is validated: margins must be non-empty,
/// non-negative and agree on their sum, and `log_fact[k]` must hold ln(k!)
/// for every k ≤ `total` (only read when r, c > 1 and `total` > 0).
/// Returns false on probability underflow, leaving `cells` partly drawn.
bool DrawTableWithMargins(const std::vector<int64_t>& row_totals,
                          const std::vector<int64_t>& col_totals,
                          int64_t total, const double* log_fact, Rng& rng,
                          int64_t* cells, std::vector<int64_t>* jwork);

/// Draws one random table with the given margins into `*out` (resized and
/// margins rebuilt). `log_fact[k]` must hold ln(k!) for all k up to the
/// grand total (see LogFactorialTable). Margins must be non-negative and
/// agree on their sum.
Status SampleTableWithMargins(const std::vector<int64_t>& row_totals,
                              const std::vector<int64_t>& col_totals,
                              const std::vector<double>& log_fact, Rng& rng,
                              Table2D* out);

/// Convenience wrapper that validates margins once and reuses a shared
/// log-factorial table across many draws.
class PatefieldSampler {
 public:
  /// Validates margins; fails on negative entries or mismatched sums.
  static StatusOr<PatefieldSampler> Create(std::vector<int64_t> row_totals,
                                           std::vector<int64_t> col_totals);

  /// Draws one table.
  Status Sample(Rng& rng, Table2D* out) const;

  int64_t total() const { return total_; }

 private:
  PatefieldSampler() = default;

  std::vector<int64_t> row_totals_;
  std::vector<int64_t> col_totals_;
  int64_t total_ = 0;
  std::vector<double> log_fact_;
};

}  // namespace hypdb

#endif  // HYPDB_STATS_PATEFIELD_H_
