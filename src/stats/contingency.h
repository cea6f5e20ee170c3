// Two-way and stratified contingency tables (paper Sec. 5).
//
// The Monte-Carlo permutation test never shuffles rows: it summarizes the
// data into one T×Y contingency table per stratum z ∈ Π_Z(D) and samples
// permutation replicates directly from the fixed-marginals distribution
// (Patefield's algorithm). These structures are that summarization.

#ifndef HYPDB_STATS_CONTINGENCY_H_
#define HYPDB_STATS_CONTINGENCY_H_

#include <cstdint>
#include <vector>

#include "dataframe/view.h"
#include "stats/entropy.h"
#include "util/statusor.h"

namespace hypdb {

/// Dense r×c table of non-negative counts with margins.
class Table2D {
 public:
  Table2D() = default;
  Table2D(int num_rows, int num_cols)
      : num_rows_(num_rows),
        num_cols_(num_cols),
        cells_(static_cast<size_t>(num_rows) * num_cols, 0) {}

  int num_rows() const { return num_rows_; }
  int num_cols() const { return num_cols_; }
  int64_t total() const { return total_; }

  int64_t at(int r, int c) const { return cells_[r * num_cols_ + c]; }
  void Set(int r, int c, int64_t v) { cells_[r * num_cols_ + c] = v; }
  void Add(int r, int c, int64_t v) {
    cells_[r * num_cols_ + c] += v;
  }

  /// Recomputes margins and total from the cells. Call after edits.
  void RebuildMargins();

  /// Margins-first building, for stratified summaries that read the
  /// cells of only some strata: a MarginsOnly table has zero margins and
  /// no cells. AddToMargins adds a count to its row, column and total;
  /// AllocateCells then gives it zero cells for Add.
  static Table2D MarginsOnly(int num_rows, int num_cols);
  void AddToMargins(int r, int c, int64_t v) {
    row_margins_[r] += v;
    col_margins_[c] += v;
    total_ += v;
  }
  void AllocateCells() {
    cells_.assign(static_cast<size_t>(num_rows_) * num_cols_, 0);
  }

  const std::vector<int64_t>& row_margins() const { return row_margins_; }
  const std::vector<int64_t>& col_margins() const { return col_margins_; }
  const std::vector<int64_t>& cells() const { return cells_; }
  std::vector<int64_t>* mutable_cells() { return &cells_; }

  /// Î(row variable ; column variable) of this table's empirical
  /// distribution, clamped at 0.
  double MutualInformation(EntropyEstimator estimator) const;

  /// Pearson X² = Σ (O-E)²/E over cells with E > 0.
  double PearsonStatistic() const;

  /// Entropy of the row (resp. column) margin.
  double RowEntropy(EntropyEstimator estimator) const;
  double ColEntropy(EntropyEstimator estimator) const;

 private:
  int num_rows_ = 0;
  int num_cols_ = 0;
  std::vector<int64_t> cells_;
  std::vector<int64_t> row_margins_;
  std::vector<int64_t> col_margins_;
  int64_t total_ = 0;
};

/// One stratum: the T×Y table within Z = z. Row/col indices are compacted
/// to the values observed anywhere in the view (zero rows/cols within a
/// stratum are kept so margins stay aligned across strata).
struct Stratum {
  uint64_t z_key = 0;
  Table2D table;
};

/// The full stratified summary of (T, Y) given Z over a view.
struct StratifiedTable {
  /// One group of the source summary: its stratum (index into `strata`),
  /// row, column and count.
  struct Cell {
    int stratum = 0;
    int row = 0;
    int col = 0;
    int64_t count = 0;
  };

  std::vector<Stratum> strata;
  int64_t total = 0;
  int num_t_values = 0;  // distinct T codes observed in the view
  int num_y_values = 0;  // distinct Y codes observed in the view
  /// The source groups in their summary order, kept by a build without
  /// cells until FillCells adds them.
  std::vector<Cell> unfilled;

  int NumStrata() const { return static_cast<int>(strata.size()); }

  /// Builds the cells of strata `which` (indices into `strata`) of a
  /// table built without cells, adding the source groups in summary
  /// order — the order a build with cells adds them in.
  void FillCells(const std::vector<int>& which);

  /// Î(T;Y|Z) = Σ_z Pr(z)·Î_z(T;Y).
  double CmiStatistic(EntropyEstimator estimator) const;

  /// Σ_z PearsonX²_z — the classic conditional-independence X² statistic.
  double PearsonStatistic() const;

  /// Degrees of freedom per the paper's formula:
  /// (|Π_T|-1)(|Π_Y|-1)·|Π_Z| with view-level distinct counts.
  int64_t DegreesOfFreedom() const;
};

/// Builds the stratified summary of (t_col, y_col) given z_cols over
/// `view`. With empty z_cols the result has a single stratum.
StatusOr<StratifiedTable> BuildStratified(const TableView& view, int t_col,
                                          int y_col,
                                          const std::vector<int>& z_cols);

/// Builds the stratified summary from an existing count(*) GROUP BY whose
/// codec columns are exactly (z..., t..., y...) in that order — the path
/// CI tests use to reuse CountEngine summaries instead of re-scanning.
/// With `cells` false every stratum gets its margins and total only, and
/// the groups wait in `unfilled` for FillCells: MIT over sampled strata
/// reads the cells of only the strata it draws.
StratifiedTable BuildStratifiedFromCounts(const GroupCounts& counts,
                                          int z_count, int t_count,
                                          int y_count, bool cells = true);

/// Set version: the "row variable" is the compound of t_cols and the
/// "column variable" the compound of y_cols (used by bias detection,
/// where V is a whole covariate set).
StatusOr<StratifiedTable> BuildStratifiedSets(const TableView& view,
                                              const std::vector<int>& t_cols,
                                              const std::vector<int>& y_cols,
                                              const std::vector<int>& z_cols);

}  // namespace hypdb

#endif  // HYPDB_STATS_CONTINGENCY_H_
