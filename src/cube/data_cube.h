// OLAP data cube: pre-computed count(*) GROUP BY for every subset of a
// dimension set (paper Sec. 6, Fig. 6d/8b).
//
// Contingency tables with their marginals are exactly OLAP data cubes
// with a COUNT measure. With a cube available, HypDB answers every
// entropy / support query by lookup instead of scanning the data; the
// cube lattice is computed bottom-up, each marginal from its smallest
// already-computed parent, so the data itself is scanned exactly once.
// Like the PostgreSQL cube operator the paper uses, the dimension count
// is capped (default 12).

#ifndef HYPDB_CUBE_DATA_CUBE_H_
#define HYPDB_CUBE_DATA_CUBE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "dataframe/group_by.h"
#include "dataframe/view.h"
#include "util/statusor.h"

namespace hypdb {

class DataCube {
 public:
  /// Materializes the full cube over `dims` (table column indices).
  /// Fails when |dims| exceeds `max_dims` or the finest cell domain
  /// overflows.
  static StatusOr<DataCube> Build(const TableView& view,
                                  std::vector<int> dims, int max_dims = 12);

  /// Counts grouped by `cols`, which must be a subset of dims().
  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) const;

  /// Exact cell count of the cuboid over `cols` without materializing a
  /// projection, or -1 when `cols` is not a subset of dims(). The
  /// observed-cell source behind adaptive cache admission: every covered
  /// subset's true sparsity is a map lookup here.
  int64_t CellsFor(const std::vector<int>& cols) const;

  const std::vector<int>& dims() const { return dims_; }

  /// Total materialized cells across the lattice (memory proxy).
  int64_t TotalCells() const { return total_cells_; }
  /// Number of group-bys materialized (2^|dims|).
  int NumCuboids() const { return static_cast<int>(cells_.size()); }

 private:
  DataCube() = default;

  std::vector<int> dims_;                  // sorted
  std::map<uint32_t, GroupCounts> cells_;  // mask over dims_ -> counts
  int64_t total_cells_ = 0;
};

}  // namespace hypdb

#endif  // HYPDB_CUBE_DATA_CUBE_H_
