// OLAP data cube: pre-computed count(*) GROUP BY for every subset of a
// dimension set (paper Sec. 6, Fig. 6d/8b).
//
// Contingency tables with their marginals are exactly OLAP data cubes
// with a COUNT measure. With a cube available, HypDB answers every
// entropy / support query by lookup instead of scanning the data; the
// cube lattice is computed bottom-up, each marginal from its smallest
// already-computed parent, so the data itself is scanned exactly once.
// Like the PostgreSQL cube operator the paper uses, the dimension count
// is capped (default 12). CubeCountProvider puts a cube in front of a
// count engine.

#ifndef HYPDB_CUBE_DATA_CUBE_H_
#define HYPDB_CUBE_DATA_CUBE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "dataframe/group_by.h"
#include "dataframe/view.h"
#include "engine/count_engine.h"
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

/// CountEngine view of a cube built at population version `watermark` of
/// `base`. A query over a subset of the cube's dimensions answers from
/// the lattice without a scan while the base is still at `watermark`;
/// anything else (uncovered or repeated columns, or any query once an
/// append moved the base past `watermark`) delegates to the base
/// untouched, so a stale cube is silently inert and answers stay exact.
/// Fig. 6(d)/8(b) build the cube over every attribute up front, so every
/// query is a cube hit and the base never scans.
///
/// Thread safety: the cube is immutable and the counters take a mutex,
/// so concurrent calls are safe whenever the base's are.
class CubeCountProvider : public CountEngine {
 public:
  CubeCountProvider(std::shared_ptr<CountEngine> base,
                    std::shared_ptr<const DataCube> cube, int64_t watermark)
      : base_(std::move(base)), cube_(std::move(cube)),
        watermark_(watermark) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  int64_t NumRows() const override { return base_->NumRows(); }

  /// This adapter's counters (cube_hits, and fallback_calls for
  /// delegated queries) plus the base engine's.
  CountEngineStats stats() const override;
  void ResetStats() override;

 private:
  std::shared_ptr<CountEngine> base_;
  std::shared_ptr<const DataCube> cube_;
  const int64_t watermark_;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_CUBE_DATA_CUBE_H_
