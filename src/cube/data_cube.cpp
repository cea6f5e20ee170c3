#include "cube/data_cube.h"

#include <algorithm>
#include <bit>

namespace hypdb {
namespace {

// Positions (within a parent cuboid's columns) that survive in `mask`,
// where `parent_mask` lists the parent's dims.
std::vector<int> KeepPositions(uint32_t parent_mask, uint32_t mask) {
  std::vector<int> keep;
  int pos = 0;
  for (uint32_t bit = 1; bit <= parent_mask; bit <<= 1) {
    if (parent_mask & bit) {
      if (mask & bit) keep.push_back(pos);
      ++pos;
    }
    if (bit == 0) break;
  }
  return keep;
}

}  // namespace

StatusOr<DataCube> DataCube::Build(const TableView& view,
                                   std::vector<int> dims, int max_dims) {
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  if (static_cast<int>(dims.size()) > max_dims) {
    return Status::InvalidArgument(
        "cube limited to " + std::to_string(max_dims) + " dimensions, got " +
        std::to_string(dims.size()));
  }

  DataCube cube;
  cube.dims_ = dims;
  const int k = static_cast<int>(dims.size());
  const uint32_t full = k == 32 ? ~0u : (1u << k) - 1;

  // One scan for the finest cuboid.
  HYPDB_ASSIGN_OR_RETURN(GroupCounts finest, CountBy(view, dims));
  cube.total_cells_ += finest.NumGroups();
  cube.cells_.emplace(full, std::move(finest));

  // Remaining cuboids by decreasing arity; each marginalizes its parent
  // (mask + lowest missing bit), which is already materialized.
  std::vector<uint32_t> masks;
  for (uint32_t m = 0; m < full; ++m) masks.push_back(m);
  std::sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
    int pa = std::popcount(a);
    int pb = std::popcount(b);
    return pa != pb ? pa > pb : a < b;
  });
  for (uint32_t mask : masks) {
    uint32_t missing = full & ~mask;
    uint32_t parent = mask | (missing & (~missing + 1));  // add lowest bit
    const GroupCounts& parent_counts = cube.cells_.at(parent);
    GroupCounts marginal =
        MarginalizeOnto(parent_counts, KeepPositions(parent, mask));
    cube.total_cells_ += marginal.NumGroups();
    cube.cells_.emplace(mask, std::move(marginal));
  }
  return cube;
}

StatusOr<GroupCounts> DataCube::Counts(const std::vector<int>& cols) const {
  uint32_t mask = 0;
  for (int c : cols) {
    auto it = std::lower_bound(dims_.begin(), dims_.end(), c);
    if (it == dims_.end() || *it != c) {
      return Status::NotFound("column " + std::to_string(c) +
                              " not in cube dimensions");
    }
    mask |= 1u << (it - dims_.begin());
  }
  // The cuboid is stored in sorted-dims order; honor the CountEngine
  // contract that the result codec follows the requested order.
  return ProjectOnto(cells_.at(mask), cols);
}

int64_t DataCube::CellsFor(const std::vector<int>& cols) const {
  uint32_t mask = 0;
  for (int c : cols) {
    auto it = std::lower_bound(dims_.begin(), dims_.end(), c);
    if (it == dims_.end() || *it != c) return -1;
    mask |= 1u << (it - dims_.begin());
  }
  return cells_.at(mask).NumGroups();
}

}  // namespace hypdb
