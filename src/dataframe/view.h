// TableView: a zero-copy row subset of a Table.
//
// OLAP contexts (WHERE clauses and group-by cells) are materialized as
// views: the shared table plus a vector of selected row indices. All
// statistics in HypDB run on views, so detecting/explaining/resolving bias
// never copies data (the paper's population-heterogeneity requirement —
// the causal analysis must run on exactly the queried subpopulation).

#ifndef HYPDB_DATAFRAME_VIEW_H_
#define HYPDB_DATAFRAME_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataframe/predicate.h"
#include "dataframe/table.h"

namespace hypdb {

/// A (table, row-subset) pair. When `rows()` is null the view spans all
/// rows. Copying a view is O(1).
class TableView {
 public:
  TableView() = default;
  explicit TableView(TablePtr table) : table_(std::move(table)) {}
  TableView(TablePtr table, std::shared_ptr<const std::vector<int64_t>> rows)
      : table_(std::move(table)), rows_(std::move(rows)) {}

  const Table& table() const { return *table_; }
  const TablePtr& table_ptr() const { return table_; }

  bool valid() const { return table_ != nullptr; }

  int64_t NumRows() const {
    if (!table_) return 0;
    return rows_ ? static_cast<int64_t>(rows_->size()) : table_->NumRows();
  }

  /// Physical row index of the i-th row of this view.
  int64_t RowId(int64_t i) const { return rows_ ? (*rows_)[i] : i; }

  /// The explicit row-id list, or null when the view spans all rows
  /// (lets scan kernels read ids through a raw pointer).
  const std::vector<int64_t>* row_ids() const { return rows_.get(); }

  /// Code of column `col` at view row `i`.
  int32_t CodeAt(int64_t i, int col) const {
    return table_->column(col).CodeAt(RowId(i));
  }

  /// Rows matching `pred` within this view.
  TableView Filter(const Predicate& pred) const;

  /// A view over an explicit list of *physical* row ids.
  TableView WithRows(std::vector<int64_t> rows) const {
    return TableView(table_,
                     std::make_shared<const std::vector<int64_t>>(
                         std::move(rows)));
  }

 private:
  TablePtr table_;
  std::shared_ptr<const std::vector<int64_t>> rows_;  // null = all rows
};

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_VIEW_H_
