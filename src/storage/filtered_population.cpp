#include "storage/filtered_population.h"

#include <algorithm>
#include <unordered_set>

namespace hypdb {

StatusOr<std::shared_ptr<FilteredPopulationProvider>>
FilteredPopulationProvider::Create(std::shared_ptr<const ChunkedTable> table,
                                   std::vector<Term> terms, int64_t watermark,
                                   GroupByKernelOptions kernel) {
  if (!table) return Status::InvalidArgument("null chunked table");
  // The population at watermark 0, which has no rows; its successor
  // evaluates the terms over every row below `watermark`.
  std::shared_ptr<FilteredPopulationProvider> empty(
      new FilteredPopulationProvider());
  const std::vector<std::string>& names = table->ColumnNames();
  for (Term& t : terms) {
    auto it = std::find(names.begin(), names.end(), t.attribute);
    if (it == names.end()) {
      return Status::NotFound("unknown column in subpopulation term: " +
                              t.attribute);
    }
    empty->terms_.emplace_back(static_cast<int>(it - names.begin()),
                               std::move(t.labels));
  }
  empty->table_ = std::move(table);
  empty->kernel_ = kernel;
  return empty->Successor(watermark);
}

StatusOr<std::shared_ptr<FilteredPopulationProvider>>
FilteredPopulationProvider::Successor(int64_t watermark) const {
  if (watermark < watermark_ || watermark > table_->Watermark()) {
    return Status::OutOfRange("watermark below the population's or past "
                              "the table's");
  }
  std::shared_ptr<FilteredPopulationProvider> out(
      new FilteredPopulationProvider());
  out->table_ = table_;
  out->terms_ = terms_;
  out->kernel_ = kernel_;
  out->watermark_ = watermark;
  out->rows_ = table_->Materialized();
  // Label codes come from the snapshot: append-only dictionaries keep old
  // codes stable, and labels that arrived since match from now on.
  std::vector<std::pair<int, std::unordered_set<int32_t>>> codes;
  for (const auto& [col, labels] : terms_) {
    std::unordered_set<int32_t> set;
    for (const std::string& label : labels) {
      const int32_t code = out->rows_->column(col).dict().Find(label);
      if (code >= 0) set.insert(code);
    }
    codes.emplace_back(col, std::move(set));
  }
  std::vector<int64_t> ids(*ids_);
  for (int64_t row = watermark_; row < watermark; ++row) {
    bool match = true;
    for (const auto& [col, set] : codes) {
      if (set.count(out->rows_->column(col).CodeAt(row)) == 0) {
        match = false;
        break;
      }
    }
    if (match) ids.push_back(row);
  }
  out->ids_ = std::make_shared<const std::vector<int64_t>>(std::move(ids));
  return out;
}

void FilteredPopulationProvider::CountScanned(
    const StatusOr<GroupCounts>& counts, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  if (counts.ok()) {
    ++stats_.scans;
    stats_.rows_scanned += rows;
  }
}

StatusOr<GroupCounts> FilteredPopulationProvider::Counts(
    const std::vector<int>& cols) {
  StatusOr<GroupCounts> counts =
      ScanCounts(TableView(rows_, ids_), cols, kernel_);
  CountScanned(counts, static_cast<int64_t>(ids_->size()));
  return counts;
}

StatusOr<GroupCounts> FilteredPopulationProvider::CountsDelta(
    const std::vector<int>& cols, int64_t from_version, int64_t to_version) {
  if (from_version < 0 || to_version < from_version) {
    return Status::InvalidArgument("invalid delta range");
  }
  if (to_version > watermark_) {
    return Status::OutOfRange("delta range exceeds the provider's watermark");
  }
  // Ids ascend in physical-row order, so the delta's rows are a
  // contiguous slice found by binary search.
  auto lo = std::lower_bound(ids_->begin(), ids_->end(), from_version);
  auto hi = std::lower_bound(lo, ids_->end(), to_version);
  auto delta_ids = std::make_shared<const std::vector<int64_t>>(lo, hi);
  const int64_t n = static_cast<int64_t>(delta_ids->size());
  StatusOr<GroupCounts> counts =
      ScanCounts(TableView(rows_, std::move(delta_ids)), cols, kernel_);
  CountScanned(counts, n);
  return counts;
}

}  // namespace hypdb
