#include "storage/chunked_table.h"

#include <algorithm>
#include <utility>

#include "dataframe/tuple_codec.h"
#include "util/trace.h"

namespace hypdb {

StatusOr<std::shared_ptr<ChunkedTable>> ChunkedTable::FromTable(
    const TablePtr& seed) {
  if (!seed) return Status::InvalidArgument("null seed table");
  auto table =
      std::shared_ptr<ChunkedTable>(new ChunkedTable(seed->ColumnNames()));
  const int64_t num_rows = seed->NumRows();
  // Headroom, so the first appends after registration copy nothing.
  table->capacity_ = std::max<int64_t>(2 * num_rows, 16);
  for (int c = 0; c < seed->NumColumns(); ++c) {
    // new[] without () leaves the unused tail unwritten (and unpaged).
    std::shared_ptr<int32_t[]> codes(new int32_t[table->capacity_]);
    const std::span<const int32_t> src = seed->column(c).codes();
    std::copy(src.begin(), src.end(), codes.get());
    table->codes_.push_back(std::move(codes));
    table->dicts_.push_back(seed->column(c).dict());
  }
  table->watermark_.store(num_rows, std::memory_order_release);
  return table;
}

StatusOr<int64_t> ChunkedTable::Append(
    const std::vector<std::vector<std::string>>& rows) {
  const size_t num_cols = names_.size();
  for (const auto& row : rows) {
    if (row.size() != num_cols) {
      return Status::InvalidArgument(
          "append row has " + std::to_string(row.size()) + " values, schema has " +
          std::to_string(num_cols) + " columns");
    }
  }
  if (rows.empty()) return Watermark();
  TraceSpanScope span(TraceEventKind::kIngestAppend, 1,
                      static_cast<uint64_t>(rows.size()));
  std::lock_guard<std::mutex> append(append_mu_);
  const int64_t w = watermark_.load(std::memory_order_relaxed);
  const int64_t end = w + static_cast<int64_t>(rows.size());
  // A full store grows: twice the capacity, the published prefix copied
  // without the readers' lock (those rows never change, and only this
  // writer swaps codes_). Destroyed after the lock below is released.
  std::vector<std::shared_ptr<int32_t[]>> grown;
  if (end > capacity_) {
    capacity_ = std::max(2 * capacity_, end);
    for (const std::shared_ptr<int32_t[]>& codes : codes_) {
      std::shared_ptr<int32_t[]> next(new int32_t[capacity_]);
      std::copy(codes.get(), codes.get() + w, next.get());
      grown.push_back(std::move(next));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!grown.empty()) codes_.swap(grown);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      codes_[c][w + static_cast<int64_t>(r)] = dicts_[c].GetOrAdd(rows[r][c]);
    }
  }
  span.set_arg1(static_cast<uint64_t>(end));
  watermark_.store(end, std::memory_order_release);
  return end;
}

TablePtr ChunkedTable::Materialized() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Under the lock the watermark, the arrays and the dictionaries agree.
  const int64_t w = watermark_.load(std::memory_order_relaxed);
  if (materialized_ != nullptr && materialized_->NumRows() == w) {
    return materialized_;
  }
  Table out;
  for (size_t c = 0; c < names_.size(); ++c) {
    Status s = out.AddColumn(Column(names_[c], dicts_[c], codes_[c], w));
    (void)s;  // row counts agree by construction
  }
  materialized_ = MakeTable(std::move(out));
  return materialized_;
}

Status ChunkedTable::CheckRange(int64_t from_row, int64_t to_row) const {
  if (from_row < 0 || to_row < from_row) {
    return Status::InvalidArgument("invalid scan range");
  }
  if (to_row > Watermark()) {
    return Status::OutOfRange("scan range exceeds the published watermark");
  }
  return Status::Ok();
}

StatusOr<GroupCounts> ChunkedTable::ScanRange(
    const std::vector<int>& cols, int64_t from_row, int64_t to_row,
    const GroupByKernelOptions& kernel, ChunkedScanStats* stats) const {
  // The watermark is read (in CheckRange) before the arrays, so whichever
  // arrays the lock hands out hold every row below `to_row`; the handles
  // keep them alive if a growth swaps them meanwhile.
  HYPDB_RETURN_IF_ERROR(CheckRange(from_row, to_row));
  std::vector<std::shared_ptr<int32_t[]>> arrays;
  std::vector<int32_t> cardinalities;
  {
    std::lock_guard<std::mutex> lock(mu_);
    arrays = codes_;
    cardinalities.reserve(dicts_.size());
    for (const Dictionary& dict : dicts_) cardinalities.push_back(dict.size());
  }
  // Create also rejects a column index outside the schema — the only
  // guard before the arrays are indexed by column below.
  HYPDB_ASSIGN_OR_RETURN(TupleCodec codec,
                         TupleCodec::Create(cardinalities, cols));
  std::vector<const int32_t*> codes;
  codes.reserve(cols.size());
  for (int c : cols) codes.push_back(arrays[c].get() + from_row);
  if (stats) stats->rows_scanned += to_row - from_row;
  return ScanCodeSpans(codes, nullptr, to_row - from_row, codec, kernel);
}

}  // namespace hypdb
