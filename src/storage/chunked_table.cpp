#include "storage/chunked_table.h"

#include <algorithm>
#include <utility>

#include "dataframe/group_by.h"
#include "dataframe/tuple_codec.h"
#include "util/trace.h"

namespace hypdb {

ChunkedTable::Chunk::Chunk(int num_cols, int64_t capacity)
    : codes(num_cols, std::vector<int32_t>(capacity)) {}

StatusOr<std::shared_ptr<ChunkedTable>> ChunkedTable::FromTable(
    const TablePtr& seed, int64_t chunk_rows) {
  if (!seed) return Status::InvalidArgument("null seed table");
  if (chunk_rows <= 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  std::vector<std::string> names = seed->ColumnNames();
  auto table = std::shared_ptr<ChunkedTable>(
      new ChunkedTable(std::move(names), chunk_rows));
  const int num_cols = seed->NumColumns();
  const int64_t num_rows = seed->NumRows();
  table->dicts_.reserve(num_cols);
  for (int c = 0; c < num_cols; ++c) {
    table->dicts_.push_back(seed->column(c).dict());
  }
  for (int64_t begin = 0; begin < num_rows; begin += chunk_rows) {
    const int64_t n = std::min(chunk_rows, num_rows - begin);
    auto chunk = std::make_shared<Chunk>(num_cols, chunk_rows);
    for (int c = 0; c < num_cols; ++c) {
      const std::vector<int32_t>& src = seed->column(c).codes();
      std::copy(src.begin() + begin, src.begin() + begin + n,
                chunk->codes[c].begin());
    }
    table->chunks_.push_back(std::move(chunk));
  }
  // The seed *is* the materialization of the initial watermark.
  table->materialized_watermark_ = num_rows;
  table->materialized_ = seed;
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
  std::lock_guard<std::mutex> lock(mu_);
  int64_t w = watermark_.load(std::memory_order_relaxed);
  for (const auto& row : rows) {
    const int64_t offset = w % chunk_rows_;
    const size_t chunk_index = static_cast<size_t>(w / chunk_rows_);
    if (chunk_index == chunks_.size()) {
      chunks_.push_back(
          std::make_shared<Chunk>(static_cast<int>(num_cols), chunk_rows_));
    }
    Chunk& chunk = *chunks_[chunk_index];
    for (size_t c = 0; c < num_cols; ++c) {
      chunk.codes[c][offset] = dicts_[c].GetOrAdd(row[c]);
    }
    ++w;
  }
  span.set_arg1(static_cast<uint64_t>(w));
  watermark_.store(w, std::memory_order_release);
  return w;
}

int64_t ChunkedTable::NumChunks() const {
  return (Watermark() + chunk_rows_ - 1) / chunk_rows_;
}

TablePtr ChunkedTable::Materialized() const {
  // The codes below the watermark never change: only the chunk pointers
  // and the dictionary handles are taken under the mutex.
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t w = watermark_.load(std::memory_order_relaxed);
  if (materialized_watermark_ == w && materialized_) return materialized_;
  const std::vector<std::shared_ptr<Chunk>> chunks(
      chunks_.begin(), chunks_.begin() + (w + chunk_rows_ - 1) / chunk_rows_);
  std::vector<Dictionary> dicts = dicts_;
  lock.unlock();
  Table out;
  for (size_t c = 0; c < names_.size(); ++c) {
    std::vector<int32_t> codes(static_cast<size_t>(w));
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      const int64_t begin = static_cast<int64_t>(ci) * chunk_rows_;
      const int64_t n = std::min(chunk_rows_, w - begin);
      std::copy(chunks[ci]->codes[c].begin(),
                chunks[ci]->codes[c].begin() + n, codes.begin() + begin);
    }
    Status s =
        out.AddColumn(Column(names_[c], std::move(dicts[c]), std::move(codes)));
    (void)s;  // row counts agree by construction
  }
  TablePtr table = MakeTable(std::move(out));
  lock.lock();
  // Two readers may copy concurrently; the cache keeps the newest copy.
  if (w > materialized_watermark_) {
    materialized_watermark_ = w;
    materialized_ = table;
  }
  return table;
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

StatusOr<ChunkedTable::Selection> ChunkedTable::Select(
    const std::vector<SubpopulationTerm>& terms, Selection selection,
    int64_t from_row, int64_t to_row) const {
  // Each term as its column and which codes of it match.
  std::vector<std::pair<int, std::vector<bool>>> masks;
  for (const SubpopulationTerm& term : terms) {
    auto it = std::find(names_.begin(), names_.end(), term.attribute);
    if (it == names_.end()) {
      return Status::NotFound("unknown column in subpopulation term: " +
                              term.attribute);
    }
    masks.emplace_back(static_cast<int>(it - names_.begin()),
                       std::vector<bool>());
  }
  HYPDB_RETURN_IF_ERROR(CheckRange(from_row, to_row));
  const int64_t first = from_row / chunk_rows_;
  const int64_t last = (to_row + chunk_rows_ - 1) / chunk_rows_;
  std::vector<std::shared_ptr<const Chunk>> chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    chunks.assign(chunks_.begin() + first, chunks_.begin() + last);
    // Every code below the watermark is below its dictionary's size now.
    for (size_t t = 0; t < terms.size(); ++t) {
      const Dictionary& dict = dicts_[masks[t].first];
      masks[t].second.assign(dict.size(), false);
      for (const std::string& label : terms[t].values) {
        const int32_t code = dict.Find(label);
        if (code >= 0) masks[t].second[code] = true;
      }
    }
  }
  if (static_cast<int64_t>(selection.size()) < last) selection.resize(last);
  for (int64_t ci = first; ci < last; ++ci) {
    const int64_t begin = ci * chunk_rows_;
    const int64_t lo = std::max(from_row, begin) - begin;
    const int64_t hi = std::min(to_row, begin + chunk_rows_) - begin;
    if (hi <= lo) continue;
    const Chunk& chunk = *chunks[ci - first];
    std::vector<int64_t> offsets;
    if (selection[ci] != nullptr) offsets = *selection[ci];
    for (int64_t r = lo; r < hi; ++r) {
      bool match = true;
      for (const auto& [col, mask] : masks) {
        if (!mask[chunk.codes[col][r]]) {
          match = false;
          break;
        }
      }
      if (match) offsets.push_back(r);
    }
    selection[ci] =
        std::make_shared<const std::vector<int64_t>>(std::move(offsets));
  }
  return selection;
}

StatusOr<GroupCounts> ChunkedTable::ScanRange(
    const std::vector<int>& cols, int64_t from_row, int64_t to_row,
    const GroupByKernelOptions& kernel, ChunkedScanStats* stats,
    const Selection* selection) const {
  HYPDB_RETURN_IF_ERROR(CheckRange(from_row, to_row));
  // Chunks entirely below `from_row` hold the rows delta maintenance
  // never re-reads; only the chunks overlapping [from_row, to_row) are
  // pinned. Rows below the watermark are immutable, so their codes are
  // read in place once the lock is released.
  const int64_t first = from_row / chunk_rows_;
  const int64_t last = (to_row + chunk_rows_ - 1) / chunk_rows_;
  if (selection != nullptr && static_cast<int64_t>(selection->size()) < last) {
    return Status::InvalidArgument("selection ends before the scan range");
  }
  std::vector<std::shared_ptr<const Chunk>> chunks;
  std::vector<int32_t> cardinalities;
  {
    std::lock_guard<std::mutex> lock(mu_);
    chunks.assign(chunks_.begin() + first, chunks_.begin() + last);
    cardinalities.reserve(dicts_.size());
    for (const Dictionary& dict : dicts_) cardinalities.push_back(dict.size());
  }
  // The merge target: current cardinalities, exactly what a cold kernel
  // scan of Materialized() would key under. Every chunk is scanned under
  // it, so per-chunk summaries merge without re-keying. Create also
  // rejects a column index outside the schema — the only guard before
  // the code arrays are indexed by column below.
  GroupCounts result;
  HYPDB_ASSIGN_OR_RETURN(result.codec, TupleCodec::Create(cardinalities, cols));
  if (stats) stats->chunks_skipped += first;
  bool scanned = false;
  std::vector<const int32_t*> codes(cols.size());
  for (int64_t ci = first; ci < last; ++ci) {
    const int64_t begin = ci * chunk_rows_;
    const int64_t lo = std::max(from_row, begin) - begin;
    const int64_t hi = std::min(to_row, begin + chunk_rows_) - begin;
    if (hi <= lo) continue;
    // The chunk's rows [lo, hi) as one span, or, under a selection, the
    // selected offsets among them, read from the chunk's row 0.
    int64_t offset = lo;
    int64_t n = hi - lo;
    const int64_t* ids = nullptr;
    if (selection != nullptr) {
      const std::vector<int64_t>* picked = (*selection)[ci].get();
      offset = 0;
      n = 0;
      if (picked != nullptr) {
        auto a = std::lower_bound(picked->begin(), picked->end(), lo);
        ids = picked->data() + (a - picked->begin());
        n = std::lower_bound(a, picked->end(), hi) - a;
      }
      if (n == 0) {
        if (stats) ++stats->chunks_skipped;
        continue;
      }
    }
    TraceSpanScope span(TraceEventKind::kChunkScan, 1,
                        static_cast<uint64_t>(ci), static_cast<uint64_t>(n));
    const Chunk& chunk = *chunks[ci - first];
    for (size_t j = 0; j < cols.size(); ++j) {
      codes[j] = chunk.codes[cols[j]].data() + offset;
    }
    GroupCounts chunk_counts =
        ScanCodeSpans(codes, ids, n, result.codec, kernel);
    result = scanned ? MergeGroupCounts(result, chunk_counts, result.codec)
                     : std::move(chunk_counts);
    scanned = true;
    if (stats) {
      ++stats->chunk_scans;
      stats->rows_scanned += n;
    }
  }
  return result;
}

}  // namespace hypdb
