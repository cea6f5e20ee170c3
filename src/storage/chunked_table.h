// ChunkedTable: the append-friendly storage layer under a dataset.
//
// A registered dataset used to be one monolithic immutable Table; any
// refresh meant re-registering, which bumps the epoch and cold-drops
// every cache, shard, session and discovery entry. Production traffic
// appends, it doesn't reload — and because every HypDB statistic reduces
// to additive count(*) GROUP BY summaries (paper Sec. 6), appended rows
// can *patch* cached summaries instead of invalidating them.
//
// Layout: per column, one append-only array of dictionary codes with
// spare capacity, plus one append-only dictionary, whose labels every
// snapshot of the table shares. The class keeps its name though it has
// no chunks, and so do DatasetRegistry::Store(), Watermark(),
// ChunkedScanStats and the five-argument ScanRange, because the
// repository benchmark spells them (perfbench/src/wire.cpp). Invariants,
// in order of importance:
//  * Published rows are immutable: a row's codes are written once,
//    before the watermark passes it, and never change.
//  * Every code exists once. A snapshot (Materialized) is a Table whose
//    columns are handles on the store's own arrays at the watermark
//    (dataframe/column.h), so taking one copies no code.
//  * Dictionaries grow append-only: a label's code never changes, so
//    codes written yesterday mean the same thing after any number of
//    appends, and summaries keyed under an older (smaller-cardinality)
//    codec re-key exactly onto a newer one (MergeGroupCounts). A
//    snapshot's Dictionary is a handle on the same label store sized at
//    its watermark, so it keeps seeing exactly its prefix.
//  * The watermark is the single publication point: Append() writes
//    codes past it first, then release-stores the new row count. A
//    reader that acquire-loads Watermark() == W may read any row < W
//    of any array it takes afterwards; rows at or past W are
//    writer-private.
//  * Growth never blocks a reader: when an array is full, the appender
//    allocates one of twice the capacity and copies the published
//    prefix outside the readers' lock, then swaps the arrays under it
//    before it publishes the watermark. Snapshots taken before keep the
//    old arrays, which still hold their rows. FromTable leaves headroom
//    (twice the seed's rows), so appends after registration copy
//    nothing until the table doubles.
//
// Writer concurrency: Append() serializes writers on its own mutex and
// takes the readers' lock only to swap grown arrays in, encode its batch
// and publish it. Readers take that lock only to copy array handles and
// dictionary handles or sizes, and read the codes below the watermark
// after it.

#ifndef HYPDB_STORAGE_CHUNKED_TABLE_H_
#define HYPDB_STORAGE_CHUNKED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataframe/table.h"
#include "engine/groupby_kernel.h"
#include "util/statusor.h"

namespace hypdb {

/// Work accounting for one ScanRange call.
struct ChunkedScanStats {
  int64_t rows_scanned = 0;
};

class ChunkedTable {
 public:
  /// Builds the store from an existing monolithic table (the CSV /
  /// generator load path): the seed's dictionaries become the store's
  /// append-only dictionaries (shared, not copied), and its codes are
  /// copied once into arrays with room for as many rows again. The seed
  /// is not kept.
  static StatusOr<std::shared_ptr<ChunkedTable>> FromTable(
      const TablePtr& seed);

  /// Appends rows and returns the watermark that publishes them. Each
  /// row carries one label per column in schema order; new labels extend
  /// the dictionaries append-only. Rows become visible atomically: a
  /// reader sees either the pre-append or the post-append watermark,
  /// never a partial batch. Empty batches are valid no-ops. Errors (wrong
  /// arity) leave the table unchanged.
  StatusOr<int64_t> Append(const std::vector<std::vector<std::string>>& rows);

  /// Published row count — the global watermark (acquire; pairs with
  /// Append's release store, so rows below it are safe to read lock-free).
  int64_t Watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  int64_t NumRows() const { return Watermark(); }

  int NumColumns() const { return static_cast<int>(names_.size()); }

  /// The rows [0, watermark) as a plain immutable Table, cached per
  /// watermark: each column a handle on the store's code array and its
  /// dictionary at the watermark, built in O(columns) with no code or
  /// label copied. Later appends leave the snapshot's labels, codes and
  /// numeric values as they were. This bridges the store to query
  /// binding and to the registry's shards (DatasetRegistry::GetSnapshot
  /// and Get); ScanRange counts the store in place.
  TablePtr Materialized() const;

  /// count(*) GROUP BY `cols` over rows [from_row, to_row), one kernel
  /// call over the code spans in place under a codec with the current
  /// dictionary cardinalities: bit-identical to a cold kernel scan of the
  /// same rows of Materialized(). `to_row` must not exceed the
  /// watermark; a column index outside the schema is OutOfRange.
  StatusOr<GroupCounts> ScanRange(const std::vector<int>& cols,
                                  int64_t from_row, int64_t to_row,
                                  const GroupByKernelOptions& kernel,
                                  ChunkedScanStats* stats) const;

 private:
  explicit ChunkedTable(std::vector<std::string> names)
      : names_(std::move(names)) {}

  /// InvalidArgument unless 0 <= from_row <= to_row; OutOfRange past the
  /// watermark.
  Status CheckRange(int64_t from_row, int64_t to_row) const;

  const std::vector<std::string> names_;

  // Serializes writers; held across a growth copy, which no reader
  // waits for. Guards capacity_.
  std::mutex append_mu_;
  int64_t capacity_ = 0;

  // The readers' lock: guards codes_ (the handles; codes below the
  // watermark are published by it), dicts_ and the snapshot cache.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<int32_t[]>> codes_;  // [col], capacity_ each
  std::vector<Dictionary> dicts_;
  mutable TablePtr materialized_;

  std::atomic<int64_t> watermark_{0};
};

using ChunkedTablePtr = std::shared_ptr<ChunkedTable>;

}  // namespace hypdb

#endif  // HYPDB_STORAGE_CHUNKED_TABLE_H_
