// ChunkedTable: the append-friendly storage layer under a dataset.
//
// A registered dataset used to be one monolithic immutable Table; any
// refresh meant re-registering, which bumps the epoch and cold-drops
// every cache, shard, session and discovery entry. Production traffic
// appends, it doesn't reload — and because every HypDB statistic reduces
// to additive count(*) GROUP BY summaries (paper Sec. 6), appended rows
// can *patch* cached summaries instead of invalidating them.
//
// Layout: per column, dictionary codes stored in fixed-capacity row
// chunks, plus one append-only dictionary per column, whose labels every
// snapshot of the table shares. Invariants, in order of importance:
//  * Published rows are immutable: a row's codes are written once,
//    before the watermark passes it, and never change. A full chunk is
//    never written again.
//  * Dictionaries grow append-only: a label's code never changes, so
//    codes written yesterday mean the same thing after any number of
//    appends, and summaries keyed under an older (smaller-cardinality)
//    codec re-key exactly onto a newer one (MergeGroupCounts). A
//    snapshot's Dictionary is a handle on the same label store sized at
//    its watermark (dataframe/column.h), so it keeps seeing exactly its
//    prefix while appends grow the store.
//  * The watermark is the single publication point: Append() writes
//    codes first, then release-stores the new row count. A reader that
//    acquire-loads Watermark() == W may touch any row < W without
//    locking; rows at or past W are writer-private.
//  * Scans read codes where they live: ScanRange() hands each chunk's
//    code span (at its in-chunk offset, or at the in-chunk offsets a
//    Selection holds for it) to the group-by kernel under one codec built
//    from the current dictionary sizes, so kernel morsels never straddle
//    a chunk boundary and per-chunk summaries merge without re-keying.
//    No Table, Column or Dictionary is built. A delta scan [from, to)
//    skips every chunk entirely below `from` — the whole point of
//    incremental ingest.
//
// Writer concurrency: Append() serializes writers on the internal mutex.
// Readers take it only to copy the chunk-pointer list and the dictionary
// sizes or handles, and read the codes below the watermark after it.

#ifndef HYPDB_STORAGE_CHUNKED_TABLE_H_
#define HYPDB_STORAGE_CHUNKED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataframe/predicate.h"
#include "dataframe/table.h"
#include "engine/groupby_kernel.h"
#include "util/statusor.h"

namespace hypdb {

/// Work accounting for one ScanRange call; the chunked count provider
/// folds these into CountEngineStats (chunk_scans / chunks_skipped /
/// rows_scanned).
struct ChunkedScanStats {
  int64_t chunk_scans = 0;
  int64_t chunks_skipped = 0;
  int64_t rows_scanned = 0;
};

class ChunkedTable {
 public:
  /// Default rows per chunk. Small enough that an append batch lands in
  /// O(1) chunks, large enough that a full chunk is a meaningful kernel
  /// scan (matches the kernel's default morsel size).
  static constexpr int64_t kDefaultChunkRows = int64_t{1} << 14;

  /// Builds a chunked table from an existing monolithic table (the CSV /
  /// generator load path): the seed's dictionaries become the table's
  /// append-only dictionaries (shared, not copied) and its rows fill the
  /// first chunks.
  /// `chunk_rows` must be positive.
  static StatusOr<std::shared_ptr<ChunkedTable>> FromTable(
      const TablePtr& seed, int64_t chunk_rows = kDefaultChunkRows);

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

  /// Chunks holding at least one published row.
  int64_t NumChunks() const;
  int64_t chunk_rows() const { return chunk_rows_; }

  int NumColumns() const { return static_cast<int>(names_.size()); }
  const std::vector<std::string>& ColumnNames() const { return names_; }

  /// The rows [0, watermark) as a plain immutable Table, cached per
  /// watermark. Building one copies the codes only: each column's
  /// Dictionary is a handle on the store's own dictionary at its current
  /// size, so no label is copied or re-parsed, and later appends leave
  /// the snapshot's labels, codes and numeric values as they were. The
  /// codes are copied outside the mutex. This bridges the chunked store
  /// to query binding (DatasetRegistry::GetSnapshot and Get, its only
  /// callers in the library); count queries go through ScanRange.
  TablePtr Materialized() const;

  /// Rows picked out of the store, per chunk: the ascending in-chunk
  /// offsets of the chunk's picked rows. A Selection never changes once
  /// built; extending one (Select) shares the lists of the chunks it
  /// does not touch.
  using Selection = std::vector<std::shared_ptr<const std::vector<int64_t>>>;

  /// `selection`, which holds the rows below `from_row` that match
  /// `terms`, plus the rows of [from_row, to_row) that match every term
  /// (`attribute` IN `values`, AND across terms). The list of the chunk
  /// holding `from_row` is copied before it is extended. Label codes come
  /// from the store's dictionaries, so a label first appended at row r
  /// matches from r on, and labels the store never saw match nothing.
  /// NotFound for a term naming a column the schema lacks; `to_row` must
  /// not exceed the watermark.
  StatusOr<Selection> Select(const std::vector<SubpopulationTerm>& terms,
                             Selection selection, int64_t from_row,
                             int64_t to_row) const;

  /// count(*) GROUP BY `cols` over rows [from_row, to_row) — only those
  /// `selection` holds, when given — scanned chunk-at-a-time in place
  /// under a codec with the current dictionary cardinalities:
  /// bit-identical to a cold kernel scan of the same rows of
  /// Materialized(). Chunks entirely below `from_row`, and chunks holding
  /// no selected row in range, are skipped, which is what makes a delta
  /// scan cheap: the cost is O(rows scanned), independent of dictionary
  /// sizes. `to_row` must not exceed the watermark, nor `selection` end
  /// before it; a column index outside the schema is OutOfRange.
  StatusOr<GroupCounts> ScanRange(const std::vector<int>& cols,
                                  int64_t from_row, int64_t to_row,
                                  const GroupByKernelOptions& kernel,
                                  ChunkedScanStats* stats,
                                  const Selection* selection = nullptr) const;

 private:
  // One fixed-capacity run of rows. Codes are preallocated at
  // construction so readers never race a reallocation; which rows are
  // filled is told by the global watermark alone.
  struct Chunk {
    Chunk(int num_cols, int64_t capacity);
    std::vector<std::vector<int32_t>> codes;  // [col][row-in-chunk]
  };

  ChunkedTable(std::vector<std::string> names, int64_t chunk_rows)
      : names_(std::move(names)), chunk_rows_(chunk_rows) {}

  /// InvalidArgument unless 0 <= from_row <= to_row; OutOfRange past the
  /// watermark.
  Status CheckRange(int64_t from_row, int64_t to_row) const;

  const std::vector<std::string> names_;
  const int64_t chunk_rows_;

  // Guards chunks_ (the vector itself; code arrays are published via the
  // watermark), dicts_, and the materialized cache.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::vector<Dictionary> dicts_;

  std::atomic<int64_t> watermark_{0};

  mutable int64_t materialized_watermark_ = -1;
  mutable TablePtr materialized_;
};

using ChunkedTablePtr = std::shared_ptr<ChunkedTable>;

}  // namespace hypdb

#endif  // HYPDB_STORAGE_CHUNKED_TABLE_H_
