// ChunkedCountProvider: the ground-truth CountEngine over a ChunkedTable.
//
// Where ViewCountProvider scans one immutable view, this provider scans
// the chunked store chunk-at-a-time in place (kernel morsels never
// straddle a chunk), below a watermark fixed when it is built:
// PopulationVersion() is that watermark, and CountsDelta() scans only the
// chunks of a range below it. A CachingCountEngine seeded from an older
// generation's entries patches them instead of re-scanning — the
// delta-maintained contingency tables of Sec. 6 carried over to a
// growing dataset.
//
// A provider counts the rows that match its WHERE terms, conjunctive
// `attr IN {labels}` (the service's canonical subpopulation signature),
// or every row when it has none (the full table). It holds the matching
// rows as a ChunkedTable::Selection fixed when it is built, so appends
// never move what it answers. Successor(w) builds the same population at
// a later watermark: it shares this one's selection of the chunks it does
// not touch and matches only the rows appended since. NumRows() is the
// matching-row count, not the version, which is why caching layers track
// versions explicitly.

#ifndef HYPDB_STORAGE_CHUNKED_COUNT_PROVIDER_H_
#define HYPDB_STORAGE_CHUNKED_COUNT_PROVIDER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "engine/count_engine.h"
#include "storage/chunked_table.h"

namespace hypdb {

class ChunkedCountProvider : public CountEngine {
 public:
  /// Counts every row [0, watermark) of `table` (at most its Watermark()).
  ChunkedCountProvider(std::shared_ptr<const ChunkedTable> table,
                       int64_t watermark, GroupByKernelOptions kernel = {})
      : table_(std::move(table)),
        kernel_(kernel),
        watermark_(watermark),
        num_rows_(watermark) {}

  /// The rows of `table` below `watermark` that match every term; with no
  /// terms, every row. NotFound when a term names a column the schema
  /// lacks, OutOfRange when `watermark` is negative or past
  /// table->Watermark(). Labels need not exist yet: they may arrive with
  /// a later append.
  static StatusOr<std::shared_ptr<ChunkedCountProvider>> Create(
      std::shared_ptr<const ChunkedTable> table,
      std::vector<SubpopulationTerm> terms, int64_t watermark,
      GroupByKernelOptions kernel = {}) {
    // The population at watermark 0 has no rows; its successor matches
    // the terms over every row below `watermark`.
    ChunkedCountProvider empty(std::move(table), 0, kernel);
    empty.terms_ = std::move(terms);
    return empty.Successor(watermark);
  }

  /// The same population at `watermark`: this provider's rows plus the
  /// matching rows appended since. OutOfRange below this provider's
  /// watermark or past the table's.
  StatusOr<std::shared_ptr<ChunkedCountProvider>> Successor(
      int64_t watermark) const {
    if (watermark < watermark_ || watermark > table_->Watermark()) {
      return Status::OutOfRange(
          "watermark below the population's or past the table's");
    }
    auto next =
        std::make_shared<ChunkedCountProvider>(table_, watermark, kernel_);
    next->terms_ = terms_;
    if (!terms_.empty()) {
      HYPDB_ASSIGN_OR_RETURN(
          next->selection_,
          table_->Select(terms_, selection_, watermark_, watermark));
      next->num_rows_ = 0;
      for (const auto& picked : next->selection_) {
        if (picked != nullptr) {
          next->num_rows_ += static_cast<int64_t>(picked->size());
        }
      }
    }
    return next;
  }

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    return CountRange(cols, 0, watermark_);
  }

  /// Matching rows below the watermark.
  int64_t NumRows() const override { return num_rows_; }
  int64_t PopulationVersion() const override { return watermark_; }

  /// The matching rows in [from_version, to_version); OutOfRange past the
  /// watermark.
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    if (to_version > watermark_) {
      return Status::OutOfRange("delta range exceeds the provider's watermark");
    }
    return CountRange(cols, from_version, to_version);
  }

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = {};
  }

 private:
  StatusOr<GroupCounts> CountRange(const std::vector<int>& cols,
                                   int64_t from_row, int64_t to_row) {
    ChunkedScanStats scan;
    StatusOr<GroupCounts> counts =
        table_->ScanRange(cols, from_row, to_row, kernel_, &scan,
                          terms_.empty() ? nullptr : &selection_);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    if (counts.ok()) {
      // One logical data pass over the requested range, however many
      // chunks it decomposed into (keeps `scans` comparable with
      // ViewCountProvider); the chunk-level detail is its own family.
      ++stats_.scans;
      stats_.chunk_scans += scan.chunk_scans;
      stats_.chunks_skipped += scan.chunks_skipped;
      stats_.rows_scanned += scan.rows_scanned;
    }
    return counts;
  }

  std::shared_ptr<const ChunkedTable> table_;
  GroupByKernelOptions kernel_;
  std::vector<SubpopulationTerm> terms_;
  int64_t watermark_ = 0;
  /// The rows below watermark_ that match terms_ (unused without terms),
  /// and how many there are.
  ChunkedTable::Selection selection_;
  int64_t num_rows_ = 0;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_STORAGE_CHUNKED_COUNT_PROVIDER_H_
