// ChunkedCountProvider: the ground-truth CountEngine over a ChunkedTable.
//
// Where ViewCountProvider scans one immutable view, this provider scans
// the chunked store chunk-at-a-time (kernel morsels never straddle a
// chunk), below a watermark fixed when it is built: PopulationVersion()
// is that watermark, and CountsDelta() scans only the chunks of a range
// below it. A CachingCountEngine seeded from an older generation's
// entries patches them instead of re-scanning — the delta-maintained
// contingency tables of Sec. 6 carried over to a growing dataset.

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
  /// Counts the rows [0, watermark) of `table` (at most its Watermark()).
  ChunkedCountProvider(std::shared_ptr<const ChunkedTable> table,
                       int64_t watermark, GroupByKernelOptions kernel = {})
      : table_(std::move(table)), watermark_(watermark), kernel_(kernel) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    return CountRange(cols, 0, watermark_);
  }

  int64_t NumRows() const override { return watermark_; }
  int64_t PopulationVersion() const override { return watermark_; }

  /// The rows [from_version, to_version); OutOfRange past the watermark.
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
        table_->ScanRange(cols, from_row, to_row, kernel_, &scan);
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
  const int64_t watermark_;
  GroupByKernelOptions kernel_;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_STORAGE_CHUNKED_COUNT_PROVIDER_H_
