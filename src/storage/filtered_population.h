// FilteredPopulationProvider: a WHERE-subpopulation of a ChunkedTable at
// one watermark.
//
// A provider holds the ids of the rows below its watermark that match
// the shard's WHERE conjunction, fixed when it is built, so appends never
// move what it answers. The population still grows: Successor(w') builds
// the same population at a later watermark from this one's ids,
// evaluating the predicate over only the rows appended since. The delta
// protocol lets a CachingCountEngine seeded from an older generation
// patch its cached subpopulation summaries the same way full-table ones
// are patched: PopulationVersion() is the watermark (NOT the
// matching-row count, which is why caching layers track versions
// explicitly) and CountsDelta(from, to) scans only the matching rows in
// [from, to).
//
// Terms are conjunctive `attr IN {labels}` (OR within a term, AND
// across terms), the service's canonical subpopulation signature. Label
// codes are resolved again for every generation, so a label that first
// appears in an appended batch starts matching from that batch on —
// exactly what a cold filter of the grown table produces.

#ifndef HYPDB_STORAGE_FILTERED_POPULATION_H_
#define HYPDB_STORAGE_FILTERED_POPULATION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/count_engine.h"
#include "storage/chunked_table.h"

namespace hypdb {

class FilteredPopulationProvider : public CountEngine {
 public:
  /// One conjunct: column `attribute` IN `labels`.
  struct Term {
    std::string attribute;
    std::vector<std::string> labels;
  };

  /// The rows of `table` below `watermark` that match every term. Fails
  /// NotFound when a term names a column absent from the schema, and
  /// OutOfRange when `watermark` is negative or past table->Watermark().
  /// Label values need not exist yet — they may arrive with a later
  /// append.
  static StatusOr<std::shared_ptr<FilteredPopulationProvider>> Create(
      std::shared_ptr<const ChunkedTable> table, std::vector<Term> terms,
      int64_t watermark, GroupByKernelOptions kernel = {});

  /// The same population at `watermark`: this provider's matching rows
  /// plus the matches among the rows appended since. OutOfRange below
  /// this provider's watermark or past the table's.
  StatusOr<std::shared_ptr<FilteredPopulationProvider>> Successor(
      int64_t watermark) const;

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  /// Matching rows below the watermark.
  int64_t NumRows() const override {
    return static_cast<int64_t>(ids_->size());
  }

  int64_t PopulationVersion() const override { return watermark_; }

  /// The matching rows in [from_version, to_version); OutOfRange past the
  /// watermark.
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override;

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = {};
  }

 private:
  FilteredPopulationProvider() = default;

  void CountScanned(const StatusOr<GroupCounts>& counts, int64_t rows);

  std::shared_ptr<const ChunkedTable> table_;
  std::vector<std::pair<int, std::vector<std::string>>> terms_;
  GroupByKernelOptions kernel_;
  int64_t watermark_ = 0;
  /// A snapshot of the table at or past watermark_, which ids_ index.
  TablePtr rows_;
  /// The matching row ids below watermark_, ascending.
  std::shared_ptr<const std::vector<int64_t>> ids_ =
      std::make_shared<const std::vector<int64_t>>();

  mutable std::mutex mu_;  // guards stats_
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_STORAGE_FILTERED_POPULATION_H_
