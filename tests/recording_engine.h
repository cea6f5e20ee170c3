// A CountEngine decorator for tests: forwards every call to its base and
// records each column set asked of it, through Counts() or Entropy(), as
// a sorted set. Tests use it to see which statistics a stage counts
// through the engine it is handed.

#ifndef HYPDB_TESTS_RECORDING_ENGINE_H_
#define HYPDB_TESTS_RECORDING_ENGINE_H_

#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "engine/count_engine.h"

namespace hypdb {

class RecordingEngine : public CountEngine {
 public:
  explicit RecordingEngine(std::shared_ptr<CountEngine> base)
      : base_(std::move(base)) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    Record(cols);
    return base_->Counts(cols);
  }
  StatusOr<SetEntropy> Entropy(const std::vector<int>& sorted) override {
    Record(sorted);
    return base_->Entropy(sorted);
  }
  Status Prefetch(const std::vector<int>& cols) override {
    return base_->Prefetch(cols);
  }
  int64_t NumRows() const override { return base_->NumRows(); }
  int64_t PopulationVersion() const override {
    return base_->PopulationVersion();
  }
  CacheOccupancy CacheUse() const override { return base_->CacheUse(); }
  CountEngineStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  /// Every column set asked so far, each sorted.
  std::set<std::vector<int>> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }
  bool Saw(const std::vector<int>& cols) const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.count(SortedUniqueColumns(cols)) > 0;
  }

 private:
  void Record(const std::vector<int>& cols) {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.insert(SortedUniqueColumns(cols));
  }

  std::shared_ptr<CountEngine> base_;
  mutable std::mutex mu_;
  std::set<std::vector<int>> seen_;
};

}  // namespace hypdb

#endif  // HYPDB_TESTS_RECORDING_ENGINE_H_
