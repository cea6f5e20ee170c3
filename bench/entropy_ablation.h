// Count-engine decorators for the Fig. 6(b)/6(c) ablations of the paper's
// "caching entropy" optimization (Sec. 6).
//
// In src/ an engine stack holds one entropy memo: the CachingCountEngine
// entry's (CountEngine::Entropy). The ablations switch it off and on
// independently of materialization:
//  * CountsOnlyEngine forwards everything but Entropy(), so the default
//    recomputes every entropy from Counts() — over a caching stack, a
//    cache hit (or marginalization) plus the entropy loop per lookup.
//  * EntropyMemoEngine memoizes Entropy() over any base — over a bare
//    scanner, caching entropies without materializing counts.
// Both are single-threaded, like the benches that use them.

#ifndef HYPDB_BENCH_ENTROPY_ABLATION_H_
#define HYPDB_BENCH_ENTROPY_ABLATION_H_

#include <map>
#include <memory>
#include <vector>

#include "engine/count_engine.h"

namespace hypdb::bench {

class CountsOnlyEngine : public CountEngine {
 public:
  explicit CountsOnlyEngine(std::shared_ptr<CountEngine> base)
      : base_(std::move(base)) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    return base_->Counts(cols);
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

 protected:
  std::shared_ptr<CountEngine> base_;
};

class EntropyMemoEngine : public CountsOnlyEngine {
 public:
  using CountsOnlyEngine::CountsOnlyEngine;

  StatusOr<SetEntropy> Entropy(const std::vector<int>& sorted) override {
    auto it = memo_.find(sorted);
    if (it != memo_.end()) return it->second;
    HYPDB_ASSIGN_OR_RETURN(SetEntropy entropy, base_->Entropy(sorted));
    memo_.emplace(sorted, entropy);
    return entropy;
  }

 private:
  std::map<std::vector<int>, SetEntropy> memo_;
};

}  // namespace hypdb::bench

#endif  // HYPDB_BENCH_ENTROPY_ABLATION_H_
