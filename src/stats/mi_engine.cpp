#include "stats/mi_engine.h"

#include <algorithm>
#include <cmath>

namespace hypdb {
namespace {

std::vector<int> Normalize(std::vector<int> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

std::vector<int> SortedUnion(const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return Normalize(std::move(out));
}

std::shared_ptr<CountEngine> WrapEngine(std::shared_ptr<CountEngine> base,
                                        const MiEngineOptions& options) {
  if (!options.materialize_focus) return base;
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options.max_cached_cells;
  caching.policy = MakeCachePolicy(options.materialization);
  return std::make_shared<CachingCountEngine>(std::move(base), caching);
}

}  // namespace

std::shared_ptr<CountEngine> MakeViewEngine(const TableView& view,
                                            const MiEngineOptions& options) {
  return WrapEngine(
      std::make_shared<ViewCountProvider>(view, ScanKernelOptions(options)),
      options);
}

MiEngine::MiEngine(TableView view, MiEngineOptions options)
    : view_(view), engine_(MakeViewEngine(view, options)), options_(options) {}

MiEngine::MiEngine(TableView view, std::shared_ptr<CountEngine> provider,
                   MiEngineOptions options, bool wrap_provider)
    : view_(std::move(view)),
      engine_(wrap_provider ? WrapEngine(std::move(provider), options)
                            : std::move(provider)),
      options_(options) {}

Status MiEngine::SetFocus(const std::vector<int>& cols) {
  if (!options_.materialize_focus) return Status::Ok();
  return engine_->Prefetch(Normalize(cols));
}

StatusOr<GroupCounts> MiEngine::CountsFor(const std::vector<int>& cols) {
  ++provider_calls_;
  return engine_->Counts(cols);
}

StatusOr<MiEngine::Entry> MiEngine::Lookup(std::vector<int> sorted_cols) {
  ++entropy_evals_;
  if (options_.cache_entropies) {
    auto it = cache_.find(sorted_cols);
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }

  ++provider_calls_;
  HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, engine_->Counts(sorted_cols));
  Entry entry;
  entry.plugin_entropy = EntropyOf(counts, EntropyEstimator::kPlugin);
  entry.support = counts.NumGroups();

  if (options_.cache_entropies) cache_.emplace(std::move(sorted_cols), entry);
  return entry;
}

double MiEngine::Derive(const Entry& e, EntropyEstimator estimator) const {
  if (estimator == EntropyEstimator::kMillerMadow && e.support > 0 &&
      NumRows() > 0) {
    return e.plugin_entropy +
           static_cast<double>(e.support - 1) /
               (2.0 * static_cast<double>(NumRows()));
  }
  return e.plugin_entropy;
}

StatusOr<double> MiEngine::Entropy(const std::vector<int>& cols) {
  return Entropy(cols, options_.estimator);
}

StatusOr<double> MiEngine::Entropy(const std::vector<int>& cols,
                                   EntropyEstimator estimator) {
  HYPDB_ASSIGN_OR_RETURN(Entry e, Lookup(Normalize(cols)));
  return Derive(e, estimator);
}

StatusOr<int64_t> MiEngine::Support(const std::vector<int>& cols) {
  HYPDB_ASSIGN_OR_RETURN(Entry e, Lookup(Normalize(cols)));
  return e.support;
}

StatusOr<double> MiEngine::CondEntropy(const std::vector<int>& of,
                                       const std::vector<int>& given) {
  HYPDB_ASSIGN_OR_RETURN(double h_joint, Entropy(SortedUnion(of, given)));
  HYPDB_ASSIGN_OR_RETURN(double h_given, Entropy(given));
  double h = h_joint - h_given;
  return h < 0.0 ? 0.0 : h;
}

StatusOr<double> MiEngine::Mi(int x, int y, const std::vector<int>& z) {
  return MiSets({x}, {y}, z, options_.estimator);
}

StatusOr<double> MiEngine::Mi(int x, int y, const std::vector<int>& z,
                              EntropyEstimator estimator) {
  return MiSets({x}, {y}, z, estimator);
}

StatusOr<double> MiEngine::MiSets(const std::vector<int>& xs,
                                  const std::vector<int>& ys,
                                  const std::vector<int>& z) {
  return MiSets(xs, ys, z, options_.estimator);
}

StatusOr<double> MiEngine::MiSets(const std::vector<int>& xs,
                                  const std::vector<int>& ys,
                                  const std::vector<int>& z,
                                  EntropyEstimator estimator) {
  std::vector<int> xz = SortedUnion(xs, z);
  std::vector<int> yz = SortedUnion(ys, z);
  std::vector<int> xyz = SortedUnion(xz, ys);
  // Joint set first: a caching count engine then derives the three
  // subset entropies by marginalizing the xyz summary (no extra scans).
  HYPDB_ASSIGN_OR_RETURN(double h_xyz, Entropy(xyz, estimator));
  HYPDB_ASSIGN_OR_RETURN(double h_xz, Entropy(xz, estimator));
  HYPDB_ASSIGN_OR_RETURN(double h_yz, Entropy(yz, estimator));
  HYPDB_ASSIGN_OR_RETURN(double h_z, Entropy(z, estimator));
  double mi = h_xz + h_yz - h_xyz - h_z;
  // Estimation noise can push the estimate slightly negative.
  return mi < 0.0 ? 0.0 : mi;
}

}  // namespace hypdb
