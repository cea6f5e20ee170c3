#include "stats/mi_engine.h"

#include <algorithm>
#include <cmath>

namespace hypdb {
namespace {

std::vector<int> SortedUnion(const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return SortedUniqueColumns(std::move(out));
}

}  // namespace

std::shared_ptr<CountEngine> MakeViewEngine(const TableView& view,
                                            const MiEngineOptions& options) {
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options.max_cached_cells;
  return std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(view, ScanKernelOptions(options)),
      caching);
}

MiEngine::MiEngine(const TableView& view, MiEngineOptions options)
    : engine_(MakeViewEngine(view, options)), options_(options) {}

MiEngine::MiEngine(std::shared_ptr<CountEngine> engine,
                   MiEngineOptions options)
    : engine_(std::move(engine)), options_(options) {}

Status MiEngine::SetFocus(const std::vector<int>& cols) {
  return engine_->Prefetch(SortedUniqueColumns(cols));
}

StatusOr<GroupCounts> MiEngine::CountsFor(const std::vector<int>& cols) {
  return engine_->Counts(cols);
}

double MiEngine::Derive(const SetEntropy& e,
                        EntropyEstimator estimator) const {
  if (estimator == EntropyEstimator::kMillerMadow && e.support > 0 &&
      NumRows() > 0) {
    return e.plugin +
           static_cast<double>(e.support - 1) /
               (2.0 * static_cast<double>(NumRows()));
  }
  return e.plugin;
}

StatusOr<double> MiEngine::Entropy(const std::vector<int>& cols) {
  return Entropy(cols, options_.estimator);
}

StatusOr<double> MiEngine::Entropy(const std::vector<int>& cols,
                                   EntropyEstimator estimator) {
  HYPDB_ASSIGN_OR_RETURN(SetEntropy e, engine_->Entropy(SortedUniqueColumns(cols)));
  return Derive(e, estimator);
}

StatusOr<int64_t> MiEngine::Support(const std::vector<int>& cols) {
  HYPDB_ASSIGN_OR_RETURN(SetEntropy e, engine_->Entropy(SortedUniqueColumns(cols)));
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
