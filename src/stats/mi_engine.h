// MiEngine: entropy / (conditional) mutual-information estimation.
//
// Implements the paper's Sec. 6 optimizations through the CountEngine
// subsystem (src/engine):
//  * "Caching entropy"      — per attribute set the count engine
//    memoizes the plugin entropy together with the support size
//    (# distinct tuples) on its cache entry (CountEngine::Entropy); the
//    Miller-Madow correction and test degrees-of-freedom derive from the
//    same pair. The many CMI statements issued by the CD algorithm share
//    most of their entropies (e.g. H(T), H(TZ) appear in both I(T;Y|Z)
//    and I(T;W|Z)), and a shard's memo serves every request on it.
//  * "Materializing contingency tables" — counts flow through a
//    CachingCountEngine: SetFocus() prefetches one count(*) GROUP BY over
//    a focus attribute set, and any subset query marginalizes a cached
//    summary instead of re-scanning the data.
// The Fig. 6(c) ablation toggles them by the engine it hands MiEngine: a
// bare ViewCountProvider or the caching stack, each under the bench-local
// entropy decorators (bench/entropy_ablation.h). The engine is swappable,
// so a pre-computed OLAP cube can replace data scans entirely (Fig. 6(d)).

#ifndef HYPDB_STATS_MI_ENGINE_H_
#define HYPDB_STATS_MI_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "stats/entropy.h"
#include "util/statusor.h"

namespace hypdb {

struct MiEngineOptions {
  EntropyEstimator estimator = EntropyEstimator::kMillerMadow;
  /// Worker threads for data scans (ViewCountProvider kernel). 0 resolves
  /// to std::thread::hardware_concurrency() — the production setting the
  /// service layer and `hypdb_cli --threads=0` use.
  int scan_threads = 1;
  /// Rows per morsel for parallel scans: the contiguous range the
  /// kernel's atomic cursor hands a worker at a time (`hypdb_cli
  /// --morsel=N`). Results are bit-identical for any value.
  int64_t scan_morsel_rows = 1 << 14;
  /// SIMD (AVX2) scan kernels when compiled in and detected at runtime;
  /// off forces the bit-identical scalar fallback (`hypdb_cli
  /// --no-simd`).
  bool scan_simd = true;
  /// Budget for the count cache, in total cached groups.
  int64_t max_cached_cells = int64_t{1} << 22;
  /// Names no choice: there is one cache policy. Kept only because
  /// perfbench's one-shot workload reads it (see MakeCachePolicy).
  MaterializationMode materialization = MaterializationMode::kStatic;
};

/// The scan-kernel configuration a MiEngineOptions implies. The single
/// translation every layer uses (MakeViewEngine, the dataset registry's
/// shard pools), so the whole stack rides the same kernel path.
inline GroupByKernelOptions ScanKernelOptions(const MiEngineOptions& options) {
  GroupByKernelOptions kernel;
  kernel.num_threads = options.scan_threads;
  kernel.morsel_rows = options.scan_morsel_rows;
  kernel.use_simd = options.scan_simd;
  return kernel;
}

/// The default count stack over `view`: a kernel scanner
/// (ScanKernelOptions) wrapped in a CachingCountEngine under `options`'
/// cell budget. A session's population and context engines, the
/// service's private fallbacks and MiEngine's view constructor all build
/// this stack. Every registry shard is the same stack over a view of a
/// store snapshot, built by the registry itself so that a successor's
/// cache starts from its predecessor's; a caller that wants the bare
/// scanner builds a ViewCountProvider itself.
std::shared_ptr<CountEngine> MakeViewEngine(const TableView& view,
                                            const MiEngineOptions& options);

/// Estimates entropies and conditional mutual information over one view.
class MiEngine {
 public:
  /// Engine over `view` with the default count stack (MakeViewEngine).
  explicit MiEngine(const TableView& view, MiEngineOptions options = {});

  /// Engine that counts through `engine` as given (a session's shared
  /// stack, a CubeCountProvider, a bare ViewCountProvider, ...). Only
  /// `options.estimator` is read.
  explicit MiEngine(std::shared_ptr<CountEngine> engine,
                    MiEngineOptions options = {});

  /// Ĥ(cols) with the engine's default estimator.
  StatusOr<double> Entropy(const std::vector<int>& cols);
  StatusOr<double> Entropy(const std::vector<int>& cols,
                           EntropyEstimator estimator);

  /// Number of distinct tuples of `cols` in the view (|Π_cols(D)|).
  StatusOr<int64_t> Support(const std::vector<int>& cols);

  /// Ĥ(of | given) = Ĥ(of ∪ given) - Ĥ(given), clamped at 0.
  StatusOr<double> CondEntropy(const std::vector<int>& of,
                               const std::vector<int>& given);

  /// Î(x ; y | z), clamped at 0.
  StatusOr<double> Mi(int x, int y, const std::vector<int>& z);
  StatusOr<double> Mi(int x, int y, const std::vector<int>& z,
                      EntropyEstimator estimator);

  /// Set version: Î(xs ; ys | z) = H(xs z) + H(ys z) - H(xs ys z) - H(z).
  StatusOr<double> MiSets(const std::vector<int>& xs,
                          const std::vector<int>& ys,
                          const std::vector<int>& z);
  StatusOr<double> MiSets(const std::vector<int>& xs,
                          const std::vector<int>& ys,
                          const std::vector<int>& z,
                          EntropyEstimator estimator);

  /// Raw counts for `cols` (any order) through the count engine — the
  /// path CI tests use to build stratified contingency tables.
  StatusOr<GroupCounts> CountsFor(const std::vector<int>& cols);

  /// Prefetches counts over `cols`; subsequent queries over subsets of
  /// `cols` marginalize the cached summary instead of scanning. No-op
  /// over an engine that caches nothing.
  Status SetFocus(const std::vector<int>& cols);

  int64_t NumRows() const { return engine_->NumRows(); }

  /// The count engine answering this estimator's queries (its stats()
  /// are the instrumentation of Fig. 6(c)).
  CountEngine& count_engine() { return *engine_; }
  const CountEngine& count_engine() const { return *engine_; }

 private:
  double Derive(const SetEntropy& e, EntropyEstimator estimator) const;

  std::shared_ptr<CountEngine> engine_;
  MiEngineOptions options_;
};

}  // namespace hypdb

#endif  // HYPDB_STATS_MI_ENGINE_H_
