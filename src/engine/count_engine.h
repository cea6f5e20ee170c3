// CountEngine: the single source of contingency counts for the pipeline.
//
// Every statistic in HypDB reduces to count(*) GROUP BY over a column
// subset (paper Sec. 6), and the thousands of CI tests issued by the CD
// algorithm share most of their counts. CountEngine is the interface those
// counts flow through; implementations form a small hierarchy:
//  * ViewCountProvider   — scans a TableView with the packed-tuple kernel
//                          (optionally multi-threaded); the ground truth.
//  * AdaptiveCubeProvider — answers covered queries from an installed
//                          OLAP data cube and delegates the rest to its
//                          base engine (src/cube), the Fig. 6(d)/8(b)
//                          configuration when the cube is installed up
//                          front.
//  * CachingCountEngine  — wraps any engine with a subset-keyed cache plus
//                          marginalization: counts for S ⊆ S' derive from
//                          a cached S' summary instead of re-scanning
//                          (src/engine/caching_count_engine.h).
//  * PredicateSlicingCountEngine — answers counts over a conjunctive
//                          equality subpopulation by slicing a shared
//                          full-table engine's S ∪ P summary at P = v
//                          (src/engine/predicate_slicing_count_engine.h).
// Instrumentation (scans, cache hits, marginalizations) flows up the stack
// into DiscoveryReport / HypDbReport — the Fig. 6(c) metrics.

#ifndef HYPDB_ENGINE_COUNT_ENGINE_H_
#define HYPDB_ENGINE_COUNT_ENGINE_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "dataframe/group_by.h"
#include "dataframe/view.h"
#include "engine/cache_policy.h"
#include "engine/groupby_kernel.h"
#include "util/statusor.h"

namespace hypdb {

/// Counters an engine stack accumulates while answering Counts() calls.
/// Summing a wrapper's own counters with its base engine's is well defined
/// because each work field is incremented by exactly one layer kind:
/// `scans` by view scanners, `cube_hits`/`fallback_calls` by cube
/// adapters, `cache_hits`/`marginalizations`/`evictions` by caching
/// layers, `predicate_slices` by predicate-slicing layers
/// (src/engine/predicate_slicing_count_engine.h). `queries` is the
/// exception — wrappers report their own count (each external query
/// once), not the sum.
struct CountEngineStats {
  /// External Counts() calls answered by the reporting engine.
  int64_t queries = 0;
  /// Full data scans performed (the Fig. 6c cost driver).
  int64_t scans = 0;
  /// Queries answered from an exact cached entry.
  int64_t cache_hits = 0;
  /// Queries derived by marginalizing a cached superset summary.
  int64_t marginalizations = 0;
  /// Queries over a filtered subpopulation answered by slicing a shared
  /// full-table superset summary at the subpopulation's predicate values
  /// (cross-shard reuse — the contingency-table sharing of Sec. 6 applied
  /// across WHERE clauses).
  int64_t predicate_slices = 0;
  /// Queries answered by cube-cell lookup.
  int64_t cube_hits = 0;
  /// Cube misses delegated to a fallback provider.
  int64_t fallback_calls = 0;
  /// Cache entries dropped under memory pressure.
  int64_t evictions = 0;
  /// Stale cached summaries brought current by merging a CountsDelta()
  /// over the appended suffix instead of rescanning from scratch
  /// (incremented by caching layers).
  int64_t delta_patches = 0;
  /// Chunks the chunked store actually scanned (full or partial;
  /// incremented by chunked scan providers).
  int64_t chunk_scans = 0;
  /// Chunks a delta scan skipped because they lie entirely below the
  /// requested watermark — the rows delta maintenance never re-reads.
  int64_t chunks_skipped = 0;
  /// Rows read by chunked scans (full scans and delta suffixes alike);
  /// with chunks_skipped this quantifies what incremental ingest saves.
  int64_t rows_scanned = 0;

  CountEngineStats& operator+=(const CountEngineStats& o) {
    queries += o.queries;
    scans += o.scans;
    cache_hits += o.cache_hits;
    marginalizations += o.marginalizations;
    predicate_slices += o.predicate_slices;
    cube_hits += o.cube_hits;
    fallback_calls += o.fallback_calls;
    evictions += o.evictions;
    delta_patches += o.delta_patches;
    chunk_scans += o.chunk_scans;
    chunks_skipped += o.chunks_skipped;
    rows_scanned += o.rows_scanned;
    return *this;
  }

  CountEngineStats operator-(const CountEngineStats& o) const {
    CountEngineStats d = *this;
    d.queries -= o.queries;
    d.scans -= o.scans;
    d.cache_hits -= o.cache_hits;
    d.marginalizations -= o.marginalizations;
    d.predicate_slices -= o.predicate_slices;
    d.cube_hits -= o.cube_hits;
    d.fallback_calls -= o.fallback_calls;
    d.evictions -= o.evictions;
    d.delta_patches -= o.delta_patches;
    d.chunk_scans -= o.chunk_scans;
    d.chunks_skipped -= o.chunks_skipped;
    d.rows_scanned -= o.rows_scanned;
    return d;
  }
};

/// Canonical cache/superset key for a column list: sorted ascending,
/// duplicates removed. Every engine layer that keys on column *sets*
/// (caching, slicing) must canonicalize the same way.
inline std::vector<int> SortedUniqueColumns(std::vector<int> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Source of group-by counts over a fixed row population.
class CountEngine {
 public:
  virtual ~CountEngine() = default;

  /// count(*) GROUP BY `cols` over this engine's population. `cols` may be
  /// in any order; the result codec preserves that order. Columns must be
  /// distinct.
  virtual StatusOr<GroupCounts> Counts(const std::vector<int>& cols) = 0;

  /// Number of rows in the population.
  virtual int64_t NumRows() const = 0;

  /// Hints that upcoming queries touch only subsets of `cols`; caching
  /// engines respond by materializing the superset summary once (the
  /// paper's "materializing contingency tables", Sec. 6). Default no-op.
  virtual Status Prefetch(const std::vector<int>& cols) {
    (void)cols;
    return Status::Ok();
  }

  /// Monotone version of this engine's population: a cached summary
  /// computed at version v stays exact as long as PopulationVersion()
  /// == v. Engines over growing storage return the underlying row
  /// watermark; static engines inherit this default (NumRows() never
  /// changes, so any constant works).
  virtual int64_t PopulationVersion() const { return NumRows(); }

  /// count(*) GROUP BY `cols` over only the rows appended between
  /// population versions `from_version` (exclusive of prior rows) and
  /// `to_version`. A caching layer patches a stale summary by merging
  /// this delta instead of rescanning everything. Engines that cannot
  /// enumerate their suffix return Unimplemented, which callers treat
  /// as "recompute from scratch".
  virtual StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                            int64_t from_version,
                                            int64_t to_version) {
    (void)cols;
    (void)from_version;
    (void)to_version;
    return Status::Unimplemented("engine does not support delta counts");
  }

  /// An upper bound on the number of groups a summary over `cols` would
  /// actually have, when something in this stack has OBSERVED the data
  /// well enough to know one — a caching layer holding `cols` (or a
  /// superset of it), or an installed cube lattice covering it. -1 when
  /// nothing has; callers then fall back to the blind min(domain, rows)
  /// bound. Feeds CachePolicy::AdmitMaterialization, which is how the
  /// adaptive policy admits sparse supersets whose domain product lies.
  virtual int64_t ObservedCellBound(const std::vector<int>& cols) const {
    (void)cols;
    return -1;
  }

  /// Cache residency of this stack (cells/pins/budget/entries), summed
  /// across stacked caching layers. Zero for engines that cache nothing.
  virtual CacheOccupancy CacheUse() const { return {}; }

  /// Accumulated instrumentation, including any wrapped engines'.
  virtual CountEngineStats stats() const { return {}; }
  virtual void ResetStats() {}
};

/// Scans a TableView via the packed-tuple kernel (the default engine).
/// Concurrent Counts() calls are safe: the scan reads immutable column
/// data and the counters are mutex-guarded (the service layer shares one
/// provider per subpopulation shard across worker threads).
class ViewCountProvider : public CountEngine {
 public:
  explicit ViewCountProvider(TableView view, GroupByKernelOptions kernel = {})
      : view_(std::move(view)), kernel_(kernel) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    StatusOr<GroupCounts> counts = ScanCounts(view_, cols, kernel_);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    // Count the scan only when one actually happened — domain overflow
    // fails in codec construction before any data is read.
    if (counts.ok()) ++stats_.scans;
    return counts;
  }

  int64_t NumRows() const override { return view_.NumRows(); }

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = {};
  }

  /// Number of data scans performed (instrumentation for Fig. 6c).
  int64_t num_scans() const { return stats().scans; }

  const TableView& view() const { return view_; }

 private:
  TableView view_;
  GroupByKernelOptions kernel_;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_ENGINE_COUNT_ENGINE_H_
