// CountEngine: the single source of contingency counts for the pipeline.
//
// Every statistic in HypDB reduces to count(*) GROUP BY over a column
// subset (paper Sec. 6), and the thousands of CI tests issued by the CD
// algorithm share most of their counts. CountEngine is the interface those
// counts flow through; its four implementations form a small hierarchy:
//  * ViewCountProvider   — scans a TableView with the packed-tuple kernel
//                          (optionally multi-threaded); the ground truth.
//  * ChunkedCountProvider — scans a growing chunked store's chunks in
//                          place below a fixed watermark, its version,
//                          restricted to the rows its WHERE terms select,
//                          and counts a row range alone (CountsDelta)
//                          (src/storage/chunked_count_provider.h).
//  * CubeCountProvider   — answers covered queries from a pre-computed
//                          OLAP data cube and delegates the rest to its
//                          base engine (src/cube), the Fig. 6(d)/8(b)
//                          configuration.
//  * CachingCountEngine  — wraps any engine with a subset-keyed cache plus
//                          marginalization: counts for S ⊆ S' derive from
//                          a cached S' summary instead of re-scanning;
//                          each entry also keeps its summary in every
//                          column order asked of it and its memoized
//                          entropy (src/engine/caching_count_engine.h).
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
#include "engine/groupby_kernel.h"
#include "util/entropy_from_counts.h"
#include "util/statusor.h"

namespace hypdb {

/// Counters an engine stack accumulates while answering Counts() calls.
/// Summing a wrapper's own counters with its base engine's is well defined
/// because each work field is incremented by exactly one layer kind:
/// `scans` by view scanners, `cube_hits`/`fallback_calls` by cube
/// adapters, `cache_hits`/`marginalizations`/`evictions` by caching
/// layers. `queries` is the exception — wrappers report their own count
/// (each external query once), not the sum.
struct CountEngineStats {
  /// External Counts() and Entropy() calls answered by the reporting
  /// engine.
  int64_t queries = 0;
  /// Full data scans performed (the Fig. 6c cost driver).
  int64_t scans = 0;
  /// Queries answered from an exact cached entry (its counts in any
  /// column order, or its memoized entropy).
  int64_t cache_hits = 0;
  /// Queries derived by marginalizing a cached superset summary.
  int64_t marginalizations = 0;
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

/// Cache residency snapshot of an engine stack (per-dataset aggregation
/// feeds /healthz, the REPL `datasets` command and the hypdb_cache_*
/// metric family).
struct CacheOccupancy {
  int64_t cached_cells = 0;
  int64_t pinned_cells = 0;
  /// Sum of the cell budgets of the stacked caches reporting above.
  int64_t budget_cells = 0;
  int64_t entries = 0;

  CacheOccupancy& operator+=(const CacheOccupancy& o) {
    cached_cells += o.cached_cells;
    pinned_cells += o.pinned_cells;
    budget_cells += o.budget_cells;
    entries += o.entries;
    return *this;
  }
};

/// Canonical cache/superset key for a column list: sorted ascending,
/// duplicates removed. Every key on a column *set* is built this way.
inline std::vector<int> SortedUniqueColumns(std::vector<int> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// The plug-in entropy of a count(*) GROUP BY summary and its support
/// (the number of groups, |Π_cols(D)|). The Miller-Madow estimate and a
/// CI test's degrees of freedom both derive from this pair.
struct SetEntropy {
  double plugin = 0.0;
  int64_t support = 0;
};

/// The SetEntropy of `counts`, summing its cells in key order.
inline SetEntropy SetEntropyOf(const GroupCounts& counts) {
  return SetEntropy{EntropyFromCounts(counts.counts, counts.total,
                                      EntropyEstimator::kPlugin),
                    counts.NumGroups()};
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

  /// Plug-in entropy and support of count(*) GROUP BY `sorted`, a sorted
  /// column set without duplicates (SortedUniqueColumns). The entropy
  /// sums the summary's cells in the key order of that sorted column
  /// list. This default computes both from Counts(sorted) on every call;
  /// a caching engine memoizes them on its cache entry (the paper's
  /// "caching entropy", Sec. 6).
  virtual StatusOr<SetEntropy> Entropy(const std::vector<int>& sorted) {
    HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, Counts(sorted));
    return SetEntropyOf(counts);
  }

  /// Hints that upcoming queries touch only subsets of `cols`; caching
  /// engines respond by materializing the superset summary once (the
  /// paper's "materializing contingency tables", Sec. 6). Default no-op.
  virtual Status Prefetch(const std::vector<int>& cols) {
    (void)cols;
    return Status::Ok();
  }

  /// Version of this engine's population, which never changes. Engines
  /// over growing storage return the row watermark they count, so a later
  /// generation of the same population has a larger version; static
  /// engines inherit this default (any constant works).
  virtual int64_t PopulationVersion() const { return NumRows(); }

  /// count(*) GROUP BY `cols` over only the rows that joined the
  /// population between versions `from_version` and `to_version` (at
  /// most PopulationVersion()). A cache seeded from an older generation
  /// patches a stale summary by merging this delta instead of
  /// rescanning. Engines that cannot enumerate their suffix return
  /// Unimplemented, which callers treat as "recompute from scratch".
  virtual StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                            int64_t from_version,
                                            int64_t to_version) {
    (void)cols;
    (void)from_version;
    (void)to_version;
    return Status::Unimplemented("engine does not support delta counts");
  }

  /// Always -1. Nothing in src/ overrides or calls this: it survives
  /// only because perfbench's one-shot TimedEngine overrides it, and it
  /// goes with the next change to that benchmark.
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

 private:
  TableView view_;
  GroupByKernelOptions kernel_;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_ENGINE_COUNT_ENGINE_H_
