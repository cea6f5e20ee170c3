// CachingCountEngine: subset-keyed count cache with marginalization.
//
// The CD algorithm issues thousands of CI tests whose contingency counts
// overlap heavily (paper Sec. 6, Fig. 6c). This engine remembers every
// GROUP BY summary it has produced, keyed by the *set* of columns, and
// answers a query for S by (in order of preference):
//  1. returning the cached S summary (cache hit);
//  2. marginalizing the smallest cached S' ⊇ S summary — summing a few
//     thousand cells instead of re-scanning millions of rows. "Smallest"
//     is a deterministic total order: fewest groups, then fewest columns,
//     then lexicographically smallest column set — so given equal cache
//     contents the same source is chosen run-to-run and the stats /
//     digest trail is reproducible (see MarginalizationSource);
//  3. delegating to the wrapped engine (a scan or a cube lookup) and
//     caching the result.
// Prefetch(S') materializes a superset summary once and pins it, which is
// exactly the paper's "materializing contingency tables" optimization.
// Cached cells are bounded; when the unpinned set exceeds the budget,
// entries are evicted in ascending CachePolicy::RetentionScore order
// (ties: lowest admission sequence). The default OldestFirstCachePolicy
// makes that exactly the historical oldest-first behavior; the adaptive
// CostBenefitCachePolicy ranks by benefit-per-cell instead, using the
// per-entry use counts and measured rebuild times this engine tracks.
// Pinned cells live outside the budget: the focus summary is the working
// set every marginalization derives from, so it must never force the
// derived entries out.
//
// Thread safety: all public methods may be called concurrently (the
// service layer shares one engine per subpopulation shard across worker
// threads). The cache mutex is released around delegated base scans, so
// concurrent misses scan in parallel; a racing duplicate insert is
// reconciled by Insert(). Counts are exact integers, so results are
// bit-identical regardless of interleaving.

#ifndef HYPDB_ENGINE_CACHING_COUNT_ENGINE_H_
#define HYPDB_ENGINE_CACHING_COUNT_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/cache_policy.h"
#include "engine/count_engine.h"

namespace hypdb {

struct CachingCountEngineOptions {
  /// Budget on the total number of cached groups across *unpinned*
  /// entries; unpinned entries are evicted in policy order when
  /// exceeded. Pinned (prefetched) entries are exempt — see the header
  /// comment.
  int64_t max_cached_cells = int64_t{1} << 22;
  /// Eviction/retention policy; null selects the static
  /// OldestFirstCachePolicy (the historical behavior).
  std::shared_ptr<const CachePolicy> policy;
  /// Record per-key query demand for TakeDemandProfile() — what the
  /// registry's cube advisor harvests. Off by default (no map growth on
  /// stacks nobody advises).
  bool track_demand = false;
};

class CachingCountEngine : public CountEngine {
 public:
  explicit CachingCountEngine(std::shared_ptr<CountEngine> base,
                              CachingCountEngineOptions options = {});

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  /// Materializes (and pins) the summary over `cols` so subsequent subset
  /// queries marginalize it. Propagates base-engine errors (e.g. domain
  /// overflow) — callers treat that as a missed optimization.
  Status Prefetch(const std::vector<int>& cols) override;

  int64_t NumRows() const override { return base_->NumRows(); }

  int64_t PopulationVersion() const override {
    return base_->PopulationVersion();
  }

  /// Deltas come from storage, not from this cache; forwarded so stacked
  /// caching layers can patch through.
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    return base_->CountsDelta(cols, from_version, to_version);
  }

  /// The exact cells of a cached entry over `cols`, the smallest cached
  /// superset's cells (a true upper bound), or whatever the base stack
  /// has observed (an installed cube lattice knows every subset's cells).
  /// -1 when nothing here or below has observed `cols`.
  int64_t ObservedCellBound(const std::vector<int>& cols) const override;

  /// This cache's residency plus any caching layer below it.
  CacheOccupancy CacheUse() const override;

  /// This layer's counters plus the base engine's.
  CountEngineStats stats() const override;
  void ResetStats() override;

  /// The cached superset a query for `cols` would marginalize from right
  /// now, or empty when it would not marginalize (exact entry cached, no
  /// superset cached, or marginalization disabled). Introspection for
  /// tests pinning the deterministic tie-break; does not touch stats.
  std::vector<int> MarginalizationSource(const std::vector<int>& cols) const;

  /// Per-key external query counts since the last call, cleared on
  /// return (empty unless options.track_demand). The cube advisor's
  /// input: which column sets this engine is being asked for, how often.
  std::map<std::vector<int>, int64_t> TakeDemandProfile();

  /// Cells currently held (memory proxy), and entry count.
  int64_t cached_cells() const;
  /// Cells held by pinned entries (exempt from the eviction budget).
  int64_t pinned_cells() const;
  int num_entries() const;

  /// The active policy (never null; defaults to oldest-first).
  const CachePolicy& policy() const { return *policy_; }

  CountEngine& base() { return *base_; }

 private:
  /// Summaries are immutable once cached (replacement swaps the pointer,
  /// never mutates), so readers project/copy OUTSIDE the lock from a
  /// shared_ptr grabbed under it — a cache hit holds mu_ for a map
  /// lookup, not for copying a multi-million-cell summary.
  struct Entry {
    std::shared_ptr<const GroupCounts> counts;  // codec order: any
                                                // permutation of the key
    bool pinned = false;
    /// Base PopulationVersion the summary includes rows through. Kept
    /// explicitly — GroupCounts::total is NOT a valid watermark for
    /// filtered populations (the matching-row count lags the storage
    /// watermark). A query at a newer version patches the entry via
    /// base CountsDelta instead of invalidating it.
    int64_t version = 0;
    /// Times this entry answered a query (hit, marginalization source,
    /// post-patch serve) — the policy's reuse signal.
    int64_t uses = 0;
    /// Measured seconds the summary took to build (base scan or superset
    /// projection); replacement keeps the max, so a cheap delta patch
    /// never erases the original scan cost eviction would re-incur.
    double rebuild_seconds = 0.0;
    /// Monotone admission order; assigned at first insertion, preserved
    /// across in-place replacement — the deterministic eviction
    /// tie-break (and the whole order, under the static policy).
    uint64_t sequence = 0;
  };

  /// The best cached strict superset of `sorted` to marginalize from
  /// under the deterministic order (fewest groups, fewest columns,
  /// lexicographically smallest key), or cache_.end(). Requires mu_ held.
  std::map<std::vector<int>, Entry>::const_iterator BestSupersetLocked(
      const std::vector<int>& sorted) const;

  /// Inserts under the sorted key, then evicts to budget. Reconciles a
  /// pre-existing entry under the same key (concurrent double-miss):
  /// accounting is adjusted and an existing pin, use count and sequence
  /// are preserved. Requires mu_ held.
  void Insert(std::vector<int> sorted,
              std::shared_ptr<const GroupCounts> counts, bool pinned,
              int64_t version, double build_seconds);
  void EvictToBudget();

  /// Brings a stale entry (grabbed under the lock) current by merging a
  /// base CountsDelta over [entry_version, version_now) and re-inserting
  /// the patched summary. On success returns the patched summary; when
  /// the base cannot produce deltas (Unimplemented — static engines) or
  /// the delta fails, drops the stale entry and returns null so the
  /// caller falls back to a cold recompute.
  std::shared_ptr<const GroupCounts> PatchEntry(
      const std::vector<int>& key,
      std::shared_ptr<const GroupCounts> stale_counts, int64_t entry_version,
      int64_t version_now);

  /// Bumps the use counter of the entry at `key` if it is still cached
  /// with the expected payload-compatible version. Requires mu_ held.
  void RecordUseLocked(const std::vector<int>& key);

  std::shared_ptr<CountEngine> base_;
  CachingCountEngineOptions options_;
  std::shared_ptr<const CachePolicy> policy_;  // never null

  mutable std::mutex mu_;
  std::map<std::vector<int>, Entry> cache_;
  std::vector<int> pinned_key_;  // the single pinned focus (sorted)
  std::map<std::vector<int>, int64_t> demand_;  // when track_demand
  int64_t cached_cells_ = 0;
  int64_t pinned_cells_ = 0;
  uint64_t next_sequence_ = 0;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_ENGINE_CACHING_COUNT_ENGINE_H_
