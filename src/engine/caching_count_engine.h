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
// An entry keeps what its readers derive from it, so a warm repeat
// re-keys no summary and recomputes no entropy: the summary in every
// column order asked of it (each built once with ProjectOnto) and the
// plug-in entropy and support of its sorted-order summary (Entropy()).
// Both share the entry's version, pin, admission sequence and eviction,
// a delta patch or replacement drops them, and every order's cells count
// against the budget.
// Prefetch(S') materializes a superset summary once and pins it, which is
// exactly the paper's "materializing contingency tables" optimization.
// Cached cells are bounded; when the unpinned set exceeds the budget,
// unpinned entries are evicted oldest-first by admission sequence.
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
#include <optional>
#include <vector>

#include "engine/count_engine.h"

namespace hypdb {

// MaterializationMode, CachePolicy, MakeCachePolicy and
// CachingCountEngineOptions::policy name no choice: the cache has one
// policy (the header comment). They survive only because perfbench's
// one-shot workload spells them, and go with the next change to that
// benchmark.

/// The one materialization mode (MiEngineOptions::materialization).
enum class MaterializationMode { kStatic };

/// The one cache policy. It has no state and no options.
class CachePolicy {};

/// The shared instance of the one policy.
std::shared_ptr<const CachePolicy> MakeCachePolicy(MaterializationMode mode);

struct CachingCountEngineOptions {
  /// Budget on the total number of cached groups across *unpinned*
  /// entries; the oldest unpinned entries are evicted when exceeded.
  /// Pinned (prefetched) entries are exempt — see the header comment.
  int64_t max_cached_cells = int64_t{1} << 22;
  /// Ignored (see MakeCachePolicy).
  std::shared_ptr<const CachePolicy> policy;
};

class CachingCountEngine : public CountEngine {
 public:
  explicit CachingCountEngine(std::shared_ptr<CountEngine> base,
                              CachingCountEngineOptions options = {});

  /// The next generation of `predecessor`'s population: a cache over
  /// `base` (the same population at a later watermark) that starts from
  /// a copy of the predecessor's entries and options. Each entry keeps
  /// its version, so its first use patches it (PatchEntry). The counters
  /// start at zero.
  CachingCountEngine(std::shared_ptr<CountEngine> base,
                     const CachingCountEngine& predecessor);

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  /// Memoized on the entry for `sorted`: computed once per entry and
  /// watermark over the sorted-order summary, which Counts(sorted) would
  /// serve. Counted like Counts(sorted): one query, and a memo hit is a
  /// cache hit.
  StatusOr<SetEntropy> Entropy(const std::vector<int>& sorted) override;

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

  /// Cells currently held (memory proxy), and entry count.
  int64_t cached_cells() const;
  /// Cells held by pinned entries (exempt from the eviction budget).
  int64_t pinned_cells() const;
  int num_entries() const;

 private:
  /// Summaries are immutable once cached (replacement swaps the pointer,
  /// never mutates), so readers project/copy OUTSIDE the lock from a
  /// shared_ptr grabbed under it — a cache hit holds mu_ for a map
  /// lookup, not for copying a multi-million-cell summary.
  struct Entry {
    /// In the column order of the request that built the entry (any
    /// permutation of the key). Its pointer identifies the entry's
    /// payload: a patch or replacement installs a new one.
    std::shared_ptr<const GroupCounts> counts;
    /// The same summary in each other column order asked of the entry.
    /// A permutation keeps every group, so each holds counts->NumGroups()
    /// cells.
    std::vector<std::shared_ptr<const GroupCounts>> orders;
    /// Plug-in entropy and support of the sorted-order summary, once
    /// asked.
    std::optional<SetEntropy> entropy;
    bool pinned = false;
    /// Base PopulationVersion the summary includes rows through. Kept
    /// explicitly — GroupCounts::total is NOT a valid watermark for
    /// filtered populations (the matching-row count lags the storage
    /// watermark). A query at a newer version patches the entry via
    /// base CountsDelta instead of invalidating it.
    int64_t version = 0;
    /// Monotone admission order; assigned at first insertion, preserved
    /// across in-place replacement — the eviction order.
    uint64_t sequence = 0;

    /// Cells held across `counts` and `orders`.
    int64_t Cells() const {
      return static_cast<int64_t>(counts->NumGroups()) *
             static_cast<int64_t>(1 + orders.size());
    }
  };

  /// Counts() without the copy: the summary over `cols` in exactly that
  /// order, shared with the cache entry that holds it. `sorted` is
  /// SortedUniqueColumns(cols), of the same size. `*payload` receives
  /// the serving entry's `counts` pointer (the entry the entropy memo
  /// belongs to).
  StatusOr<std::shared_ptr<const GroupCounts>> Serve(
      const std::vector<int>& cols, std::vector<int> sorted,
      std::shared_ptr<const GroupCounts>* payload);

  /// The summary `entry` holds in column order `cols`, or null.
  static std::shared_ptr<const GroupCounts> OrderOf(
      const Entry& entry, const std::vector<int>& cols);

  /// `payload` in the column order `cols`: the payload itself, an order
  /// its entry already holds, or a projection built now and kept on the
  /// entry if the entry still holds `payload`.
  std::shared_ptr<const GroupCounts> InOrder(
      const std::vector<int>& cols, const std::vector<int>& sorted,
      std::shared_ptr<const GroupCounts> payload);

  /// The best cached strict superset of `sorted` to marginalize from
  /// under the deterministic order (fewest groups, fewest columns,
  /// lexicographically smallest key), or cache_.end(). Requires mu_ held.
  std::map<std::vector<int>, Entry>::const_iterator BestSupersetLocked(
      const std::vector<int>& sorted) const;

  /// Inserts under the sorted key, then evicts to budget. Reconciles a
  /// pre-existing entry under the same key (concurrent double-miss):
  /// accounting is adjusted and an existing pin and sequence are
  /// preserved. Requires mu_ held.
  void Insert(std::vector<int> sorted,
              std::shared_ptr<const GroupCounts> counts, bool pinned,
              int64_t version);
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

  std::shared_ptr<CountEngine> base_;
  CachingCountEngineOptions options_;

  mutable std::mutex mu_;
  std::map<std::vector<int>, Entry> cache_;
  std::vector<int> pinned_key_;  // the single pinned focus (sorted)
  int64_t cached_cells_ = 0;
  int64_t pinned_cells_ = 0;
  uint64_t next_sequence_ = 0;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_ENGINE_CACHING_COUNT_ENGINE_H_
