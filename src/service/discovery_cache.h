// DiscoveryCache: share covariate/mediator discovery across queries.
//
// Discovery (FD filtering + two CD runs) dominates Analyze() cost and
// depends only on (dataset, epoch, treatment, outcomes, subpopulation,
// discovery options) — the DiscoveryKey. Analyze-style workloads repeat
// that key constantly ("think twice" reruns, dashboards refreshing, many
// analysts probing the same grouping), so the service computes each
// distinct discovery once:
//  * completed results are cached (bounded, oldest-first eviction);
//  * concurrent requests for the same key are *coalesced*: the first
//    caller computes while the rest block on its result. This is where
//    related analyze requests share work (the scheduler is a plain FIFO
//    pool and never groups them). Errors propagate to every coalesced
//    waiter but are not cached (transient failures should not stick).
// Invalidation: keys embed the dataset epoch, so re-registration makes
// stale entries unreachable; InvalidatePrefix() additionally frees them.
//
// Appends do NOT invalidate: entries are tagged with the storage
// watermark they were computed at, and a configurable staleness bound
// (refresh_rows_fraction) decides when enough rows have arrived that the
// discovery is recomputed — lazily, at the next lookup. The entry
// survives the append event itself; only a lookup observing a watermark
// past the bound pays the recompute (counted as stale_refreshes). A
// lookup bound before an entry's watermark (a session that outlived an
// append) never takes it: it computes over its own rows.

#ifndef HYPDB_SERVICE_DISCOVERY_CACHE_H_
#define HYPDB_SERVICE_DISCOVERY_CACHE_H_

#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/hypdb.h"

namespace hypdb {

struct DiscoveryCacheOptions {
  /// Cached discovery reports kept; oldest-first eviction beyond this.
  int64_t max_entries = 256;
  /// Staleness bound for append-grown datasets: an entry computed at
  /// watermark W keeps serving while the lookup watermark is at most
  /// W * (1 + refresh_rows_fraction); past that it is recomputed at the
  /// next lookup. 0.0 = exact (any appended row triggers recompute);
  /// e.g. 0.1 tolerates 10% growth before refreshing — the discovery
  /// outcome is a statistical property that rarely flips on a small
  /// fraction of new rows. Negative disables staleness entirely.
  double refresh_rows_fraction = 0.0;
};

struct DiscoveryCacheStats {
  int64_t hits = 0;            // served from a completed entry
  int64_t misses = 0;          // computed by the caller
  int64_t coalesced = 0;       // waited on an in-flight computation
  int64_t invalidations = 0;   // entries dropped by InvalidatePrefix
  int64_t evictions = 0;       // entries dropped by the size bound
  int64_t stale_refreshes = 0; // recomputed past the staleness bound
};

/// Thread-safe; LookupOrCompute may be called concurrently with any key.
class DiscoveryCache {
 public:
  explicit DiscoveryCache(DiscoveryCacheOptions options = {});

  /// Returns the report cached under `key`, or runs `compute` — at most
  /// once across concurrent callers of the same key — and caches an OK
  /// result. `reused` (optional) reports whether this caller skipped the
  /// computation; `coalesced` whether it waited on an in-flight twin.
  /// `compute` runs without the cache lock held. `watermark` is the
  /// storage watermark the caller bound: an entry serves only lookups at
  /// or after the watermark it was computed at, and an older one past the
  /// staleness bound is recomputed instead of served. A lookup coalesces
  /// only onto a computation at its own watermark, and its result never
  /// displaces an entry computed at a later one. -1 disables watermark
  /// tracking — such an entry serves every lookup.
  StatusOr<DiscoveryReport> LookupOrCompute(
      const std::string& key,
      const std::function<StatusOr<DiscoveryReport>()>& compute,
      bool* reused = nullptr, bool* coalesced = nullptr,
      int64_t watermark = -1);

  /// Drops every completed entry whose key starts with `prefix` (see
  /// DatasetKeyPrefix). Returns the number dropped.
  int64_t InvalidatePrefix(const std::string& prefix);

  DiscoveryCacheStats stats() const;
  int64_t size() const;

 private:
  struct InFlight {
    bool done = false;
    Status status;                          // meaningful once done
    std::optional<DiscoveryReport> report;  // set when status is OK
    std::condition_variable cv;             // waits on mu_
  };

  /// A completed entry tagged with the watermark it was computed at
  /// (-1 when the caller did not track one; such entries never go stale).
  struct Entry {
    DiscoveryReport report;
    int64_t watermark = -1;
  };

  /// True when an entry computed at `entry_watermark` must be recomputed
  /// for a lookup at `watermark` (see refresh_rows_fraction).
  bool StaleLocked(int64_t entry_watermark, int64_t watermark) const;
  /// True when both watermarks are tracked and `entry_watermark` is past
  /// `watermark`: that entry counted rows the lookup did not bind.
  static bool Newer(int64_t entry_watermark, int64_t watermark);

  mutable std::mutex mu_;
  DiscoveryCacheOptions options_;
  std::map<std::string, Entry> cache_;
  std::list<std::string> age_;  // insertion order, oldest first
  /// Computations in flight, by key and the watermark they count at.
  std::map<std::pair<std::string, int64_t>, std::shared_ptr<InFlight>>
      inflight_;
  DiscoveryCacheStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_DISCOVERY_CACHE_H_
