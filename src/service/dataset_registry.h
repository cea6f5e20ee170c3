// DatasetRegistry: named chunked tables plus their shared, sharded count
// engines and the append/ingest path.
//
// The one-shot pipeline re-loads data and re-scans counts per Analyze()
// call. The registry is the service's antidote: a table is registered
// once under a name, and every query against it draws counts from a
// per-dataset pool of count engines, *sharded by subpopulation signature*
// (the canonical WHERE rendering — see service/request.h). Concurrent
// queries on the same (dataset, subpopulation) therefore share one
// thread-safe contingency cache instead of each owning a private one.
//
// Storage: each dataset is backed by a ChunkedTable (src/storage/) —
// fixed-size row chunks of dictionary codes behind a published row
// watermark. AppendRows() ingests new rows WITHOUT bumping the epoch:
// dictionaries grow append-only so existing codes stay stable, and the
// caching layers patch their summaries by scanning only the appended
// chunks (CountsDelta) instead of invalidating. Re-registering a name
// still replaces the store wholesale, bumps the epoch and drops every
// shard; appending never does.
//
// Shards of one dataset also share *across* subpopulations: every dataset
// owns one parent CachingCountEngine over the chunked store (the engine
// the empty signature gets), and a shard whose signature parses to a pure
// equality conjunction P = v is built as a CachingCountEngine over a
// PredicateSlicingCountEngine — its counts over S are derived by slicing
// the parent's shared S ∪ P summary at P = v instead of scanning the
// filtered view (src/engine/predicate_slicing_count_engine.h). Such
// shards carry a live FilteredPopulationProvider so they track appends.
// Signatures with multi-value IN terms or values absent from the
// dictionary get a live isolated stack (cache over a filtered-population
// scanner). A shard is a function of (dataset, epoch, signature) alone:
// the store builds it, never a caller's view, so a signature that does
// not resolve against the store gets no shard at all.
//
// Concurrency: readers take the dataset's shared lease (ReadLease) for a
// request's whole lifetime — an analyze for its whole body, a session
// while it binds and while each stage runs — so the watermark cannot
// advance while anything counts through the live shards; AppendRows
// takes the same lease exclusively. Lock order is always lease →
// registry mutex → store mutex (and lease → session stage lock).

#ifndef HYPDB_SERVICE_DATASET_REGISTRY_H_
#define HYPDB_SERVICE_DATASET_REGISTRY_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hypdb.h"
#include "engine/count_engine.h"
#include "stats/mi_engine.h"
#include "storage/chunked_table.h"
#include "util/statusor.h"

namespace hypdb {

struct DatasetRegistryOptions {
  /// Count-engine configuration for shard engines (kernel threads and
  /// cache budget).
  MiEngineOptions engine;
  /// Filtered shard engines kept per dataset (the full-table parent is
  /// exempt); oldest-first eviction beyond this.
  int max_shards_per_dataset = 32;
  /// Rows per storage chunk (delta-scan granularity for appends).
  int64_t chunk_rows = ChunkedTable::kDefaultChunkRows;
};

/// One row of List(): a registered dataset's shape and pool state.
struct DatasetInfo {
  std::string name;
  int64_t epoch = 0;
  int64_t rows = 0;
  int columns = 0;
  int shards = 0;
  /// Storage shape: chunks holding published rows, and the published row
  /// watermark (== rows; reported separately so ingest monitoring reads
  /// the storage-level value, not a derived one).
  int64_t chunks = 0;
  int64_t watermark = 0;
  /// Cache occupancy summed over the dataset's engine pool (parent +
  /// live shards).
  CacheOccupancy cache;
  /// Fraction of external count queries the pool answered without a
  /// table scan, 0 when idle.
  double cache_hit_ratio = 0.0;
  /// Cache evictions across the pool.
  int64_t evictions = 0;
};

/// A held shared (reader) lease on one dataset: while alive, AppendRows
/// on that dataset blocks, so the watermark a request observed stays the
/// watermark for the request's whole body. Movable; releases on destroy.
/// Member order matters: the lock must be destroyed before the mutex
/// reference it holds.
struct DatasetLease {
  std::shared_ptr<std::shared_mutex> mu;
  std::shared_lock<std::shared_mutex> lock;
};

/// Thread-safe. All methods may be called concurrently with each other.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(DatasetRegistryOptions options = {});
  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Registers (or replaces) `table` under `name`. Replacement bumps the
  /// epoch and drops the dataset's engine shards. Returns the new epoch.
  int64_t Register(const std::string& name, TablePtr table);

  /// Loads `path` as CSV and registers it. Returns the new epoch.
  StatusOr<int64_t> RegisterCsv(const std::string& name,
                                const std::string& path);

  /// Appends rows (one label per column, schema order) to `name`'s
  /// store. Serialized against readers via the dataset's lease; does NOT
  /// bump the epoch — shards, sessions and discovery entries survive and
  /// are delta-patched. Returns the new watermark. NotFound for an
  /// unknown dataset, InvalidArgument on arity mismatch (the store is
  /// left unchanged).
  StatusOr<int64_t> AppendRows(
      const std::string& name,
      const std::vector<std::vector<std::string>>& rows);

  /// The dataset's shared read lease, held for a request's lifetime.
  StatusOr<DatasetLease> ReadLease(const std::string& name) const;

  StatusOr<TablePtr> Get(const std::string& name) const;
  StatusOr<int64_t> Epoch(const std::string& name) const;
  std::vector<DatasetInfo> List() const;

  /// The dataset's chunked store (for ingest benches and storage tests).
  StatusOr<std::shared_ptr<const ChunkedTable>> Store(
      const std::string& name) const;

  /// A consistent (table, epoch, watermark) triple — the handle a request
  /// works against for its whole lifetime, so a concurrent
  /// re-registration can never mix the old table with the new epoch. The
  /// table is the store materialized at `watermark`; hold the read lease
  /// across the request so the watermark stays current.
  struct Snapshot {
    TablePtr table;
    int64_t epoch = 0;
    int64_t watermark = 0;
  };
  StatusOr<Snapshot> GetSnapshot(const std::string& name) const;

  /// The shared count engine of shard (`name`, `signature`), built from
  /// the dataset's store on first use. `signature` is a canonical
  /// subpopulation signature (service/request.h): InvalidArgument when it
  /// does not parse, NotFound when it names a column the dataset lacks.
  /// `epoch` must match the dataset's current epoch — FailedPrecondition
  /// otherwise (the dataset was re-registered since the caller's
  /// snapshot). The empty signature names the dataset's full-table
  /// parent engine;
  /// equality-conjunction signatures get slicing shards backed by that
  /// parent (see the header comment). Oldest filtered shards are dropped
  /// beyond max_shards_per_dataset; an evicted parent reference held by
  /// live slicing shards stays valid (shared_ptr), it just stops being
  /// handed out.
  StatusOr<std::shared_ptr<CountEngine>> ShardEngine(
      const std::string& name, int64_t epoch, const std::string& signature);

  /// The shards of one request or session bound at `snapshot`, whose
  /// WHERE has canonical `signature`, as the engine hooks of its session
  /// — the one provider the analyze path and staged sessions share.
  /// population_engine is the population's shard, or null when the
  /// dataset was re-registered since the snapshot (the caller then runs
  /// unshared over its snapshot table); context_engine_provider maps a
  /// context's WHERE conjunction to the shard of its canonical signature
  /// (null after a re-registration). The shards are live: the caller
  /// holds the read lease while anything counts through them, and the
  /// session pins its population by version (see SessionHooks).
  StatusOr<SessionHooks> Pool(const std::string& name,
                              const Snapshot& snapshot,
                              const std::string& signature);

  /// Aggregate count-engine stats across a dataset's live shards plus
  /// its parent engine. Well-defined without double counting: slicing
  /// shards report only their own layer and private fallback scanner,
  /// never the shared parent they draw from.
  StatusOr<CountEngineStats> EngineStats(const std::string& name) const;

 private:
  struct Dataset {
    /// The chunked store (append target; all reads derive from it).
    ChunkedTablePtr store;
    int64_t epoch = 0;
    /// Reader/writer lease serializing appends against in-flight
    /// requests. Created at first registration and NEVER replaced —
    /// leases held across a re-registration must keep excluding writers.
    std::shared_ptr<std::shared_mutex> lease;
    /// Full-table engine: serves empty-signature queries directly and
    /// superset summaries to the slicing shards. Created on first use,
    /// never LRU-evicted (it is the working set every slice derives
    /// from), dropped on re-registration — but NOT on append (it reads
    /// the live store and patches its cache by delta).
    std::shared_ptr<CountEngine> parent;
    std::map<std::string, std::shared_ptr<CountEngine>> shards;
    std::list<std::string> shard_age;  // creation order, oldest first
    /// Slices performed by since-evicted shards: each one was an internal
    /// query on the parent, and EngineStats must keep subtracting them
    /// after the shard (and its predicate_slices counter) is gone.
    int64_t retired_slices = 0;
  };

  /// The options_.engine kernel configuration for scanners.
  GroupByKernelOptions KernelOptions() const;
  /// Wraps `base` in a CachingCountEngine under the options_ budget.
  /// Every engine stack the registry builds goes through this one
  /// function, so parent and shards can never diverge in cache
  /// configuration.
  std::shared_ptr<CountEngine> WrapCache(
      std::shared_ptr<CountEngine> base) const;

  /// ds.parent, created over the chunked store if absent. Requires mu_.
  std::shared_ptr<CountEngine> ParentEngineLocked(Dataset& ds);

  /// A new engine for `signature` over the store: a slicing stack
  /// through the shared parent when the signature is a pure equality
  /// conjunction, a live isolated stack over a FilteredPopulationProvider
  /// otherwise. InvalidArgument/NotFound for a signature that does not
  /// resolve (see ShardEngine). Requires mu_.
  StatusOr<std::shared_ptr<CountEngine>> BuildShardLocked(
      Dataset& ds, const std::string& signature);

  /// EngineStats body without the lookup/lock. Requires mu_.
  CountEngineStats EngineStatsLocked(const Dataset& ds) const;

  mutable std::mutex mu_;
  DatasetRegistryOptions options_;
  std::map<std::string, Dataset> datasets_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_DATASET_REGISTRY_H_
