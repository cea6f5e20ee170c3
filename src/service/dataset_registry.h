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
// watermark. AppendRows() ingests new rows WITHOUT bumping the epoch;
// re-registering a name replaces the store, bumps the epoch and drops
// every shard.
//
// Every shard has one shape: a CachingCountEngine over a
// ChunkedCountProvider that counts the store's chunks in place, restricted
// to the rows its signature's WHERE terms select (none for the full
// table's ""). A shard is a function of (dataset, epoch, signature) alone:
// the store builds it, never a caller's view. At most
// max_shards_per_dataset shards live per dataset, the full table's
// included; the oldest goes first, and the pool keeps its counters.
//
// Generations: a shard counts exactly one watermark, so appends never
// move what a request or session counts through, and never wait for
// one. A caller at a new watermark gets a successor of the newest kept
// generation below it, whose cache entries are each patched by one delta
// scan of the appended chunks on first use. A shard keeps its two newest
// generations, so a request bound just before an append still shares
// after a later one moved the shard on. The registry mutex is never
// held across an O(rows) step.

#ifndef HYPDB_SERVICE_DATASET_REGISTRY_H_
#define HYPDB_SERVICE_DATASET_REGISTRY_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hypdb.h"
#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "stats/mi_engine.h"
#include "storage/chunked_count_provider.h"
#include "storage/chunked_table.h"
#include "util/statusor.h"

namespace hypdb {

struct DatasetRegistryOptions {
  /// Count-engine configuration for shard engines (kernel threads and
  /// cache budget).
  MiEngineOptions engine;
  /// Shard engines kept per dataset, the full-table shard included;
  /// oldest-first eviction beyond this.
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
  /// Cache occupancy summed over the generations the registry keeps.
  CacheOccupancy cache;
  /// Fraction of external count queries the pool answered without a
  /// table scan since the dataset was registered, 0 when idle.
  double cache_hit_ratio = 0.0;
  /// Cache evictions across the pool since the dataset was registered.
  int64_t evictions = 0;
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
  /// store without waiting for any reader. Does NOT bump the epoch:
  /// shards, sessions and discovery entries survive. Returns the
  /// watermark that publishes the rows. NotFound for an unknown dataset,
  /// InvalidArgument on arity mismatch (the store is left unchanged).
  StatusOr<int64_t> AppendRows(
      const std::string& name,
      const std::vector<std::vector<std::string>>& rows);

  StatusOr<TablePtr> Get(const std::string& name) const;
  StatusOr<int64_t> Epoch(const std::string& name) const;
  std::vector<DatasetInfo> List() const;

  /// The dataset's chunked store (for ingest benches and storage tests).
  StatusOr<std::shared_ptr<const ChunkedTable>> Store(
      const std::string& name) const;

  /// A consistent (table, epoch, watermark) triple — the handle a request
  /// works against for its whole lifetime, so a concurrent
  /// re-registration can never mix the old table with the new epoch. The
  /// table is the store materialized at `watermark`; later appends leave
  /// it as it is, and Pool hands the shards at the same watermark.
  struct Snapshot {
    TablePtr table;
    int64_t epoch = 0;
    int64_t watermark = 0;
  };
  StatusOr<Snapshot> GetSnapshot(const std::string& name) const;

  /// The generation of shard (`name`, `signature`) that counts the rows
  /// below `watermark`: the kept one at `watermark`, else a new one that
  /// the shard keeps, a successor of the newest kept one below it.
  /// `signature` is a canonical subpopulation signature
  /// (service/request.h): InvalidArgument when it does not parse,
  /// NotFound when it names a column the dataset lacks; "" names the full
  /// table. FailedPrecondition when `epoch` is not the dataset's (it was
  /// re-registered since the caller's snapshot) or both kept generations
  /// count past `watermark`; OutOfRange for a watermark past the store's.
  /// A dropped or evicted engine held by a caller stays valid and keeps
  /// counting its watermark; it just stops being handed out.
  StatusOr<std::shared_ptr<CountEngine>> ShardEngine(
      const std::string& name, int64_t epoch, const std::string& signature,
      int64_t watermark);

  /// The shards of one request or session bound at `snapshot`, whose
  /// WHERE has canonical `signature`, as the engine hooks of its session
  /// — the one provider the analyze path and staged sessions share: the
  /// population's generation at the snapshot's watermark, and a provider
  /// of each context's. Either is null where ShardEngine answers
  /// FailedPrecondition; the session then counts privately over its
  /// bound views.
  StatusOr<SessionHooks> Pool(const std::string& name,
                              const Snapshot& snapshot,
                              const std::string& signature);

  /// The dataset's count-engine stats since it was registered: its kept
  /// generations' plus those dropped or evicted since, as they stood when
  /// dropped (a holder's later counts through one are missing). Shards
  /// share nothing, so their counters simply add, and none goes backwards
  /// until the dataset is registered again.
  StatusOr<CountEngineStats> EngineStats(const std::string& name) const;

 private:
  /// Generations a shard keeps: the two with the newest watermarks.
  static constexpr size_t kGenerationsKept = 2;
  /// One generation of a shard: the count cache it hands out, and the
  /// provider under it, whose Successor seeds the next generation.
  struct Generation {
    std::shared_ptr<ChunkedCountProvider> rows;
    std::shared_ptr<CachingCountEngine> engine;
  };
  /// One shard's kept generations by the watermark each counts.
  using Generations = std::map<int64_t, Generation>;

  struct Dataset {
    /// The chunked store (append target; all reads derive from it).
    ChunkedTablePtr store;
    int64_t epoch = 0;
    /// The kept generations of each shard by canonical signature, the
    /// full table's ("") among them; dropped on re-registration.
    std::map<std::string, Generations> shards;
    std::list<std::string> shard_age;  // creation order, oldest first
    /// The summed counters of the generations dropped or evicted since
    /// registration, as they stood then.
    CountEngineStats retired;
  };

  /// The generation of `signature` at `watermark` over `store`: a
  /// successor of `predecessor` (a kept generation below `watermark`)
  /// when it holds one, else a new shard (errors as ShardEngine's).
  /// Without mu_.
  StatusOr<Generation> BuildGeneration(const ChunkedTablePtr& store,
                                       const std::string& signature,
                                       int64_t watermark,
                                       const Generation& predecessor) const;

  /// EngineStats body without the lookup/lock. Requires mu_.
  CountEngineStats EngineStatsLocked(const Dataset& ds) const;

  mutable std::mutex mu_;
  DatasetRegistryOptions options_;
  std::map<std::string, Dataset> datasets_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_DATASET_REGISTRY_H_
