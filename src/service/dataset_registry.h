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
// Every shard is a count cache over its own rows: the empty signature's
// is a CachingCountEngine over the chunked store (ChunkedCountProvider),
// any other a CachingCountEngine over its live filtered population
// (FilteredPopulationProvider), so both track appends. Shards share no
// engine. A shard is a function of (dataset, epoch, signature) alone:
// the store builds it, never a caller's view, so a signature that does
// not resolve against the store gets no shard at all. At most
// max_shards_per_dataset shards live per dataset, the full table's
// included; the oldest goes first, and the pool keeps its counters.
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
  /// Cache occupancy summed over the dataset's live shards.
  CacheOccupancy cache;
  /// Fraction of external count queries the pool answered without a
  /// table scan since the dataset was registered, 0 when idle.
  double cache_hit_ratio = 0.0;
  /// Cache evictions across the pool since the dataset was registered.
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
  /// snapshot). The empty signature names the full table. The oldest
  /// shards are dropped beyond max_shards_per_dataset; an evicted engine
  /// held by a caller stays valid (shared_ptr), it just stops being
  /// handed out.
  StatusOr<std::shared_ptr<CountEngine>> ShardEngine(
      const std::string& name, int64_t epoch, const std::string& signature);

  /// The shards of one request or session bound at `snapshot`, whose
  /// WHERE has canonical `signature`, as the engine hooks of its session
  /// — the one provider the analyze path and staged sessions share. Each
  /// shard counts its own rows: a context's shard never reads the
  /// population's. population_engine is the population's shard, or null
  /// when the dataset was re-registered since the snapshot (the caller
  /// then runs unshared over its snapshot table); context_engine_provider
  /// maps a context's WHERE conjunction to the shard of its canonical
  /// signature (null after a re-registration). The shards are live: the
  /// caller holds the read lease while anything counts through them, and
  /// the session pins its population by version (see SessionHooks).
  StatusOr<SessionHooks> Pool(const std::string& name,
                              const Snapshot& snapshot,
                              const std::string& signature);

  /// The dataset's count-engine stats since it was registered: its live
  /// shards' plus those of the shards evicted since. Shards share
  /// nothing, so their counters simply add, and none goes backwards
  /// until the dataset is registered again.
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
    /// Shard engines by canonical signature, the full table's ("")
    /// among them. Created on first use, dropped on re-registration but
    /// NOT on append (they read the live store and patch by delta).
    std::map<std::string, std::shared_ptr<CountEngine>> shards;
    std::list<std::string> shard_age;  // creation order, oldest first
    /// The summed counters of the shards evicted since registration.
    CountEngineStats retired;
  };

  /// A new engine for `signature` over the store: a cache over a
  /// ChunkedCountProvider for the empty signature, over a
  /// FilteredPopulationProvider for any other. InvalidArgument/NotFound
  /// for a signature that does not resolve (see ShardEngine). Requires
  /// mu_.
  StatusOr<std::shared_ptr<CountEngine>> BuildShardLocked(
      const Dataset& ds, const std::string& signature) const;

  /// EngineStats body without the lookup/lock. Requires mu_.
  CountEngineStats EngineStatsLocked(const Dataset& ds) const;

  mutable std::mutex mu_;
  DatasetRegistryOptions options_;
  std::map<std::string, Dataset> datasets_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_DATASET_REGISTRY_H_
