#include "service/dataset_registry.h"

#include <algorithm>
#include <utility>

#include "dataframe/csv.h"
#include "engine/caching_count_engine.h"
#include "service/request.h"
#include "storage/chunked_count_provider.h"
#include "storage/filtered_population.h"

namespace hypdb {

DatasetRegistry::DatasetRegistry(DatasetRegistryOptions options)
    : options_(std::move(options)) {}

int64_t DatasetRegistry::Register(const std::string& name, TablePtr table) {
  ChunkedTablePtr store;
  if (table != nullptr) {
    StatusOr<ChunkedTablePtr> built = ChunkedTable::FromTable(
        table, std::max<int64_t>(1, options_.chunk_rows));
    if (built.ok()) store = std::move(*built);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Dataset& ds = datasets_[name];
  ds.store = std::move(store);
  ++ds.epoch;
  // The lease outlives re-registration: requests holding the old epoch's
  // read lease must keep excluding writers until they drain.
  if (ds.lease == nullptr) ds.lease = std::make_shared<std::shared_mutex>();
  // New data invalidates every cached summary: shards aggregate rows of
  // the replaced table. Live engines held by in-flight queries stay valid
  // for the old store (shared_ptr), they just stop being handed out. The
  // pool's counters start again with the new table.
  ds.shards.clear();
  ds.shard_age.clear();
  ds.retired = {};
  return ds.epoch;
}

StatusOr<int64_t> DatasetRegistry::RegisterCsv(const std::string& name,
                                               const std::string& path) {
  HYPDB_ASSIGN_OR_RETURN(Table table, ReadCsv(path));
  return Register(name, MakeTable(std::move(table)));
}

StatusOr<int64_t> DatasetRegistry::AppendRows(
    const std::string& name,
    const std::vector<std::vector<std::string>>& rows) {
  // Grab the store and lease under the registry mutex, then release it
  // before taking the lease exclusively: the lock order is lease →
  // registry mutex, and readers holding the shared lease re-enter the
  // registry (ShardEngine), so holding mu_ while waiting on the lease
  // would deadlock.
  ChunkedTablePtr store;
  std::shared_ptr<std::shared_mutex> lease;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    store = it->second.store;
    lease = it->second.lease;
  }
  std::unique_lock<std::shared_mutex> write(*lease);
  HYPDB_RETURN_IF_ERROR(store->Append(rows));
  return store->Watermark();
}

StatusOr<DatasetLease> DatasetRegistry::ReadLease(
    const std::string& name) const {
  std::shared_ptr<std::shared_mutex> lease;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    lease = it->second.lease;
  }
  // Acquire outside mu_ (lock order: lease before registry mutex).
  DatasetLease out;
  out.mu = std::move(lease);
  out.lock = std::shared_lock<std::shared_mutex>(*out.mu);
  return out;
}

StatusOr<TablePtr> DatasetRegistry::Get(const std::string& name) const {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<const ChunkedTable> store,
                         Store(name));
  // Outside mu_: after an append this copies every column's codes (the
  // snapshot shares the store's dictionaries), and requests on other
  // datasets must not wait behind it.
  return store->Materialized();
}

StatusOr<int64_t> DatasetRegistry::Epoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return it->second.epoch;
}

StatusOr<std::shared_ptr<const ChunkedTable>> DatasetRegistry::Store(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end() || it->second.store == nullptr) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return std::shared_ptr<const ChunkedTable>(it->second.store);
}

StatusOr<DatasetRegistry::Snapshot> DatasetRegistry::GetSnapshot(
    const std::string& name) const {
  std::shared_ptr<const ChunkedTable> store;
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    store = it->second.store;
    out.epoch = it->second.epoch;
  }
  // Materialize outside mu_ (see Get). The caller's read lease keeps the
  // watermark still in between, so table, epoch and watermark agree.
  out.table = store->Materialized();
  out.watermark = out.table->NumRows();
  return out;
}

std::vector<DatasetInfo> DatasetRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DatasetInfo> out;
  out.reserve(datasets_.size());
  for (const auto& [name, ds] : datasets_) {
    DatasetInfo info;
    info.name = name;
    info.epoch = ds.epoch;
    if (ds.store != nullptr) {
      info.rows = ds.store->NumRows();
      info.columns = ds.store->NumColumns();
      info.chunks = ds.store->NumChunks();
      info.watermark = ds.store->Watermark();
    }
    info.shards = static_cast<int>(ds.shards.size());
    // Shards share no engine, so occupancy and counters simply add.
    for (const auto& [sig, engine] : ds.shards) {
      info.cache += engine->CacheUse();
    }
    const CountEngineStats stats = EngineStatsLocked(ds);
    info.evictions = stats.evictions;
    if (stats.queries > 0) {
      const double miss = static_cast<double>(stats.scans) /
                          static_cast<double>(stats.queries);
      info.cache_hit_ratio = std::min(1.0, std::max(0.0, 1.0 - miss));
    }
    out.push_back(std::move(info));
  }
  return out;
}

StatusOr<std::shared_ptr<CountEngine>> DatasetRegistry::ShardEngine(
    const std::string& name, int64_t epoch, const std::string& signature) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end() || it->second.store == nullptr) {
    return Status::NotFound("dataset not registered: " + name);
  }
  Dataset& ds = it->second;
  if (ds.epoch != epoch) {
    // The caller's snapshot predates a re-registration: it bound against
    // the replaced table, so this epoch's shards do not answer for it.
    return Status::FailedPrecondition(
        "dataset " + name + " re-registered (snapshot epoch " +
        std::to_string(epoch) + ", current " + std::to_string(ds.epoch) +
        ")");
  }
  auto shard = ds.shards.find(signature);
  if (shard != ds.shards.end()) return shard->second;

  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<CountEngine> engine,
                         BuildShardLocked(ds, signature));
  ds.shards.emplace(signature, engine);
  ds.shard_age.push_back(signature);
  while (static_cast<int>(ds.shards.size()) >
         std::max(1, options_.max_shards_per_dataset)) {
    auto oldest = ds.shards.find(ds.shard_age.front());
    if (oldest != ds.shards.end()) {
      // Keep the evicted shard's counters, so the pool's never go
      // backwards. What in-flight holders of the evicted engine count
      // after this point is not counted.
      ds.retired += oldest->second->stats();
      ds.shards.erase(oldest);
    }
    ds.shard_age.pop_front();
  }
  return engine;
}

StatusOr<std::shared_ptr<CountEngine>> DatasetRegistry::BuildShardLocked(
    const Dataset& ds, const std::string& signature) const {
  // Both scanners read the live store: their version is its watermark
  // and they count an appended suffix alone, so the cache above patches
  // its summaries instead of invalidating them. The kernel options are
  // the mapping MiEngine and private session engines use.
  const GroupByKernelOptions kernel = ScanKernelOptions(options_.engine);
  std::shared_ptr<CountEngine> scanner;
  if (signature.empty()) {
    scanner = std::make_shared<ChunkedCountProvider>(ds.store, kernel);
  } else {
    HYPDB_ASSIGN_OR_RETURN(std::vector<SubpopulationTerm> terms,
                           ParseSubpopulationSignature(signature));
    std::vector<FilteredPopulationProvider::Term> filter;
    filter.reserve(terms.size());
    for (SubpopulationTerm& term : terms) {
      filter.push_back(FilteredPopulationProvider::Term{
          std::move(term.attribute), std::move(term.values)});
    }
    HYPDB_ASSIGN_OR_RETURN(
        scanner,
        FilteredPopulationProvider::Create(ds.store, std::move(filter),
                                           kernel));
  }
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options_.engine.max_cached_cells;
  return std::shared_ptr<CountEngine>(
      std::make_shared<CachingCountEngine>(std::move(scanner), caching));
}

StatusOr<SessionHooks> DatasetRegistry::Pool(const std::string& name,
                                             const Snapshot& snapshot,
                                             const std::string& signature) {
  SessionHooks out;
  const int64_t epoch = snapshot.epoch;
  StatusOr<std::shared_ptr<CountEngine>> shard =
      ShardEngine(name, epoch, signature);
  if (shard.ok()) {
    out.population_engine = std::move(*shard);
  } else if (shard.status().code() != StatusCode::kFailedPrecondition) {
    return shard.status();
  }
  out.context_engine_provider = [this, name, epoch](
                     const std::vector<std::pair<
                         std::string, std::vector<std::string>>>& where,
                     const TableView&) -> std::shared_ptr<CountEngine> {
    AggQuery context_query;
    context_query.where = where;
    StatusOr<std::shared_ptr<CountEngine>> shard =
        ShardEngine(name, epoch, SubpopulationSignature(context_query));
    // A stale epoch: the caller's private fallback.
    return shard.ok() ? std::move(*shard) : nullptr;
  };
  return out;
}

StatusOr<CountEngineStats> DatasetRegistry::EngineStats(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return EngineStatsLocked(it->second);
}

CountEngineStats DatasetRegistry::EngineStatsLocked(const Dataset& ds) const {
  CountEngineStats total = ds.retired;
  for (const auto& [sig, engine] : ds.shards) total += engine->stats();
  return total;
}

}  // namespace hypdb
