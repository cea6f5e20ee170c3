#include "service/dataset_registry.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "dataframe/csv.h"
#include "engine/caching_count_engine.h"
#include "service/request.h"

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
  ChunkedTablePtr store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    store = it->second.store;
  }
  // Outside mu_: the store serializes writers itself.
  return store->Append(rows);
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
  // Materialize outside mu_ (see Get). The store is the epoch's, and the
  // watermark is read from the table itself, so the three agree.
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
    for (const auto& [sig, kept] : ds.shards) {
      for (const auto& [w, gen] : kept) info.cache += gen.engine->CacheUse();
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
    const std::string& name, int64_t epoch, const std::string& signature,
    int64_t watermark) {
  // Two passes at most: the first finds the kept generation at
  // `watermark` or the newest kept one below it; the second installs the
  // generation built in between outside mu_ (it matches its WHERE terms
  // over the rows it adds, and a successor copies its predecessor's
  // cache), unless a concurrent caller built one at `watermark` meanwhile.
  Generation built;
  for (;;) {
    ChunkedTablePtr store;
    // Declared before the lock, so a generation the registry drops is
    // destroyed (its cache freed) after mu_ is released.
    std::vector<Generation> dropped;
    Generation predecessor;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = datasets_.find(name);
      if (it == datasets_.end() || it->second.store == nullptr) {
        return Status::NotFound("dataset not registered: " + name);
      }
      Dataset& ds = it->second;
      if (ds.epoch != epoch) {
        // The caller's snapshot predates a re-registration: it bound
        // against the replaced table, so this epoch's shards do not
        // answer for it.
        return Status::FailedPrecondition(
            "dataset " + name + " re-registered (snapshot epoch " +
            std::to_string(epoch) + ", current " + std::to_string(ds.epoch) +
            ")");
      }
      if (watermark < 0 || watermark > ds.store->Watermark()) {
        return Status::OutOfRange("watermark past the dataset's");
      }
      auto shard = ds.shards.find(signature);
      if (shard != ds.shards.end()) {
        Generations& kept = shard->second;
        auto at = kept.lower_bound(watermark);
        if (at != kept.end() && at->first == watermark) {
          return std::shared_ptr<CountEngine>(at->second.engine);
        }
        if (built.engine != nullptr) {
          // Past kGenerationsKept the oldest goes; the pool keeps its stats.
          kept.emplace_hint(at, watermark, built);
          if (kept.size() > kGenerationsKept) {
            ds.retired += kept.begin()->second.engine->stats();
            dropped.push_back(std::move(kept.begin()->second));
            kept.erase(kept.begin());
          }
          return std::shared_ptr<CountEngine>(built.engine);
        }
        if (at == kept.begin()) {
          return Status::FailedPrecondition(
              "every kept generation of the shard counts past the "
              "caller's watermark");
        }
        predecessor = std::prev(at)->second;
      } else if (built.engine != nullptr) {
        ds.shards[signature].emplace(watermark, built);
        ds.shard_age.push_back(signature);
        while (static_cast<int>(ds.shards.size()) >
               std::max(1, options_.max_shards_per_dataset)) {
          auto oldest = ds.shards.find(ds.shard_age.front());
          if (oldest != ds.shards.end()) {
            // Keep the evicted shard's counters, so the pool's never go
            // backwards. What in-flight holders of the evicted engines
            // count after this point is not counted.
            for (auto& [w, gen] : oldest->second) {
              ds.retired += gen.engine->stats();
              dropped.push_back(std::move(gen));
            }
            ds.shards.erase(oldest);
          }
          ds.shard_age.pop_front();
        }
        return std::shared_ptr<CountEngine>(built.engine);
      }
      store = ds.store;
    }
    HYPDB_ASSIGN_OR_RETURN(
        built, BuildGeneration(store, signature, watermark, predecessor));
  }
}

StatusOr<DatasetRegistry::Generation> DatasetRegistry::BuildGeneration(
    const ChunkedTablePtr& store, const std::string& signature,
    int64_t watermark, const Generation& predecessor) const {
  Generation out;
  if (predecessor.rows != nullptr) {
    HYPDB_ASSIGN_OR_RETURN(out.rows, predecessor.rows->Successor(watermark));
    out.engine =
        std::make_shared<CachingCountEngine>(out.rows, *predecessor.engine);
    return out;
  }
  // The empty signature parses to no terms: the full table. The kernel
  // options are the mapping MiEngine and private session engines use.
  HYPDB_ASSIGN_OR_RETURN(std::vector<SubpopulationTerm> terms,
                         ParseSubpopulationSignature(signature));
  HYPDB_ASSIGN_OR_RETURN(
      out.rows,
      ChunkedCountProvider::Create(store, std::move(terms), watermark,
                                   ScanKernelOptions(options_.engine)));
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options_.engine.max_cached_cells;
  out.engine = std::make_shared<CachingCountEngine>(out.rows, caching);
  return out;
}

StatusOr<SessionHooks> DatasetRegistry::Pool(const std::string& name,
                                             const Snapshot& snapshot,
                                             const std::string& signature) {
  SessionHooks out;
  const int64_t epoch = snapshot.epoch;
  const int64_t watermark = snapshot.watermark;
  StatusOr<std::shared_ptr<CountEngine>> shard =
      ShardEngine(name, epoch, signature, watermark);
  if (shard.ok()) {
    out.population_engine = std::move(*shard);
  } else if (shard.status().code() != StatusCode::kFailedPrecondition) {
    return shard.status();
  }
  out.context_engine_provider = [this, name, epoch, watermark](
                     const std::vector<std::pair<
                         std::string, std::vector<std::string>>>& where,
                     const TableView&) -> std::shared_ptr<CountEngine> {
    AggQuery context_query;
    context_query.where = where;
    StatusOr<std::shared_ptr<CountEngine>> shard = ShardEngine(
        name, epoch, SubpopulationSignature(context_query), watermark);
    // A stale epoch, or a shard whose kept generations all count past
    // the watermark: the caller's private fallback.
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
  for (const auto& [sig, kept] : ds.shards) {
    for (const auto& [w, gen] : kept) total += gen.engine->stats();
  }
  return total;
}

}  // namespace hypdb
