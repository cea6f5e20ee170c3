#include "service/dataset_registry.h"

#include <algorithm>
#include <utility>

#include "dataframe/csv.h"
#include "engine/caching_count_engine.h"
#include "engine/predicate_slicing_count_engine.h"
#include "service/request.h"
#include "storage/chunked_count_provider.h"
#include "storage/filtered_population.h"

namespace hypdb {
namespace {

/// Resolves a parsed signature into the equality conjunction it denotes
/// against `table`, or false when it is not sliceable: a term with more
/// (or fewer) than one value, an unknown attribute, a value absent from
/// the column dictionary (such a term matches no row *today*, but the
/// label may arrive with a later append, so the shard must track the
/// store — the live filtered stack does), or a repeated attribute
/// (distinct conjuncts on one column intersect; not worth slicing
/// machinery).
bool ResolveSlicePredicates(const Table& table,
                            const std::vector<SubpopulationTerm>& terms,
                            std::vector<SlicePredicate>* out) {
  for (const SubpopulationTerm& term : terms) {
    if (term.values.size() != 1) return false;
    StatusOr<int> col = table.ColumnIndex(term.attribute);
    if (!col.ok()) return false;
    const int32_t code = table.column(*col).dict().Find(term.values[0]);
    if (code < 0) return false;
    for (const SlicePredicate& prev : *out) {
      if (prev.col == *col) return false;
    }
    out->push_back(SlicePredicate{*col, code});
  }
  return true;
}

}  // namespace

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
  // New data invalidates every cached summary: shards (and the parent
  // they slice from) aggregate rows of the replaced table. Live engines
  // held by in-flight queries stay valid for the old store (shared_ptr),
  // they just stop being handed out.
  ds.parent.reset();
  ds.shards.clear();
  ds.shard_age.clear();
  ds.retired_slices = 0;  // the parent's counters went with it
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
  // Outside mu_: after an append this rebuilds the whole-table copy, and
  // requests on other datasets must not wait behind it.
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
    info.shards =
        static_cast<int>(ds.shards.size()) + (ds.parent != nullptr ? 1 : 0);
    // Cache occupancy over the pool. Slicing shards report only their
    // own layer (their CacheUse does not recurse into the shared
    // parent), so the sum never double counts.
    if (ds.parent != nullptr) info.cache += ds.parent->CacheUse();
    for (const auto& [sig, engine] : ds.shards) {
      info.cache += engine->CacheUse();
    }
    if (ds.parent != nullptr || !ds.shards.empty()) {
      const CountEngineStats stats = EngineStatsLocked(ds);
      info.evictions = stats.evictions;
      if (stats.queries > 0) {
        const double miss = static_cast<double>(stats.scans) /
                            static_cast<double>(stats.queries);
        info.cache_hit_ratio = std::min(1.0, std::max(0.0, 1.0 - miss));
      }
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
  // The empty signature selects the whole table: that IS the parent
  // engine, so full-table queries and the slicing shards share one cache.
  if (signature.empty()) return ParentEngineLocked(ds);

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
      // Remember the evicted shard's slice count: the internal parent
      // queries it caused outlive it (in-flight holders of the evicted
      // engine may still add a few — the accounting is best-effort under
      // that race, exact otherwise).
      ds.retired_slices += oldest->second->stats().predicate_slices;
      ds.shards.erase(oldest);
    }
    ds.shard_age.pop_front();
  }
  return engine;
}

GroupByKernelOptions DatasetRegistry::KernelOptions() const {
  // One translation for the whole stack: the same mapping MiEngine and
  // session per-context engines use (stats/mi_engine.h).
  return ScanKernelOptions(options_.engine);
}

std::shared_ptr<CountEngine> DatasetRegistry::WrapCache(
    std::shared_ptr<CountEngine> base) const {
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options_.engine.max_cached_cells;
  return std::make_shared<CachingCountEngine>(std::move(base), caching);
}

std::shared_ptr<CountEngine> DatasetRegistry::ParentEngineLocked(
    Dataset& ds) {
  if (ds.parent == nullptr) {
    ds.parent = WrapCache(
        std::make_shared<ChunkedCountProvider>(ds.store, KernelOptions()));
  }
  return ds.parent;
}

StatusOr<std::shared_ptr<CountEngine>> DatasetRegistry::BuildShardLocked(
    Dataset& ds, const std::string& signature) {
  // A live filtered-population scanner: it tracks appends (its row set
  // extends lazily) and carries the delta protocol, so the caching layer
  // above patches instead of invalidating.
  HYPDB_ASSIGN_OR_RETURN(std::vector<SubpopulationTerm> terms,
                         ParseSubpopulationSignature(signature));
  std::vector<FilteredPopulationProvider::Term> filter;
  filter.reserve(terms.size());
  for (const SubpopulationTerm& term : terms) {
    filter.push_back(
        FilteredPopulationProvider::Term{term.attribute, term.values});
  }
  HYPDB_ASSIGN_OR_RETURN(
      std::shared_ptr<CountEngine> live,
      FilteredPopulationProvider::Create(ds.store, std::move(filter),
                                         KernelOptions()));
  // Slicing needs a parent that actually caches: with a zero cell budget
  // (cache nothing), every slice would re-scan the full table, strictly
  // worse than scanning the filtered view. (A zero budget means
  // "unlimited" to the slicer's guard but "cache nothing" to
  // CachingCountEngine — never forward that configuration.)
  std::vector<SlicePredicate> predicates;
  if (options_.engine.max_cached_cells > 0) {
    TablePtr table = ds.store->Materialized();
    if (ResolveSlicePredicates(*table, terms, &predicates)) {
      // A shard-local cache over the slicer: exact repeats and
      // shard-level marginalizations short-circuit before reaching the
      // parent. The preference order per query is therefore shard hit >
      // shard marginalization > parent slice (hit/marginalize/scan
      // inside the parent) > fallback scan of the live population.
      return WrapCache(std::make_shared<PredicateSlicingCountEngine>(
          ParentEngineLocked(ds), std::move(predicates), std::move(live),
          *table, options_.engine.max_cached_cells));
    }
  }
  // Live isolated stack: the filtered-population scanner plus the cache
  // (delta-patched across appends, no cross-shard sharing).
  return WrapCache(std::move(live));
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
  CountEngineStats total;
  // Parent first, shards after. Work counters never double count:
  // slicing shards report their own layer + private fallback only, never
  // the shared parent. `queries` needs one correction — each successful
  // slice issued exactly one internal Counts() on the parent (counted in
  // the parent's queries), so subtract the slice count to keep the
  // aggregate at "each external query once". A parent call that *failed*
  // (S ∪ P codec overflow, answered by the shard's fallback instead)
  // still counts once extra — rare and conservative.
  if (ds.parent != nullptr) total += ds.parent->stats();
  for (const auto& [sig, engine] : ds.shards) {
    const CountEngineStats shard = engine->stats();
    total += shard;
    total.queries -= shard.predicate_slices;
  }
  // Slices by since-evicted shards still sit in the parent's queries.
  total.queries -= ds.retired_slices;
  // Parent and shard counters are read under their own mutexes, not one
  // atomic snapshot: a worker mid-slice can land its predicate_slices
  // increment between our two reads, transiently over-subtracting.
  // Clamp — the counters are approximate under concurrency (as
  // RequestStats documents), but never negative.
  total.queries = std::max<int64_t>(total.queries, 0);
  return total;
}

}  // namespace hypdb
