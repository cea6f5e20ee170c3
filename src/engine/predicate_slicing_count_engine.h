// PredicateSlicingCountEngine: cross-shard count reuse for filtered
// subpopulations.
//
// The paper's cost model (Sec. 6, Fig. 6c) is "every statistic is a
// count(*) GROUP BY, so share the counts". The service's shard pool used
// to stop that sharing at the WHERE clause: each subpopulation owned an
// isolated engine, so four queries over four departments re-scanned the
// same table four times. This engine closes that gap for the common case
// of a *conjunction of equality predicates* P = v (single-value IN terms,
// e.g. every per-context engine Γ_i = C ∧ X = x_i): counts over columns S
// of the filtered view are exactly the P = v slice of the full-table
// count(*) GROUP BY S ∪ P,
//
//   count_{σ_{P=v}(D)}(S = s)  =  count_D(S = s, P = v),
//
// so the engine asks a *shared, dataset-wide parent* (normally a
// CachingCountEngine over the full table) for the S ∪ P summary — computed
// once, cached, and sliced at different predicate values by every
// subpopulation shard of the dataset — and derives the filtered answer by
// selecting the groups whose predicate components equal v and re-encoding
// them over S. This is the paper's contingency-table materialization
// argument applied across WHERE clauses; the same count-sharing trick
// underpins explanation mining in Youngmann & Salimi, "On Explaining
// Confounding Bias" (2022).
//
// Fallback rules (the engine is *always* bit-identical to a direct scan
// of the subpopulation):
//  * non-equality predicates (multi-value IN terms, values absent from
//    the dictionary) never reach this engine — DatasetRegistry builds the
//    isolated stack for those signatures;
//  * a query with duplicate columns, or one the parent cannot answer
//    (e.g. the full-table S ∪ P codec would overflow while the filtered
//    scan still fits), is answered by the population engine, which
//    aggregates exactly the matching rows.
//
// Stats: `predicate_slices` counts queries answered by slicing. stats()
// reports this layer plus its population engine only — the parent is
// shared across shards, so its work is accounted once by whoever owns it
// (DatasetRegistry::EngineStats), never summed into each shard.
//
// Thread safety: all public methods may be called concurrently. The
// parent and population engines are thread-safe, the predicates and
// cardinalities are immutable, and the slicing computation is pure; only
// the counters take this engine's mutex.

#ifndef HYPDB_ENGINE_PREDICATE_SLICING_COUNT_ENGINE_H_
#define HYPDB_ENGINE_PREDICATE_SLICING_COUNT_ENGINE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "engine/count_engine.h"

namespace hypdb {

/// One equality conjunct of a subpopulation: column `col` = code `code`.
struct SlicePredicate {
  int col = -1;
  int32_t code = -1;
};

class PredicateSlicingCountEngine : public CountEngine {
 public:
  /// `parent` answers full-table counts (shared across shards);
  /// `predicates` is the non-empty equality conjunction defining the
  /// subpopulation; `population` aggregates exactly its rows and answers
  /// NumRows(), fallback scans and the delta protocol (PopulationVersion
  /// / CountsDelta) — in the registry a live FilteredPopulationProvider,
  /// so the shard tracks appends and the shared parent's patched
  /// summaries slice to current answers. `schema` is the full table; its
  /// column cardinalities bound the size of an S ∪ P summary.
  /// `parent_cache_budget` is the parent's cached-cell budget when known
  /// (0 = unlimited): a query whose S ∪ P summary the admission policy
  /// refuses under that budget is answered by the population engine
  /// instead, because an over-budget summary is evicted on insert and
  /// every slice would re-scan the full table, strictly worse than the
  /// isolated stack this engine replaces. Admission goes through
  /// `policy` (CachePolicy::AdmitMaterialization; null = the static
  /// policy): the static policy charges the conservative
  /// min(domain, full-table rows) bound — it cannot see sparsity, so
  /// sparse supersets whose actual summary would fit are refused too —
  /// while the adaptive policy charges the parent's *observed* cell
  /// bound (ObservedCellBound: a cached superset entry or an installed
  /// cube lattice) whenever one exists.
  PredicateSlicingCountEngine(
      std::shared_ptr<CountEngine> parent,
      std::vector<SlicePredicate> predicates,
      std::shared_ptr<CountEngine> population, const Table& schema,
      int64_t parent_cache_budget = 0,
      std::shared_ptr<const CachePolicy> policy = nullptr);

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  /// Forwards the hint to the parent over S ∪ P, so one shared
  /// materialization serves every shard whose predicates live on the
  /// same columns (contexts of one query differ only in the value).
  /// Subject to the same parent-budget guard as Counts(): a superset the
  /// slicer would refuse to use is not materialized (no-op, Ok).
  Status Prefetch(const std::vector<int>& cols) override;

  int64_t NumRows() const override { return population_->NumRows(); }

  /// The population's version (the storage watermark for a live
  /// population), so caching layers above this shard can version their
  /// entries.
  int64_t PopulationVersion() const override {
    return population_->PopulationVersion();
  }

  /// Forwarded to the population (for a live one, a plain filtered scan
  /// of the appended suffix).
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    return population_->CountsDelta(cols, from_version, to_version);
  }

  /// This layer plus the population engine. Deliberately excludes the
  /// shared parent — see the header comment.
  CountEngineStats stats() const override;
  void ResetStats() override;

 private:
  /// Sorted union of `sorted` (sorted unique query columns) and the
  /// predicate columns.
  std::vector<int> SupersetFor(const std::vector<int>& sorted) const;

  /// True when the admission policy refuses to materialize `superset` in
  /// the parent's cache (see the constructor comment; always false when
  /// the budget is unknown).
  bool OverParentBudget(const std::vector<int>& superset) const;

  /// Selects the P = v groups of `parent_counts` (a summary over
  /// SupersetFor(cols)) and re-encodes them over `cols` in the requested
  /// order. Infallible: the codec over a subset of a representable
  /// superset always fits.
  GroupCounts Slice(const GroupCounts& parent_counts,
                    const std::vector<int>& cols) const;

  std::shared_ptr<CountEngine> parent_;
  std::vector<SlicePredicate> predicates_;  // sorted by col, unique
  std::shared_ptr<CountEngine> population_;
  std::vector<int32_t> cardinalities_;  // the full table's, per column
  int64_t parent_cache_budget_ = 0;     // 0 = unlimited
  std::shared_ptr<const CachePolicy> policy_;  // never null

  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_ENGINE_PREDICATE_SLICING_COUNT_ENGINE_H_
