// Group-by counting and averaging over views.
//
// These are the only relational aggregations HypDB needs: the paper's
// Listing-1 query is group-by-average, its rewriting (Listing 2) is two
// group-bys plus a join, and every entropy / mutual-information estimate
// is a count(*) GROUP BY in disguise (paper Sec. 6).

#ifndef HYPDB_DATAFRAME_GROUP_BY_H_
#define HYPDB_DATAFRAME_GROUP_BY_H_

#include <cstdint>
#include <vector>

#include "dataframe/tuple_codec.h"
#include "dataframe/view.h"
#include "util/statusor.h"

namespace hypdb {

class CountEngine;

/// count(*) GROUP BY result: parallel arrays of (key, count), keys sorted
/// ascending. `total` is the number of rows aggregated.
struct GroupCounts {
  TupleCodec codec;
  std::vector<uint64_t> keys;
  std::vector<int64_t> counts;
  int64_t total = 0;

  int NumGroups() const { return static_cast<int>(keys.size()); }
};

/// GROUP BY result that keeps, per group, the physical row ids.
struct GroupedRows {
  TupleCodec codec;
  std::vector<uint64_t> keys;
  std::vector<std::vector<int64_t>> rows;

  int NumGroups() const { return static_cast<int>(keys.size()); }
};

/// avg() GROUP BY result: per group, the count and the mean of each
/// outcome column; `means[g][o]` is the mean of outcome o in group g.
struct GroupedAverages {
  TupleCodec codec;
  std::vector<uint64_t> keys;
  std::vector<int64_t> counts;
  std::vector<std::vector<double>> means;
  int64_t total = 0;

  int NumGroups() const { return static_cast<int>(keys.size()); }
};

/// SELECT count(*) ... GROUP BY cols.
StatusOr<GroupCounts> CountBy(const TableView& view,
                              const std::vector<int>& cols);

/// GROUP BY cols, collecting the member row ids of each group.
StatusOr<GroupedRows> CollectGroups(const TableView& view,
                                    const std::vector<int>& cols);

/// SELECT avg(outcomes...) ... GROUP BY group_cols, derived from counts
/// (paper Sec. 6): per outcome Y, one count(*) GROUP BY (G..., Y) from
/// `engine` gives mean_g = Σ_y value(y)·c(g,y) / c(g). The sum runs in
/// ascending value order (ties by label), so the mean depends only on the
/// counts — never on row order or dictionary codes — and equals sum/count
/// exactly for integer labels. `engine` must aggregate rows of `table`;
/// keys use TupleCodec::Create(table, group_cols) whatever codec the
/// engine answers in. Outcome labels must be numeric (e.g. "0"/"1").
StatusOr<GroupedAverages> AverageBy(CountEngine& engine, const Table& table,
                                    const std::vector<int>& group_cols,
                                    const std::vector<int>& outcome_cols);

/// The same over a view's own kernel counts (one scan per outcome).
StatusOr<GroupedAverages> AverageBy(const TableView& view,
                                    const std::vector<int>& group_cols,
                                    const std::vector<int>& outcome_cols);

/// Marginalizes `counts` onto the codec-column subset `keep` (positions
/// into counts.codec.cols()). Equivalent to re-grouping on fewer columns
/// but runs on the summary, not the data — this is how cube cells and
/// cached contingency tables answer coarser queries (paper Sec. 6).
GroupCounts MarginalizeOnto(const GroupCounts& counts,
                            const std::vector<int>& keep);

/// Projects `counts` onto table columns `cols` (each present in
/// counts.codec.cols()), in exactly the requested order — a plain copy
/// when the codec already matches. This is how caches and cube cells
/// stored in one column order answer queries phrased in another.
GroupCounts ProjectOnto(const GroupCounts& counts,
                        const std::vector<int>& cols);

/// Sorts parallel (key, count) arrays by key ascending (the GroupCounts
/// invariant shared by every producer).
void SortCountsByKey(std::vector<uint64_t>* keys,
                     std::vector<int64_t>* counts);

/// Adds two summaries of disjoint row populations grouped on the same
/// column list, re-keyed onto `target` (same cols, cardinalities >=
/// either input's). Inputs may carry older codecs: append-only
/// dictionaries keep codes stable, so decoding a key under its own codec
/// and re-encoding under `target` is exact. This is the delta-maintenance
/// primitive — merging a chunk-suffix summary into a cached one yields
/// exactly the summary a cold scan of the grown table produces.
GroupCounts MergeGroupCounts(const GroupCounts& a, const GroupCounts& b,
                             const TupleCodec& target);

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_GROUP_BY_H_
