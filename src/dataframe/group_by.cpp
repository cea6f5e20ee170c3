#include "dataframe/group_by.h"

#include <algorithm>
#include <unordered_map>

#include "engine/count_engine.h"
#include "engine/groupby_kernel.h"

namespace hypdb {
namespace {

// Sorts parallel (key, payload) arrays by key.
template <typename Payload>
void SortByKey(std::vector<uint64_t>* keys, std::vector<Payload>* payloads) {
  std::vector<size_t> order(keys->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return (*keys)[a] < (*keys)[b]; });
  std::vector<uint64_t> sorted_keys(keys->size());
  std::vector<Payload> sorted_payloads(payloads->size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = (*keys)[order[i]];
    sorted_payloads[i] = std::move((*payloads)[order[i]]);
  }
  *keys = std::move(sorted_keys);
  *payloads = std::move(sorted_payloads);
}

}  // namespace

StatusOr<GroupCounts> CountBy(const TableView& view,
                              const std::vector<int>& cols) {
  // One implementation for all count(*) GROUP BYs: the packed-tuple
  // kernel (dense radix / open-addressing hash) in src/engine.
  return ScanCounts(view, cols);
}

StatusOr<GroupedRows> CollectGroups(const TableView& view,
                                    const std::vector<int>& cols) {
  GroupedRows out;
  HYPDB_ASSIGN_OR_RETURN(out.codec, TupleCodec::Create(view.table(), cols));
  std::unordered_map<uint64_t, size_t> slot;
  const int64_t n = view.NumRows();
  for (int64_t i = 0; i < n; ++i) {
    uint64_t key = out.codec.Encode(view, i);
    auto [it, inserted] = slot.emplace(key, out.keys.size());
    if (inserted) {
      out.keys.push_back(key);
      out.rows.emplace_back();
    }
    out.rows[it->second].push_back(view.RowId(i));
  }
  SortByKey(&out.keys, &out.rows);
  return out;
}

StatusOr<GroupedAverages> AverageBy(CountEngine& engine, const Table& table,
                                    const std::vector<int>& group_cols,
                                    const std::vector<int>& outcome_cols) {
  GroupedAverages out;
  HYPDB_ASSIGN_OR_RETURN(out.codec, TupleCodec::Create(table, group_cols));
  const size_t num_outcomes = outcome_cols.size();
  std::vector<int32_t> codes(group_cols.size());
  // One count(*) GROUP BY (G..., Y) per outcome; with no outcome, the
  // plain group counts.
  for (size_t o = 0; o < std::max<size_t>(num_outcomes, 1); ++o) {
    std::vector<int> cols = group_cols;
    int y_pos = -1;
    // Per code: its rank in ascending (value, label) order; per rank:
    // the value. Resolved for the whole dictionary, so a non-numeric
    // label fails fast even when no counted row carries it.
    std::vector<int32_t> rank_of;
    std::vector<double> value_at;
    if (o < num_outcomes) {
      const Column& col = table.column(outcome_cols[o]);
      std::vector<std::pair<double, int32_t>> order(col.Cardinality());
      for (int32_t c = 0; c < col.Cardinality(); ++c) {
        HYPDB_ASSIGN_OR_RETURN(order[c].first, col.NumericValue(c));
        order[c].second = c;
      }
      std::sort(order.begin(), order.end(),
                [&col](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return col.dict().Label(a.second) <
                         col.dict().Label(b.second);
                });
      rank_of.resize(order.size());
      value_at.resize(order.size());
      for (size_t r = 0; r < order.size(); ++r) {
        rank_of[order[r].second] = static_cast<int32_t>(r);
        value_at[r] = order[r].first;
      }
      auto in_group = std::find(cols.begin(), cols.end(), outcome_cols[o]);
      y_pos = static_cast<int>(in_group - cols.begin());
      if (in_group == cols.end()) cols.push_back(outcome_cols[o]);
    }
    HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, engine.Counts(cols));

    // (group key, value rank, count) per cell, sorted so each group's
    // cells are adjacent and summed in value order.
    struct Cell {
      uint64_t key;
      int32_t rank;
      int64_t count;
    };
    std::vector<Cell> cells;
    cells.reserve(counts.keys.size());
    for (size_t g = 0; g < counts.keys.size(); ++g) {
      for (size_t j = 0; j < codes.size(); ++j) {
        codes[j] = counts.codec.DecodeAt(counts.keys[g], static_cast<int>(j));
      }
      const int32_t rank =
          y_pos < 0 ? 0
                    : rank_of[counts.codec.DecodeAt(counts.keys[g], y_pos)];
      cells.push_back(
          Cell{out.codec.EncodeCodes(codes), rank, counts.counts[g]});
    }
    std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
      return a.key != b.key ? a.key < b.key : a.rank < b.rank;
    });

    size_t group = 0;
    for (size_t i = 0; i < cells.size(); ++group) {
      const uint64_t key = cells[i].key;
      int64_t n = 0;
      double sum = 0.0;
      for (; i < cells.size() && cells[i].key == key; ++i) {
        n += cells[i].count;
        if (y_pos >= 0) {
          sum += value_at[cells[i].rank] * static_cast<double>(cells[i].count);
        }
      }
      if (o == 0) {
        out.keys.push_back(key);
        out.counts.push_back(n);
        out.means.emplace_back(num_outcomes, 0.0);
        out.total += n;
      } else if (group >= out.keys.size() || out.keys[group] != key ||
                 out.counts[group] != n) {
        return Status::Internal("outcome counts disagree on the groups");
      }
      if (y_pos >= 0) out.means[group][o] = sum / static_cast<double>(n);
    }
    if (group != out.keys.size()) {
      return Status::Internal("outcome counts disagree on the groups");
    }
  }
  return out;
}

StatusOr<GroupedAverages> AverageBy(const TableView& view,
                                    const std::vector<int>& group_cols,
                                    const std::vector<int>& outcome_cols) {
  ViewCountProvider engine(view);
  return AverageBy(engine, view.table(), group_cols, outcome_cols);
}

void SortCountsByKey(std::vector<uint64_t>* keys,
                     std::vector<int64_t>* counts) {
  SortByKey(keys, counts);
}

namespace {

// `in`'s keys under `target` (same column list; cardinalities possibly
// larger, never smaller): `in.keys` itself when the codecs already agree,
// else re-encoded into `*rekeyed`. Sortedness survives: mixed-radix key
// comparison is lexicographic on the digit tuple (most-significant digit
// last), and the digits themselves are unchanged.
const std::vector<uint64_t>& KeysOnto(const GroupCounts& in,
                                      const TupleCodec& target,
                                      std::vector<uint64_t>* rekeyed) {
  if (in.codec.cardinalities() == target.cardinalities()) return in.keys;
  rekeyed->resize(in.keys.size());
  std::vector<int32_t> codes(in.codec.cols().size());
  for (size_t g = 0; g < in.keys.size(); ++g) {
    for (size_t j = 0; j < codes.size(); ++j) {
      codes[j] = in.codec.DecodeAt(in.keys[g], static_cast<int>(j));
    }
    (*rekeyed)[g] = target.EncodeCodes(codes);
  }
  return *rekeyed;
}

}  // namespace

GroupCounts MergeGroupCounts(const GroupCounts& a, const GroupCounts& b,
                             const TupleCodec& target) {
  GroupCounts out;
  out.codec = target;
  out.total = a.total + b.total;
  std::vector<uint64_t> rekeyed_a, rekeyed_b;
  const std::vector<uint64_t>& ka = KeysOnto(a, target, &rekeyed_a);
  const std::vector<uint64_t>& kb = KeysOnto(b, target, &rekeyed_b);
  out.keys.reserve(ka.size() + kb.size());
  out.counts.reserve(ka.size() + kb.size());
  size_t i = 0, j = 0;
  while (i < ka.size() || j < kb.size()) {
    uint64_t key;
    int64_t count = 0;
    if (j >= kb.size() || (i < ka.size() && ka[i] < kb[j])) {
      key = ka[i];
      count = a.counts[i++];
    } else if (i >= ka.size() || kb[j] < ka[i]) {
      key = kb[j];
      count = b.counts[j++];
    } else {
      key = ka[i];
      count = a.counts[i++] + b.counts[j++];
    }
    out.keys.push_back(key);
    out.counts.push_back(count);
  }
  return out;
}

GroupCounts ProjectOnto(const GroupCounts& counts,
                        const std::vector<int>& cols) {
  if (counts.codec.cols() == cols) return counts;
  const std::vector<int>& have = counts.codec.cols();
  std::vector<int> positions;
  positions.reserve(cols.size());
  for (int c : cols) {
    for (size_t j = 0; j < have.size(); ++j) {
      if (have[j] == c) {
        positions.push_back(static_cast<int>(j));
        break;
      }
    }
  }
  return MarginalizeOnto(counts, positions);
}

GroupCounts MarginalizeOnto(const GroupCounts& counts,
                            const std::vector<int>& keep) {
  GroupCounts out;
  out.codec = counts.codec.Project(keep);
  out.total = counts.total;
  std::unordered_map<uint64_t, int64_t> agg;
  agg.reserve(counts.keys.size());
  std::vector<int32_t> codes(keep.size());
  for (size_t g = 0; g < counts.keys.size(); ++g) {
    for (size_t j = 0; j < keep.size(); ++j) {
      codes[j] = counts.codec.DecodeAt(counts.keys[g], keep[j]);
    }
    agg[out.codec.EncodeCodes(codes)] += counts.counts[g];
  }
  out.keys.reserve(agg.size());
  out.counts.reserve(agg.size());
  for (const auto& [k, c] : agg) {
    out.keys.push_back(k);
    out.counts.push_back(c);
  }
  SortByKey(&out.keys, &out.counts);
  return out;
}

}  // namespace hypdb
