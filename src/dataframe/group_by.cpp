#include "dataframe/group_by.h"

#include <algorithm>
#include <unordered_map>

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

StatusOr<GroupedAverages> AverageBy(const TableView& view,
                                    const std::vector<int>& group_cols,
                                    const std::vector<int>& outcome_cols) {
  GroupedAverages out;
  HYPDB_ASSIGN_OR_RETURN(out.codec,
                         TupleCodec::Create(view.table(), group_cols));
  const int num_outcomes = static_cast<int>(outcome_cols.size());

  // Pre-resolve numeric values per outcome column code to fail fast on
  // non-numeric labels and avoid per-row parsing.
  std::vector<std::vector<double>> outcome_values(num_outcomes);
  for (int o = 0; o < num_outcomes; ++o) {
    const Column& col = view.table().column(outcome_cols[o]);
    outcome_values[o].resize(col.Cardinality());
    for (int32_t c = 0; c < col.Cardinality(); ++c) {
      HYPDB_ASSIGN_OR_RETURN(outcome_values[o][c], col.NumericValue(c));
    }
  }

  struct Acc {
    int64_t count = 0;
    std::vector<double> sums;
  };
  std::unordered_map<uint64_t, Acc> agg;
  const int64_t n = view.NumRows();
  out.total = n;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t key = out.codec.Encode(view, i);
    Acc& acc = agg[key];
    if (acc.sums.empty()) acc.sums.assign(num_outcomes, 0.0);
    ++acc.count;
    for (int o = 0; o < num_outcomes; ++o) {
      acc.sums[o] += outcome_values[o][view.CodeAt(i, outcome_cols[o])];
    }
  }

  std::vector<Acc> payload;
  payload.reserve(agg.size());
  out.keys.reserve(agg.size());
  for (auto& [k, acc] : agg) {
    out.keys.push_back(k);
    payload.push_back(std::move(acc));
  }
  SortByKey(&out.keys, &payload);
  out.counts.reserve(payload.size());
  out.means.reserve(payload.size());
  for (auto& acc : payload) {
    out.counts.push_back(acc.count);
    std::vector<double> mean(num_outcomes);
    for (int o = 0; o < num_outcomes; ++o) {
      mean[o] = acc.count > 0 ? acc.sums[o] / acc.count : 0.0;
    }
    out.means.push_back(std::move(mean));
  }
  return out;
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
