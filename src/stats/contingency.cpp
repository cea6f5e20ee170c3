#include "stats/contingency.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dataframe/group_by.h"

namespace hypdb {

void Table2D::RebuildMargins() {
  row_margins_.assign(num_rows_, 0);
  col_margins_.assign(num_cols_, 0);
  total_ = 0;
  for (int r = 0; r < num_rows_; ++r) {
    for (int c = 0; c < num_cols_; ++c) {
      int64_t v = at(r, c);
      row_margins_[r] += v;
      col_margins_[c] += v;
      total_ += v;
    }
  }
}

Table2D Table2D::MarginsOnly(int num_rows, int num_cols) {
  Table2D table;
  table.num_rows_ = num_rows;
  table.num_cols_ = num_cols;
  table.row_margins_.assign(num_rows, 0);
  table.col_margins_.assign(num_cols, 0);
  return table;
}

double Table2D::MutualInformation(EntropyEstimator estimator) const {
  if (total_ <= 0) return 0.0;
  double h_rows = EntropyFromCounts(row_margins_, total_, estimator);
  double h_cols = EntropyFromCounts(col_margins_, total_, estimator);
  double h_joint = EntropyFromCounts(cells_, total_, estimator);
  double mi = h_rows + h_cols - h_joint;
  return mi < 0.0 ? 0.0 : mi;
}

double Table2D::PearsonStatistic() const {
  if (total_ <= 0) return 0.0;
  double stat = 0.0;
  for (int r = 0; r < num_rows_; ++r) {
    if (row_margins_[r] == 0) continue;
    for (int c = 0; c < num_cols_; ++c) {
      if (col_margins_[c] == 0) continue;
      double expected = static_cast<double>(row_margins_[r]) *
                        static_cast<double>(col_margins_[c]) /
                        static_cast<double>(total_);
      double diff = static_cast<double>(at(r, c)) - expected;
      stat += diff * diff / expected;
    }
  }
  return stat;
}

double Table2D::RowEntropy(EntropyEstimator estimator) const {
  return EntropyFromCounts(row_margins_, total_, estimator);
}

double Table2D::ColEntropy(EntropyEstimator estimator) const {
  return EntropyFromCounts(col_margins_, total_, estimator);
}

double StratifiedTable::CmiStatistic(EntropyEstimator estimator) const {
  if (total <= 0) return 0.0;
  double cmi = 0.0;
  for (const auto& s : strata) {
    double pr_z =
        static_cast<double>(s.table.total()) / static_cast<double>(total);
    cmi += pr_z * s.table.MutualInformation(estimator);
  }
  return cmi;
}

double StratifiedTable::PearsonStatistic() const {
  double stat = 0.0;
  for (const auto& s : strata) stat += s.table.PearsonStatistic();
  return stat;
}

int64_t StratifiedTable::DegreesOfFreedom() const {
  int64_t df = static_cast<int64_t>(std::max(num_t_values - 1, 1)) *
               static_cast<int64_t>(std::max(num_y_values - 1, 1)) *
               static_cast<int64_t>(std::max(NumStrata(), 1));
  return df;
}

StatusOr<StratifiedTable> BuildStratifiedSets(
    const TableView& view, const std::vector<int>& t_cols,
    const std::vector<int>& y_cols, const std::vector<int>& z_cols) {
  // One pass: count(*) GROUP BY (Z..., T..., Y...), then split by
  // Z-prefix and compact the compound T / Y values.
  std::vector<int> all_cols = z_cols;
  all_cols.insert(all_cols.end(), t_cols.begin(), t_cols.end());
  all_cols.insert(all_cols.end(), y_cols.begin(), y_cols.end());
  HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, CountBy(view, all_cols));
  return BuildStratifiedFromCounts(counts, static_cast<int>(z_cols.size()),
                                   static_cast<int>(t_cols.size()),
                                   static_cast<int>(y_cols.size()));
}

StratifiedTable BuildStratifiedFromCounts(const GroupCounts& counts,
                                          int z_count, int t_count,
                                          int y_count, bool cells) {
  std::vector<int> t_positions(t_count);
  for (int i = 0; i < t_count; ++i) t_positions[i] = z_count + i;
  std::vector<int> y_positions(y_count);
  for (int i = 0; i < y_count; ++i) y_positions[i] = z_count + t_count + i;
  std::vector<int> z_positions(z_count);
  for (int i = 0; i < z_count; ++i) z_positions[i] = i;
  TupleCodec t_codec = counts.codec.Project(t_positions);
  TupleCodec y_codec = counts.codec.Project(y_positions);
  TupleCodec z_codec = counts.codec.Project(z_positions);

  // Compact compound T / Y keys to the values observed in this view so
  // stratum tables are small even when the domain is large.
  std::unordered_map<uint64_t, int> t_map;
  std::unordered_map<uint64_t, int> y_map;
  std::vector<int32_t> codes;  // one decode buffer for every key
  auto extract = [&](uint64_t key, const std::vector<int>& positions,
                     const TupleCodec& codec) {
    codes.resize(positions.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      codes[i] = counts.codec.DecodeAt(key, positions[i]);
    }
    return codec.EncodeCodes(codes);
  };
  std::vector<int> t_of(counts.keys.size());
  std::vector<int> y_of(counts.keys.size());
  std::vector<uint64_t> z_of(counts.keys.size());
  for (size_t g = 0; g < counts.keys.size(); ++g) {
    uint64_t key = counts.keys[g];
    uint64_t tk = extract(key, t_positions, t_codec);
    uint64_t yk = extract(key, y_positions, y_codec);
    z_of[g] = extract(key, z_positions, z_codec);
    auto [ti, t_new] = t_map.emplace(tk, static_cast<int>(t_map.size()));
    auto [yi, y_new] = y_map.emplace(yk, static_cast<int>(y_map.size()));
    t_of[g] = ti->second;
    y_of[g] = yi->second;
  }
  const int num_t = static_cast<int>(t_map.size());
  const int num_y = static_cast<int>(y_map.size());

  StratifiedTable out;
  out.total = counts.total;
  out.num_t_values = num_t;
  out.num_y_values = num_y;

  // One stratum per distinct Z key, ascending. Every stratum gets its
  // margins and total; the cells wait in `unfilled`.
  std::vector<uint64_t> z_keys = z_of;
  std::sort(z_keys.begin(), z_keys.end());
  z_keys.erase(std::unique(z_keys.begin(), z_keys.end()), z_keys.end());
  out.strata.resize(z_keys.size());
  for (size_t i = 0; i < z_keys.size(); ++i) {
    out.strata[i].z_key = z_keys[i];
    out.strata[i].table = Table2D::MarginsOnly(num_t, num_y);
  }
  out.unfilled.resize(counts.keys.size());
  for (size_t g = 0; g < counts.keys.size(); ++g) {
    const int stratum = static_cast<int>(
        std::lower_bound(z_keys.begin(), z_keys.end(), z_of[g]) -
        z_keys.begin());
    out.strata[stratum].table.AddToMargins(t_of[g], y_of[g],
                                           counts.counts[g]);
    out.unfilled[g] = {stratum, t_of[g], y_of[g], counts.counts[g]};
  }
  if (cells) {
    std::vector<int> all(out.strata.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    out.FillCells(all);
  }
  return out;
}

void StratifiedTable::FillCells(const std::vector<int>& which) {
  std::vector<bool> fill(strata.size(), false);
  for (int i : which) {
    fill[i] = true;
    strata[i].table.AllocateCells();
  }
  for (const Cell& cell : unfilled) {
    if (fill[cell.stratum]) {
      strata[cell.stratum].table.Add(cell.row, cell.col, cell.count);
    }
  }
  unfilled.clear();
}

StatusOr<StratifiedTable> BuildStratified(const TableView& view, int t_col,
                                          int y_col,
                                          const std::vector<int>& z_cols) {
  return BuildStratifiedSets(view, {t_col}, {y_col}, z_cols);
}

}  // namespace hypdb
