// Tests for the OLAP data cube and its count-engine adapter.

#include <gtest/gtest.h>

#include "cube/data_cube.h"
#include "engine/groupby_kernel.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr RandomTable(int cols, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Table table;
  for (int c = 0; c < cols; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
    int card = 2 + static_cast<int>(rng.NextBounded(3));
    for (int64_t r = 0; r < rows; ++r) {
      b.Append(std::to_string(rng.NextBounded(card)));
    }
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
}

void ExpectSameCounts(const GroupCounts& a, const GroupCounts& b) {
  ASSERT_EQ(a.NumGroups(), b.NumGroups());
  EXPECT_EQ(a.total, b.total);
  ASSERT_EQ(a.codec.cols(), b.codec.cols());
  for (int g = 0; g < a.NumGroups(); ++g) {
    EXPECT_EQ(a.keys[g], b.keys[g]) << "group " << g;
    EXPECT_EQ(a.counts[g], b.counts[g]) << "group " << g;
  }
}

TEST(DataCubeTest, AllSubsetsMatchDirectCounts) {
  TablePtr t = RandomTable(4, 3000, 7);
  TableView view(t);
  auto cube = DataCube::Build(view, {0, 1, 2, 3});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->NumCuboids(), 16);

  // Every subset's cuboid equals a direct group-by.
  for (uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<int> cols;
    for (int d = 0; d < 4; ++d) {
      if (mask & (1u << d)) cols.push_back(d);
    }
    auto from_cube = cube->Counts(cols);
    ASSERT_TRUE(from_cube.ok()) << mask;
    auto direct = CountBy(view, cols);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(from_cube->NumGroups(), direct->NumGroups()) << mask;
    for (int g = 0; g < direct->NumGroups(); ++g) {
      EXPECT_EQ(from_cube->counts[g], direct->counts[g]) << mask;
    }
  }
}

TEST(DataCubeTest, RespectsMaxDims) {
  TablePtr t = RandomTable(3, 100, 9);
  EXPECT_FALSE(DataCube::Build(TableView(t), {0, 1, 2}, 2).ok());
  EXPECT_TRUE(DataCube::Build(TableView(t), {0, 1, 2}, 3).ok());
}

TEST(DataCubeTest, UnknownColumnIsError) {
  TablePtr t = RandomTable(3, 100, 11);
  auto cube = DataCube::Build(TableView(t), {0, 1});
  ASSERT_TRUE(cube.ok());
  EXPECT_FALSE(cube->Counts({2}).ok());
}

// The Fig. 6(d) configuration: a cube installed up front over a scanner
// serves every entropy query of an MiEngine without a scan.
TEST(CubeProviderTest, InstalledCubeServesEngineQueries) {
  TablePtr t = RandomTable(3, 2000, 13);
  TableView view(t);
  auto cube = DataCube::Build(view, {0, 1, 2});
  ASSERT_TRUE(cube.ok());
  auto base = std::make_shared<ViewCountProvider>(view);
  auto provider = std::make_shared<CubeCountProvider>(
      base, std::make_shared<const DataCube>(std::move(*cube)),
      base->PopulationVersion());

  MiEngine from_cube(std::make_shared<CachingCountEngine>(provider));
  MiEngine from_scan(view);
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1}, {0, 2}, {0, 1, 2}}) {
    EXPECT_NEAR(*from_cube.Entropy(cols), *from_scan.Entropy(cols), 1e-12);
  }
  EXPECT_GT(provider->stats().cube_hits, 0);
  EXPECT_EQ(provider->stats().fallback_calls, 0);
  EXPECT_EQ(base->num_scans(), 0);
}

TEST(CubeProviderTest, ServesCoveredSubsetsFromCurrentCube) {
  TablePtr t = RandomTable(4, 1500, 9);
  TableView view(t);
  auto base = std::make_shared<ViewCountProvider>(view);
  auto cube = DataCube::Build(view, {0, 1, 2});
  ASSERT_TRUE(cube.ok()) << cube.status();
  CubeCountProvider provider(
      base, std::make_shared<const DataCube>(std::move(*cube)),
      base->PopulationVersion());

  // Covered subsets, in any column order, answer from the lattice — no
  // base scan at all — and are bit-identical to a direct scan.
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {2, 1}, {0, 1, 2}, {}}) {
    auto from_cube = provider.Counts(cols);
    ASSERT_TRUE(from_cube.ok());
    auto direct = ScanCounts(view, cols);
    ASSERT_TRUE(direct.ok());
    ExpectSameCounts(*from_cube, *direct);
  }
  EXPECT_EQ(base->stats().scans, 0);
  EXPECT_EQ(provider.stats().cube_hits, 4);

  // Uncovered columns delegate.
  auto uncovered = provider.Counts({0, 3});
  ASSERT_TRUE(uncovered.ok());
  auto direct03 = ScanCounts(view, {0, 3});
  ASSERT_TRUE(direct03.ok());
  ExpectSameCounts(*uncovered, *direct03);
  EXPECT_EQ(base->stats().scans, 1);
  EXPECT_EQ(provider.stats().fallback_calls, 1);
  EXPECT_EQ(provider.stats().queries, 5);
}

TEST(CubeProviderTest, StaleCubeIsSilentlyInert) {
  TablePtr t = RandomTable(3, 800, 13);
  TableView view(t);
  auto base = std::make_shared<ViewCountProvider>(view);
  auto cube = DataCube::Build(view, {0, 1});
  ASSERT_TRUE(cube.ok());
  // Built at a watermark the base has moved past: never served.
  CubeCountProvider provider(
      base, std::make_shared<const DataCube>(std::move(*cube)),
      base->PopulationVersion() + 1);

  auto counts = provider.Counts({0, 1});
  ASSERT_TRUE(counts.ok());
  auto direct = ScanCounts(view, {0, 1});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*counts, *direct);
  EXPECT_EQ(provider.stats().cube_hits, 0);
  EXPECT_EQ(base->stats().scans, 1);  // the query fell through to a scan
}

TEST(DataCubeTest, TotalCellsAccountsLattice) {
  TablePtr t = RandomTable(2, 1000, 17);
  auto cube = DataCube::Build(TableView(t), {0, 1});
  ASSERT_TRUE(cube.ok());
  // Cells: |c0 x c1| + |c0| + |c1| + 1 (grand total).
  auto joint = CountBy(TableView(t), {0, 1});
  auto c0 = CountBy(TableView(t), {0});
  auto c1 = CountBy(TableView(t), {1});
  EXPECT_EQ(cube->TotalCells(), joint->NumGroups() + c0->NumGroups() +
                                    c1->NumGroups() + 1);
}

}  // namespace
}  // namespace hypdb
