// Tests for workload-adaptive materialization: the pluggable CachePolicy
// cost model (parse/score/admission), policy-driven eviction behavior in
// CachingCountEngine (adaptive retains hot entries where static evicts
// oldest-first), the AdaptiveCubeProvider hot-swap layer (covered
// subsets served from a current cube, stale cubes silently inert), the
// dataset registry's cube advisor (promotion on persistent demand,
// demotion on watermark churn), and the property sweep over random
// access sequences x budgets x policies: pinned summaries are never
// evicted, the unpinned budget is never exceeded, and every answer is
// bit-identical to an uncached scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cube/adaptive_cube_provider.h"
#include "cube/data_cube.h"
#include "engine/cache_policy.h"
#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "engine/groupby_kernel.h"
#include "service/dataset_registry.h"
#include "util/rng.h"

namespace hypdb {
namespace {

// A table where every column has exactly `card` labels, so every pair of
// columns with enough rows materializes to exactly card^2 cells —
// deterministic eviction pressure.
TablePtr FixedCardTable(int cols, int64_t rows, int card, uint64_t seed) {
  Rng rng(seed);
  Table table;
  for (int c = 0; c < cols; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
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

// ---- policy units ----

TEST(CachePolicyTest, ParseAndName) {
  auto s = ParseMaterializationMode("static");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, MaterializationMode::kStatic);
  auto a = ParseMaterializationMode("adaptive");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, MaterializationMode::kAdaptive);

  auto bad = ParseMaterializationMode("bogus");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  EXPECT_STREQ(MaterializationModeName(MaterializationMode::kStatic),
               "static");
  EXPECT_STREQ(MaterializationModeName(MaterializationMode::kAdaptive),
               "adaptive");
  EXPECT_STREQ(MakeCachePolicy(MaterializationMode::kStatic)->name(),
               "static");
  EXPECT_STREQ(MakeCachePolicy(MaterializationMode::kAdaptive)->name(),
               "adaptive");
}

TEST(CachePolicyTest, OldestFirstScoresBySequenceAndAdmitsByBound) {
  OldestFirstCachePolicy policy;
  CacheEntryView old_entry;
  old_entry.sequence = 3;
  old_entry.uses = 1000;  // reuse is irrelevant to the static policy
  CacheEntryView young_entry;
  young_entry.sequence = 9;
  EXPECT_LT(policy.RetentionScore(old_entry),
            policy.RetentionScore(young_entry));

  // Admission looks only at the conservative bound.
  EXPECT_TRUE(policy.AdmitMaterialization(100, -1, 200));
  EXPECT_FALSE(policy.AdmitMaterialization(300, -1, 200));
  // ... even when the observed cells would fit.
  EXPECT_FALSE(policy.AdmitMaterialization(300, 50, 200));
  // Non-positive budget means unbounded.
  EXPECT_TRUE(policy.AdmitMaterialization(1 << 30, -1, 0));
}

TEST(CachePolicyTest, CostBenefitRanksByBenefitPerCell) {
  CostBenefitCachePolicy policy;
  CacheEntryView hot_small;
  hot_small.cells = 16;
  hot_small.uses = 40;
  hot_small.rebuild_seconds = 0.01;
  hot_small.sequence = 1;  // oldest — static would evict it first
  CacheEntryView cold_large;
  cold_large.cells = 4096;
  cold_large.uses = 0;
  cold_large.rebuild_seconds = 0.01;
  cold_large.sequence = 99;
  EXPECT_GT(policy.RetentionScore(hot_small),
            policy.RetentionScore(cold_large));

  // More reuse -> higher retention, all else equal.
  CacheEntryView used_once = cold_large;
  used_once.uses = 1;
  EXPECT_GT(policy.RetentionScore(used_once),
            policy.RetentionScore(cold_large));

  // Admission prefers the observed cell count over the domain bound: a
  // sparse summary whose bound looks too big is still admitted.
  EXPECT_TRUE(policy.AdmitMaterialization(int64_t{1} << 40, 150, 200));
  EXPECT_FALSE(policy.AdmitMaterialization(int64_t{1} << 40, 250, 200));
  // Without an observation the conservative bound decides.
  EXPECT_TRUE(policy.AdmitMaterialization(100, -1, 200));
  EXPECT_FALSE(policy.AdmitMaterialization(300, -1, 200));
  EXPECT_TRUE(policy.AdmitMaterialization(1 << 30, -1, 0));
}

// ---- policy-driven eviction in the caching engine ----

// The behavioral contract of the tentpole: under the same budget and the
// same access sequence, the static policy evicts the oldest entry (the
// hot one) while the adaptive policy keeps it resident.
TEST(CachePolicyTest, AdaptiveRetainsHotEntryWhereStaticEvictsOldest) {
  TablePtr t = FixedCardTable(6, 2000, 4, 17);
  TableView view(t);
  const std::vector<int> hot = {0, 1};
  const std::vector<std::vector<int>> cold = {{2, 3}, {4, 5}, {1, 2}, {3, 4}};

  for (MaterializationMode mode :
       {MaterializationMode::kStatic, MaterializationMode::kAdaptive}) {
    CachingCountEngineOptions options;
    options.max_cached_cells = 40;  // holds two 16-cell pairs, not three
    options.policy = MakeCachePolicy(mode);
    CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                              options);

    // Make {0,1} hot: one materializing miss, then many hits.
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(engine.Counts(hot).ok());
    // Flood with cold pairs to force evictions.
    for (const auto& cols : cold) ASSERT_TRUE(engine.Counts(cols).ok());
    EXPECT_GT(engine.stats().evictions, 0);

    const int64_t scans_before = engine.stats().scans;
    auto counts = engine.Counts(hot);
    ASSERT_TRUE(counts.ok());
    auto direct = ScanCounts(view, hot);
    ASSERT_TRUE(direct.ok());
    ExpectSameCounts(*counts, *direct);

    if (mode == MaterializationMode::kStatic) {
      // Oldest-first evicted the hot entry; re-querying it re-scans.
      EXPECT_EQ(engine.stats().scans, scans_before + 1);
    } else {
      // Benefit-per-cell kept the hot entry resident through the flood.
      EXPECT_EQ(engine.stats().scans, scans_before);
    }
  }
}

TEST(CachePolicyTest, DemandProfileRecordsAndClears) {
  TablePtr t = FixedCardTable(4, 500, 3, 5);
  CachingCountEngineOptions options;
  options.track_demand = true;
  CachingCountEngine engine(
      std::make_shared<ViewCountProvider>(TableView(t)), options);
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  ASSERT_TRUE(engine.Counts({2}).ok());

  auto demand = engine.TakeDemandProfile();
  EXPECT_EQ(demand[std::vector<int>({0, 1})], 2);
  EXPECT_EQ(demand[std::vector<int>({2})], 1);
  // Harvesting clears the profile.
  EXPECT_TRUE(engine.TakeDemandProfile().empty());
}

// ---- adaptive cube provider ----

TEST(AdaptiveCubeProviderTest, ServesCoveredSubsetsFromCurrentCube) {
  TablePtr t = FixedCardTable(4, 1500, 4, 9);
  TableView view(t);
  auto base = std::make_shared<ViewCountProvider>(view);
  AdaptiveCubeProvider host(base);
  EXPECT_FALSE(host.HasCube());

  // No cube: queries delegate to the base untouched.
  auto cold = host.Counts({0, 1});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(base->stats().scans, 1);

  auto cube = DataCube::Build(view, {0, 1, 2});
  ASSERT_TRUE(cube.ok()) << cube.status();
  const int64_t watermark = base->PopulationVersion();
  host.InstallCube(std::make_shared<const DataCube>(std::move(*cube)),
                   watermark);
  EXPECT_TRUE(host.HasCube());
  EXPECT_EQ(host.CubeWatermark(), watermark);
  EXPECT_GT(host.CubeCells(), 0);
  EXPECT_EQ(host.CubeDims(), (std::vector<int>{0, 1, 2}));

  // Covered subsets answer from the lattice — no base scan at all — and
  // are bit-identical to a direct scan.
  const int64_t scans_before = base->stats().scans;
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1, 2}, {0, 1, 2}, {}}) {
    auto from_cube = host.Counts(cols);
    ASSERT_TRUE(from_cube.ok());
    auto direct = ScanCounts(view, cols);
    ASSERT_TRUE(direct.ok());
    ExpectSameCounts(*from_cube, *direct);
  }
  EXPECT_EQ(base->stats().scans, scans_before);
  EXPECT_EQ(host.stats().cube_hits, 4);

  // The cube is an observed-cell oracle for covered subsets only.
  auto direct01 = ScanCounts(view, {0, 1});
  ASSERT_TRUE(direct01.ok());
  EXPECT_EQ(host.ObservedCellBound({0, 1}), direct01->NumGroups());
  EXPECT_EQ(host.ObservedCellBound({0, 3}), -1);

  // Uncovered columns delegate.
  auto uncovered = host.Counts({0, 3});
  ASSERT_TRUE(uncovered.ok());
  auto direct03 = ScanCounts(view, {0, 3});
  ASSERT_TRUE(direct03.ok());
  ExpectSameCounts(*uncovered, *direct03);
  EXPECT_EQ(base->stats().scans, scans_before + 1);
  EXPECT_GE(host.stats().fallback_calls, 1);
}

TEST(AdaptiveCubeProviderTest, StaleCubeIsSilentlyInert) {
  TablePtr t = FixedCardTable(3, 800, 3, 13);
  TableView view(t);
  auto base = std::make_shared<ViewCountProvider>(view);
  AdaptiveCubeProvider host(base);

  auto cube = DataCube::Build(view, {0, 1});
  ASSERT_TRUE(cube.ok());
  // Installed at a watermark the base has moved past: never served.
  host.InstallCube(std::make_shared<const DataCube>(std::move(*cube)),
                   base->PopulationVersion() + 1);
  EXPECT_TRUE(host.HasCube());
  EXPECT_EQ(host.ObservedCellBound({0, 1}), -1);

  auto counts = host.Counts({0, 1});
  ASSERT_TRUE(counts.ok());
  auto direct = ScanCounts(view, {0, 1});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*counts, *direct);
  EXPECT_EQ(host.stats().cube_hits, 0);
  EXPECT_EQ(base->stats().scans, 1);  // the query fell through to a scan

  host.DropCube();
  EXPECT_FALSE(host.HasCube());
  EXPECT_EQ(host.CubeCells(), 0);
  EXPECT_EQ(host.CubeWatermark(), -1);
}

// ---- registry cube advisor ----

TEST(CubeAdvisorTest, PromotesPersistentlyHotSetsAndServesFromCube) {
  DatasetRegistryOptions options;
  options.engine.materialization = MaterializationMode::kAdaptive;
  options.engine.scan_threads = 1;
  // advisor_interval_seconds stays 0: no background thread, passes are
  // driven manually so the test is deterministic.
  DatasetRegistry registry(options);
  TablePtr t = FixedCardTable(5, 1200, 4, 21);
  const int64_t epoch = registry.Register("d", t);
  auto engine = registry.ShardEngine("d", epoch, "");
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Two passes of repeated demand for {0,1} and {1,2} make both hot
  // (advisor_min_demand = 2, advisor_hot_passes = 2).
  for (int pass = 0; pass < 2; ++pass) {
    for (int rep = 0; rep < 2; ++rep) {
      ASSERT_TRUE((*engine)->Counts({0, 1}).ok());
      ASSERT_TRUE((*engine)->Counts({1, 2}).ok());
    }
    registry.AdvisorPass();
  }

  CubeAdvisorStats stats = registry.advisor_stats();
  EXPECT_GE(stats.passes, 2);
  EXPECT_GE(stats.promotions, 1);
  EXPECT_GE(stats.build_scans, 1);

  auto infos = registry.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_GT(infos[0].cube_cells, 0);
  EXPECT_GT(infos[0].cache.cached_cells, 0);
  EXPECT_GT(infos[0].cache.budget_cells, 0);

  // A subset the cache has never seen answers from the promoted cube,
  // bit-identical to a direct scan.
  auto from_cube = (*engine)->Counts({0, 2});
  ASSERT_TRUE(from_cube.ok());
  auto direct = ScanCounts(TableView(t), {0, 2});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*from_cube, *direct);
  auto engine_stats = registry.EngineStats("d");
  ASSERT_TRUE(engine_stats.ok());
  EXPECT_GE(engine_stats->cube_hits, 1);
}

TEST(CubeAdvisorTest, AppendDemotesTheStaleCube) {
  DatasetRegistryOptions options;
  options.engine.materialization = MaterializationMode::kAdaptive;
  options.engine.scan_threads = 1;
  DatasetRegistry registry(options);
  TablePtr t = FixedCardTable(4, 600, 3, 31);
  const int64_t epoch = registry.Register("d", t);
  auto engine = registry.ShardEngine("d", epoch, "");
  ASSERT_TRUE(engine.ok());

  for (int pass = 0; pass < 2; ++pass) {
    for (int rep = 0; rep < 2; ++rep) {
      ASSERT_TRUE((*engine)->Counts({0, 1}).ok());
    }
    registry.AdvisorPass();
  }
  ASSERT_GE(registry.advisor_stats().promotions, 1);
  ASSERT_GT(registry.List()[0].cube_cells, 0);

  // An append moves the storage watermark; the installed cube is now
  // stale and the next pass demotes it. With no fresh demand the advisor
  // does not rebuild.
  auto appended =
      registry.AppendRows("d", {{"0", "1", "2", "0"}, {"1", "0", "1", "2"}});
  ASSERT_TRUE(appended.ok()) << appended.status();
  registry.AdvisorPass();
  EXPECT_GE(registry.advisor_stats().demotions, 1);
  EXPECT_EQ(registry.List()[0].cube_cells, 0);

  // Post-demotion answers still exact against the appended population.
  auto snapshot = registry.GetSnapshot("d");
  ASSERT_TRUE(snapshot.ok());
  auto fresh =
      registry.ShardEngine("d", snapshot->epoch, "", snapshot->watermark);
  ASSERT_TRUE(fresh.ok());
  auto counts = (*fresh)->Counts({0, 1});
  ASSERT_TRUE(counts.ok());
  auto direct = ScanCounts(TableView(snapshot->table), {0, 1});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*counts, *direct);
}

// ---- property sweep: random access sequences x budgets x policies ----

// The ISSUE acceptance sweep: for both policies and a range of budgets,
// a random interleaving of Counts and Prefetch calls must (a) never
// evict the pinned focus, (b) never hold more unpinned cells than the
// budget, and (c) produce answers bit-identical to an uncached engine.
TEST(CachePolicySweepTest, RandomAccessSequencesMatchUncachedEngine) {
  TablePtr t = FixedCardTable(5, 600, 4, 77);
  TableView view(t);

  for (MaterializationMode mode :
       {MaterializationMode::kStatic, MaterializationMode::kAdaptive}) {
    for (int64_t budget : {int64_t{8}, int64_t{128}, int64_t{1} << 20}) {
      SCOPED_TRACE(std::string(MaterializationModeName(mode)) + " budget=" +
                   std::to_string(budget));
      Rng rng(1000 + static_cast<uint64_t>(budget) +
              (mode == MaterializationMode::kAdaptive ? 7 : 0));
      CachingCountEngineOptions options;
      options.max_cached_cells = budget;
      options.policy = MakeCachePolicy(mode);
      CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                                options);

      std::vector<int> pinned_focus;
      int64_t pinned_focus_cells = 0;
      for (int op = 0; op < 120; ++op) {
        std::vector<int> cols;
        const int size = 1 + static_cast<int>(rng.NextBounded(3));
        while (static_cast<int>(cols.size()) < size) {
          const int c = static_cast<int>(rng.NextBounded(5));
          if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
            cols.push_back(c);
          }
        }
        std::sort(cols.begin(), cols.end());

        if (rng.Bernoulli(0.15)) {
          ASSERT_TRUE(engine.Prefetch(cols).ok());
          auto direct = ScanCounts(view, cols);
          ASSERT_TRUE(direct.ok());
          pinned_focus = cols;
          pinned_focus_cells = direct->NumGroups();
        } else {
          auto counts = engine.Counts(cols);
          ASSERT_TRUE(counts.ok());
          auto direct = ScanCounts(view, cols);
          ASSERT_TRUE(direct.ok());
          ExpectSameCounts(*counts, *direct);
        }

        // Budget invariant: unpinned residency never exceeds the budget.
        EXPECT_LE(engine.cached_cells() - engine.pinned_cells(), budget);
        // Pin invariant: the focus summary is always fully resident.
        if (!pinned_focus.empty()) {
          EXPECT_EQ(engine.pinned_cells(), pinned_focus_cells);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hypdb
