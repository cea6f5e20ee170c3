// Tests for the paper's future-work extensions implemented here:
// multiple-testing control (Sec. 8) and effect bounds under
// unidentifiable parents (Sec. 4).

#include <gtest/gtest.h>

#include <cmath>

#include "core/detector.h"
#include "core/effect_bounds.h"
#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "stats/mi_engine.h"
#include "stats/multiple_testing.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TEST(MultipleTestingTest, BenjaminiHochbergKnownExample) {
  // Classic worked example.
  std::vector<double> p = {0.01, 0.04, 0.03, 0.005};
  std::vector<double> q = BenjaminiHochberg(p);
  // Sorted p: .005, .01, .03, .04 -> scaled: .02, .02, .04, .04.
  EXPECT_NEAR(q[3], 0.02, 1e-12);  // 0.005
  EXPECT_NEAR(q[0], 0.02, 1e-12);  // 0.01
  EXPECT_NEAR(q[2], 0.04, 1e-12);  // 0.03
  EXPECT_NEAR(q[1], 0.04, 1e-12);  // 0.04
}

TEST(MultipleTestingTest, AdjustedPValuesAreMonotoneAndBounded) {
  Rng rng(4);
  std::vector<double> p;
  for (int i = 0; i < 40; ++i) p.push_back(rng.UniformDouble());
  std::vector<double> q = BenjaminiHochberg(p);
  std::vector<double> h = HolmBonferroni(p);
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(q[i], p[i]);  // adjustment never shrinks a p-value
    EXPECT_LE(q[i], 1.0);
    EXPECT_GE(h[i], q[i] - 1e-12);  // Holm at least as conservative as BH
    EXPECT_LE(h[i], 1.0);
  }
  // Order preserved: smaller p => smaller (or equal) adjusted p.
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = 0; j < p.size(); ++j) {
      if (p[i] < p[j]) {
        EXPECT_LE(q[i], q[j] + 1e-12);
        EXPECT_LE(h[i], h[j] + 1e-12);
      }
    }
  }
}

TEST(MultipleTestingTest, EmptyAndSingleton) {
  EXPECT_TRUE(BenjaminiHochberg({}).empty());
  EXPECT_TRUE(HolmBonferroni({}).empty());
  EXPECT_NEAR(BenjaminiHochberg({0.03})[0], 0.03, 1e-12);
  EXPECT_NEAR(HolmBonferroni({0.03})[0], 0.03, 1e-12);
}

TEST(DetectorFdrTest, AdjustedFlagsAreMoreConservative) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  TablePtr data = MakeTable(std::move(*table));
  AggQuery q;
  q.treatment = "Gender";
  q.grouping = {"Department"};  // six contexts -> a family of tests
  q.outcomes = {"Accepted"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  int dept = *data->ColumnIndex("Department");
  auto contexts = SplitContexts(data, *bound);
  ASSERT_TRUE(contexts.ok());
  std::vector<std::shared_ptr<CountEngine>> engines;
  for (const Context& ctx : *contexts) {
    engines.push_back(MakeViewEngine(ctx.view, MiEngineOptions{}));
  }
  auto bias = DetectBias(data, *bound, *contexts, {dept}, nullptr,
                         DetectorOptions{}, engines);
  ASSERT_TRUE(bias.ok());
  ASSERT_EQ(bias->size(), 6u);
  for (const auto& b : *bias) {
    EXPECT_GE(b.total.p_adjusted, b.total.ci.p_value - 1e-12);
    // FDR rejection implies raw rejection.
    if (b.total.biased_fdr) EXPECT_TRUE(b.total.biased);
  }
}

// A dataset where the adjustment set is ambiguous: t has a single parent
// z (assumption fails), y depends on z and t.
TablePtr SingleParentData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder t("t"), y("y"), z("z"), w("w");
  for (int64_t i = 0; i < n; ++i) {
    int zi = rng.Bernoulli(0.5) ? 1 : 0;
    int ti = rng.Bernoulli(zi ? 0.75 : 0.25) ? 1 : 0;
    int wi = rng.Bernoulli(0.4) ? 1 : 0;  // independent noise
    int yi = rng.Bernoulli(0.15 + 0.4 * zi + 0.2 * ti) ? 1 : 0;
    t.Append(ti ? "b" : "a");
    y.Append(std::to_string(yi));
    z.Append(std::to_string(zi));
    w.Append(std::to_string(wi));
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(w.Finish()).ok());
  return MakeTable(std::move(table));
}

// The default count stack over the bound population.
std::shared_ptr<CountEngine> PopulationEngine(const BoundQuery& bound) {
  return MakeViewEngine(bound.population, MiEngineOptions{});
}

TEST(EffectBoundsTest, IntervalCoversEverySubsetEstimate) {
  TablePtr data = SingleParentData(20000, 9);
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  auto bounds = BoundTotalEffect(data, *bound,
                                 {*data->ColumnIndex("z"),
                                  *data->ColumnIndex("w")},
                                 PopulationEngine(*bound));
  ASSERT_TRUE(bounds.ok());
  // 4 subsets: {}, {z}, {w}, {z,w}.
  EXPECT_EQ(bounds->subsets.size(), 4u);
  EXPECT_FALSE(bounds->truncated);
  for (const auto& s : bounds->subsets) {
    EXPECT_GE(s.diffs[0], bounds->lower[0] - 1e-12);
    EXPECT_LE(s.diffs[0], bounds->upper[0] + 1e-12);
  }
  // The unadjusted estimate (Z = {}) is confounded upward; the
  // z-adjusted one is ≈ the true +0.2 direct effect. Both inside.
  EXPECT_GT(bounds->upper[0], 0.25);       // confounded end
  EXPECT_LT(bounds->lower[0], 0.25);       // adjusted end
  EXPECT_GT(bounds->lower[0], 0.10);       // but still positive:
  EXPECT_TRUE(bounds->SignIdentified(0));  // direction is identified
}

TEST(EffectBoundsTest, SubsetSizeCapAndTruncation) {
  TablePtr data = SingleParentData(5000, 11);
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  EffectBoundsOptions options;
  options.max_subset_size = 1;
  auto bounds = BoundTotalEffect(data, *bound,
                                 {*data->ColumnIndex("z"),
                                  *data->ColumnIndex("w")},
                                 PopulationEngine(*bound), options);
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds->subsets.size(), 3u);  // {}, {z}, {w}

  options.max_subset_size = -1;
  options.max_subsets = 2;
  bounds = BoundTotalEffect(data, *bound,
                            {*data->ColumnIndex("z"),
                             *data->ColumnIndex("w")},
                            PopulationEngine(*bound), options);
  ASSERT_TRUE(bounds.ok());
  EXPECT_TRUE(bounds->truncated);
  EXPECT_EQ(bounds->subsets.size(), 2u);
}

TEST(EffectBoundsTest, ValidatesInputs) {
  TablePtr data = SingleParentData(1000, 13);
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  // Treatment or outcome in the candidate set is rejected.
  EXPECT_FALSE(BoundTotalEffect(data, *bound, {*data->ColumnIndex("t")},
                                PopulationEngine(*bound))
                   .ok());
  EXPECT_FALSE(BoundTotalEffect(data, *bound, {*data->ColumnIndex("y")},
                                PopulationEngine(*bound))
                   .ok());
}

// The enumeration counts every subset through the one engine it is
// handed: over a caching stack each distinct column set (T, Z', Y) is
// scanned at most once, and a repeat of the whole enumeration scans
// nothing.
TEST(EffectBoundsTest, EnumerationScansEachColumnSetAtMostOnce) {
  TablePtr data = SingleParentData(8000, 17);
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  std::shared_ptr<CountEngine> engine = PopulationEngine(*bound);
  const std::vector<int> candidates = {*data->ColumnIndex("z"),
                                       *data->ColumnIndex("w")};
  auto bounds = BoundTotalEffect(data, *bound, candidates, engine);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  ASSERT_EQ(bounds->subsets.size(), 4u);  // {}, {z}, {w}, {z,w}
  const CountEngineStats first = engine->stats();
  EXPECT_GT(first.scans, 0);
  EXPECT_LE(first.scans, 4);  // one column set per subset

  auto again = BoundTotalEffect(data, *bound, candidates, engine);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine->stats().scans, first.scans);
  EXPECT_GT(engine->stats().queries, first.queries);
  EXPECT_EQ(again->lower, bounds->lower);
  EXPECT_EQ(again->upper, bounds->upper);
}

TEST(EffectBoundsTest, FacadeEndToEnd) {
  TablePtr data = SingleParentData(15000, 15);
  HypDb db(data, HypDbOptions{});
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bounds = db.BoundEffects(q);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_GE(bounds->subsets.size(), 2u);
  EXPECT_LE(bounds->lower[0], bounds->upper[0]);
}

}  // namespace
}  // namespace hypdb
