// Unit + property tests for src/stats: special functions, entropy,
// contingency tables, MiEngine.

#include <gtest/gtest.h>

#include <cmath>

#include "dataframe/table.h"
#include "dataframe/view.h"
#include "stats/contingency.h"
#include "stats/entropy.h"
#include "stats/mi_engine.h"
#include "stats/special_math.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TEST(SpecialMathTest, LogFactorial) {
  EXPECT_DOUBLE_EQ(LogFactorial(0), 0.0);
  EXPECT_DOUBLE_EQ(LogFactorial(1), 0.0);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(LogFactorial(20), std::log(2432902008176640000.0), 1e-9);
}

TEST(SpecialMathTest, LogFactorialTableMatches) {
  std::vector<double> table = LogFactorialTable(50);
  ASSERT_EQ(table.size(), 51u);
  for (int64_t i = 0; i <= 50; ++i) {
    EXPECT_NEAR(table[i], LogFactorial(i), 1e-9) << i;
  }
}

TEST(SpecialMathTest, RegularizedGammaComplementarity) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 3.0, 12.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(SpecialMathTest, GammaPKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
}

TEST(SpecialMathTest, ChiSquaredCriticalValues) {
  // Textbook 0.05 critical values.
  EXPECT_NEAR(ChiSquaredSurvival(1, 3.841), 0.05, 5e-4);
  EXPECT_NEAR(ChiSquaredSurvival(2, 5.991), 0.05, 5e-4);
  EXPECT_NEAR(ChiSquaredSurvival(10, 18.307), 0.05, 5e-4);
  // 0.01 critical values.
  EXPECT_NEAR(ChiSquaredSurvival(1, 6.635), 0.01, 2e-4);
  EXPECT_NEAR(ChiSquaredSurvival(5, 15.086), 0.01, 2e-4);
}

TEST(SpecialMathTest, ChiSquaredEdges) {
  EXPECT_DOUBLE_EQ(ChiSquaredSurvival(3, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ChiSquaredSurvival(3, -1.0), 1.0);
  EXPECT_LT(ChiSquaredSurvival(1, 100.0), 1e-20);
}

TEST(SpecialMathTest, NormalCdf) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-4);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-4);
}

TEST(EntropyTest, UniformAndPointDistributions) {
  EXPECT_NEAR(EntropyFromCounts({5, 5}, 10, EntropyEstimator::kPlugin),
              std::log(2.0), 1e-12);
  EXPECT_NEAR(EntropyFromCounts({4, 4, 4, 4}, 16, EntropyEstimator::kPlugin),
              std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(
      EntropyFromCounts({10}, 10, EntropyEstimator::kPlugin), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}, 0, EntropyEstimator::kPlugin), 0.0);
}

TEST(EntropyTest, ZeroCountsIgnored) {
  EXPECT_NEAR(
      EntropyFromCounts({5, 0, 5, 0}, 10, EntropyEstimator::kPlugin),
      std::log(2.0), 1e-12);
}

TEST(EntropyTest, MillerMadowAddsSupportCorrection) {
  double plugin = EntropyFromCounts({3, 7}, 10, EntropyEstimator::kPlugin);
  double mm = EntropyFromCounts({3, 7}, 10, EntropyEstimator::kMillerMadow);
  EXPECT_NEAR(mm, plugin + (2 - 1) / (2.0 * 10), 1e-12);
}

// Property sweep: entropy bounds 0 ≤ H ≤ ln(support).
class EntropyPropertyTest : public testing::TestWithParam<int> {};

TEST_P(EntropyPropertyTest, PluginBounds) {
  Rng rng(GetParam());
  int support = 1 + static_cast<int>(rng.NextBounded(20));
  std::vector<int64_t> counts(support);
  int64_t total = 0;
  for (auto& c : counts) {
    c = 1 + static_cast<int64_t>(rng.NextBounded(50));
    total += c;
  }
  double h = EntropyFromCounts(counts, total, EntropyEstimator::kPlugin);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, std::log(static_cast<double>(support)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyPropertyTest,
                         testing::Range(1, 33));

// ---- Contingency tables ----

TEST(Table2DTest, MarginsAndTotal) {
  Table2D t(2, 3);
  t.Set(0, 0, 1);
  t.Set(0, 2, 4);
  t.Set(1, 1, 5);
  t.RebuildMargins();
  EXPECT_EQ(t.total(), 10);
  EXPECT_EQ(t.row_margins()[0], 5);
  EXPECT_EQ(t.row_margins()[1], 5);
  EXPECT_EQ(t.col_margins()[2], 4);
}

TEST(Table2DTest, IndependentTableHasZeroMi) {
  // Perfectly proportional cells => MI = 0.
  Table2D t(2, 2);
  t.Set(0, 0, 10);
  t.Set(0, 1, 30);
  t.Set(1, 0, 20);
  t.Set(1, 1, 60);
  t.RebuildMargins();
  EXPECT_NEAR(t.MutualInformation(EntropyEstimator::kPlugin), 0.0, 1e-12);
  EXPECT_NEAR(t.PearsonStatistic(), 0.0, 1e-9);
}

TEST(Table2DTest, DiagonalTableHasFullMi) {
  Table2D t(2, 2);
  t.Set(0, 0, 50);
  t.Set(1, 1, 50);
  t.RebuildMargins();
  EXPECT_NEAR(t.MutualInformation(EntropyEstimator::kPlugin), std::log(2.0),
              1e-12);
}

TEST(Table2DTest, PearsonKnown2x2) {
  // X² = n(ad - bc)² / (r1 r2 c1 c2).
  Table2D t(2, 2);
  t.Set(0, 0, 30);
  t.Set(0, 1, 10);
  t.Set(1, 0, 10);
  t.Set(1, 1, 30);
  t.RebuildMargins();
  double expected = 80.0 * std::pow(30. * 30 - 10. * 10, 2) /
                    (40. * 40 * 40 * 40);
  EXPECT_NEAR(t.PearsonStatistic(), expected, 1e-9);
}

TablePtr XorTable(int64_t n_per_cell) {
  // z chooses between two regimes; within each regime t determines y
  // (XOR pattern): marginally t ⫫ y, conditionally dependent.
  ColumnBuilder t("t");
  ColumnBuilder y("y");
  ColumnBuilder z("z");
  for (int zi = 0; zi < 2; ++zi) {
    for (int ti = 0; ti < 2; ++ti) {
      int yi = ti ^ zi;
      for (int64_t k = 0; k < n_per_cell; ++k) {
        t.Append(std::to_string(ti));
        y.Append(std::to_string(yi));
        z.Append(std::to_string(zi));
      }
    }
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  return MakeTable(std::move(table));
}

TEST(StratifiedTest, BuildSplitsStrataCorrectly) {
  TablePtr t = XorTable(25);
  auto st = BuildStratified(TableView(t), 0, 1, {2});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->NumStrata(), 2);
  EXPECT_EQ(st->total, 100);
  EXPECT_EQ(st->num_t_values, 2);
  EXPECT_EQ(st->num_y_values, 2);
  for (const auto& s : st->strata) {
    EXPECT_EQ(s.table.total(), 50);
    // Within a stratum the relationship is deterministic.
    EXPECT_NEAR(s.table.MutualInformation(EntropyEstimator::kPlugin),
                std::log(2.0), 1e-9);
  }
  EXPECT_NEAR(st->CmiStatistic(EntropyEstimator::kPlugin), std::log(2.0),
              1e-9);
  EXPECT_EQ(st->DegreesOfFreedom(), 2);  // (2-1)(2-1)*2
}

TEST(StratifiedTest, EmptyConditioningSingleStratum) {
  TablePtr t = XorTable(10);
  auto st = BuildStratified(TableView(t), 0, 1, {});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->NumStrata(), 1);
  // Marginally independent by construction.
  EXPECT_NEAR(st->CmiStatistic(EntropyEstimator::kPlugin), 0.0, 1e-9);
}

TEST(StratifiedTest, SetVersionCompoundsVariables) {
  TablePtr t = XorTable(10);
  // Compound (t, z) against y: fully determines y.
  auto st = BuildStratifiedSets(TableView(t), {0, 2}, {1}, {});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->num_t_values, 4);
  EXPECT_NEAR(st->strata[0].table.MutualInformation(
                  EntropyEstimator::kPlugin),
              std::log(2.0), 1e-9);
}

// ---- MiEngine ----

TEST(MiEngineTest, MatchesDirectEntropy) {
  TablePtr t = XorTable(25);
  MiEngine engine(TableView(t),
                  MiEngineOptions{.estimator = EntropyEstimator::kPlugin});
  auto h = engine.Entropy({0});
  ASSERT_TRUE(h.ok());
  EXPECT_NEAR(*h, std::log(2.0), 1e-12);
  auto h_all = engine.Entropy({0, 1, 2});
  ASSERT_TRUE(h_all.ok());
  EXPECT_NEAR(*h_all, std::log(4.0), 1e-12);  // (t,z) uniform on 4 cells
}

TEST(MiEngineTest, MiIdentity) {
  TablePtr t = XorTable(25);
  MiEngine engine(TableView(t),
                  MiEngineOptions{.estimator = EntropyEstimator::kPlugin});
  // I(T;Y) = 0 marginally, = ln 2 given Z.
  EXPECT_NEAR(*engine.Mi(0, 1, {}), 0.0, 1e-12);
  EXPECT_NEAR(*engine.Mi(0, 1, {2}), std::log(2.0), 1e-12);
  // Symmetry.
  EXPECT_NEAR(*engine.Mi(1, 0, {2}), *engine.Mi(0, 1, {2}), 1e-12);
}

// Entropies are memoized on the count engine's cache entries: each of a
// repeat's four entropies is one query answered by a memo hit, with no
// scan and no marginalization.
TEST(MiEngineTest, EngineMemoAnswersRepeatedEntropies) {
  TablePtr t = XorTable(25);
  MiEngine engine{TableView(t)};
  ASSERT_TRUE(engine.Mi(0, 1, {2}).ok());
  const CountEngineStats before = engine.count_engine().stats();
  ASSERT_TRUE(engine.Mi(0, 1, {2}).ok());  // fully memoized
  const CountEngineStats after = engine.count_engine().stats();
  EXPECT_EQ(after.queries, before.queries + 4);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 4);
  EXPECT_EQ(after.marginalizations, before.marginalizations);
  EXPECT_EQ(after.scans, before.scans);
}

// Over an engine that caches nothing, every entropy is computed from a
// fresh scan: I(0;1|2) needs four.
TEST(MiEngineTest, UncachedEngineRecountsEveryEntropy) {
  TablePtr t = XorTable(25);
  MiEngine engine(std::make_shared<ViewCountProvider>(TableView(t)));
  ASSERT_TRUE(engine.Mi(0, 1, {2}).ok());
  const int64_t scans = engine.count_engine().stats().scans;
  ASSERT_TRUE(engine.Mi(0, 1, {2}).ok());
  EXPECT_EQ(engine.count_engine().stats().scans, scans + 4);
}

TEST(MiEngineTest, FocusMarginalizationMatchesScan) {
  TablePtr t = XorTable(25);
  MiEngine scan{TableView(t)};
  MiEngine focused{TableView(t)};
  ASSERT_TRUE(focused.SetFocus({0, 1, 2}).ok());
  int64_t scans_after_focus = focused.count_engine().stats().scans;
  EXPECT_EQ(scans_after_focus, 1);  // the one materializing scan
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}}) {
    EXPECT_NEAR(*focused.Entropy(cols), *scan.Entropy(cols), 1e-12);
  }
  // No further data scans after the focus scan: every subset marginalizes
  // the cached summary.
  EXPECT_EQ(focused.count_engine().stats().scans, scans_after_focus);
}

TEST(MiEngineTest, SupportCounts) {
  TablePtr t = XorTable(25);
  MiEngine engine{TableView(t)};
  EXPECT_EQ(*engine.Support({0}), 2);
  EXPECT_EQ(*engine.Support({0, 2}), 4);
  EXPECT_EQ(*engine.Support({0, 1, 2}), 4);  // XOR: only 4 cells occur
}

TEST(MiEngineTest, CondEntropyChainRule) {
  TablePtr t = XorTable(25);
  MiEngine engine(TableView(t),
                  MiEngineOptions{.estimator = EntropyEstimator::kPlugin});
  // H(Y|T,Z) = 0 (deterministic), H(Y|Z) = ln 2.
  EXPECT_NEAR(*engine.CondEntropy({1}, {0, 2}), 0.0, 1e-12);
  EXPECT_NEAR(*engine.CondEntropy({1}, {2}), std::log(2.0), 1e-12);
}

// Submodularity footnote of Sec. 3.2: I(T;V) - I(T;V|Z) >= 0 when Z ∈ V.
class SubmodularityTest : public testing::TestWithParam<int> {};

TEST_P(SubmodularityTest, ResponsibilityNumeratorNonNegative) {
  Rng rng(GetParam() * 977);
  // Random 4-column categorical table.
  Table table;
  for (int c = 0; c < 4; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
    int card = 2 + static_cast<int>(rng.NextBounded(3));
    for (int64_t r = 0; r < 400; ++r) {
      b.Append(std::to_string(rng.NextBounded(card)));
    }
    ASSERT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  TablePtr t = MakeTable(std::move(table));
  MiEngine engine(TableView(t),
                  MiEngineOptions{.estimator = EntropyEstimator::kPlugin});
  std::vector<int> v = {1, 2, 3};
  auto i_full = engine.MiSets({0}, v, {});
  ASSERT_TRUE(i_full.ok());
  for (int z : v) {
    auto i_given = engine.MiSets({0}, v, {z});
    ASSERT_TRUE(i_given.ok());
    EXPECT_GE(*i_full - *i_given, -1e-9) << "Z = " << z;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubmodularityTest, testing::Range(1, 17));

}  // namespace
}  // namespace hypdb
