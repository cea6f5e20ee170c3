// Tests for the conditional-independence tests (G/χ², Pearson, MIT,
// sampled MIT, HyMIT).

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "stats/ci_test.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

namespace hypdb {
namespace {

// Builds a 3-column table from a simple generative process:
//   z ~ uniform(z_card), t ~ depends(z) if confounded, y ~ depends(t, z).
struct GenOptions {
  int64_t rows = 4000;
  bool t_depends_on_z = true;
  bool y_depends_on_t = true;  // direct effect
  bool y_depends_on_z = true;
  int z_card = 3;
  uint64_t seed = 1;
};

TablePtr Generate(const GenOptions& g) {
  Rng rng(g.seed);
  ColumnBuilder t("t");
  ColumnBuilder y("y");
  ColumnBuilder z("z");
  for (int64_t i = 0; i < g.rows; ++i) {
    int zi = static_cast<int>(rng.NextBounded(g.z_card));
    double pt = g.t_depends_on_z ? 0.2 + 0.6 * zi / (g.z_card - 1) : 0.5;
    int ti = rng.Bernoulli(pt) ? 1 : 0;
    double py = 0.3;
    if (g.y_depends_on_t) py += 0.25 * ti;
    if (g.y_depends_on_z) py += 0.3 * zi / (g.z_card - 1);
    int yi = rng.Bernoulli(py) ? 1 : 0;
    t.Append(std::to_string(ti));
    y.Append(std::to_string(yi));
    z.Append(std::to_string(zi));
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  return MakeTable(std::move(table));
}

CiOptions WithMethod(CiMethod m, int permutations = 400) {
  CiOptions o;
  o.method = m;
  o.permutations = permutations;
  return o;
}

class AllMethodsTest : public testing::TestWithParam<CiMethod> {};

TEST_P(AllMethodsTest, DetectsMarginalDependence) {
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(GetParam()), 42);
  auto r = tester.Test(0, 1, {});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->p_value, 0.01) << CiMethodName(r->method_used);
}

TEST_P(AllMethodsTest, AcceptsConditionalIndependence) {
  // y depends only on z; given z, t ⫫ y.
  GenOptions g;
  g.y_depends_on_t = false;
  TablePtr data = Generate(g);
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(GetParam()), 43);
  auto r = tester.Test(0, 1, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.01) << CiMethodName(r->method_used);
}

TEST_P(AllMethodsTest, RejectsConditionalDependence) {
  // Direct t -> y edge survives conditioning on z.
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(GetParam()), 44);
  auto r = tester.Test(0, 1, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->p_value, 0.01) << CiMethodName(r->method_used);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethodsTest,
    testing::Values(CiMethod::kGTest, CiMethod::kPearson, CiMethod::kMit,
                    CiMethod::kMitSampled, CiMethod::kHybrid),
    [](const testing::TestParamInfo<CiMethod>& info) {
      switch (info.param) {
        case CiMethod::kGTest:
          return "G";
        case CiMethod::kPearson:
          return "Pearson";
        case CiMethod::kMit:
          return "MIT";
        case CiMethod::kMitSampled:
          return "MITSampled";
        case CiMethod::kHybrid:
          return "HyMIT";
      }
      return "?";
    });

TEST(CiTesterTest, ValidatesArguments) {
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, CiOptions{}, 1);
  EXPECT_FALSE(tester.Test(0, 0, {}).ok());
  EXPECT_FALSE(tester.Test(0, 1, {0}).ok());
  EXPECT_FALSE(tester.Test(0, 1, {1}).ok());
  EXPECT_FALSE(tester.TestSets({}, {1}, {}).ok());
  EXPECT_FALSE(tester.TestSets({0, 2}, {2}, {}).ok());
}

TEST(CiTesterTest, CountsTests) {
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kGTest), 1);
  EXPECT_EQ(tester.num_tests(), 0);
  ASSERT_TRUE(tester.Test(0, 1, {}).ok());
  ASSERT_TRUE(tester.Test(0, 1, {2}).ok());
  EXPECT_EQ(tester.num_tests(), 2);
  tester.ResetStats();
  EXPECT_EQ(tester.num_tests(), 0);
}

TEST(CiTesterTest, GTestDegreesOfFreedom) {
  GenOptions g;
  g.z_card = 4;
  TablePtr data = Generate(g);
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kGTest), 1);
  auto r = tester.Test(0, 1, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->df, (2 - 1) * (2 - 1) * 4);
}

TEST(CiTesterTest, MitPValueConfidenceIntervalBracketsP) {
  TablePtr data = Generate({.rows = 800, .seed = 5});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kMit, 200), 7);
  auto r = tester.Test(0, 1, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->p_low, r->p_value);
  EXPECT_GE(r->p_high, r->p_value);
  EXPECT_GE(r->p_low, 0.0);
  EXPECT_LE(r->p_high, 1.0);
}

// Under the null, MIT p-values should be roughly uniform: their mean
// across repeated independent datasets ≈ 0.5.
TEST(CiTesterTest, MitPValuesRoughlyUniformUnderNull) {
  double sum = 0.0;
  const int reps = 30;
  for (int rep = 0; rep < reps; ++rep) {
    GenOptions g;
    g.rows = 500;
    g.y_depends_on_t = false;
    g.y_depends_on_z = false;  // fully independent pair
    g.t_depends_on_z = false;
    g.seed = 1000 + rep;
    TablePtr data = Generate(g);
    MiEngine engine{TableView(data)};
    CiTester tester(&engine, WithMethod(CiMethod::kMit, 200), 50 + rep);
    auto r = tester.Test(0, 1, {});
    ASSERT_TRUE(r.ok());
    sum += r->p_value;
  }
  EXPECT_NEAR(sum / reps, 0.5, 0.15);
}

TEST(CiTesterTest, HybridUsesChiSquaredWhenDense) {
  // 4000 rows, df = 3: χ² path.
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kHybrid), 1);
  auto r = tester.Test(0, 1, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method_used, CiMethod::kGTest);
}

TEST(CiTesterTest, HybridFallsBackToPermutationWhenSparse) {
  // Tiny sample with a huge conditioning domain: df >> n/beta.
  Rng rng(3);
  ColumnBuilder t("t"), y("y"), z1("z1"), z2("z2"), z3("z3");
  for (int i = 0; i < 120; ++i) {
    t.Append(std::to_string(rng.NextBounded(2)));
    y.Append(std::to_string(rng.NextBounded(2)));
    z1.Append(std::to_string(rng.NextBounded(6)));
    z2.Append(std::to_string(rng.NextBounded(6)));
    z3.Append(std::to_string(rng.NextBounded(6)));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z1.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z2.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z3.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));

  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kHybrid, 200), 1);
  auto r = tester.Test(0, 1, {2, 3, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->method_used == CiMethod::kMit ||
              r->method_used == CiMethod::kMitSampled);
  // Random noise: should not reject.
  EXPECT_GT(r->p_value, 0.01);
}

TEST(CiTesterTest, SampledMitAgreesWithFullMitOnStrongSignal) {
  GenOptions g;
  g.rows = 6000;
  g.z_card = 12;
  TablePtr data = Generate(g);
  MiEngine engine{TableView(data)};
  CiTester full(&engine, WithMethod(CiMethod::kMit, 300), 9);
  CiTester sampled(&engine, WithMethod(CiMethod::kMitSampled, 300), 9);
  auto rf = full.Test(0, 1, {2});
  auto rs = sampled.Test(0, 1, {2});
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_LE(rf->p_value, 0.01);
  EXPECT_LE(rs->p_value, 0.01);
}

TEST(CiTesterTest, SetVersionDetectsCompoundDependence) {
  TablePtr data = Generate({});
  MiEngine engine{TableView(data)};
  CiTester tester(&engine, WithMethod(CiMethod::kGTest), 11);
  // T depends on the compound (Y, Z).
  auto r = tester.TestSets({0}, {1, 2}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->p_value, 0.01);
}

// ---- MIT results pinned bit for bit ---------------------------------------

// A random (t, y, z, zc) table: t and y take `t_card` and `y_card` values,
// z takes `strata` values and zc = z / 8 groups them coarsely. y copies t
// (mod y_card) with probability `lean` and is uniform otherwise. Strata
// with z % 3 == 1 restrict t to two values and strata with z % 4 == 2
// restrict y, leaving zero rows and columns inside those strata; strata
// with z % 7 == 5 fix t, so MIT skips them as degenerate.
TablePtr PinTable(uint64_t seed, int t_card, int y_card, int strata,
                  int64_t rows, double lean) {
  Rng rng(seed);
  ColumnBuilder t("t"), y("y"), z("z"), zc("zc");
  for (int64_t i = 0; i < rows; ++i) {
    const int zi = static_cast<int>(rng.NextBounded(strata));
    int ti = static_cast<int>(rng.NextBounded(t_card));
    if (zi % 3 == 1) ti %= 2;
    if (zi % 7 == 5) ti = 0;
    int yi = rng.Bernoulli(lean) ? ti % y_card
                                : static_cast<int>(rng.NextBounded(y_card));
    if (zi % 4 == 2) yi %= 2;
    t.Append(std::to_string(ti));
    y.Append(std::to_string(yi));
    z.Append(std::to_string(zi));
    zc.Append(std::to_string(zi / 8));
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(zc.Finish()).ok());
  return MakeTable(std::move(table));
}

struct PinnedMit {
  double statistic;
  double p_value;
  double p_low;
  double p_high;
};

// Every MIT statistic and p-value below was recorded from a build whose
// replicate loop drew a fresh Table2D per replicate and recomputed all
// three entropies per draw. The checks are exact: a change to the RNG
// stream, the AS 159 draw or the floating-point order of the statistic
// shows as an inequality. Each tester runs three tests with growing
// stratum totals (z, then zc, then no conditioning), so the tester's log
// memos grow between tests.
TEST(CiTesterTest, MitResultsArePinnedBitForBit) {
  struct Case {
    uint64_t seed;
    int t_card;
    int y_card;
    int strata;
    int64_t rows;
    double lean;
  };
  const Case kCases[] = {
      {11, 2, 2, 96, 3000, 0.0},  {12, 6, 6, 40, 20000, 0.01},
      {13, 3, 5, 1, 800, 0.05},   {14, 5, 2, 17, 9000, 0.0},
      {15, 4, 3, 64, 6000, 0.03},
  };
  const PinnedMit kPinned[] = {
      // Case seed 11: MIT then MIT(sampling), each Miller-Madow then
      // plug-in, each conditioning on z, zc, nothing.
      {0x1.759560ad3be66p-8, 0x1.a3d70a3d70a3dp-1,
       0x1.889406351cfcp-1, 0x1.bf1a0e45c44bap-1},
      {0x1.1c70c84a839f1p-13, 0x1.dc28f5c28f5c3p-1,
       0x1.ca0e0c48e3bb2p-1, 0x1.ee43df3c3afd4p-1},
      {0x0p+0, 0x1.4e147ae147ae1p-1,
       0x1.2c4a6dda7570ep-1, 0x1.6fde87e819eb4p-1},
      {0x1.a02f2cbf9bf5fp-7, 0x1.970a3d70a3d71p-1,
       0x1.7a64bc9523956p-1, 0x1.b3afbe4c2418cp-1},
      {0x1.2618cf8acf97ap-10, 0x1.b333333333333p-1,
       0x1.99dcc3c1b8ffep-1, 0x1.cc89a2a4ad668p-1},
      {0x1.58a4ef4934p-14, 0x1.f5c28f5c28f5cp-2,
       0x1.aed08a84d2cc9p-2, 0x1.1e5a4a19bf8f8p-1},
      {0x1.3c859a638f5c3p-7, 0x1.eb851eb851eb8p-3,
       0x1.724c252eb9d1ep-3, 0x1.325f0c20f5029p-2},
      {0x1.ef5ac489a6622p-14, 0x1.b70a3d70a3d71p-1,
       0x1.9e3c36cf90a88p-1, 0x1.cfd84411b705ap-1},
      {0x0p+0, 0x1.428f5c28f5c29p-1,
       0x1.204ce79e39d2fp-1, 0x1.64d1d0b3b1b23p-1},
      {0x1.2c04446c4358p-6, 0x1.b851eb851eb85p-3,
       0x1.43b67f0a1598cp-3, 0x1.1676ac0013ebfp-2},
      {0x1.e5db45e8e4872p-11, 0x1.b0a3d70a3d70ap-1,
       0x1.96f59af5e2788p-1, 0x1.ca52131e9868cp-1},
      {0x1.58a4ef4934p-14, 0x1.c51eb851eb852p-2,
       0x1.7ea19677f582bp-2, 0x1.05cded15f0c3cp-1},
      // Case seed 12.
      {0x1.404ba035798fep-10, 0x1.970a3d70a3d71p-1,
       0x1.7a64bc9523956p-1, 0x1.b3afbe4c2418cp-1},
      {0x1.89f585e43b036p-7, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x0p+0, 0x1.7851eb851eb85p-1,
       0x1.5900d079d1772p-1, 0x1.97a306906bf98p-1},
      {0x1.94f1c9c5db23p-7, 0x1.4p-1,
       0x1.1da597626ad37p-1, 0x1.625a689d952c9p-1},
      {0x1.f05bec4aa1672p-7, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x1.3d10854296p-11, 0x1.0cccccccccccdp-1,
       0x1.d2baab3b19a6dp-2, 0x1.303c43fc0cc63p-1},
      {0x1.6b410bffbe1b2p-10, 0x1.70a3d70a3d70ap-1,
       0x1.50c77b77f869bp-1, 0x1.9080329c82779p-1},
      {0x1.d85f8374218b8p-7, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x0p+0, 0x1.747ae147ae148p-1,
       0x1.54e2b37759337p-1, 0x1.94130f1802f59p-1},
      {0x1.37592296a5cddp-6, 0x1.451eb851eb852p-1,
       0x1.22f53a1f1322ep-1, 0x1.67483684c3e76p-1},
      {0x1.1f63c6a7b65b8p-6, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x1.3d10854296p-11, 0x1.f5c28f5c28f5cp-2,
       0x1.aed08a84d2cc9p-2, 0x1.1e5a4a19bf8f8p-1},
      // Case seed 13.
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      {0x1.f2298ba1e38p-8, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      {0x1.9cebd00e627p-7, 0x1.47ae147ae147bp-7,
       0x0p+0, 0x1.85c5bf39b4f1p-6},
      // Case seed 14.
      {0x1.1eccf7014af34p-13, 0x1.f333333333333p-1,
       0x1.e81f16a32c81p-1, 0x1.fe474fc339e56p-1},
      {0x1.596caf959efcap-17, 0x1.70a3d70a3d70ap-1,
       0x1.50c77b77f869bp-1, 0x1.9080329c82779p-1},
      {0x0p+0, 0x1.5eb851eb851ecp-1,
       0x1.3dc21606d3ffcp-1, 0x1.7fae8dd0363dcp-1},
      {0x1.a0a9bfd010469p-10, 0x1.f0a3d70a3d70ap-1,
       0x1.e4890307bf498p-1, 0x1.fcbeab0cbb97cp-1},
      {0x1.4b2357371ad76p-13, 0x1.f851eb851eb85p-1,
       0x1.efb1d71e10013p-1, 0x1p+0},
      {0x1.0f440c433p-14, 0x1.cp-1,
       0x1.a888467154288p-1, 0x1.d777b98eabd78p-1},
      {0x1.45afed67ce1b6p-12, 0x1.6e147ae147ae1p-1,
       0x1.4e0c3dfbe638bp-1, 0x1.8e1cb7c6a9237p-1},
      {0x1.596caf959efcap-17, 0x1.9851eb851eb85p-1,
       0x1.7bcdd1b44b227p-1, 0x1.b4d60555f24e3p-1},
      {0x0p+0, 0x1.7333333333333p-1,
       0x1.5383fa12481aep-1, 0x1.92e26c541e4b8p-1},
      {0x1.bccda5709f34cp-10, 0x1.999999999999ap-1,
       0x1.7d3756cb34295p-1, 0x1.b5fbdc67ff09fp-1},
      {0x1.4b2357371ad76p-13, 0x1.f5c28f5c28f5cp-1,
       0x1.ebd35e60b8a81p-1, 0x1.ffb1c05799437p-1},
      {0x1.0f440c433p-14, 0x1.ccccccccccccdp-1,
       0x1.b7831ab200b8ap-1, 0x1.e2167ee798e1p-1},
      // Case seed 15.
      {0x1.a64c4d6229e28p-8, 0x1.051eb851eb852p-2,
       0x1.8e86a067a7d6cp-3, 0x1.42fa2070031eep-2},
      {0x1.b7d55903878a2p-9, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x1.22a7fe420dp-11, 0x1.70a3d70a3d70ap-5,
       0x1.0a8d9c55a3ecap-6, 0x1.2e006ff4d4758p-4},
      {0x1.588b2b45f267ep-6, 0x1.d70a3d70a3d71p-3,
       0x1.5f9773a51dccfp-3, 0x1.273e839e14f09p-2},
      {0x1.ddaff878e4601p-8, 0x0p+0,
       0x0p+0, 0x0p+0},
      {0x1.14666db893p-10, 0x1.70a3d70a3d70ap-5,
       0x1.0a8d9c55a3ecap-6, 0x1.2e006ff4d4758p-4},
      {0x1.41e1fa339fa3fp-7, 0x1.c28f5c28f5c29p-4,
       0x1.10f09664c5d0ep-4, 0x1.3a1710f692da2p-3},
      {0x1.2a6aa59ca22a8p-8, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.22a7fe420dp-11, 0x1.70a3d70a3d70ap-5,
       0x1.0a8d9c55a3ecap-6, 0x1.2e006ff4d4758p-4},
      {0x1.b84ec88b055b5p-6, 0x1.47ae147ae147bp-4,
       0x1.5b58ac3384893p-5, 0x1.e1afd2dc004acp-4},
      {0x1.13f86a27b8c05p-7, 0x1.47ae147ae147bp-8,
       0x0p+0, 0x1.e4299eb59b904p-7},
      {0x1.14666db893p-10, 0x1.70a3d70a3d70ap-5,
       0x1.0a8d9c55a3ecap-6, 0x1.2e006ff4d4758p-4},
  };
  const std::vector<int> kConditioning[] = {{2}, {3}, {}};
  size_t next = 0;
  for (const Case& c : kCases) {
    TablePtr data =
        PinTable(c.seed, c.t_card, c.y_card, c.strata, c.rows, c.lean);
    for (CiMethod method : {CiMethod::kMit, CiMethod::kMitSampled}) {
      for (EntropyEstimator estimator :
           {EntropyEstimator::kMillerMadow, EntropyEstimator::kPlugin}) {
        MiEngine engine{TableView(data)};
        CiOptions options = WithMethod(method, 200);
        options.mit_estimator = estimator;
        CiTester tester(&engine, options, c.seed * 31 + 7);
        for (const std::vector<int>& z : kConditioning) {
          auto r = tester.Test(0, 1, z);
          ASSERT_TRUE(r.ok());
          ASSERT_LT(next, std::size(kPinned));
          const PinnedMit& want = kPinned[next++];
          const std::string where = "case seed " + std::to_string(c.seed) +
                                    " " + CiMethodName(method) +
                                    " result " + std::to_string(next - 1);
          EXPECT_EQ(r->method_used, method) << where;
          EXPECT_EQ(r->statistic, want.statistic) << where;
          EXPECT_EQ(r->p_value, want.p_value) << where;
          EXPECT_EQ(r->p_low, want.p_low) << where;
          EXPECT_EQ(r->p_high, want.p_high) << where;
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kPinned));
}

TEST(CiMethodNameTest, AllNamed) {
  EXPECT_STREQ(CiMethodName(CiMethod::kGTest), "chi2(G)");
  EXPECT_STREQ(CiMethodName(CiMethod::kMit), "MIT");
  EXPECT_STREQ(CiMethodName(CiMethod::kMitSampled), "MIT(sampling)");
  EXPECT_STREQ(CiMethodName(CiMethod::kHybrid), "HyMIT");
  EXPECT_STREQ(CiMethodName(CiMethod::kPearson), "pearson");
}

}  // namespace
}  // namespace hypdb
