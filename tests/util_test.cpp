// Unit tests for src/util: Status/StatusOr, Rng, string helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace hypdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad column");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "out_of_range");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "failed_precondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "io_error");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> Doubled(int x) {
  HYPDB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = ParsePositive(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4);
  EXPECT_EQ(r.value_or(-1), 4);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-7), -7);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_FALSE(Doubled(0).ok());
  ASSERT_TRUE(Doubled(21).ok());
  EXPECT_EQ(*Doubled(21), 42);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

// NextBounded sequences pinned bit for bit: every sampler (FD key-ladder
// draws, shuffles, Patefield) replays from a seed only while these hold.
// The Next() after the draws pins how many raw outputs they consumed; at
// 2^63 + 1 the rejection loop fires 17 times in 12 draws.
void ExpectBoundedSequence(uint64_t bound,
                           const std::vector<uint64_t>& expected,
                           uint64_t next_raw) {
  Rng rng(2024);
  for (uint64_t want : expected) EXPECT_EQ(rng.NextBounded(bound), want);
  EXPECT_EQ(rng.Next(), next_raw);
}

TEST(RngTest, NextBoundedIsPinnedForBoundTwo) {
  ExpectBoundedSequence(2, {0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1},
                        16269978256057448070ull);
}

TEST(RngTest, NextBoundedIsPinnedForBound22000) {
  ExpectBoundedSequence(22000,
                        {9518, 18693, 15441, 16811, 3463, 3397, 18312, 18556,
                         21765, 21124, 11376, 18851},
                        16269978256057448070ull);
}

TEST(RngTest, NextBoundedIsPinnedWhereRejectionFiresOften) {
  ExpectBoundedSequence(
      (uint64_t{1} << 63) + 1,
      {5203896100300918884ull, 5047958704815999654ull, 1047502983193151956ull,
       4064644935779353567ull, 7964002611229191042ull, 7046606219202672261ull,
       5043516837330230542ull, 2817320505095676645ull, 5719482954650854440ull,
       2752350513272152592ull, 42682020660567096ull, 197312288414536410ull},
      10794343969740389276ull);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(17);
  for (double shape : {0.5, 1.0, 3.0, 9.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      double g = rng.Gamma(shape);
      ASSERT_GT(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum / n, shape, shape * 0.06) << "shape " << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(19);
  for (int k : {2, 5, 17}) {
    std::vector<double> d = rng.Dirichlet(k, 0.5);
    ASSERT_EQ(static_cast<int>(d.size()), k);
    double total = 0;
    for (double p : d) {
      ASSERT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexAllZeroReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.WeightedIndex({0.0, 0.0}), 0);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitIndependentStreams) {
  Rng parent(5);
  Rng child = parent.Split();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y \n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ToLower) { EXPECT_EQ(ToLower("AbC_9"), "abc_9"); }

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

}  // namespace
}  // namespace hypdb
