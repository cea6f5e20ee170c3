// End-to-end tests: the full HypDb pipeline on the paper's datasets,
// asserting the qualitative findings of Fig. 1, 3 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/flight_data.h"
#include "datagen/staples_data.h"

namespace hypdb {
namespace {

bool CoarseContains(const ContextExplanation& e, const std::string& attr) {
  for (const auto& r : e.coarse) {
    if (r.attribute == attr && r.rho > 0) return true;
  }
  return false;
}

TEST(HypDbE2eTest, FlightSimpsonsParadox) {
  auto table =
      GenerateFlightData({.num_rows = 30000, .num_noise_columns = 4});
  ASSERT_TRUE(table.ok());
  HypDb db(MakeTable(std::move(*table)));

  auto report = db.AnalyzeSql(
      "SELECT avg(Delayed) FROM FlightData "
      "WHERE Carrier IN ('AA','UA') AND "
      "Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier");
  ASSERT_TRUE(report.ok()) << report.status();

  // The plain query favors AA...
  const ContextAnswer& plain = report->plain.contexts[0];
  double plain_diff = plain.Difference("UA", "AA", 0);
  EXPECT_GT(plain_diff, 0.02);

  // ...HypDB flags it as biased...
  ASSERT_EQ(report->bias.size(), 1u);
  EXPECT_TRUE(report->bias[0].total.biased);

  // ...Airport is the top explanation (Fig. 1d)...
  ASSERT_EQ(report->explanations.size(), 1u);
  ASSERT_FALSE(report->explanations[0].coarse.empty());
  EXPECT_EQ(report->explanations[0].coarse[0].attribute, "Airport");

  // ...and the rewritten query reverses the verdict: UA is (weakly)
  // better in total effect.
  ASSERT_EQ(report->rewrites.size(), 1u);
  double total_diff = report->rewrites[0].Difference("UA", "AA", 0);
  EXPECT_LT(total_diff, plain_diff - 0.02);
  EXPECT_LT(total_diff, 0.005);

  // Covariates discovered include Airport, and the FD/key columns were
  // dropped before discovery.
  const auto& cov = report->discovery.covariates;
  EXPECT_NE(std::find(cov.begin(), cov.end(), "Airport"), cov.end());
  const auto& keys = report->discovery.dropped_keys;
  EXPECT_NE(std::find(keys.begin(), keys.end(), "Id"), keys.end());
  bool wac_dropped =
      std::find(report->discovery.dropped_fd.begin(),
                report->discovery.dropped_fd.end(),
                "AirportWAC") != report->discovery.dropped_fd.end() ||
      std::find(cov.begin(), cov.end(), "AirportWAC") == cov.end();
  EXPECT_TRUE(wac_dropped);

  // Rendering mentions the headline pieces.
  std::string text = RenderReport(*report);
  EXPECT_NE(text.find("BIASED"), std::string::npos);
  EXPECT_NE(text.find("WITH Blocks"), std::string::npos);
  EXPECT_NE(text.find("Airport"), std::string::npos);
}

TEST(HypDbE2eTest, BerkeleyReversal) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  HypDbOptions options;
  // 3 columns only: no discovery ambiguity, Department is the covariate
  // on both paths.
  HypDb db(MakeTable(std::move(*table)), options);

  AggQuery q;
  q.table_name = "BerkeleyData";
  q.treatment = "Gender";
  q.outcomes = {"Accepted"};
  auto report = db.Analyze(q);
  ASSERT_TRUE(report.ok()) << report.status();

  // Plain: men admitted ≈ 0.445 vs women ≈ 0.304 (Fig. 4 top).
  const ContextAnswer& plain = report->plain.contexts[0];
  EXPECT_NEAR(plain.Difference("Male", "Female", 0), 0.14, 0.02);

  // Biased w.r.t. Department.
  EXPECT_TRUE(report->bias[0].total.biased ||
              (report->bias[0].has_direct && report->bias[0].direct.biased));
  EXPECT_TRUE(CoarseContains(report->explanations[0], "Department"));

  // After conditioning on Department the gap shrinks drastically — and
  // per the paper the trend reverses (slightly favoring women).
  const ContextRewrite& rw = report->rewrites[0];
  bool has_direct = rw.has_direct;
  double adjusted = has_direct ? rw.Difference("Male", "Female", 0, false)
                               : rw.Difference("Male", "Female", 0, true);
  EXPECT_LT(adjusted, 0.02);
}

TEST(HypDbE2eTest, CancerNoDirectEffect) {
  auto table = GenerateCancerData({.num_rows = 20000});
  ASSERT_TRUE(table.ok());
  HypDbOptions options;
  HypDb db(MakeTable(std::move(*table)), options);

  AggQuery q;
  q.table_name = "CancerData";
  q.treatment = "Lung_Cancer";
  q.outcomes = {"Car_Accident"};
  auto report = db.Analyze(q);
  ASSERT_TRUE(report.ok()) << report.status();

  const ContextAnswer& plain = report->plain.contexts[0];
  double plain_diff = plain.Difference("1", "0", 0);
  EXPECT_GT(plain_diff, 0.1);  // Fig. 4: 0.77 vs 0.60

  // Mediators must include Fatigue — the top explanation.
  const auto& med = report->discovery.mediators;
  EXPECT_NE(std::find(med.begin(), med.end(), "Fatigue"), med.end());
  EXPECT_TRUE(CoarseContains(report->explanations[0], "Fatigue"));

  const ContextRewrite& rw = report->rewrites[0];
  ASSERT_TRUE(rw.has_direct);
  // Direct effect ≈ 0 (no Lung_Cancer -> Car_Accident edge).
  EXPECT_LT(std::fabs(rw.Difference("1", "0", 0, false)), 0.05);
  // Total effect remains (mediated through Fatigue).
  EXPECT_GT(rw.Difference("1", "0", 0, true), 0.05);
  // Significance agrees with the ground truth.
  EXPECT_LE(rw.plain_sig[0].p_value, 0.01);
  EXPECT_GT(rw.direct_sig[0].p_value, 0.01);
}

TEST(HypDbE2eTest, StaplesUnintendedDiscrimination) {
  auto table = GenerateStaplesData({.num_rows = 120000});
  ASSERT_TRUE(table.ok());
  HypDbOptions options;
  HypDb db(MakeTable(std::move(*table)), options);

  AggQuery q;
  q.table_name = "StaplesData";
  q.treatment = "Income";
  q.outcomes = {"Price"};
  auto report = db.Analyze(q);
  ASSERT_TRUE(report.ok()) << report.status();

  // Plain answers: low income pays more, slightly (Fig. 3 bottom).
  const ContextAnswer& plain = report->plain.contexts[0];
  double plain_diff = plain.Difference("0", "1", 0);
  EXPECT_GT(plain_diff, 0.005);

  // Distance carries (essentially all of) the responsibility.
  ASSERT_FALSE(report->explanations[0].coarse.empty());
  EXPECT_EQ(report->explanations[0].coarse[0].attribute, "Distance");
  // (the paper reports 1.0 with V = {Distance}; our V also
  // contains Urban, which shares part of the dependence)
  EXPECT_GT(report->explanations[0].coarse[0].rho, 0.5);

  // Direct effect is null: the discrimination is mediated by Distance.
  const ContextRewrite& rw = report->rewrites[0];
  ASSERT_TRUE(rw.has_direct);
  EXPECT_LT(std::fabs(rw.Difference("0", "1", 0, false)), 0.004);
  EXPECT_GT(rw.direct_sig[0].p_value, 0.01);
}

TEST(HypDbE2eTest, AdultGenderGapIsMostlyMediated) {
  auto table = GenerateAdultData({.num_rows = 30000});
  ASSERT_TRUE(table.ok());
  HypDbOptions options;
  HypDb db(MakeTable(std::move(*table)), options);

  AggQuery q;
  q.table_name = "AdultData";
  q.treatment = "Gender";
  q.outcomes = {"Income"};
  auto report = db.Analyze(q);
  ASSERT_TRUE(report.ok()) << report.status();

  // Plain gap is large (paper: 0.11 vs 0.30).
  const ContextAnswer& plain = report->plain.contexts[0];
  double plain_diff = plain.Difference("Male", "Female", 0);
  EXPECT_GT(plain_diff, 0.12);

  // The query is biased, and MaritalStatus carries the most
  // responsibility (the household-income inconsistency).
  EXPECT_TRUE(report->AnyBias());
  ASSERT_FALSE(report->explanations[0].coarse.empty());
  EXPECT_EQ(report->explanations[0].coarse[0].attribute, "MaritalStatus");

  // EducationNum (FD of Education) and Fnlwgt (key) never appear among
  // covariates or mediators.
  auto all = report->discovery.covariates;
  all.insert(all.end(), report->discovery.mediators.begin(),
             report->discovery.mediators.end());
  EXPECT_EQ(std::find(all.begin(), all.end(), "Fnlwgt"), all.end());

  // After adjustment the gap shrinks substantially; the direct effect is
  // small (paper: 0.10 vs 0.11).
  const ContextRewrite& rw = report->rewrites[0];
  double total_diff = rw.Difference("Male", "Female", 0, true);
  EXPECT_LT(total_diff, plain_diff * 0.6);
  if (rw.has_direct) {
    EXPECT_LT(std::fabs(rw.Difference("Male", "Female", 0, false)),
              plain_diff * 0.5);
  }
}

TEST(HypDbE2eTest, ContextsAnalyzedSeparately) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  HypDb db(MakeTable(std::move(*table)), HypDbOptions{});
  // Grouping by Department: six contexts, none of them biased by
  // Department (constant within context).
  AggQuery q;
  q.treatment = "Gender";
  q.grouping = {"Department"};
  q.outcomes = {"Accepted"};
  auto report = db.Analyze(q);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->plain.contexts.size(), 6u);
  EXPECT_EQ(report->bias.size(), 6u);
  EXPECT_EQ(report->rewrites.size(), 6u);
}

TEST(HypDbE2eTest, AnswersAndDiscoverGranularApis) {
  auto table = GenerateCancerData({.num_rows = 5000});
  ASSERT_TRUE(table.ok());
  HypDb db(MakeTable(std::move(*table)), HypDbOptions{});
  AggQuery q;
  q.treatment = "Lung_Cancer";
  q.outcomes = {"Car_Accident"};
  auto answers = db.Answers(q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->contexts[0].groups.size(), 2u);
  auto discovery = db.Discover(q);
  ASSERT_TRUE(discovery.ok());
  EXPECT_GT(discovery->tests_used, 0);
  EXPECT_GT(discovery->seconds, 0.0);
}

TEST(HypDbE2eTest, BadSqlSurfacesParserError) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  HypDb db(MakeTable(std::move(*table)), HypDbOptions{});
  EXPECT_FALSE(db.AnalyzeSql("SELECT nonsense").ok());
  EXPECT_FALSE(
      db.AnalyzeSql("SELECT avg(Nope) FROM B GROUP BY Gender").ok());
}

}  // namespace
}  // namespace hypdb
