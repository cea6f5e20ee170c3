// Tests for the query model, binding, plain evaluation, the SQL parser
// and the rewritten-SQL printer.

#include <gtest/gtest.h>

#include <cmath>

#include "core/hypdb.h"
#include "core/query.h"
#include "core/sql_parser.h"
#include "core/sql_printer.h"
#include "stats/mi_engine.h"

namespace hypdb {
namespace {

// carrier x airport x delayed toy data.
TablePtr ToyFlights() {
  ColumnBuilder carrier("Carrier");
  ColumnBuilder airport("Airport");
  ColumnBuilder delayed("Delayed");
  struct Row {
    const char* c;
    const char* a;
    const char* d;
    int copies;
  };
  // AA: 8 flights at LOW (1 delayed), 2 at HIGH (2 delayed).
  // UA: 2 flights at LOW (0 delayed), 8 at HIGH (5 delayed).
  const Row rows[] = {
      {"AA", "LOW", "1", 1},  {"AA", "LOW", "0", 7},
      {"AA", "HIGH", "1", 2}, {"UA", "LOW", "0", 2},
      {"UA", "HIGH", "1", 5}, {"UA", "HIGH", "0", 3},
  };
  for (const Row& r : rows) {
    for (int i = 0; i < r.copies; ++i) {
      carrier.Append(r.c);
      airport.Append(r.a);
      delayed.Append(r.d);
    }
  }
  Table t;
  EXPECT_TRUE(t.AddColumn(carrier.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(airport.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(delayed.Finish()).ok());
  return MakeTable(std::move(t));
}

AggQuery ToyQuery() {
  AggQuery q;
  q.table_name = "Flights";
  q.treatment = "Carrier";
  q.outcomes = {"Delayed"};
  return q;
}

TEST(BindQueryTest, ResolvesColumns) {
  TablePtr t = ToyFlights();
  auto bound = BindQuery(t, ToyQuery());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->treatment, 0);
  EXPECT_EQ(bound->outcomes, (std::vector<int>{2}));
  EXPECT_EQ(bound->population.NumRows(), 20);
  // Binding counts nothing: the treatment census is one count through
  // the population's engine.
  auto engine = MakeViewEngine(bound->population, MiEngineOptions{});
  auto census = TreatmentsIn(*engine, *t, bound->treatment);
  ASSERT_TRUE(census.ok());
  ASSERT_EQ(census->size(), 2u);
  EXPECT_EQ((*census)[0].second, "AA");
  EXPECT_EQ((*census)[1].second, "UA");
  EXPECT_EQ(engine->stats().queries, 1);
}

TEST(BindQueryTest, RejectsBadQueries) {
  TablePtr t = ToyFlights();
  AggQuery q = ToyQuery();
  q.treatment = "";
  EXPECT_FALSE(BindQuery(t, q).ok());
  q = ToyQuery();
  q.outcomes = {};
  EXPECT_FALSE(BindQuery(t, q).ok());
  q = ToyQuery();
  q.outcomes = {"Airport"};  // non-numeric labels
  EXPECT_FALSE(BindQuery(t, q).ok());
  q = ToyQuery();
  q.grouping = {"Carrier"};  // duplicate of treatment
  EXPECT_FALSE(BindQuery(t, q).ok());
  q = ToyQuery();
  q.outcomes = {"Carrier"};  // outcome in group-by
  EXPECT_FALSE(BindQuery(t, q).ok());
  q = ToyQuery();
  q.where = {{"Carrier", {"ZZ"}}};  // empty population
  EXPECT_EQ(BindQuery(t, q).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlainQueryTest, AveragesPerTreatment) {
  TablePtr t = ToyFlights();
  auto answers = HypDb(t).Answers(ToyQuery());
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->contexts.size(), 1u);
  const ContextAnswer& ctx = answers->contexts[0];
  ASSERT_EQ(ctx.groups.size(), 2u);
  // AA: 3/10 delayed; UA: 5/10.
  EXPECT_EQ(ctx.groups[0].treatment_label, "AA");
  EXPECT_NEAR(ctx.groups[0].averages[0], 0.3, 1e-12);
  EXPECT_NEAR(ctx.groups[1].averages[0], 0.5, 1e-12);
  EXPECT_NEAR(ctx.Difference("UA", "AA", 0), 0.2, 1e-12);
  EXPECT_TRUE(std::isnan(ctx.Difference("ZZ", "AA", 0)));
}

TEST(PlainQueryTest, GroupingFormsContexts) {
  TablePtr t = ToyFlights();
  AggQuery q = ToyQuery();
  q.grouping = {"Airport"};
  auto answers = HypDb(t).Answers(q);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->contexts.size(), 2u);
  for (const auto& ctx : answers->contexts) {
    ASSERT_EQ(ctx.context_labels.size(), 1u);
    if (ctx.context_labels[0] == "LOW") {
      // AA 1/8, UA 0/2 at LOW.
      EXPECT_NEAR(ctx.groups[0].averages[0], 0.125, 1e-12);
      EXPECT_NEAR(ctx.groups[1].averages[0], 0.0, 1e-12);
    }
  }
}

TEST(PlainQueryTest, WhereRestrictsPopulation) {
  TablePtr t = ToyFlights();
  AggQuery q = ToyQuery();
  q.where = {{"Airport", {"HIGH"}}};
  auto answers = HypDb(t).Answers(q);
  ASSERT_TRUE(answers.ok());
  const ContextAnswer& ctx = answers->contexts[0];
  // At HIGH: AA 2/2, UA 5/8.
  EXPECT_NEAR(ctx.groups[0].averages[0], 1.0, 1e-12);
  EXPECT_NEAR(ctx.groups[1].averages[0], 0.625, 1e-12);
}

TEST(SplitContextsTest, PartitionsPopulation) {
  TablePtr t = ToyFlights();
  AggQuery q = ToyQuery();
  q.grouping = {"Airport"};
  auto bound = BindQuery(t, q);
  ASSERT_TRUE(bound.ok());
  auto contexts = SplitContexts(t, *bound);
  ASSERT_TRUE(contexts.ok());
  ASSERT_EQ(contexts->size(), 2u);
  int64_t total = 0;
  for (const auto& ctx : *contexts) total += ctx.view.NumRows();
  EXPECT_EQ(total, 20);
}

TEST(ToSqlTest, RendersListing1Shape) {
  AggQuery q = ToyQuery();
  q.where = {{"Carrier", {"AA", "UA"}}, {"Airport", {"HIGH"}}};
  q.grouping = {"Airport"};
  std::string sql = q.ToSql();
  EXPECT_NE(sql.find("SELECT Carrier, Airport, avg(Delayed)"),
            std::string::npos);
  EXPECT_NE(sql.find("FROM Flights"), std::string::npos);
  EXPECT_NE(sql.find("WHERE Carrier IN ('AA', 'UA') AND Airport IN"),
            std::string::npos);
  EXPECT_NE(sql.find("GROUP BY Carrier, Airport"), std::string::npos);
}

TEST(SqlParserTest, ParsesListing1) {
  auto q = ParseAggQuery(
      "SELECT avg(Delayed) FROM FlightData "
      "WHERE Carrier IN ('AA','UA') AND Airport IN "
      "('COS','MFE','MTJ','ROC') GROUP BY Carrier");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->treatment, "Carrier");
  EXPECT_TRUE(q->grouping.empty());
  EXPECT_EQ(q->outcomes, (std::vector<std::string>{"Delayed"}));
  EXPECT_EQ(q->table_name, "FlightData");
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[0].first, "Carrier");
  EXPECT_EQ(q->where[1].second,
            (std::vector<std::string>{"COS", "MFE", "MTJ", "ROC"}));
}

TEST(SqlParserTest, ParsesGroupingAndEquals) {
  auto q = ParseAggQuery(
      "select Gender, Department, avg(Accepted), avg(Waitlisted) "
      "from Berkeley where Year = 1973 group by Gender, Department");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->treatment, "Gender");
  EXPECT_EQ(q->grouping, (std::vector<std::string>{"Department"}));
  EXPECT_EQ(q->outcomes,
            (std::vector<std::string>{"Accepted", "Waitlisted"}));
  ASSERT_EQ(q->where.size(), 1u);
  EXPECT_EQ(q->where[0].second, (std::vector<std::string>{"1973"}));
}

TEST(SqlParserTest, RoundTripsThroughToSql) {
  AggQuery q = ToyQuery();
  q.where = {{"Airport", {"HIGH", "LOW"}}};
  q.grouping = {"Airport"};
  auto parsed = ParseAggQuery(q.ToSql());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->treatment, q.treatment);
  EXPECT_EQ(parsed->grouping, q.grouping);
  EXPECT_EQ(parsed->outcomes, q.outcomes);
  EXPECT_EQ(parsed->where, q.where);
}

TEST(SqlParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseAggQuery("").ok());
  EXPECT_FALSE(ParseAggQuery("SELECT avg(x) FROM t").ok());  // no GROUP BY
  EXPECT_FALSE(ParseAggQuery("SELECT x FROM t GROUP BY y").ok());  // x not grouped
  EXPECT_FALSE(ParseAggQuery("SELECT t FROM GROUP BY t").ok());
  EXPECT_FALSE(ParseAggQuery("SELECT avg(x FROM t GROUP BY y").ok());
  EXPECT_FALSE(
      ParseAggQuery("SELECT y, avg(x) FROM t GROUP BY y extra").ok());
  // No avg() outcome at all.
  EXPECT_FALSE(ParseAggQuery("SELECT y FROM t GROUP BY y").ok());
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(SqlPrinterTest, TotalRewriteHasListing2Shape) {
  AggQuery q = ToyQuery();
  q.where = {{"Carrier", {"AA", "UA"}}};
  std::string sql = RewrittenTotalSql(q, {"Airport", "Year"});
  EXPECT_NE(sql.find("WITH Blocks AS ("), std::string::npos);
  EXPECT_NE(sql.find("Weights AS ("), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY Carrier, Airport, Year"), std::string::npos);
  // Blocks are matched against their context's own treatment count, and
  // every subquery applies the WHERE.
  EXPECT_NE(sql.find("Contexts AS (\n  SELECT count(DISTINCT Carrier) AS "
                     "NumTreatments\n  FROM Flights\n"),
            std::string::npos);
  EXPECT_NE(sql.find("  FROM Flights, Contexts\n"), std::string::npos);
  EXPECT_NE(sql.find("HAVING count(DISTINCT Carrier) = NumTreatments"),
            std::string::npos);
  EXPECT_EQ(Occurrences(sql, "WHERE Carrier IN ('AA', 'UA')"), 3u);
  EXPECT_NE(sql.find("count(*) * 1.0 / sum(count(*)) OVER () AS W"),
            std::string::npos);
  EXPECT_NE(sql.find("sum(Avg1 * W)"), std::string::npos);
  EXPECT_NE(sql.find("Blocks.Airport = Weights.Airport"),
            std::string::npos);
}

// A covariate that is also a grouping attribute is named once in Z ∪ X.
TEST(SqlPrinterTest, TotalRewriteNamesAGroupingCovariateOnce) {
  AggQuery q = ToyQuery();
  q.grouping = {"Airport"};
  std::string sql = RewrittenTotalSql(q, {"Airport", "Year"});
  EXPECT_NE(sql.find("  SELECT Carrier, Airport, Year,\n"),
            std::string::npos);
  EXPECT_NE(sql.find("  GROUP BY Carrier, Airport, Year\n"),
            std::string::npos);
  EXPECT_NE(sql.find("  SELECT Airport, Year, count(*)"), std::string::npos);
  EXPECT_NE(sql.find("  FROM Flights JOIN Contexts USING (Airport)\n"),
            std::string::npos);
  EXPECT_NE(sql.find("  GROUP BY Airport, Year, NumTreatments\n"),
            std::string::npos);
  EXPECT_EQ(Occurrences(sql, "Blocks.Airport = Weights.Airport"), 1u);
  EXPECT_EQ(sql.find("Airport, Airport"), std::string::npos);
  EXPECT_EQ(sql.find("Year, Airport"), std::string::npos);
}

// A column that is both mediator and covariate is named once in M ∪ Z.
TEST(SqlPrinterTest, DirectRewriteNamesAMediatingCovariateOnce) {
  AggQuery q = ToyQuery();
  std::string sql = RewrittenDirectSql(q, {"Airport", "Year"},
                                       {"DepTime", "Airport"}, "UA");
  EXPECT_NE(sql.find("  SELECT DepTime, Airport, Year, count(*)"),
            std::string::npos);
  EXPECT_NE(sql.find("  GROUP BY DepTime, Airport, Year\n"),
            std::string::npos);
  EXPECT_NE(sql.find("Pr(DepTime, Airport | Carrier = 'UA', Year)"),
            std::string::npos);
  EXPECT_EQ(sql.find("Airport, Airport"), std::string::npos);
  EXPECT_EQ(sql.find("Year, Airport"), std::string::npos);

  // Every covariate a mediator: nothing is left to condition on.
  std::string same = RewrittenDirectSql(q, {"Airport"}, {"Airport"}, "UA");
  EXPECT_NE(same.find("  GROUP BY Airport\n"), std::string::npos);
  EXPECT_NE(same.find("Pr(Airport | Carrier = 'UA', ()) * Pr(Airport)"),
            std::string::npos);
}

TEST(SqlPrinterTest, DirectRewriteMentionsMediators) {
  AggQuery q = ToyQuery();
  std::string sql =
      RewrittenDirectSql(q, {"Airport"}, {"DepTime"}, "UA");
  EXPECT_NE(sql.find("WITH MBlocks AS ("), std::string::npos);
  EXPECT_NE(sql.find("MWeights AS ("), std::string::npos);
  EXPECT_NE(sql.find("Carrier = 'UA'"), std::string::npos);
  EXPECT_NE(sql.find("MBlocks.DepTime = MWeights.DepTime"),
            std::string::npos);
}

}  // namespace
}  // namespace hypdb
