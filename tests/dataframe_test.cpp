// Unit tests for src/dataframe: columns, tables, views, predicates,
// tuple codec, group-by, CSV.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataframe/csv.h"
#include "dataframe/group_by.h"
#include "dataframe/predicate.h"
#include "dataframe/table.h"
#include "dataframe/tuple_codec.h"
#include "dataframe/view.h"
#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"

namespace hypdb {
namespace {

// A small fixture table:
//   city    color  score
//   NYC     red    1
//   NYC     blue   0
//   LA      red    1
//   LA      red    0
//   NYC     red    1
//   SF      blue   1
TablePtr FixtureTable() {
  ColumnBuilder city("city");
  ColumnBuilder color("color");
  ColumnBuilder score("score");
  const char* cities[] = {"NYC", "NYC", "LA", "LA", "NYC", "SF"};
  const char* colors[] = {"red", "blue", "red", "red", "red", "blue"};
  const char* scores[] = {"1", "0", "1", "0", "1", "1"};
  for (int i = 0; i < 6; ++i) {
    city.Append(cities[i]);
    color.Append(colors[i]);
    score.Append(scores[i]);
  }
  Table t;
  EXPECT_TRUE(t.AddColumn(city.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(color.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(score.Finish()).ok());
  return MakeTable(std::move(t));
}

TEST(DictionaryTest, GetOrAddIsStable) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("a"), 0);
  EXPECT_EQ(d.GetOrAdd("b"), 1);
  EXPECT_EQ(d.GetOrAdd("a"), 0);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.Label(1), "b");
  EXPECT_EQ(d.Find("b"), 1);
  EXPECT_EQ(d.Find("zz"), -1);
}

// A copy of a dictionary is a handle on the same label store: it sees
// exactly the prefix it was copied at, whatever the original adds later.
TEST(DictionaryTest, CopySharesLabelsAndKeepsItsPrefix) {
  Dictionary d;
  d.GetOrAdd("0");
  d.GetOrAdd("1.5");
  Dictionary copy = d;
  EXPECT_EQ(&copy.Label(0), &d.Label(0));
  EXPECT_EQ(&copy.Label(1), &d.Label(1));

  // Enough new labels to allocate further blocks of the store.
  EXPECT_EQ(d.GetOrAdd("yes"), 2);
  for (int i = 0; i < 100; ++i) d.GetOrAdd("x" + std::to_string(i));
  EXPECT_EQ(d.size(), 103);
  EXPECT_EQ(copy.size(), 2);
  EXPECT_EQ(&copy.Label(1), &d.Label(1));
  EXPECT_EQ(copy.Label(1), "1.5");

  EXPECT_EQ(copy.Find("1.5"), 1);
  EXPECT_EQ(copy.Find("yes"), -1);
  EXPECT_EQ(copy.Find("x99"), -1);
  EXPECT_EQ(d.Find("yes"), 2);
  EXPECT_EQ(d.Find("x99"), 102);

  // The non-numeric "yes" arrived after the copy.
  EXPECT_TRUE(copy.IsNumericLike());
  EXPECT_FALSE(d.IsNumericLike());
  EXPECT_DOUBLE_EQ(copy.NumericValue(0), 0.0);
  EXPECT_DOUBLE_EQ(copy.NumericValue(1), 1.5);
  EXPECT_TRUE(std::isnan(d.NumericValue(2)));

  ColumnBuilder b("y");
  b.Append("0");
  b.Append("1.5");
  const Column built = b.Finish();
  Column col("y", copy,
             std::vector<int32_t>(built.codes().begin(), built.codes().end()));
  EXPECT_TRUE(col.IsNumericLike());
  EXPECT_DOUBLE_EQ(*col.NumericValue(1), 1.5);
  EXPECT_FALSE(col.NumericValue(2).ok());  // past the prefix
}

TEST(DictionaryTest, AddingToAStaleCopyForksIt) {
  Dictionary d;
  d.GetOrAdd("a");
  d.GetOrAdd("b");
  Dictionary stale = d;
  d.GetOrAdd("c");  // d stays the store's newest handle

  EXPECT_EQ(stale.GetOrAdd("b"), 1);  // in its prefix: no fork
  EXPECT_EQ(&stale.Label(0), &d.Label(0));
  EXPECT_EQ(stale.GetOrAdd("d"), 2);  // forks
  EXPECT_NE(&stale.Label(0), &d.Label(0));
  EXPECT_EQ(stale.GetOrAdd("c"), 3);
  EXPECT_EQ(stale.size(), 4);
  EXPECT_EQ(stale.Label(2), "d");
  EXPECT_EQ(stale.Label(3), "c");

  // The newer handle is unchanged, and keeps adding to the original store.
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(d.Label(2), "c");
  EXPECT_EQ(d.Find("d"), -1);
  EXPECT_EQ(d.GetOrAdd("e"), 3);
  EXPECT_EQ(stale.Find("e"), -1);

  // Two copies at the same size: the first to add wins the store, the
  // second forks.
  Dictionary twin = d;
  EXPECT_EQ(d.GetOrAdd("f"), 4);
  EXPECT_EQ(twin.GetOrAdd("g"), 4);
  EXPECT_EQ(d.Label(4), "f");
  EXPECT_EQ(twin.Label(4), "g");
  EXPECT_EQ(d.Find("g"), -1);
  EXPECT_EQ(twin.Find("f"), -1);
}

TEST(ColumnTest, NumericParsing) {
  ColumnBuilder b("y");
  b.Append("0");
  b.Append("1.5");
  b.Append("-2");
  Column col = b.Finish();
  EXPECT_TRUE(col.IsNumericLike());
  EXPECT_DOUBLE_EQ(*col.NumericValue(0), 0.0);
  EXPECT_DOUBLE_EQ(*col.NumericValue(1), 1.5);
  EXPECT_DOUBLE_EQ(*col.NumericValue(2), -2.0);
  EXPECT_FALSE(col.NumericValue(9).ok());
}

TEST(ColumnTest, NonNumericLabelIsError) {
  ColumnBuilder b("y");
  b.Append("1");
  b.Append("yes");
  Column col = b.Finish();
  EXPECT_FALSE(col.IsNumericLike());
  EXPECT_TRUE(col.NumericValue(0).ok());
  EXPECT_FALSE(col.NumericValue(1).ok());
}

TEST(TableTest, BasicAccessors) {
  TablePtr t = FixtureTable();
  EXPECT_EQ(t->NumColumns(), 3);
  EXPECT_EQ(t->NumRows(), 6);
  EXPECT_EQ(*t->ColumnIndex("color"), 1);
  EXPECT_FALSE(t->ColumnIndex("nope").ok());
  EXPECT_TRUE(t->HasColumn("score"));
  EXPECT_EQ(t->ColumnNames(),
            (std::vector<std::string>{"city", "color", "score"}));
}

TEST(TableTest, RejectsDuplicateAndRaggedColumns) {
  Table t;
  ColumnBuilder a("a");
  a.Append("x");
  ASSERT_TRUE(t.AddColumn(a.Finish()).ok());
  ColumnBuilder dup("a");
  dup.Append("y");
  EXPECT_EQ(t.AddColumn(dup.Finish()).code(), StatusCode::kInvalidArgument);
  ColumnBuilder ragged("b");
  ragged.Append("1");
  ragged.Append("2");
  EXPECT_EQ(t.AddColumn(ragged.Finish()).code(),
            StatusCode::kInvalidArgument);
}

TEST(PredicateTest, FilterInList) {
  TablePtr t = FixtureTable();
  auto pred = Predicate::FromInLists(*t, {{"city", {"NYC", "SF"}}});
  ASSERT_TRUE(pred.ok());
  TableView view = TableView(t).Filter(*pred);
  EXPECT_EQ(view.NumRows(), 4);
  for (int64_t i = 0; i < view.NumRows(); ++i) {
    std::string city = t->column(0).dict().Label(view.CodeAt(i, 0));
    EXPECT_TRUE(city == "NYC" || city == "SF");
  }
}

TEST(PredicateTest, ConjunctionAndUnknownValue) {
  TablePtr t = FixtureTable();
  auto pred = Predicate::FromInLists(
      *t, {{"city", {"NYC"}}, {"color", {"red"}}});
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(TableView(t).Filter(*pred).NumRows(), 2);
  // Unknown values match nothing.
  auto none = Predicate::FromInLists(*t, {{"city", {"Paris"}}});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(TableView(t).Filter(*none).NumRows(), 0);
}

TEST(PredicateTest, UnknownColumnIsError) {
  TablePtr t = FixtureTable();
  EXPECT_FALSE(Predicate::FromInLists(*t, {{"nope", {"x"}}}).ok());
}

TEST(ViewTest, EmptyPredicateIsIdentity) {
  TablePtr t = FixtureTable();
  TableView all(t);
  TableView filtered = all.Filter(Predicate());
  EXPECT_EQ(filtered.NumRows(), all.NumRows());
}

TEST(ViewTest, NestedFiltersCompose) {
  TablePtr t = FixtureTable();
  auto p1 = Predicate::FromInLists(*t, {{"city", {"NYC", "LA"}}});
  auto p2 = Predicate::FromInLists(*t, {{"color", {"red"}}});
  TableView v = TableView(t).Filter(*p1).Filter(*p2);
  EXPECT_EQ(v.NumRows(), 4);  // NYC-red x2, LA-red x2
}

TEST(ViewTest, WithRowsUsesPhysicalIds) {
  TablePtr t = FixtureTable();
  TableView v = TableView(t).WithRows({5, 0});
  EXPECT_EQ(v.NumRows(), 2);
  EXPECT_EQ(t->column(0).dict().Label(v.CodeAt(0, 0)), "SF");
  EXPECT_EQ(t->column(0).dict().Label(v.CodeAt(1, 0)), "NYC");
}

TEST(TupleCodecTest, EncodeDecodeRoundTrip) {
  TablePtr t = FixtureTable();
  auto codec = TupleCodec::Create(*t, {0, 1});
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec->Domain(),
            static_cast<uint64_t>(t->column(0).Cardinality()) *
                t->column(1).Cardinality());
  for (int32_t a = 0; a < t->column(0).Cardinality(); ++a) {
    for (int32_t b = 0; b < t->column(1).Cardinality(); ++b) {
      uint64_t key = codec->EncodeCodes({a, b});
      EXPECT_EQ(codec->Decode(key), (std::vector<int32_t>{a, b}));
      EXPECT_EQ(codec->DecodeAt(key, 0), a);
      EXPECT_EQ(codec->DecodeAt(key, 1), b);
    }
  }
}

TEST(TupleCodecTest, EmptyColumnsSingleton) {
  TablePtr t = FixtureTable();
  auto codec = TupleCodec::Create(*t, {});
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec->Domain(), 1u);
  EXPECT_EQ(codec->EncodeCodes({}), 0u);
}

TEST(TupleCodecTest, ProjectMatchesManualEncoding) {
  TablePtr t = FixtureTable();
  auto codec = TupleCodec::Create(*t, {0, 1, 2});
  ASSERT_TRUE(codec.ok());
  TupleCodec sub = codec->Project({2, 0});
  uint64_t key = codec->EncodeCodes({2, 1, 0});
  // Projected codec addresses (col2, col0) = (0, 2).
  EXPECT_EQ(sub.EncodeCodes({0, 2}),
            sub.EncodeCodes({codec->DecodeAt(key, 2), codec->DecodeAt(key, 0)}));
}

TEST(TupleCodecTest, OutOfRangeColumn) {
  TablePtr t = FixtureTable();
  EXPECT_FALSE(TupleCodec::Create(*t, {99}).ok());
}

TEST(GroupByTest, CountByMatchesHandCounts) {
  TablePtr t = FixtureTable();
  auto counts = CountBy(TableView(t), {0});
  ASSERT_TRUE(counts.ok());
  // NYC=3, LA=2, SF=1 — codes in first-seen order NYC=0, LA=1, SF=2.
  ASSERT_EQ(counts->NumGroups(), 3);
  EXPECT_EQ(counts->total, 6);
  EXPECT_EQ(counts->counts[0], 3);
  EXPECT_EQ(counts->counts[1], 2);
  EXPECT_EQ(counts->counts[2], 1);
}

TEST(GroupByTest, CountByPair) {
  TablePtr t = FixtureTable();
  auto counts = CountBy(TableView(t), {0, 1});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->NumGroups(), 4);  // NYC-red, NYC-blue, LA-red, SF-blue
  int64_t total = 0;
  for (int64_t c : counts->counts) total += c;
  EXPECT_EQ(total, 6);
}

TEST(GroupByTest, CountByEmptyColsSingleGroup) {
  TablePtr t = FixtureTable();
  auto counts = CountBy(TableView(t), {});
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->NumGroups(), 1);
  EXPECT_EQ(counts->counts[0], 6);
}

TEST(GroupByTest, CollectGroupsPartitionsRows) {
  TablePtr t = FixtureTable();
  auto groups = CollectGroups(TableView(t), {1});
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->NumGroups(), 2);
  size_t total = 0;
  for (const auto& rows : groups->rows) total += rows.size();
  EXPECT_EQ(total, 6u);
}

TEST(GroupByTest, AverageByComputesMeans) {
  TablePtr t = FixtureTable();
  auto avg = AverageBy(TableView(t), {0}, {2});
  ASSERT_TRUE(avg.ok());
  ASSERT_EQ(avg->NumGroups(), 3);
  // NYC: (1+0+1)/3, LA: (1+0)/2, SF: 1.
  EXPECT_NEAR(avg->means[0][0], 2.0 / 3, 1e-12);
  EXPECT_NEAR(avg->means[1][0], 0.5, 1e-12);
  EXPECT_NEAR(avg->means[2][0], 1.0, 1e-12);
}

TEST(GroupByTest, AverageByRejectsNonNumericOutcome) {
  TablePtr t = FixtureTable();
  EXPECT_FALSE(AverageBy(TableView(t), {2}, {0}).ok());
}

// Rows (g, side, y1, y2) with non-integer outcome labels, so a mean's
// last bit depends on the order its terms are summed in.
std::vector<std::vector<std::string>> NonIntegerRows() {
  const char* groups[] = {"a", "b", "c"};
  const char* sides[] = {"x", "y"};
  const char* y1[] = {"0.1", "0.25", "2.5", "-1.75", "0.3"};
  const char* y2[] = {"1.5", "-0.5", "0.3"};
  std::vector<std::vector<std::string>> rows;
  uint64_t state = 12345;
  for (int i = 0; i < 240; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 33;
    rows.push_back({groups[r % 3], sides[(r / 3) % 2], y1[(r / 6) % 5],
                    y2[(r / 30) % 3]});
  }
  return rows;
}

TablePtr TableOfRows(const std::vector<std::vector<std::string>>& rows) {
  ColumnBuilder g("g"), side("side"), y1("y1"), y2("y2");
  for (const auto& row : rows) {
    g.Append(row[0]);
    side.Append(row[1]);
    y1.Append(row[2]);
    y2.Append(row[3]);
  }
  Table t;
  EXPECT_TRUE(t.AddColumn(g.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(side.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(y1.Finish()).ok());
  EXPECT_TRUE(t.AddColumn(y2.Finish()).ok());
  return MakeTable(std::move(t));
}

// Group label -> (count, means), so tables whose dictionaries assign
// different codes compare by label.
std::map<std::string, std::pair<int64_t, std::vector<double>>> MeansByLabel(
    const Table& table, const GroupedAverages& avg) {
  std::map<std::string, std::pair<int64_t, std::vector<double>>> out;
  for (int i = 0; i < avg.NumGroups(); ++i) {
    const std::string label =
        table.column(0).dict().Label(avg.codec.DecodeAt(avg.keys[i], 0));
    out[label] = {avg.counts[i], avg.means[i]};
  }
  return out;
}

TEST(GroupByTest, CountDerivedMeansIgnoreRowOrder) {
  std::vector<std::vector<std::string>> rows = NonIntegerRows();
  std::vector<std::vector<std::vector<std::string>>> permutations = {rows};
  permutations.emplace_back(rows.rbegin(), rows.rend());
  std::vector<std::vector<std::string>> interleaved;
  for (size_t i = 0; i < rows.size(); i += 2) interleaved.push_back(rows[i]);
  for (size_t i = 1; i < rows.size(); i += 2) interleaved.push_back(rows[i]);
  permutations.push_back(interleaved);

  std::map<std::string, std::pair<int64_t, std::vector<double>>> reference;
  for (size_t p = 0; p < permutations.size(); ++p) {
    TablePtr t = TableOfRows(permutations[p]);
    auto avg = AverageBy(TableView(t), {0}, {2, 3});
    ASSERT_TRUE(avg.ok()) << avg.status();
    auto means = MeansByLabel(*t, *avg);
    ASSERT_EQ(means.size(), 3u);
    if (p == 0) {
      reference = means;
      continue;
    }
    for (const auto& [label, value] : reference) {
      EXPECT_EQ(means[label].first, value.first) << label;
      ASSERT_EQ(means[label].second.size(), 2u);
      EXPECT_EQ(means[label].second[0], value.second[0]) << label;
      EXPECT_EQ(means[label].second[1], value.second[1]) << label;
    }
  }
}

TEST(GroupByTest, CountDerivedMeansMatchCachingEngine) {
  std::vector<std::vector<std::string>> rows = NonIntegerRows();
  std::vector<std::vector<std::string>> reversed(rows.rbegin(), rows.rend());
  for (const auto& order : {rows, reversed}) {
    TablePtr t = TableOfRows(order);
    TableView view(t);
    auto direct = AverageBy(view, {0}, {2, 3});
    ASSERT_TRUE(direct.ok()) << direct.status();
    // The engine holds one superset summary; both outcomes' (g, y)
    // counts marginalize from it without another scan.
    CachingCountEngine engine(std::make_shared<ViewCountProvider>(view));
    ASSERT_TRUE(engine.Prefetch({0, 1, 2, 3}).ok());
    auto served = AverageBy(engine, *t, {0}, {2, 3});
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(engine.stats().scans, 1);
    EXPECT_EQ(engine.stats().marginalizations, 2);
    ASSERT_EQ(served->NumGroups(), direct->NumGroups());
    EXPECT_EQ(served->keys, direct->keys);
    EXPECT_EQ(served->counts, direct->counts);
    EXPECT_EQ(served->total, direct->total);
    for (int g = 0; g < direct->NumGroups(); ++g) {
      EXPECT_EQ(served->means[g], direct->means[g]) << g;
    }
  }
}

TEST(GroupByTest, IntegerLabelMeansEqualSumOverCount) {
  ColumnBuilder g("g"), y("y");
  const char* groups[] = {"p", "q", "p", "r", "q", "p", "r", "p", "q"};
  const int values[] = {0, 7, 2, 1, 1, 5, 3, 2, 0};
  std::map<std::string, std::pair<int64_t, int64_t>> sums;  // sum, count
  for (int i = 0; i < 9; ++i) {
    g.Append(groups[i]);
    y.Append(std::to_string(values[i]));
    sums[groups[i]].first += values[i];
    sums[groups[i]].second += 1;
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(g.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  TablePtr t = MakeTable(std::move(table));
  auto avg = AverageBy(TableView(t), {0}, {1});
  ASSERT_TRUE(avg.ok()) << avg.status();
  ASSERT_EQ(avg->NumGroups(), 3);
  EXPECT_EQ(avg->total, 9);
  for (int i = 0; i < avg->NumGroups(); ++i) {
    const std::string label =
        t->column(0).dict().Label(avg->codec.DecodeAt(avg->keys[i], 0));
    const auto [sum, count] = sums[label];
    EXPECT_EQ(avg->counts[i], count) << label;
    EXPECT_EQ(avg->means[i][0],
              static_cast<double>(sum) / static_cast<double>(count))
        << label;
  }
  // An outcome that is also grouped on averages to its own value.
  auto self = AverageBy(TableView(t), {1}, {1});
  ASSERT_TRUE(self.ok()) << self.status();
  for (int i = 0; i < self->NumGroups(); ++i) {
    const int32_t code = self->codec.DecodeAt(self->keys[i], 0);
    EXPECT_EQ(self->means[i][0], *t->column(1).NumericValue(code));
  }
}

TEST(GroupByTest, MarginalizeOntoMatchesDirectCount) {
  TablePtr t = FixtureTable();
  auto full = CountBy(TableView(t), {0, 1, 2});
  ASSERT_TRUE(full.ok());
  GroupCounts marginal = MarginalizeOnto(*full, {1});  // onto color
  auto direct = CountBy(TableView(t), {1});
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(marginal.NumGroups(), direct->NumGroups());
  for (int g = 0; g < marginal.NumGroups(); ++g) {
    EXPECT_EQ(marginal.keys[g], direct->keys[g]);
    EXPECT_EQ(marginal.counts[g], direct->counts[g]);
  }
}

TEST(GroupByTest, MarginalizeOntoEmptyGivesGrandTotal) {
  TablePtr t = FixtureTable();
  auto full = CountBy(TableView(t), {0, 1});
  ASSERT_TRUE(full.ok());
  GroupCounts marginal = MarginalizeOnto(*full, {});
  ASSERT_EQ(marginal.NumGroups(), 1);
  EXPECT_EQ(marginal.counts[0], 6);
}

TEST(CsvTest, RoundTrip) {
  TablePtr t = FixtureTable();
  std::string text = ToCsv(*t);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumRows(), t->NumRows());
  EXPECT_EQ(parsed->NumColumns(), t->NumColumns());
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    for (int c = 0; c < t->NumColumns(); ++c) {
      EXPECT_EQ(parsed->column(c).LabelAt(r), t->column(c).LabelAt(r));
    }
  }
}

TEST(CsvTest, QuotedFields) {
  auto t = ParseCsv("a,b\n\"x,1\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).LabelAt(0), "x,1");
  EXPECT_EQ(t->column(1).LabelAt(0), "say \"hi\"");
  // And quoting survives a round trip.
  auto again = ParseCsv(ToCsv(*t));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->column(0).LabelAt(0), "x,1");
}

TEST(CsvTest, FieldCountMismatchIsError) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, FileRoundTrip) {
  TablePtr t = FixtureTable();
  std::string path = testing::TempDir() + "/hypdb_csv_test.csv";
  ASSERT_TRUE(WriteCsv(*t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 6);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsv(path + ".missing").ok());
}

}  // namespace
}  // namespace hypdb
