// The rewritten SQL a report prints computes the report's own numbers:
// each query is analyzed, its table loaded into an in-memory SQLite
// database, and the printed total-effect (Listing 2) and direct-effect
// (Eq. 3) queries run there. Every ContextRewrite total and direct mean
// must match the SQL result of its (treatment, context) row to 1e-9.
// Built only when CMake finds SQLite3.

#include <gtest/gtest.h>
#include <sqlite3.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"

namespace hypdb {
namespace {

using Row = std::vector<std::string>;  // treatment, then context labels
using Means = std::map<Row, std::vector<double>>;

class Database {
 public:
  Database() { EXPECT_EQ(sqlite3_open(":memory:", &db_), SQLITE_OK); }
  ~Database() { sqlite3_close(db_); }

  // Loads `table` as `name`: outcome columns numeric, every other column
  // text, so the printed queries compare labels as the analysis does.
  void Load(const std::string& name, const Table& table,
            const std::vector<std::string>& outcomes) {
    std::string create = "CREATE TABLE " + name + " (";
    std::string insert = "INSERT INTO " + name + " VALUES (";
    for (int c = 0; c < table.NumColumns(); ++c) {
      const std::string& col = table.column(c).name();
      bool numeric = false;
      for (const auto& y : outcomes) numeric = numeric || y == col;
      create += (c > 0 ? ", " : "") + col + (numeric ? " REAL" : " TEXT");
      insert += c > 0 ? ", ?" : "?";
    }
    Exec(create + ")");
    Exec("BEGIN");
    sqlite3_stmt* stmt = nullptr;
    ASSERT_EQ(sqlite3_prepare_v2(db_, (insert + ")").c_str(), -1, &stmt,
                                 nullptr),
              SQLITE_OK);
    for (int64_t r = 0; r < table.NumRows(); ++r) {
      for (int c = 0; c < table.NumColumns(); ++c) {
        const Column& col = table.column(c);
        const std::string label = col.dict().Label(col.CodeAt(r));
        sqlite3_bind_text(stmt, c + 1, label.c_str(), -1, SQLITE_TRANSIENT);
      }
      ASSERT_EQ(sqlite3_step(stmt), SQLITE_DONE);
      sqlite3_reset(stmt);
    }
    sqlite3_finalize(stmt);
    Exec("COMMIT");
  }

  // Runs a printed query whose rows are (T, X..., sums...).
  Means Run(const std::string& sql, int labels) {
    Means out;
    sqlite3_stmt* stmt = nullptr;
    EXPECT_EQ(sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr),
              SQLITE_OK)
        << sqlite3_errmsg(db_) << "\n" << sql;
    if (stmt == nullptr) return out;
    while (sqlite3_step(stmt) == SQLITE_ROW) {
      Row key;
      for (int i = 0; i < labels; ++i) {
        key.emplace_back(
            reinterpret_cast<const char*>(sqlite3_column_text(stmt, i)));
      }
      std::vector<double>& means = out[key];
      for (int i = labels; i < sqlite3_column_count(stmt); ++i) {
        means.push_back(sqlite3_column_double(stmt, i));
      }
    }
    sqlite3_finalize(stmt);
    return out;
  }

 private:
  void Exec(const std::string& sql) {
    char* error = nullptr;
    EXPECT_EQ(sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &error),
              SQLITE_OK)
        << (error != nullptr ? error : "");
    sqlite3_free(error);
  }

  sqlite3* db_ = nullptr;
};

// Every adjusted mean of `groups` in the context `labels` against the SQL
// row of its treatment. Returns the number of means compared.
int Match(const Means& sql, const std::vector<std::string>& labels,
          const std::vector<AdjustedGroup>& groups, const char* effect) {
  int compared = 0;
  for (const AdjustedGroup& group : groups) {
    Row key = {group.treatment_label};
    key.insert(key.end(), labels.begin(), labels.end());
    auto row = sql.find(key);
    if (row == sql.end()) {
      ADD_FAILURE() << effect << ": no SQL row for " << key[0];
      continue;
    }
    EXPECT_EQ(row->second.size(), group.means.size());
    for (size_t o = 0; o < group.means.size() && o < row->second.size();
         ++o) {
      EXPECT_NEAR(row->second[o], group.means[o], 1e-9)
          << effect << " mean of " << key[0];
      ++compared;
    }
  }
  return compared;
}

void ExpectSqlMatchesReport(const TablePtr& table, const std::string& text) {
  SCOPED_TRACE(text);
  auto query = ParseAggQuery(text);
  ASSERT_TRUE(query.ok()) << query.status();
  HypDb db(table, HypDbOptions{});
  auto report = db.Analyze(*query);
  ASSERT_TRUE(report.ok()) << report.status();

  Database sqlite;
  sqlite.Load(query->table_name, *table, query->outcomes);
  const int labels = 1 + static_cast<int>(query->grouping.size());
  const Means total = sqlite.Run(report->sql_total, labels);
  const Means direct = sqlite.Run(report->sql_direct, labels);

  int totals = 0;
  int directs = 0;
  for (const ContextRewrite& rewrite : report->rewrites) {
    if (rewrite.blocks_used > 0) {
      totals += Match(total, rewrite.context_labels, rewrite.total, "total");
    }
    if (rewrite.has_direct && rewrite.direct_blocks_used > 0) {
      directs +=
          Match(direct, rewrite.context_labels, rewrite.direct, "direct");
    }
  }
  EXPECT_GT(totals, 0);
  if (query->grouping.empty() && report->rewrites[0].total.size() > 2) {
    EXPECT_EQ(directs, 0);  // the mediator formula needs two groups
  } else {
    EXPECT_GT(directs, 0);
  }
}

TablePtr Adult() {
  auto table = GenerateAdultData({.num_rows = 4000});
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

TEST(SqliteRewriteTest, BerkeleyPerDepartment) {
  auto table = GenerateBerkeleyData();
  ASSERT_TRUE(table.ok());
  ExpectSqlMatchesReport(MakeTable(std::move(*table)),
                         "SELECT Gender, Department, avg(Accepted) FROM b "
                         "GROUP BY Gender, Department");
}

TEST(SqliteRewriteTest, AdultWithWhereAndGroupBy) {
  ExpectSqlMatchesReport(Adult(),
                         "SELECT Gender, Race, avg(Income) FROM adult "
                         "WHERE NativeCountry IN ('US') GROUP BY Gender, "
                         "Race");
}

TEST(SqliteRewriteTest, ThreeValuedTreatment) {
  ExpectSqlMatchesReport(Adult(),
                         "SELECT Race, avg(Income) FROM adult GROUP BY Race");
}

}  // namespace
}  // namespace hypdb
