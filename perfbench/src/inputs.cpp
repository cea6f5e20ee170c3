// Input generation: every CSV and request body a run uses is written
// here, from --seed alone, before any timing. The run process reads the
// files back, so the program under test only ever sees generated input.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "dataframe/csv.h"
#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/flight_data.h"
#include "datagen/staples_data.h"
#include "net/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hypdb::Status;
using hypdb::StatusOr;
using hypdb::Table;
using hypdb::net::JsonValue;

// table1_oneshot: passes generated per run; each is a seeded permutation
// of the five Table 1 queries. Far more than any run completes, so a
// faster program never runs out.
constexpr int kOneshotPasses = 2000;

// adult_warm_wire: 8 treatments x {no WHERE, 3 single-value
// subpopulations}. The subpopulation attributes are never treatments.
// Gender, the paper's headline Adult query, is also the slow mode (~2.5x
// the others' warm latency); its shapes are drawn twice as often, so they
// make 22% of the analyses and the p90 falls mid-mode instead of on its
// lower edge.
const char* const kAdultTreatments[8] = {
    "Gender",       "MaritalStatus", "Education", "Occupation",
    "Relationship", "Race",          "HoursPerWeek", "Age"};
constexpr double kAdultGenderWeight = 2.0;
const char* const kAdultWheres[4] = {
    "", " WHERE NativeCountry IN ('US')", " WHERE CapitalLoss IN ('none')",
    " WHERE Workclass IN ('Private')"};
constexpr int kAdultOpsPerClient = 12000;

// staples_ingest_wire: a small base so one append+analyze cycle stays
// well under a second, with batches of fresh SessionId labels.
constexpr int64_t kStaplesBaseRows = 15000;
constexpr int kStaplesBatchRows = 8;
constexpr int kStaplesBatchesPerAnalyze = 3;
constexpr int kStaplesCycles = 300;
constexpr uint64_t kStaplesLiveSeed = 2013;
const char kStaplesSql[] =
    "SELECT Income, avg(Price) FROM staples GROUP BY Income";

std::string Join(const std::string& dir, const std::string& file) {
  return dir + "/" + file;
}

Table Shuffled(const Table& table, uint64_t seed) {
  std::vector<int64_t> order(table.NumRows());
  for (int64_t r = 0; r < table.NumRows(); ++r) order[r] = r;
  hypdb::Rng rng(seed);
  rng.Shuffle(&order);
  Table out;
  for (int c = 0; c < table.NumColumns(); ++c) {
    const hypdb::Column& column = table.column(c);
    hypdb::ColumnBuilder b(column.name());
    for (int64_t r : order) b.Append(column.LabelAt(r));
    if (!out.AddColumn(b.Finish()).ok()) std::abort();
  }
  return out;
}

// The analysis workloads read the generators' tables at their fixed
// default seeds; --seed draws only the operation order. The work of one
// analysis depends on the rows and on their order: a fresh sample, or the
// same rows permuted, flips CI tests near alpha (HyMIT's permutation tests
// follow row order) and moves one Flight analysis by 1.7-2x.
Status WriteTable(const StatusOr<Table>& table, const std::string& path) {
  if (!table.ok()) return table.status();
  return hypdb::WriteCsv(*table, path);
}

JsonValue OpJson(const InputOp& op) {
  JsonValue v = JsonValue::MakeObject();
  v.Set("kind", JsonValue::Str(op.kind));
  if (!op.name.empty()) v.Set("name", JsonValue::Str(op.name));
  if (!op.path.empty()) v.Set("path", JsonValue::Str(op.path));
  if (!op.sql.empty()) v.Set("sql", JsonValue::Str(op.sql));
  if (!op.body.empty()) v.Set("body", JsonValue::Str(op.body));
  if (op.shape >= 0) v.Set("shape", JsonValue::Int(op.shape));
  v.Set("client", JsonValue::Int(op.client));
  return v;
}

std::string AnalyzeBody(const std::string& dataset, const std::string& sql) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("dataset", JsonValue::Str(dataset));
  body.Set("sql", JsonValue::Str(sql));
  return hypdb::net::SerializeJson(body);
}

Status GenTable1(const Args& args, std::vector<InputOp>* ops) {
  struct Source {
    const char* name;
    const char* file;
    const char* sql;
    std::function<StatusOr<Table>()> make;
  };
  // The paper's Table 1 queries and sizes. Flight keeps only its 15 core
  // columns: with the 86 noise columns one analysis alone runs ~14 s.
  const std::vector<Source> sources = {
      {"AdultData", "adult.csv",
       "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
       [] { return hypdb::GenerateAdultData({.num_rows = 48842}); }},
      {"StaplesData", "staples.csv",
       "SELECT Income, avg(Price) FROM StaplesData GROUP BY Income",
       [] { return hypdb::GenerateStaplesData({.num_rows = 988871}); }},
      {"BerkeleyData", "berkeley.csv",
       "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender",
       [] { return hypdb::GenerateBerkeleyData(); }},
      {"CancerData", "cancer.csv",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData "
       "GROUP BY Lung_Cancer",
       [] { return hypdb::GenerateCancerData({.num_rows = 2000}); }},
      {"FlightData", "flight.csv",
       "SELECT Carrier, avg(Delayed) FROM FlightData "
       "WHERE Carrier IN ('AA','UA') AND "
       "Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier",
       [] {
         return hypdb::GenerateFlightData(
             {.num_rows = 43853, .num_noise_columns = 0});
       }},
  };
  for (size_t i = 0; i < sources.size(); ++i) {
    const Source& src = sources[i];
    HYPDB_RETURN_IF_ERROR(WriteTable(src.make(), Join(args.dir, src.file)));
    InputOp op;
    op.kind = "oneshot";
    op.name = src.name;
    op.path = src.file;
    op.sql = src.sql;
    op.shape = static_cast<int64_t>(i);
    ops->push_back(op);
  }
  hypdb::Rng rng(DeriveSeed(args.seed, 100));
  std::vector<int64_t> order = {0, 1, 2, 3, 4};
  for (int pass = 0; pass < kOneshotPasses; ++pass) {
    rng.Shuffle(&order);
    for (int64_t shape : order) {
      InputOp op;
      op.kind = "analyze";
      op.shape = shape;
      op.sql = sources[shape].sql;
      ops->push_back(op);
    }
    ops->push_back({.kind = "pass_end"});
  }
  return Status::Ok();
}

Status GenAdult(const Args& args, std::vector<InputOp>* ops) {
  HYPDB_RETURN_IF_ERROR(
      WriteTable(hypdb::GenerateAdultData(), Join(args.dir, "adult.csv")));
  ops->push_back({.kind = "register", .name = "adult", .path = "adult.csv"});
  std::vector<std::string> shapes;
  for (const char* where : kAdultWheres) {
    for (const char* t : kAdultTreatments) {
      shapes.push_back(std::string("SELECT ") + t +
                       ", avg(Income) FROM adult" + where + " GROUP BY " + t);
    }
  }
  for (size_t s = 0; s < shapes.size(); ++s) {
    ops->push_back({.kind = "shape",
                    .sql = shapes[s],
                    .body = AnalyzeBody("adult", shapes[s]),
                    .shape = static_cast<int64_t>(s)});
  }
  std::vector<double> weights;
  for (size_t s = 0; s < shapes.size(); ++s) {
    weights.push_back(s % 8 == 0 ? kAdultGenderWeight : 1.0);
  }
  hypdb::Rng rng(DeriveSeed(args.seed, 100));
  for (int i = 0; i < 2 * kAdultOpsPerClient; ++i) {
    const int64_t s = rng.WeightedIndex(weights);
    ops->push_back({.kind = rng.Bernoulli(0.5) ? "analyze" : "session",
                    .body = AnalyzeBody("adult", shapes[s]),
                    .shape = s,
                    .client = i % 2});
  }
  return Status::Ok();
}

Status GenStaples(const Args& args, std::vector<InputOp>* ops) {
  // Staples discovery has few, well-separated tests, so here --seed also
  // permutes the base rows and the order in which the live rows arrive.
  StatusOr<Table> base =
      hypdb::GenerateStaplesData({.num_rows = kStaplesBaseRows});
  if (!base.ok()) return base.status();
  HYPDB_RETURN_IF_ERROR(WriteTable(Shuffled(*base, DeriveSeed(args.seed, 1)),
                                   Join(args.dir, "base.csv")));
  ops->push_back({.kind = "register", .name = "staples", .path = "base.csv"});
  // Appended rows come from a second generator seed, in a --seed order;
  // each carries a fresh SessionId label, as live pricing sessions arrive.
  const int64_t live_rows = static_cast<int64_t>(kStaplesCycles) *
                            kStaplesBatchesPerAnalyze * kStaplesBatchRows;
  StatusOr<Table> pool = hypdb::GenerateStaplesData(
      {.num_rows = live_rows, .seed = kStaplesLiveSeed});
  if (!pool.ok()) return pool.status();
  const Table shuffled = Shuffled(*pool, DeriveSeed(args.seed, 2));
  const Table* live = &shuffled;
  HYPDB_ASSIGN_OR_RETURN(int session_col, live->ColumnIndex("SessionId"));
  int64_t next = 0;
  for (int cycle = 0; cycle < kStaplesCycles; ++cycle) {
    for (int b = 0; b < kStaplesBatchesPerAnalyze; ++b) {
      JsonValue rows = JsonValue::MakeArray();
      for (int r = 0; r < kStaplesBatchRows; ++r, ++next) {
        JsonValue row = JsonValue::MakeArray();
        for (int c = 0; c < live->NumColumns(); ++c) {
          row.Append(JsonValue::Str(
              c == session_col ? "live" + std::to_string(next)
                               : live->column(c).LabelAt(next)));
        }
        rows.Append(std::move(row));
      }
      JsonValue body = JsonValue::MakeObject();
      body.Set("rows", std::move(rows));
      ops->push_back({.kind = "append",
                      .name = "staples",
                      .body = hypdb::net::SerializeJson(body)});
    }
    ops->push_back({.kind = "analyze",
                    .sql = kStaplesSql,
                    .body = AnalyzeBody("staples", kStaplesSql)});
  }
  return Status::Ok();
}

}  // namespace

int Generate(const Args& args) {
  std::vector<InputOp> ops;
  Status status = Status::Ok();
  if (args.workload == "table1_oneshot") {
    status = GenTable1(args, &ops);
  } else if (args.workload == "adult_warm_wire") {
    status = GenAdult(args, &ops);
  } else if (args.workload == "staples_ingest_wire") {
    status = GenStaples(args, &ops);
  } else {
    status = Status::InvalidArgument("unknown workload " + args.workload);
  }
  if (status.ok()) {
    std::string text;
    for (const InputOp& op : ops) {
      text += hypdb::net::SerializeJson(OpJson(op));
      text += '\n';
    }
    status = WriteFile(Join(args.dir, kRequestsFile), text);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

StatusOr<std::vector<InputOp>> ReadOps(const std::string& dir) {
  HYPDB_ASSIGN_OR_RETURN(std::string text,
                         ReadFile(Join(dir, kRequestsFile)));
  std::vector<InputOp> ops;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    HYPDB_ASSIGN_OR_RETURN(JsonValue v,
                           hypdb::net::ParseJson(text.substr(pos, end - pos)));
    pos = end + 1;
    InputOp op;
    auto str = [&v](const char* key) {
      const JsonValue* m = v.Find(key);
      return m != nullptr && m->is_string() ? m->string_value()
                                            : std::string();
    };
    auto num = [&v](const char* key, int64_t fallback) {
      const JsonValue* m = v.Find(key);
      return m != nullptr && m->is_int() ? m->int_value() : fallback;
    };
    op.kind = str("kind");
    op.name = str("name");
    op.path = str("path");
    op.sql = str("sql");
    op.body = str("body");
    op.shape = num("shape", -1);
    op.client = num("client", 0);
    ops.push_back(std::move(op));
  }
  return ops;
}

StatusOr<std::vector<std::vector<std::string>>> AppendRows(
    const InputOp& op) {
  HYPDB_ASSIGN_OR_RETURN(JsonValue body, hypdb::net::ParseJson(op.body));
  const JsonValue* rows = body.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("append body without rows");
  }
  std::vector<std::vector<std::string>> out;
  for (const JsonValue& row : rows->array()) {
    std::vector<std::string> labels;
    for (const JsonValue& cell : row.array()) {
      labels.push_back(cell.string_value());
    }
    out.push_back(std::move(labels));
  }
  return out;
}

}  // namespace perfbench
