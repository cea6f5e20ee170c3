// E2 — Table 1: runtime (seconds) of detection, explanation and
// resolution on the five evaluation datasets, at the paper's sizes.
// Discovery (the CD algorithm, reported inside "Det." by the paper) is
// shown separately for transparency. Prints and records only (no gate):
// BENCH_table1_runtime.json holds each dataset's columns, rows and
// Disc/Det/Exp/Res seconds.

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/flight_data.h"
#include "datagen/staples_data.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

// Analyzes `sql` over `table`, prints its Table 1 row and appends the
// same fields to `datasets`.
void Report(const char* name, const StatusOr<Table>& table,
            const std::string& sql, net::JsonValue* datasets) {
  if (!table.ok()) {
    std::printf("%-14s generation failed: %s\n", name,
                table.status().ToString().c_str());
    return;
  }
  TablePtr data = std::make_shared<const Table>(*table);
  HypDb db(data, HypDbOptions{});
  auto report = db.AnalyzeSql(sql);
  if (!report.ok()) {
    std::printf("%-14s analysis failed: %s\n", name,
                report.status().ToString().c_str());
    return;
  }
  Row({name, std::to_string(data->NumColumns()),
       std::to_string(data->NumRows()),
       Fmt("%.2f", report->discovery.seconds),
       Fmt("%.2f", report->detect_seconds),
       Fmt("%.2f", report->explain_seconds),
       Fmt("%.2f", report->resolve_seconds)},
      13);
  net::JsonValue row = net::JsonValue::MakeObject();
  row.Set("dataset", net::JsonValue::Str(name));
  row.Set("columns", net::JsonValue::Int(data->NumColumns()));
  row.Set("rows", net::JsonValue::Int(data->NumRows()));
  row.Set("disc_s", net::JsonValue::Double(report->discovery.seconds));
  row.Set("det_s", net::JsonValue::Double(report->detect_seconds));
  row.Set("exp_s", net::JsonValue::Double(report->explain_seconds));
  row.Set("res_s", net::JsonValue::Double(report->resolve_seconds));
  datasets->Append(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  Header("bench_table1_runtime",
         "Table 1 — Det./Exp./Res. runtimes on the five datasets");
  std::printf("(paper's 'Det.' column includes covariate discovery,\n"
              " shown here as its own 'Disc.' column; scale=%g)\n\n",
              scale);
  Row({"Dataset", "Cols", "Rows", "Disc[s]", "Det[s]", "Exp[s]", "Res[s]"},
      13);
  net::JsonValue datasets = net::JsonValue::MakeArray();

  Report("AdultData",
         GenerateAdultData({.num_rows = static_cast<int64_t>(48842 * scale)}),
         "SELECT Gender, avg(Income) FROM AdultData GROUP BY Gender",
         &datasets);
  Report("StaplesData",
         GenerateStaplesData(
             {.num_rows = static_cast<int64_t>(988871 * scale)}),
         "SELECT Income, avg(Price) FROM StaplesData GROUP BY Income",
         &datasets);
  Report("BerkeleyData", GenerateBerkeleyData(),
         "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender",
         &datasets);
  Report("CancerData",
         GenerateCancerData({.num_rows = static_cast<int64_t>(2000 * scale)}),
         "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData "
         "GROUP BY Lung_Cancer",
         &datasets);
  Report("FlightData",
         GenerateFlightData(
             {.num_rows = static_cast<int64_t>(43853 * scale)}),
         "SELECT Carrier, avg(Delayed) FROM FlightData "
         "WHERE Carrier IN ('AA','UA') AND "
         "Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier",
         &datasets);

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("datasets", std::move(datasets));
  WriteBenchJson("table1_runtime", std::move(results));
  return 0;
}
