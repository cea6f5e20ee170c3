// Incremental ingest gate: appending 10x the initial rows in batches
// and re-analyzing after every batch must (a) keep every report
// bit-identical to a cold full rebuild on the grown table, (b) never
// bump the dataset epoch, and (c) do strictly less scan work than the
// rebuild strategy — cached contingency summaries are delta-patched by
// scanning only the appended rows (Sec. 6's additive-counts argument
// applied over time instead of across queries).
//
// Assertions (exits non-zero on violation):
//  * every post-append report digest == cold serial HypDb on the same
//    prefix of the data, including the final table;
//  * the epoch after all appends equals the registration epoch;
//  * delta patches happened (delta_patches > 0), and in every post-append
//    analysis the rows its patches read, rows_scanned minus the full
//    scans' (scans - delta_patches) x watermark, are at most
//    delta_patches x (watermark - initial rows): no patch re-read a row
//    the warm pass had summarized;
//  * rows scanned across all post-append analyses < rows the measured
//    rebuild-per-batch baseline scanned (a second service that
//    re-registers the grown table each batch, cold-dropping its
//    caches), strictly.
//
// A second phase times appends beside readers, which they must never
// wait for: two clients loop warm Adult analyses (each alternating
// GROUP BY Gender with and without WHERE Workclass IN ('Private'), so
// both share every shard) through a 2-worker service while one thread
// appends one row every 20 ms for 3 s; then one append lands once a cold
// Flight analysis (Table 1's 15-column shape) is counting. It asserts
// the append p99 <= 1 ms, the Flight append <= 1 ms with the analysis
// still running when it returns, and the settled Adult analyses after
// the last append == cold serial on the final table.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/adult_data.h"
#include "datagen/flight_data.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

using Rows = std::vector<std::vector<std::string>>;

// Correlated T/O/C binary workload — detection has something to find
// and appended batches shift the distribution, so a stale summary would
// change the report (the digest check has teeth).
Rows SyntheticRows(int64_t n, Rng* rng) {
  Rows rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    const int c = static_cast<int>(rng->NextBounded(2));
    const int t = rng->Bernoulli(0.3) ? 1 - c : c;
    const int o = rng->Bernoulli(0.3) ? c : t;
    rows.push_back(
        {std::to_string(t), std::to_string(o), std::to_string(c)});
  }
  return rows;
}

TablePtr TableFromRows(const Rows& rows) {
  const std::vector<std::string> names = {"T", "O", "C"};
  Table table;
  for (size_t c = 0; c < names.size(); ++c) {
    ColumnBuilder b(names[c]);
    for (const auto& row : rows) b.Append(row[c]);
    auto added = table.AddColumn(b.Finish());
    if (!added.ok()) std::abort();
  }
  return MakeTable(std::move(table));
}

const char kSql[] = "SELECT T, avg(O) FROM d GROUP BY T";

std::string ColdDigest(const Rows& rows) {
  HypDb db(TableFromRows(rows), HypDbOptions{});
  auto report = db.AnalyzeSql(kSql);
  if (!report.ok()) {
    std::printf("cold analyze failed: %s\n",
                report.status().ToString().c_str());
    std::exit(1);
  }
  return CanonicalReportDigest(*report);
}

/// The first row of `table`, as labels in schema order.
std::vector<std::string> FirstRow(const Table& table) {
  std::vector<std::string> row;
  for (int c = 0; c < table.NumColumns(); ++c) {
    row.push_back(table.column(c).dict().Label(table.column(c).CodeAt(0)));
  }
  return row;
}

/// Nearest-rank percentile `q` of `v` (non-empty).
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

struct AppendWaits {
  std::vector<double> ms;   // each append beside the Adult readers
  int64_t analyses = 0;     // Adult analyses the readers completed
  bool settled_ok = false;  // settled Adult reports == cold serial
  double flight_ms = 0.0;   // the append during the cold Flight analysis
  double flight_analysis_seconds = 0.0;
  bool flight_running_at_append = false;
};

/// Appends beside readers: see the header comment.
StatusOr<AppendWaits> MeasureAppendWaits(double scale) {
  AppendWaits out;
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  HYPDB_ASSIGN_OR_RETURN(
      Table adult, GenerateAdultData({.num_rows = std::max<int64_t>(
                                          100, static_cast<int64_t>(
                                                   48842 * scale))}));
  const std::vector<std::string> adult_row = FirstRow(adult);
  service.RegisterTable("adult", MakeTable(std::move(adult)));
  const std::vector<std::string> sqls = {
      "SELECT Gender, avg(Income) FROM adult GROUP BY Gender",
      "SELECT Gender, avg(Income) FROM adult "
      "WHERE Workclass IN ('Private') GROUP BY Gender"};
  for (const std::string& sql : sqls) {  // warm both shapes
    HYPDB_RETURN_IF_ERROR(service.AnalyzeSql("adult", sql).status());
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> analyses{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t client = 0; client < sqls.size(); ++client) {
    clients.emplace_back([&, client] {
      for (size_t i = client; !done.load(); ++i) {
        if (service.AnalyzeSql("adult", sqls[i % sqls.size()]).ok()) {
          ++analyses;
        } else {
          ++failures;
        }
      }
    });
  }
  Status appended = Status::Ok();
  const auto start = std::chrono::steady_clock::now();
  for (auto tick = start; tick - start < std::chrono::seconds(3);
       tick += std::chrono::milliseconds(20)) {
    std::this_thread::sleep_until(tick);
    Stopwatch watch;
    appended = service.AppendRows("adult", {adult_row}).status();
    out.ms.push_back(watch.ElapsedSeconds() * 1e3);
    if (!appended.ok()) break;
  }
  done.store(true);
  for (std::thread& client : clients) client.join();
  HYPDB_RETURN_IF_ERROR(appended);
  if (failures.load() > 0) return Status::Internal("an Adult analysis failed");
  out.analyses = analyses.load();

  // Settled: after the last append, the service answers as cold serial
  // does on the final table.
  HYPDB_ASSIGN_OR_RETURN(TablePtr final_table, service.Dataset("adult"));
  out.settled_ok = true;
  for (const std::string& sql : sqls) {
    HYPDB_ASSIGN_OR_RETURN(ServiceReport settled,
                           service.AnalyzeSql("adult", sql));
    HypDb cold(final_table, HypDbOptions{});
    HYPDB_ASSIGN_OR_RETURN(HypDbReport expected, cold.AnalyzeSql(sql));
    out.settled_ok &= CanonicalReportDigest(settled.report) ==
                      CanonicalReportDigest(expected);
  }

  // One append while a cold Flight analysis counts: issued as soon as
  // its shards have answered a query (after at most 60 s of polling).
  HYPDB_ASSIGN_OR_RETURN(
      Table flight,
      GenerateFlightData(
          {.num_rows = std::max<int64_t>(100, static_cast<int64_t>(
                                                  43853 * scale)),
           .num_noise_columns = 0}));
  const std::vector<std::string> flight_row = FirstRow(flight);
  service.RegisterTable("flight", MakeTable(std::move(flight)));
  Stopwatch analysis_watch;
  const uint64_t ticket =
      service.Submit({"flight",
                      "SELECT Carrier, avg(Delayed) FROM flight "
                      "WHERE Carrier IN ('AA','UA') AND "
                      "Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier",
                      {}});
  Stopwatch poll;
  while (!service.Done(ticket) && poll.ElapsedSeconds() < 60) {
    StatusOr<CountEngineStats> counted = service.engine_stats("flight");
    if (counted.ok() && counted->queries > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stopwatch append_watch;
  HYPDB_RETURN_IF_ERROR(service.AppendRows("flight", {flight_row}).status());
  out.flight_ms = append_watch.ElapsedSeconds() * 1e3;
  out.flight_running_at_append = !service.Done(ticket);
  HYPDB_RETURN_IF_ERROR(service.Wait(ticket).status());
  out.flight_analysis_seconds = analysis_watch.ElapsedSeconds();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  const int64_t initial_rows = static_cast<int64_t>(1000 * scale);
  const int kBatches = 10;  // 10x the initial rows, one initial-size each
  Header("bench_incremental_ingest",
         "Sec. 6 delta-maintained contingency counts under append-only "
         "ingest — patch cached summaries, never rebuild");

  Rng rng(20260808);
  Rows data = SyntheticRows(initial_rows, &rng);
  std::vector<Rows> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(SyntheticRows(initial_rows, &rng));
  }

  HypDbServiceOptions options;
  options.num_workers = 1;  // deterministic scan accounting
  HypDbService service(options);
  const int64_t epoch =
      service.RegisterTable("d", TableFromRows(data));

  // Warm pass on the seed (cold by definition; not part of the gate).
  bool digests_ok = true;
  auto warm = service.AnalyzeSql("d", kSql);
  if (!warm.ok()) {
    std::printf("warm analyze failed: %s\n",
                warm.status().ToString().c_str());
    return 1;
  }
  digests_ok &= CanonicalReportDigest(warm->report) == ColdDigest(data);
  CountEngineStats baseline;
  if (auto s = service.engine_stats("d"); s.ok()) baseline = *s;

  // Append 10x the initial rows in batches, analyzing after each.
  double append_seconds = 0.0;
  double analyze_seconds = 0.0;
  // Rows the post-append analyses' delta patches read, and their bound.
  int64_t patch_rows = 0;
  int64_t patch_bound = 0;
  bool patches_delta_only = true;
  for (int b = 0; b < kBatches; ++b) {
    const Rows& batch = batches[b];
    data.insert(data.end(), batch.begin(), batch.end());
    Stopwatch append_watch;
    auto watermark = service.AppendRows("d", batch);
    append_seconds += append_watch.ElapsedSeconds();
    if (!watermark.ok() ||
        *watermark != static_cast<int64_t>(data.size())) {
      std::printf("append %d failed\n", b);
      return 1;
    }
    auto before = service.engine_stats("d");
    Stopwatch analyze_watch;
    auto report = service.AnalyzeSql("d", kSql);
    analyze_seconds += analyze_watch.ElapsedSeconds();
    auto after = service.engine_stats("d");
    if (!report.ok()) {
      std::printf("analyze after batch %d failed: %s\n", b,
                  report.status().ToString().c_str());
      return 1;
    }
    digests_ok &=
        CanonicalReportDigest(report->report) == ColdDigest(data);
    // The one shard counts the whole table: every scan that is not a
    // patch reads all `w` rows.
    if (!before.ok() || !after.ok()) {
      std::printf("engine stats after batch %d failed\n", b);
      return 1;
    }
    const CountEngineStats d = *after - *before;
    const int64_t w = *watermark;
    const int64_t rows = d.rows_scanned - (d.scans - d.delta_patches) * w;
    const int64_t bound = d.delta_patches * (w - initial_rows);
    patch_rows += rows;
    patch_bound += bound;
    patches_delta_only &= rows <= bound;
  }

  bool epoch_stable = true;
  for (const DatasetInfo& info : service.Datasets()) {
    epoch_stable &= info.epoch == epoch;
  }

  CountEngineStats stats;
  if (auto s = service.engine_stats("d"); s.ok()) stats = *s;
  const int64_t delta_patches = stats.delta_patches - baseline.delta_patches;
  const int64_t rows_scanned = stats.rows_scanned - baseline.rows_scanned;

  // Measured rebuild baseline: the pre-ingest strategy — re-register
  // the grown table each batch (epoch bump, cold caches) and analyze.
  // Registration resets the dataset's engines, so each epoch's stats
  // are read right after its analyze and summed here.
  int64_t rows_cold_equivalent = 0;
  double rebuild_seconds = 0.0;
  {
    HypDbService rebuild(options);
    Rows prefix(data.begin(), data.begin() + initial_rows);
    rebuild.RegisterTable("d", TableFromRows(prefix));
    if (!rebuild.AnalyzeSql("d", kSql).ok()) {
      std::printf("rebuild warm analyze failed\n");
      return 1;
    }
    for (int b = 0; b < kBatches; ++b) {
      const Rows& batch = batches[b];
      prefix.insert(prefix.end(), batch.begin(), batch.end());
      rebuild.RegisterTable("d", TableFromRows(prefix));
      Stopwatch watch;
      auto report = rebuild.AnalyzeSql("d", kSql);
      rebuild_seconds += watch.ElapsedSeconds();
      if (!report.ok()) {
        std::printf("rebuild analyze after batch %d failed: %s\n", b,
                    report.status().ToString().c_str());
        return 1;
      }
      if (auto s = rebuild.engine_stats("d"); s.ok()) {
        rows_cold_equivalent += s->rows_scanned;
      }
    }
  }

  StatusOr<AppendWaits> waits = MeasureAppendWaits(scale);
  if (!waits.ok()) {
    std::printf("append-wait phase failed: %s\n",
                waits.status().ToString().c_str());
    return 1;
  }
  const double wait_p50 = Percentile(waits->ms, 0.50);
  const double wait_p90 = Percentile(waits->ms, 0.90);
  const double wait_p99 = Percentile(waits->ms, 0.99);
  const double wait_max = Percentile(waits->ms, 1.0);

  Row({"metric", "value"}, 24);
  Row({"initial_rows", std::to_string(initial_rows)}, 24);
  Row({"appended_rows", std::to_string(initial_rows * kBatches)}, 24);
  Row({"delta_patches", std::to_string(delta_patches)}, 24);
  Row({"patch_rows", std::to_string(patch_rows)}, 24);
  Row({"patch_rows_bound", std::to_string(patch_bound)}, 24);
  Row({"rows_scanned", std::to_string(rows_scanned)}, 24);
  Row({"rows_cold_equivalent", std::to_string(rows_cold_equivalent)}, 24);
  Row({"append_seconds", Fmt("%.4f", append_seconds)}, 24);
  Row({"analyze_seconds", Fmt("%.4f", analyze_seconds)}, 24);
  Row({"rebuild_seconds", Fmt("%.4f", rebuild_seconds)}, 24);
  Row({"appends_beside_readers", std::to_string(waits->ms.size())}, 24);
  Row({"reader_analyses", std::to_string(waits->analyses)}, 24);
  Row({"append_wait_p50_ms", Fmt("%.4f", wait_p50)}, 24);
  Row({"append_wait_p90_ms", Fmt("%.4f", wait_p90)}, 24);
  Row({"append_wait_p99_ms", Fmt("%.4f", wait_p99)}, 24);
  Row({"append_wait_max_ms", Fmt("%.4f", wait_max)}, 24);
  Row({"flight_append_wait_ms", Fmt("%.4f", waits->flight_ms)}, 24);
  Row({"flight_analysis_s", Fmt("%.4f", waits->flight_analysis_seconds)},
      24);

  const bool patched = delta_patches > 0;
  const bool fewer_rows = rows_scanned < rows_cold_equivalent;
  std::printf("digests bit-identical to cold rebuild: %s\n",
              digests_ok ? "yes" : "NO");
  std::printf("epoch stable across appends:           %s\n",
              epoch_stable ? "yes" : "NO");
  std::printf("summaries delta-patched:               %s\n",
              patched ? "yes" : "NO");
  std::printf("patches read appended rows only:       %s (%lld <= %lld)\n",
              patches_delta_only ? "yes" : "NO",
              static_cast<long long>(patch_rows),
              static_cast<long long>(patch_bound));
  std::printf("scan work < cold rebuild per batch:    %s (%lld < %lld)\n",
              fewer_rows ? "yes" : "NO",
              static_cast<long long>(rows_scanned),
              static_cast<long long>(rows_cold_equivalent));
  const bool appends_quick = wait_p99 <= 1.0;
  const bool flight_quick =
      waits->flight_ms <= 1.0 && waits->flight_running_at_append;
  std::printf("append p99 beside readers <= 1 ms:     %s (%.3f ms)\n",
              appends_quick ? "yes" : "NO", wait_p99);
  std::printf("append during cold Flight <= 1 ms:     %s (%.3f ms%s)\n",
              flight_quick ? "yes" : "NO", waits->flight_ms,
              waits->flight_running_at_append
                  ? ", analysis still running"
                  : ", analysis had finished: nothing tested");
  std::printf("settled reports == cold on final table: %s\n",
              waits->settled_ok ? "yes" : "NO");

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("initial_rows", net::JsonValue::Int(initial_rows));
  results.Set("appended_rows",
              net::JsonValue::Int(initial_rows * kBatches));
  results.Set("batches", net::JsonValue::Int(kBatches));
  results.Set("delta_patches", net::JsonValue::Int(delta_patches));
  results.Set("patch_rows", net::JsonValue::Int(patch_rows));
  results.Set("patch_rows_bound", net::JsonValue::Int(patch_bound));
  results.Set("rows_scanned", net::JsonValue::Int(rows_scanned));
  results.Set("rows_cold_equivalent",
              net::JsonValue::Int(rows_cold_equivalent));
  results.Set("append_seconds", net::JsonValue::Double(append_seconds));
  results.Set("analyze_seconds", net::JsonValue::Double(analyze_seconds));
  results.Set("rebuild_seconds", net::JsonValue::Double(rebuild_seconds));
  results.Set("digests_ok", net::JsonValue::Bool(digests_ok));
  results.Set("epoch_stable", net::JsonValue::Bool(epoch_stable));
  results.Set("appends_beside_readers",
              net::JsonValue::Int(static_cast<int64_t>(waits->ms.size())));
  results.Set("reader_analyses", net::JsonValue::Int(waits->analyses));
  results.Set("append_wait_p50_ms", net::JsonValue::Double(wait_p50));
  results.Set("append_wait_p90_ms", net::JsonValue::Double(wait_p90));
  results.Set("append_wait_p99_ms", net::JsonValue::Double(wait_p99));
  results.Set("append_wait_max_ms", net::JsonValue::Double(wait_max));
  results.Set("flight_append_wait_ms",
              net::JsonValue::Double(waits->flight_ms));
  results.Set("flight_analysis_seconds",
              net::JsonValue::Double(waits->flight_analysis_seconds));
  results.Set("flight_running_at_append",
              net::JsonValue::Bool(waits->flight_running_at_append));
  results.Set("settled_ok", net::JsonValue::Bool(waits->settled_ok));
  WriteBenchJson("incremental_ingest", std::move(results));

  if (!digests_ok || !epoch_stable || !patched || !patches_delta_only ||
      !fewer_rows || !appends_quick || !flight_quick || !waits->settled_ok) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("gate passed\n");
  return 0;
}
