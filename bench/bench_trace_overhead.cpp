// Tracing overhead gate: queries/sec of HypDbService with engine-deep
// tracing at level 1 (the default: stage/kernel/cache/discovery
// events) versus level 0 (compiled in, every record call early-returns).
//
// The tracer's contract is "cheap enough to leave on": per event it does
// one thread-local read, one steady_clock read, and ~2 cache-line writes
// into a per-thread ring, with no locks and no allocation. This harness
// holds it to that contract:
//  * every report at both levels must digest bit-identical to a cold
//    serial reference (tracing is observational by construction — this
//    catches any future feedback path), and
//  * level-1 throughput must stay within 3% of level-0 throughput
//    (best ratio over interleaved rounds, so shared-host drift between
//    rounds does not fail the gate spuriously).
//
// Usage: bench_trace_overhead [scale]
//   scale  multiplies rows and request count (default 1)

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/flight_data.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

constexpr double kMaxRegression = 0.03;  // level 1 may cost at most 3%

struct Workload {
  std::string sql;
  std::string expected_digest;
};

std::vector<Workload> MakeWorkloads() {
  return {
      {"SELECT Carrier, avg(Delayed) FROM flights "
       "WHERE Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier",
       ""},
      {"SELECT Carrier, avg(Delayed) FROM flights GROUP BY Carrier", ""},
  };
}

struct RunResult {
  double qps = 0.0;
  int64_t events = 0;  // harvested trace events across all requests
  int64_t digest_mismatches = 0;
  int64_t errors = 0;
};

RunResult RunService(const TablePtr& table,
                     const std::vector<Workload>& workloads,
                     int trace_level, int requests) {
  HypDbServiceOptions options;
  options.num_workers = 2;
  options.trace_level = trace_level;
  HypDbService service(options);
  service.RegisterTable("flights", table);

  RunResult result;
  Stopwatch timer;
  std::vector<uint64_t> tickets;
  std::vector<int> which;
  tickets.reserve(requests);
  for (int r = 0; r < requests; ++r) {
    const int w = r % static_cast<int>(workloads.size());
    which.push_back(w);
    AnalyzeRequest request;
    request.dataset = "flights";
    request.sql = workloads[w].sql;
    tickets.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto report = service.Wait(tickets[i]);
    if (!report.ok()) {
      ++result.errors;
      continue;
    }
    result.events += static_cast<int64_t>(report->stats.events.size());
    if (CanonicalReportDigest(report->report) !=
        workloads[which[i]].expected_digest) {
      ++result.digest_mismatches;
    }
  }
  result.qps = requests / timer.ElapsedSeconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  Header("bench_trace_overhead",
         "engine-deep tracing — level 1 qps within 3% of level 0, "
         "reports bit-identical");

  FlightDataOptions data;
  data.num_rows = static_cast<int64_t>(10000 * scale);
  data.num_noise_columns = 2;
  auto generated = GenerateFlightData(data);
  if (!generated.ok()) {
    std::printf("datagen failed: %s\n",
                generated.status().ToString().c_str());
    return 1;
  }
  TablePtr table = MakeTable(std::move(*generated));

  // Serial cold reference digests — the bit-identity anchor.
  std::vector<Workload> workloads = MakeWorkloads();
  for (Workload& w : workloads) {
    HypDb db(table, HypDbOptions{});
    auto report = db.AnalyzeSql(w.sql);
    if (!report.ok()) {
      std::printf("serial analyze failed: %s\n",
                  report.status().ToString().c_str());
      return 1;
    }
    w.expected_digest = CanonicalReportDigest(*report);
  }

  const int requests = static_cast<int>(24 * scale);
  const int rounds = 5;
  std::printf("dataset: %lld rows; %d requests/round, %d interleaved "
              "rounds\n\n",
              static_cast<long long>(table->NumRows()), requests, rounds);
  Row({"round", "qps off", "qps on", "ratio", "events", "identical"}, 12);

  // Interleave off/on within each round: host-load drift moves both
  // sides of a ratio together, so the ratio stays meaningful even when
  // absolute qps wanders between rounds.
  double best_ratio = 0.0;
  std::vector<double> ratios;
  int64_t total_events = 0;
  bool all_identical = true;
  net::JsonValue round_rows = net::JsonValue::MakeArray();
  for (int round = 0; round < rounds; ++round) {
    const RunResult off = RunService(table, workloads, 0, requests);
    const RunResult on = RunService(table, workloads, 1, requests);
    const bool identical =
        off.digest_mismatches == 0 && on.digest_mismatches == 0 &&
        off.errors == 0 && on.errors == 0 && off.events == 0;
    all_identical = all_identical && identical;
    const double ratio = off.qps > 0 ? on.qps / off.qps : 0.0;
    ratios.push_back(ratio);
    best_ratio = std::max(best_ratio, ratio);
    total_events += on.events;
    Row({std::to_string(round + 1), Fmt("%.2f", off.qps),
         Fmt("%.2f", on.qps), Fmt("%.3f", ratio),
         std::to_string(on.events), identical ? "yes" : "NO"},
        12);
    net::JsonValue row = net::JsonValue::MakeObject();
    row.Set("qps_off", net::JsonValue::Double(off.qps));
    row.Set("qps_on", net::JsonValue::Double(on.qps));
    row.Set("ratio", net::JsonValue::Double(ratio));
    row.Set("events_on", net::JsonValue::Int(on.events));
    row.Set("identical", net::JsonValue::Bool(identical));
    round_rows.Append(std::move(row));
  }

  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];
  std::printf("\nmedian ratio %.3f, best ratio %.3f (gate: best >= %.2f); "
              "%lld events harvested at level 1\n",
              median_ratio, best_ratio, 1.0 - kMaxRegression,
              static_cast<long long>(total_events));

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("rows", net::JsonValue::Int(table->NumRows()));
  results.Set("requests_per_round", net::JsonValue::Int(requests));
  results.Set("rounds", std::move(round_rows));
  results.Set("median_ratio", net::JsonValue::Double(median_ratio));
  results.Set("best_ratio", net::JsonValue::Double(best_ratio));
  results.Set("events_level1", net::JsonValue::Int(total_events));
  results.Set("identical", net::JsonValue::Bool(all_identical));
  WriteBenchJson("trace_overhead", std::move(results));

  if (!all_identical) {
    std::printf("FAIL: digests diverged, errors occurred, or level 0 "
                "recorded events\n");
    return 1;
  }
  if (total_events <= 0) {
    std::printf("FAIL: level 1 harvested no events — the tracer is not "
                "actually on\n");
    return 1;
  }
  if (best_ratio < 1.0 - kMaxRegression) {
    std::printf("FAIL: tracing cost more than %.0f%% of throughput in "
                "every round\n",
                kMaxRegression * 100);
    return 1;
  }
  std::printf("PASS: default-level tracing within the %.0f%% budget, "
              "reports bit-identical\n",
              kMaxRegression * 100);
  return 0;
}
