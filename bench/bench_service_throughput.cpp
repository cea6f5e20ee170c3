// Service-layer throughput: queries/sec of HypDbService at 1, 4 and N
// worker threads on repeated same-dataset queries — the workload the
// service exists for (discovery reuse + shared contingency caches +
// genuinely parallel detection/explanation/resolution).
//
// Three phases:
//  1. Serial ground truth: a cold HypDb::Analyze per distinct query; its
//     CanonicalReportDigest is the bit-identity reference.
//  2. Correctness: every service report (any worker count) must digest
//     equal to the serial reference — work sharing is execution strategy
//     only. Violation exits non-zero.
//  3. Throughput: the same request mix runs through services with 1, 4
//     and EffectiveCores() workers; queries/sec are reported. When the
//     process can actually use >= 4 cores (affinity/cgroup-aware — see
//     bench_util.h), 4 workers must reach >= 2x the 1-worker rate (best
//     of 3 attempts, tolerating CI noise) or the binary exits non-zero.
//     The attempts interleave the worker counts (1, 4, 1, 4, 1, 4), so a
//     slow stretch of the host cannot land on one side of the ratio only.
//     On smaller machines the speedup assertion is skipped — the cores
//     to demonstrate it do not exist — and a note is printed.
//
// Usage: bench_service_throughput [scale] [--require-speedup]
//   scale              multiplies rows and request count (default 1)
//   --require-speedup  enforce the 2x gate regardless of core count

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
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

struct Workload {
  std::string sql;
  std::string expected_digest;
};

// The request mix: repeated queries over one dataset, two sharing a
// subpopulation (one engine shard), one over the full table.
std::vector<Workload> MakeWorkloads() {
  return {
      {"SELECT Carrier, avg(Delayed) FROM flights "
       "WHERE Airport IN ('COS','MFE','MTJ','ROC') GROUP BY Carrier",
       ""},
      {"SELECT Carrier, avg(Delayed) FROM flights "
       "WHERE Airport IN ('COS','MFE','MTJ','ROC') AND "
       "Carrier IN ('AA','UA') GROUP BY Carrier",
       ""},
      {"SELECT Carrier, avg(Delayed) FROM flights GROUP BY Carrier", ""},
  };
}

struct RunResult {
  double seconds = 0.0;
  double qps = 0.0;
  int64_t digest_mismatches = 0;
  int64_t errors = 0;
  int64_t discovery_reused = 0;
};

// Pushes `requests` through a fresh service with `workers` workers via
// the async API (submit everything, then wait), checking digests.
RunResult RunService(const TablePtr& table,
                     const std::vector<Workload>& workloads, int workers,
                     int requests) {
  HypDbServiceOptions options;
  options.num_workers = workers;
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
    if (report->stats.discovery_reused) ++result.discovery_reused;
    if (CanonicalReportDigest(report->report) !=
        workloads[which[i]].expected_digest) {
      ++result.digest_mismatches;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  result.qps = requests / result.seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  bool require_speedup = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-speedup") == 0) {
      require_speedup = true;
    }
  }
  // Gate on cores the process can actually use (affinity + cgroup quota),
  // not hardware_concurrency — a 1-core CI slice of a 64-core host must
  // not be asked to demonstrate a 4-worker speedup.
  const unsigned cores = static_cast<unsigned>(EffectiveCores());
  const bool enforce = require_speedup || cores >= 4;

  Header("bench_service_throughput",
         "service layer — queries/sec at 1/4/N workers, reports "
         "bit-identical to serial");

  FlightDataOptions data;
  data.num_rows = static_cast<int64_t>(12000 * scale);
  data.num_noise_columns = 2;
  auto generated = GenerateFlightData(data);
  if (!generated.ok()) {
    std::printf("datagen failed: %s\n",
                generated.status().ToString().c_str());
    return 1;
  }
  TablePtr table = MakeTable(std::move(*generated));

  // Phase 1: serial ground truth (cold engine per query).
  std::vector<Workload> workloads = MakeWorkloads();
  double serial_seconds = 0.0;
  for (Workload& w : workloads) {
    HypDb db(table, HypDbOptions{});
    Stopwatch timer;
    auto report = db.AnalyzeSql(w.sql);
    serial_seconds += timer.ElapsedSeconds();
    if (!report.ok()) {
      std::printf("serial analyze failed: %s\n",
                  report.status().ToString().c_str());
      return 1;
    }
    w.expected_digest = CanonicalReportDigest(*report);
  }
  std::printf("dataset: %lld rows; %zu distinct queries, serial cold "
              "total %.3fs\n\n",
              static_cast<long long>(table->NumRows()), workloads.size(),
              serial_seconds);

  const int requests = static_cast<int>(24 * scale);
  Row({"workers", "requests", "seconds", "qps", "reused", "identical"}, 11);

  // Phase 2+3: the same mix at increasing worker counts, best of 3 per
  // count to damp scheduler noise. Each round runs every count once, so
  // the attempts interleave; a count whose run diverged stops there.
  const int attempts = 3;
  double best_qps_1 = 0.0;
  double best_qps_4 = 0.0;
  bool all_identical = true;
  std::vector<int> worker_counts = {1, 4};
  if (cores > 4) worker_counts.push_back(static_cast<int>(cores));
  std::vector<RunResult> bests(worker_counts.size());
  std::vector<bool> diverged(worker_counts.size(), false);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    for (size_t k = 0; k < worker_counts.size(); ++k) {
      if (diverged[k]) continue;
      RunResult run = RunService(table, workloads, worker_counts[k], requests);
      if (run.digest_mismatches > 0 || run.errors > 0) {
        bests[k] = run;
        diverged[k] = true;
      } else if (run.qps > bests[k].qps) {
        bests[k] = run;
      }
    }
  }
  net::JsonValue runs = net::JsonValue::MakeArray();
  for (size_t k = 0; k < worker_counts.size(); ++k) {
    const int workers = worker_counts[k];
    const RunResult& best = bests[k];
    const bool identical = best.digest_mismatches == 0 && best.errors == 0;
    all_identical = all_identical && identical;
    if (workers == 1) best_qps_1 = best.qps;
    if (workers == 4) best_qps_4 = best.qps;
    Row({std::to_string(workers), std::to_string(requests),
         Fmt("%.3f", best.seconds), Fmt("%.2f", best.qps),
         std::to_string(best.discovery_reused),
         identical ? "yes" : "NO"},
        11);
    net::JsonValue row = net::JsonValue::MakeObject();
    row.Set("workers", net::JsonValue::Int(workers));
    row.Set("requests", net::JsonValue::Int(requests));
    row.Set("seconds", net::JsonValue::Double(best.seconds));
    row.Set("qps", net::JsonValue::Double(best.qps));
    row.Set("discovery_reused", net::JsonValue::Int(best.discovery_reused));
    row.Set("errors", net::JsonValue::Int(best.errors));
    row.Set("digest_mismatches",
            net::JsonValue::Int(best.digest_mismatches));
    runs.Append(std::move(row));
  }

  const double speedup = best_qps_1 > 0 ? best_qps_4 / best_qps_1 : 0.0;
  std::printf("\nspeedup (4 vs 1 workers): %.2fx on %u cores\n", speedup,
              cores);

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("rows", net::JsonValue::Int(table->NumRows()));
  results.Set("serial_seconds", net::JsonValue::Double(serial_seconds));
  results.Set("runs", std::move(runs));
  results.Set("speedup_4_vs_1", net::JsonValue::Double(speedup));
  results.Set("identical", net::JsonValue::Bool(all_identical));
  results.Set("speedup_enforced", net::JsonValue::Bool(enforce));
  WriteBenchJson("service_throughput", std::move(results));

  if (!all_identical) {
    std::printf("FAIL: service reports diverged from serial execution\n");
    return 1;
  }
  if (enforce) {
    if (best_qps_4 < 2.0 * best_qps_1) {
      std::printf("FAIL: expected >= 2x queries/sec at 4 workers\n");
      return 1;
    }
    std::printf("PASS: >= 2x at 4 workers, reports bit-identical\n");
  } else {
    std::printf("PASS: reports bit-identical (speedup gate skipped: only "
                "%u core(s); pass --require-speedup to enforce)\n",
                cores);
  }
  return 0;
}
