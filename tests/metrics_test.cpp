// Tests for the observability layer: counters/histograms under
// concurrency, quantile accuracy, Prometheus/JSON rendering, the
// scheduler's error-path stats (cancel, deadline), request trace
// timelines, the stats log, the wire endpoints — and the standing
// invariant that none of it perturbs results: reports stay bit-identical
// to cold serial execution while a scraper hammers the registry (this
// test also runs under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/query_scheduler.h"
#include "service/report_digest.h"
#include "util/metrics.h"
#include "util/stats_log.h"

namespace hypdb {
namespace {

TablePtr Berkeley() {
  auto table = GenerateBerkeleyData();
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

const char kBerkeleySql[] =
    "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

// ---------------------------------------------------------------- core

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(HistogramTest, BucketInvariants) {
  // Bounds are 1us * 2^i and strictly increasing; the last is +inf.
  for (int i = 1; i < LatencyHistogram::kNumBuckets - 1; ++i) {
    EXPECT_GT(LatencyHistogram::BucketUpperBound(i),
              LatencyHistogram::BucketUpperBound(i - 1));
    EXPECT_NEAR(LatencyHistogram::BucketUpperBound(i),
                1e-6 * std::pow(2.0, i), 1e-15 * std::pow(2.0, i));
  }
  EXPECT_TRUE(std::isinf(LatencyHistogram::BucketUpperBound(
      LatencyHistogram::kNumBuckets - 1)));

  LatencyHistogram hist;
  const std::vector<double> values = {0.5e-6, 3e-6, 1e-3, 1e-3, 0.25, 100.0};
  double sum = 0.0;
  for (double v : values) {
    hist.Observe(v);
    sum += v;
  }
  HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.counts.size(),
            static_cast<size_t>(LatencyHistogram::kNumBuckets));
  EXPECT_EQ(snap.count, static_cast<int64_t>(values.size()));
  EXPECT_NEAR(snap.sum_seconds, sum, 1e-6);
  // Every observation landed in the first bucket whose bound covers it.
  for (double v : values) {
    int expected = 0;
    while (snap.upper_bounds[expected] < v) ++expected;
    EXPECT_GT(snap.counts[expected], 0) << "value " << v;
  }
}

TEST(HistogramTest, EdgeObservations) {
  LatencyHistogram hist;
  EXPECT_DOUBLE_EQ(hist.Snapshot().Quantile(0.5), 0.0);  // empty
  hist.Observe(-1.0);                    // clamped into bucket 0
  hist.Observe(std::nan(""));            // treated as 0
  hist.Observe(1e9);                     // overflow bucket
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[LatencyHistogram::kNumBuckets - 1], 1);
  // The overflow bucket reports a finite lower bound, never +inf.
  EXPECT_TRUE(std::isfinite(snap.Quantile(0.99)));
}

TEST(HistogramTest, QuantileEdgeCases) {
  // Single observation: q=0 and q=1 bracket it with the containing
  // bucket's bounds, out-of-range q clamps, and quantiles are monotone.
  LatencyHistogram hist;
  hist.Observe(0.001);
  HistogramSnapshot one = hist.Snapshot();
  const double q0 = one.Quantile(0.0);
  const double q1 = one.Quantile(1.0);
  EXPECT_LE(q0, 0.001);
  EXPECT_GE(q1, 0.001);
  EXPECT_GT(q1, q0);
  EXPECT_DOUBLE_EQ(one.Quantile(-5.0), q0);
  EXPECT_DOUBLE_EQ(one.Quantile(2.0), q1);
  EXPECT_LE(q0, one.Quantile(0.5));
  EXPECT_LE(one.Quantile(0.5), q1);

  // Overflow-bucket-only: every quantile reports the finite lower bound
  // of the +inf bucket, never +inf itself.
  LatencyHistogram over;
  over.Observe(1e9);
  over.Observe(2e9);
  HistogramSnapshot snap = over.Snapshot();
  const double lower =
      LatencyHistogram::BucketUpperBound(LatencyHistogram::kNumBuckets - 2);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_TRUE(std::isfinite(snap.Quantile(q))) << "q=" << q;
    EXPECT_DOUBLE_EQ(snap.Quantile(q), lower) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileWithinBucketResolution) {
  // Buckets are spaced 2x apart, so the estimate must sit within a
  // factor of 2 of the true quantile for any smooth distribution.
  LatencyHistogram hist;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-4 * (1.0 + i / 10.0);  // 0.1ms .. ~10ms, uniform
    values.push_back(v);
    hist.Observe(v);
  }
  HistogramSnapshot snap = hist.Snapshot();
  for (double q : {0.5, 0.95, 0.99}) {
    const double truth = values[static_cast<size_t>(q * (values.size() - 1))];
    const double estimate = snap.Quantile(q);
    EXPECT_GE(estimate, truth / 2.0) << "q=" << q;
    EXPECT_LE(estimate, truth * 2.0) << "q=" << q;
  }
}

TEST(HistogramTest, ConcurrentObserveKeepsCountConsistent) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(1e-6 * ((t * kPerThread + i) % 1000 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  int64_t total = 0;
  for (int64_t c : snap.counts) total += c;
  EXPECT_EQ(total, snap.count);
}

// ----------------------------------------------------------- rendering

TEST(RenderTest, PrometheusGoldenScalars) {
  MetricsRegistry registry;
  Counter requests;
  requests.Add(42);
  registry.RegisterCounter("test_requests_total", "Requests served.",
                           {{"route", "analyze"}}, &requests);
  registry.RegisterGaugeFn("test_depth", "Queue depth.", {},
                           [] { return 3.0; });
  EXPECT_EQ(RenderPrometheusText(registry.Snapshot()),
            "# HELP test_requests_total Requests served.\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total{route=\"analyze\"} 42\n"
            "# HELP test_depth Queue depth.\n"
            "# TYPE test_depth gauge\n"
            "test_depth 3\n");
}

TEST(RenderTest, PrometheusHistogramStructure) {
  MetricsRegistry registry;
  LatencyHistogram hist;
  hist.Observe(0.001);
  hist.Observe(0.004);
  hist.Observe(2.0);
  registry.RegisterHistogram("test_seconds", "Latency.", {}, &hist);
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE test_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_seconds_count 3"), std::string::npos);
  // Cumulative bucket counts never decrease.
  int64_t prev = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("test_seconds_bucket{le=", pos)) !=
         std::string::npos) {
    const size_t space = text.find(' ', pos);
    const int64_t cumulative = std::atoll(text.c_str() + space + 1);
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kNumBuckets);
}

TEST(RenderTest, PrometheusLabelEscaping) {
  MetricsRegistry registry;
  Counter c;
  registry.RegisterCounter("test_total", "h", {{"q", "a\"b\\c\nd"}}, &c);
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("{q=\"a\\\"b\\\\c\\nd\"}"), std::string::npos);
}

TEST(RenderTest, FamilyMergeAcrossRegistrations) {
  MetricsRegistry registry;
  Counter ok;
  Counter err;
  ok.Add(7);
  err.Add(1);
  registry.RegisterCounter("test_total", "h", {{"status", "2xx"}}, &ok);
  registry.RegisterCounter("test_total", "h", {{"status", "4xx"}}, &err);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  ASSERT_EQ(snap.families[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.families[0].samples[0].value, 7.0);
  EXPECT_DOUBLE_EQ(snap.families[0].samples[1].value, 1.0);
  // And one HELP/TYPE header in the text rendering.
  const std::string text = RenderPrometheusText(snap);
  size_t first = text.find("# HELP test_total");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP test_total", first + 1), std::string::npos);
}

TEST(RenderTest, MetricsToJsonStructure) {
  MetricsRegistry registry;
  Counter c;
  c.Add(5);
  LatencyHistogram hist;
  hist.Observe(0.01);
  hist.Observe(0.02);
  registry.RegisterCounter("test_total", "h", {{"route", "x"}}, &c);
  registry.RegisterHistogram("test_seconds", "h", {}, &hist);
  const net::JsonValue json = net::MetricsToJson(registry.Snapshot());
  const net::JsonValue* families = json.Find("families");
  ASSERT_NE(families, nullptr);
  ASSERT_TRUE(families->is_array());
  ASSERT_EQ(families->array().size(), 2u);

  const net::JsonValue& counter = families->array()[0];
  EXPECT_EQ(counter.Find("type")->string_value(), "counter");
  const net::JsonValue& sample = counter.Find("samples")->array()[0];
  EXPECT_EQ(sample.Find("labels")->Find("route")->string_value(), "x");
  EXPECT_EQ(sample.Find("value")->int_value(), 5);

  const net::JsonValue& histogram = families->array()[1];
  EXPECT_EQ(histogram.Find("type")->string_value(), "histogram");
  const net::JsonValue& hs = histogram.Find("samples")->array()[0];
  EXPECT_EQ(hs.Find("count")->int_value(), 2);
  ASSERT_NE(hs.Find("p50"), nullptr);
  ASSERT_NE(hs.Find("p95"), nullptr);
  ASSERT_NE(hs.Find("p99"), nullptr);
  ASSERT_TRUE(hs.Find("buckets")->is_array());
  EXPECT_FALSE(hs.Find("buckets")->array().empty());
}

// ------------------------------------------------- scheduler outcomes

struct Completion {
  RequestStats stats;
  StatusCode code = StatusCode::kOk;
};

struct CompletionLog {
  std::mutex mu;
  std::vector<Completion> entries;

  std::function<void(const RequestStats&, const Status&)> Hook() {
    return [this](const RequestStats& stats, const Status& status) {
      std::lock_guard<std::mutex> lock(mu);
      entries.push_back({stats, status.code()});
    };
  }
};

TEST(SchedulerStatsTest, DeadlineExceededPathPopulatesStats) {
  CompletionLog log;
  QuerySchedulerOptions options;
  options.num_workers = 1;
  options.on_complete = log.Hook();
  QueryScheduler scheduler(options);

  // Occupy the single worker long enough for the second job's queue
  // wait to blow its deadline at pickup.
  uint64_t blocker = scheduler.Submit([](RequestStats*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return StatusOr<ServiceReport>(ServiceReport{});
  });
  SubmitOptions deadline;
  deadline.deadline_seconds = 0.05;
  uint64_t doomed = scheduler.Submit(
      [](RequestStats*) { return StatusOr<ServiceReport>(ServiceReport{}); },
      deadline);

  EXPECT_TRUE(scheduler.Wait(blocker).ok());
  auto result = scheduler.Wait(doomed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(scheduler.metrics().deadline_exceeded.value(), 1);
  EXPECT_EQ(scheduler.metrics().completed.value(), 2);
  EXPECT_EQ(scheduler.metrics().cancelled.value(), 0);

  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.entries.size(), 2u);
  const Completion* rejected = nullptr;
  for (const Completion& c : log.entries) {
    if (c.code == StatusCode::kDeadlineExceeded) rejected = &c;
  }
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->stats.ticket, doomed);
  EXPECT_GE(rejected->stats.queue_seconds, 0.05);
  EXPECT_DOUBLE_EQ(rejected->stats.run_seconds, 0.0);
  ASSERT_FALSE(rejected->stats.trace.empty());
  EXPECT_EQ(rejected->stats.trace[0].name, "queue");
  EXPECT_NEAR(rejected->stats.trace[0].seconds,
              rejected->stats.queue_seconds, 1e-12);
}

TEST(SchedulerStatsTest, CancelledPathPopulatesStats) {
  CompletionLog log;
  QuerySchedulerOptions options;
  options.num_workers = 1;
  options.on_complete = log.Hook();
  QueryScheduler scheduler(options);

  uint64_t blocker = scheduler.Submit([](RequestStats*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return StatusOr<ServiceReport>(ServiceReport{});
  });
  uint64_t victim = scheduler.Submit([](RequestStats*) {
    return StatusOr<ServiceReport>(ServiceReport{});
  });
  EXPECT_TRUE(scheduler.Cancel(victim));

  auto result = scheduler.Wait(victim);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(scheduler.Wait(blocker).ok());

  EXPECT_EQ(scheduler.metrics().cancelled.value(), 1);
  EXPECT_EQ(scheduler.metrics().completed.value(), 2);

  std::lock_guard<std::mutex> lock(log.mu);
  const Completion* cancelled = nullptr;
  for (const Completion& c : log.entries) {
    if (c.code == StatusCode::kCancelled) cancelled = &c;
  }
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->stats.ticket, victim);
  EXPECT_GE(cancelled->stats.queue_seconds, 0.0);
  ASSERT_FALSE(cancelled->stats.trace.empty());
  EXPECT_EQ(cancelled->stats.trace[0].name, "queue");
}

// Malformed SQL never reaches a worker: the ticket is done at once with
// the parser's error, counted as submitted, completed and failed, with
// no queue wait or run time observed and exactly one on_complete call.
TEST(SchedulerStatsTest, MalformedSqlCompletesAtOnceWithoutQueueing) {
  CompletionLog log;
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.on_complete = log.Hook();
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  const SchedulerMetrics& metrics = service.scheduler_metrics();
  const int64_t submitted = metrics.submitted.value();
  const int64_t completed = metrics.completed.value();
  const int64_t failed = metrics.failed.value();
  const int64_t waits = metrics.queue_wait.Snapshot().count;
  const int64_t runs = metrics.run_time.Snapshot().count;

  const uint64_t ticket = service.Submit({"b", "SELECT nonsense", {}});
  EXPECT_TRUE(service.Done(ticket));
  auto result = service.Wait(ticket);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(metrics.submitted.value(), submitted + 1);
  EXPECT_EQ(metrics.completed.value(), completed + 1);
  EXPECT_EQ(metrics.failed.value(), failed + 1);
  EXPECT_EQ(metrics.queue_wait.Snapshot().count, waits);
  EXPECT_EQ(metrics.run_time.Snapshot().count, runs);
  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0].stats.ticket, ticket);
  EXPECT_EQ(log.entries[0].code, StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ trace timeline

TEST(TraceTest, AnalyzeProducesMonotoneSpans) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  auto report = service.Analyze(std::move(request));
  ASSERT_TRUE(report.ok());

  const std::vector<TraceSpan>& trace = report->stats.trace;
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0].name, "queue");
  EXPECT_DOUBLE_EQ(trace[0].start_seconds, 0.0);
  std::vector<std::string> names;
  for (size_t i = 0; i < trace.size(); ++i) {
    names.push_back(trace[i].name);
    EXPECT_GE(trace[i].seconds, 0.0);
    if (i > 0) {
      // Spans tile the submit-relative axis: each starts where the
      // previous ended.
      EXPECT_NEAR(trace[i].start_seconds,
                  trace[i - 1].start_seconds + trace[i - 1].seconds, 1e-9)
          << trace[i].name;
    }
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "discovery"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "detect"), names.end());

  // And the wire carries it: ToJson(stats) exposes the spans.
  const net::JsonValue json = net::ToJson(report->stats);
  const net::JsonValue* spans = json.Find("trace");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->array().size(), trace.size());
  EXPECT_EQ(spans->array()[0].Find("span")->string_value(), "queue");
  ASSERT_NE(spans->array()[0].Find("start_seconds"), nullptr);
  ASSERT_NE(spans->array()[0].Find("seconds"), nullptr);
}

// The timeline invariant every completion path must satisfy: spans start
// at "queue" on the submit-relative axis, tile monotonically without
// overlap, and their total never exceeds the measured queue + run time.
void ExpectTraceTiling(const RequestStats& stats) {
  ASSERT_FALSE(stats.trace.empty());
  EXPECT_EQ(stats.trace[0].name, "queue");
  EXPECT_DOUBLE_EQ(stats.trace[0].start_seconds, 0.0);
  double end = 0.0;
  double sum = 0.0;
  for (const TraceSpan& span : stats.trace) {
    EXPECT_GE(span.seconds, 0.0) << span.name;
    EXPECT_GE(span.start_seconds, end - 1e-9) << span.name;
    end = span.start_seconds + span.seconds;
    sum += span.seconds;
  }
  EXPECT_LE(sum, stats.queue_seconds + stats.run_seconds + 1e-6);
}

TEST(TraceTilingPropertyTest, HoldsAcrossCompletionPaths) {
  // Success and session-stage paths, via the full service.
  CompletionLog service_log;
  HypDbServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.on_complete = service_log.Hook();
  HypDbService service(service_options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  auto report = service.Analyze(std::move(request));
  ASSERT_TRUE(report.ok());
  ExpectTraceTiling(report->stats);

  AnalyzeRequest session_request;
  session_request.dataset = "b";
  session_request.sql = kBerkeleySql;
  auto session = service.CreateSession(session_request);
  ASSERT_TRUE(session.ok());
  auto step = service.AdvanceSession(session->id, "detect", std::nullopt);
  ASSERT_TRUE(step.ok());
  ExpectTraceTiling(step->stats);

  // Cancelled and deadline-exceeded paths, via a raw scheduler (the same
  // RunJob/Observe code the service uses).
  CompletionLog log;
  QuerySchedulerOptions options;
  options.num_workers = 1;
  options.on_complete = log.Hook();
  QueryScheduler scheduler(options);

  uint64_t blocker = scheduler.Submit([](RequestStats*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return StatusOr<ServiceReport>(ServiceReport{});
  });
  uint64_t victim = scheduler.Submit([](RequestStats*) {
    return StatusOr<ServiceReport>(ServiceReport{});
  });
  EXPECT_TRUE(scheduler.Cancel(victim));
  SubmitOptions deadline;
  deadline.deadline_seconds = 0.02;
  uint64_t doomed = scheduler.Submit(
      [](RequestStats*) { return StatusOr<ServiceReport>(ServiceReport{}); },
      deadline);

  EXPECT_FALSE(scheduler.Wait(victim).ok());
  EXPECT_FALSE(scheduler.Wait(doomed).ok());
  EXPECT_TRUE(scheduler.Wait(blocker).ok());

  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.entries.size(), 3u);
  bool saw_cancelled = false;
  bool saw_deadline = false;
  for (const Completion& c : log.entries) {
    ExpectTraceTiling(c.stats);
    saw_cancelled |= c.code == StatusCode::kCancelled;
    saw_deadline |= c.code == StatusCode::kDeadlineExceeded;
  }
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_deadline);
}

// --------------------------------------------------- digest neutrality

TEST(DigestNeutralityTest, ConcurrentScrapesNeverPerturbReports) {
  TablePtr table = Berkeley();
  // Cold serial reference, no service, no metrics.
  std::string expected;
  {
    HypDb db(table, HypDbOptions{});
    auto report = db.AnalyzeSql(kBerkeleySql);
    ASSERT_TRUE(report.ok());
    expected = CanonicalReportDigest(*report);
  }

  HypDbServiceOptions options;
  options.num_workers = 4;
  HypDbService service(options);
  service.RegisterTable("b", table);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 5;
  std::atomic<bool> done{false};
  std::atomic<int64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text =
          RenderPrometheusText(service.metrics_registry().Snapshot());
      EXPECT_NE(text.find("hypdb_scheduler_submitted_total"),
                std::string::npos);
      scrapes.fetch_add(1);
    }
  });

  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        AnalyzeRequest request;
        request.dataset = "b";
        request.sql = kBerkeleySql;
        auto report = service.Analyze(std::move(request));
        if (!report.ok() ||
            CanonicalReportDigest(report->report) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(service.scheduler_metrics().completed.value(),
            kSubmitters * kPerSubmitter);
  EXPECT_EQ(service.scheduler_metrics().failed.value(), 0);
}

// ------------------------------------------------------------ stats log

TEST(StatsLogTest, ConcurrentWritersNeverTearLines) {
  const std::string path = "metrics_test_stats.jsonl";
  std::remove(path.c_str());
  const std::string line(64, 'x');
  {
    auto log = StatsLog::Open(path);
    ASSERT_TRUE(log.ok());
    constexpr int kThreads = 4;
    constexpr int kLines = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kLines; ++i) (*log)->WriteLine(line);
      });
    }
    for (auto& t : threads) t.join();
  }
  std::ifstream in(path);
  std::string got;
  int count = 0;
  while (std::getline(in, got)) {
    EXPECT_EQ(got, line);
    ++count;
  }
  EXPECT_EQ(count, 400);
  std::remove(path.c_str());
}

TEST(StatsLogTest, UnwritablePathFails) {
  auto log = StatsLog::Open("/nonexistent-dir/stats.jsonl");
  EXPECT_FALSE(log.ok());
}

// ------------------------------------------------------- wire endpoints

TEST(WireMetricsTest, MetricsAndHealthzEndToEnd) {
  HypDbServiceOptions service_options;
  service_options.num_workers = 2;
  HypDbService service(service_options);
  service.RegisterTable("b", Berkeley());
  net::HypDbHandlers handlers(&service);
  net::HttpServer server(
      [&handlers](const net::HttpRequest& r) {
        return handlers.HandleHttp(r);
      },
      [&handlers](const std::string& line) {
        return handlers.HandleLine(line);
      });
  handlers.RegisterMetrics(&service.metrics_registry());
  server.RegisterMetrics(&service.metrics_registry());
  ASSERT_TRUE(server.Start().ok());

  net::HttpClient client("127.0.0.1", server.port());

  // Readiness probe carries the live service dimensions.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->Find("ok")->bool_value());
  EXPECT_EQ(health->Find("workers")->int_value(), 2);
  EXPECT_GE(health->Find("uptime_seconds")->number_value(), 0.0);
  EXPECT_EQ(health->Find("datasets")->int_value(), 1);
  EXPECT_GE(health->Find("queue_depth")->int_value(), 0);
  EXPECT_EQ(health->Find("sessions")->int_value(), 0);
  const std::string simd = health->Find("simd")->string_value();
  EXPECT_TRUE(simd == "avx2" || simd == "scalar") << simd;

  net::JsonValue body = net::JsonValue::MakeObject();
  body.Set("dataset", net::JsonValue::Str("b"));
  body.Set("sql", net::JsonValue::Str(kBerkeleySql));
  ASSERT_TRUE(client.Post("/v1/analyze", body).ok());

  // Prometheus text: the analyze above is visible, and the scrape does
  // not count itself.
  auto text = client.Request("GET", "/metrics");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->status, 200);
  EXPECT_NE(text->body.find("# TYPE hypdb_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text->body.find(
                "hypdb_http_requests_total{route=\"analyze\",status=\"2xx\"}"
                " 1\n"),
            std::string::npos);
  EXPECT_NE(text->body.find(
                "hypdb_http_requests_total{route=\"metrics\",status=\"2xx\"}"
                " 0\n"),
            std::string::npos);
  EXPECT_NE(text->body.find("hypdb_scheduler_completed_total 1"),
            std::string::npos);
  EXPECT_NE(text->body.find("hypdb_http_connections_accepted_total"),
            std::string::npos);

  // JSON flavor.
  auto json = client.Get("/metrics?format=json");
  ASSERT_TRUE(json.ok());
  ASSERT_NE(json->Find("families"), nullptr);
  EXPECT_FALSE(json->Find("families")->array().empty());

  // Line protocol: same families through the "metrics" verb.
  net::LineClient line_client("127.0.0.1", server.port());
  net::JsonValue cmd = net::JsonValue::MakeObject();
  cmd.Set("cmd", net::JsonValue::Str("metrics"));
  auto line_metrics = line_client.Call(cmd);
  ASSERT_TRUE(line_metrics.ok());
  EXPECT_NE(line_metrics->Find("families"), nullptr);

  server.Stop();
}

}  // namespace
}  // namespace hypdb
