// Tests for the engine-deep execution tracer: ring-buffer record/harvest
// semantics, context scoping, wraparound, the end-to-end service path
// (stage spans containing kernel/CI/cache events), the Chrome-trace
// export, the trace retention endpoint, and the standing invariant that
// tracing never perturbs results (digests bit-identical across levels).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace hypdb {
namespace {

TablePtr Berkeley() {
  auto table = GenerateBerkeleyData();
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

const char kBerkeleySql[] =
    "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

// Unit tests pick tickets no scheduler will ever issue (schedulers count
// up from 1), so direct-recording tests cannot collide with the
// service-path tests in this binary.
uint64_t UniqueTestTicket() {
  static uint64_t next = 1ull << 40;
  return ++next;
}

TraceContext TestContext(uint64_t ticket, int level) {
  TraceContext ctx;
  ctx.ticket = ticket;
  ctx.level = level;
  ctx.t0_nanos = Stopwatch().StartNanos();
  return ctx;
}

// ------------------------------------------------------------ ring core

TEST(TraceRingTest, RecordAndHarvestByTicket) {
  const uint64_t mine = UniqueTestTicket();
  const uint64_t other = UniqueTestTicket();
  const TraceContext ctx = TestContext(mine, 1);
  {
    TraceContextScope scope(ctx);
    TraceInstant(TraceEventKind::kCacheHit, 1, 3, 7);
    { TraceSpanScope span(TraceEventKind::kKernelScan, 1, 1, 500); }
  }
  {
    TraceContextScope scope(TestContext(other, 1));
    TraceInstant(TraceEventKind::kCacheMiss, 1);
  }

  std::vector<TraceEventRecord> events = HarvestTrace(mine, ctx.t0_nanos);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCacheHit);
  EXPECT_EQ(events[0].arg0, 3u);
  EXPECT_EQ(events[0].arg1, 7u);
  EXPECT_DOUBLE_EQ(events[0].dur_seconds, 0.0);
  EXPECT_EQ(events[1].kind, TraceEventKind::kKernelScan);
  EXPECT_EQ(events[1].arg1, 500u);
  EXPECT_GE(events[1].start_seconds, 0.0);
  for (const TraceEventRecord& e : events) EXPECT_GT(e.thread_id, 0u);

  // Harvest consumes: a second pass (same ticket) finds nothing.
  EXPECT_TRUE(HarvestTrace(mine, ctx.t0_nanos).empty());
  // The other ticket's event was untouched.
  EXPECT_EQ(HarvestTrace(other, ctx.t0_nanos).size(), 1u);
}

TEST(TraceRingTest, LevelGatesRecording) {
  const uint64_t ticket = UniqueTestTicket();
  const TraceContext ctx = TestContext(ticket, 1);
  {
    TraceContextScope scope(ctx);
    EXPECT_TRUE(TraceEnabled(1));
    EXPECT_FALSE(TraceEnabled(2));
    TraceInstant(TraceEventKind::kCacheHit, 1);   // recorded
    TraceInstant(TraceEventKind::kMorselBatch, 2);  // gated out
    { TraceSpanScope deep(TraceEventKind::kCiTest, 2); }  // gated out
  }
  std::vector<TraceEventRecord> events = HarvestTrace(ticket, ctx.t0_nanos);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCacheHit);

  // No context at all: nothing records, nothing crashes.
  TraceInstant(TraceEventKind::kCacheHit, 1);
  EXPECT_FALSE(TraceEnabled(1));
}

TEST(TraceRingTest, ContextScopeNestsAndRestores) {
  const TraceContext outer = TestContext(UniqueTestTicket(), 1);
  EXPECT_EQ(CurrentTraceContext().ticket, 0u);
  {
    TraceContextScope outer_scope(outer);
    EXPECT_EQ(CurrentTraceContext().ticket, outer.ticket);
    {
      const TraceContext inner = TestContext(UniqueTestTicket(), 2);
      TraceContextScope inner_scope(inner);
      EXPECT_EQ(CurrentTraceContext().ticket, inner.ticket);
      EXPECT_EQ(CurrentTraceContext().level, 2);
    }
    EXPECT_EQ(CurrentTraceContext().ticket, outer.ticket);
    EXPECT_EQ(CurrentTraceContext().level, 1);
  }
  EXPECT_EQ(CurrentTraceContext().ticket, 0u);
}

TEST(TraceRingTest, WraparoundKeepsMostRecentEvents) {
  const uint64_t ticket = UniqueTestTicket();
  const TraceContext ctx = TestContext(ticket, 1);
  const int capacity = TraceRingCapacity();
  {
    TraceContextScope scope(ctx);
    for (int i = 0; i < capacity + 100; ++i) {
      TraceInstant(TraceEventKind::kCacheHit, 1,
                   static_cast<uint64_t>(i));
    }
  }
  std::vector<TraceEventRecord> events = HarvestTrace(ticket, ctx.t0_nanos);
  // The ring wrapped: at most one ring's worth survives, and what
  // survives is the most recent tail (the largest arg0 values).
  EXPECT_LE(events.size(), static_cast<size_t>(capacity));
  EXPECT_GE(events.size(), static_cast<size_t>(capacity) - 1);
  uint64_t min_arg = ~0ull;
  uint64_t max_arg = 0;
  for (const TraceEventRecord& e : events) {
    min_arg = std::min(min_arg, e.arg0);
    max_arg = std::max(max_arg, e.arg0);
  }
  EXPECT_EQ(max_arg, static_cast<uint64_t>(capacity + 99));
  EXPECT_GE(min_arg, 100u - 1u);
}

TEST(TraceRingTest, HarvestSortsParentsFirst) {
  const uint64_t ticket = UniqueTestTicket();
  const TraceContext ctx = TestContext(ticket, 1);
  {
    TraceContextScope scope(ctx);
    TraceSpanScope parent(TraceEventKind::kStage, 1,
                          static_cast<uint64_t>(TraceStage::kDetect));
    TraceSpanScope child(TraceEventKind::kKernelScan, 1, 1, 10);
    // Both destruct here; the parent started first and lasted longer.
  }
  std::vector<TraceEventRecord> events = HarvestTrace(ticket, ctx.t0_nanos);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kStage);
  EXPECT_EQ(events[1].kind, TraceEventKind::kKernelScan);
  EXPECT_LE(events[0].start_seconds, events[1].start_seconds);
}

// --------------------------------------------------------- service path

// Spans a kind must nest inside: every engine-deep event happens while
// some AnalysisSession stage span is open.
bool NestsInAStage(const TraceEventRecord& e,
                   const std::vector<TraceEventRecord>& events) {
  constexpr double kEps = 1e-4;  // clock reads straddle span boundaries
  const double start = e.start_seconds;
  const double end = e.start_seconds + e.dur_seconds;
  for (const TraceEventRecord& stage : events) {
    if (stage.kind != TraceEventKind::kStage) continue;
    if (start >= stage.start_seconds - kEps &&
        end <= stage.start_seconds + stage.dur_seconds + kEps) {
      return true;
    }
  }
  return false;
}

TEST(TraceServiceTest, DeepTraceCapturesNestedEngineWork) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.trace_level = 2;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  auto report = service.Analyze(std::move(request));
  ASSERT_TRUE(report.ok());

  const RequestStats& stats = report->stats;
  EXPECT_EQ(stats.trace_level, 2);
  ASSERT_FALSE(stats.events.empty());

  int stages = 0;
  int kernel_scans = 0;
  int ci_tests = 0;
  int cache_events = 0;
  double prev_start = -1.0;
  for (const TraceEventRecord& e : stats.events) {
    // Harvest order: monotone by start time.
    EXPECT_GE(e.start_seconds, prev_start);
    prev_start = e.start_seconds;
    EXPECT_GE(e.dur_seconds, 0.0);
    switch (e.kind) {
      case TraceEventKind::kStage: ++stages; break;
      case TraceEventKind::kKernelScan:
        ++kernel_scans;
        EXPECT_TRUE(NestsInAStage(e, stats.events))
            << "kernel scan at " << e.start_seconds;
        break;
      case TraceEventKind::kCiTest:
        ++ci_tests;
        EXPECT_TRUE(NestsInAStage(e, stats.events))
            << "ci test at " << e.start_seconds;
        break;
      case TraceEventKind::kCacheHit:
      case TraceEventKind::kCacheMiss:
      case TraceEventKind::kCacheMarginalize:
        ++cache_events;
        EXPECT_TRUE(NestsInAStage(e, stats.events))
            << "cache event at " << e.start_seconds;
        break;
      default: break;
    }
  }
  // The analyze pipeline ran discovery + detection at least: stage spans
  // for discover and detect, engine scans, and (level 2) CI tests.
  EXPECT_GE(stages, 2);
  EXPECT_GT(kernel_scans, 0);
  EXPECT_GT(ci_tests, 0);
  EXPECT_GT(cache_events, 0);
}

TEST(TraceServiceTest, OnCompleteSeesHarvestedEvents) {
  std::mutex mu;
  std::vector<RequestStats> completed;
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.trace_level = 1;
  options.on_complete = [&](const RequestStats& stats, const Status&) {
    std::lock_guard<std::mutex> lock(mu);
    completed.push_back(stats);
  };
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  ASSERT_TRUE(service.Analyze(std::move(request)).ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].trace_level, 1);
  EXPECT_FALSE(completed[0].events.empty());
}

TEST(TraceServiceTest, PerRequestLevelOverridesServiceDefault) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.trace_level = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  SubmitOptions untraced;
  untraced.trace_level = 0;
  const uint64_t ticket = service.Submit(std::move(request), untraced);
  auto report = service.Wait(ticket);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.trace_level, 0);
  EXPECT_TRUE(report->stats.events.empty());

  // An untraced request's wire stats stay byte-stable with the pre-trace
  // format: no trace_level, no events members.
  const net::JsonValue json = net::ToJson(report->stats);
  EXPECT_EQ(json.Find("trace_level"), nullptr);
  EXPECT_EQ(json.Find("events"), nullptr);

  // The retained trace answers 409 for a request that ran untraced.
  auto trace = service.RequestTrace(ticket);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TraceServiceTest, RequestTraceRetainsAndExpires) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.trace_retention = 2;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  std::vector<uint64_t> tickets;
  for (int i = 0; i < 3; ++i) {
    AnalyzeRequest request;
    request.dataset = "b";
    request.sql = kBerkeleySql;
    const uint64_t ticket = service.Submit(std::move(request));
    ASSERT_TRUE(service.Wait(ticket).ok());
    tickets.push_back(ticket);
  }

  // Unknown ticket: 404 flavor.
  EXPECT_EQ(service.RequestTrace(999999).status().code(),
            StatusCode::kNotFound);
  // The oldest of the three was evicted by the retention cap of 2.
  EXPECT_EQ(service.RequestTrace(tickets[0]).status().code(),
            StatusCode::kNotFound);
  // The two newest are retained, with their harvested events.
  for (size_t i = 1; i < tickets.size(); ++i) {
    auto stats = service.RequestTrace(tickets[i]);
    ASSERT_TRUE(stats.ok()) << "ticket " << tickets[i];
    EXPECT_EQ(stats->ticket, tickets[i]);
    EXPECT_GT(stats->trace_level, 0);
    EXPECT_FALSE(stats->events.empty());
  }
}

// ------------------------------------------------------ digest neutrality

TEST(TraceNeutralityTest, DigestsBitIdenticalAcrossLevels) {
  TablePtr table = Berkeley();
  std::vector<std::string> digests;
  for (int level : {0, 2}) {
    HypDbServiceOptions options;
    options.num_workers = 1;
    options.trace_level = level;
    HypDbService service(options);
    service.RegisterTable("b", table);
    AnalyzeRequest request;
    request.dataset = "b";
    request.sql = kBerkeleySql;
    auto report = service.Analyze(std::move(request));
    ASSERT_TRUE(report.ok());
    digests.push_back(CanonicalReportDigest(report->report));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// --------------------------------------------------------- chrome export

TEST(ChromeTraceTest, ExportIsWellFormedAndNested) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.trace_level = 2;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  const uint64_t ticket = service.Submit(std::move(request));
  ASSERT_TRUE(service.Wait(ticket).ok());
  auto stats = service.RequestTrace(ticket);
  ASSERT_TRUE(stats.ok());

  // Serialize and reparse: the export must be a well-formed JSON document
  // on its own (it is handed verbatim to chrome://tracing).
  const std::string text =
      net::SerializeJson(net::ChromeTraceJson(*stats));
  auto parsed = net::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Find("displayTimeUnit")->string_value(), "ms");
  const net::JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("ticket")->int_value(),
            static_cast<int64_t>(ticket));
  EXPECT_EQ(other->Find("trace_level")->int_value(), 2);

  const net::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->array().size(), 3u);

  struct Span {
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> stage_spans;
  for (const net::JsonValue& e : events->array()) {
    // Every event carries the Chrome-trace required members.
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("cat"), nullptr);
    ASSERT_NE(e.Find("ph"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    const std::string ph = e.Find("ph")->string_value();
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      ASSERT_NE(e.Find("dur"), nullptr);
      EXPECT_GE(e.Find("dur")->number_value(), 0.0);
    } else {
      EXPECT_EQ(e.Find("s")->string_value(), "t");
    }
    EXPECT_GE(e.Find("ts")->number_value(), 0.0);
    if (e.Find("cat")->string_value() == "stage" && ph == "X") {
      stage_spans.push_back({e.Find("ts")->number_value(),
                             e.Find("ts")->number_value() +
                                 e.Find("dur")->number_value()});
    }
  }
  ASSERT_FALSE(stage_spans.empty());

  // Engine-deep events nest (in time) within their parent stage spans.
  constexpr double kEpsMicros = 100.0;
  for (const net::JsonValue& e : events->array()) {
    const std::string cat = e.Find("cat")->string_value();
    if (cat != "kernel" && cat != "cache") continue;
    const double start = e.Find("ts")->number_value();
    const double end =
        start + (e.Find("dur") != nullptr ? e.Find("dur")->number_value()
                                          : 0.0);
    bool nested = false;
    for (const Span& s : stage_spans) {
      if (start >= s.start - kEpsMicros && end <= s.end + kEpsMicros) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << e.Find("name")->string_value() << " at "
                        << start;
  }
}

// ------------------------------------------------------------- wire path

TEST(TraceWireTest, TraceEndpointEndToEnd) {
  HypDbServiceOptions service_options;
  service_options.num_workers = 1;
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
  ASSERT_TRUE(server.Start().ok());
  net::HttpClient client("127.0.0.1", server.port());

  net::JsonValue body = net::JsonValue::MakeObject();
  body.Set("dataset", net::JsonValue::Str("b"));
  body.Set("sql", net::JsonValue::Str(kBerkeleySql));
  body.Set("trace_level", net::JsonValue::Int(2));
  auto analyzed = client.Post("/v1/analyze", body);
  ASSERT_TRUE(analyzed.ok());
  const int64_t ticket =
      analyzed->Find("stats")->Find("ticket")->int_value();
  // The traced response body carries the events inline too.
  EXPECT_EQ(analyzed->Find("stats")->Find("trace_level")->int_value(), 2);
  ASSERT_NE(analyzed->Find("stats")->Find("events"), nullptr);
  EXPECT_FALSE(analyzed->Find("stats")->Find("events")->array().empty());

  // Chrome flavor (the default).
  auto chrome = client.Get("/v1/requests/" + std::to_string(ticket) +
                           "/trace");
  ASSERT_TRUE(chrome.ok());
  ASSERT_NE(chrome->Find("traceEvents"), nullptr);
  EXPECT_FALSE(chrome->Find("traceEvents")->array().empty());

  // Raw flavor.
  auto raw = client.Get("/v1/requests/" + std::to_string(ticket) +
                        "/trace?format=raw");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->Find("ticket")->int_value(), ticket);
  ASSERT_NE(raw->Find("events"), nullptr);

  // Unknown ticket -> 404; bad format -> 400; bad subresource -> 404.
  auto missing = client.Request("GET", "/v1/requests/999999/trace");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto bad_format = client.Request(
      "GET", "/v1/requests/" + std::to_string(ticket) + "/trace?format=x");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_EQ(bad_format->status, 400);
  auto bad_sub = client.Request(
      "GET", "/v1/requests/" + std::to_string(ticket) + "/nope");
  ASSERT_TRUE(bad_sub.ok());
  EXPECT_EQ(bad_sub->status, 404);

  // Line protocol: the "trace" verb serves the same document.
  net::LineClient line_client("127.0.0.1", server.port());
  net::JsonValue cmd = net::JsonValue::MakeObject();
  cmd.Set("cmd", net::JsonValue::Str("trace"));
  cmd.Set("ticket", net::JsonValue::Int(ticket));
  auto line_trace = line_client.Call(cmd);
  ASSERT_TRUE(line_trace.ok());
  ASSERT_NE(line_trace->Find("traceEvents"), nullptr);
  EXPECT_FALSE(line_trace->Find("traceEvents")->array().empty());

  server.Stop();
}

// -------------------------------------------------------------- rollups

TEST(TraceRollupTest, ServiceRegistersTraceFamilies) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = kBerkeleySql;
  ASSERT_TRUE(service.Analyze(std::move(request)).ok());

  const std::string text =
      RenderPrometheusText(service.metrics_registry().Snapshot());
  EXPECT_NE(text.find("hypdb_build_info{"), std::string::npos);
  EXPECT_NE(text.find("hypdb_trace_cache_decisions_total{decision=\"miss\""),
            std::string::npos);
  EXPECT_NE(text.find("hypdb_trace_stage_seconds"), std::string::npos);
  EXPECT_NE(text.find("hypdb_trace_dropped_events_total"),
            std::string::npos);
}

}  // namespace
}  // namespace hypdb
