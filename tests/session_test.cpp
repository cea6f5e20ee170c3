// Staged AnalysisSession tests. The load-bearing invariant: a session
// that reaches every stage assembles a report bit-identical (per
// report_digest.h) to one-shot HypDb::Analyze() — for every stage
// ordering, with per-context subsets invoked first, in-process and over
// the wire, under concurrent mixed staged/one-shot load. Plus: stage
// idempotency (detect-after-detect is a no-op with a reuse counter),
// cooperative cancellation at stage boundaries leaves the session
// resumable, and expired / epoch-invalidated sessions answer 410 Gone
// while never-issued ids answer 404 over HTTP.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_session.h"
#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "recording_engine.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr Berkeley() {
  auto table = GenerateBerkeleyData();
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

TablePtr Cancer(int64_t rows = 4000) {
  auto table = GenerateCancerData({.num_rows = rows});
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

const char kBerkeleySql[] =
    "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";
const char kBerkeleyContextSql[] =
    "SELECT Gender, Department, avg(Accepted) FROM b "
    "GROUP BY Gender, Department";
const char kCancerSql[] =
    "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer";

AggQuery Parse(const std::string& sql) {
  auto query = ParseAggQuery(sql);
  EXPECT_TRUE(query.ok()) << query.status();
  return *query;
}

std::string OneShotDigest(const TablePtr& table, const std::string& sql,
                          HypDbOptions options = {}) {
  HypDb db(table, options);
  auto report = db.AnalyzeSql(sql);
  EXPECT_TRUE(report.ok()) << report.status();
  return CanonicalReportDigest(*report);
}

std::unique_ptr<AnalysisSession> MakeSession(const TablePtr& table,
                                             const std::string& sql,
                                             HypDbOptions options = {}) {
  auto session = AnalysisSession::Create(table, Parse(sql), options);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(*session);
}

// ---- in-process: digest parity for every stage ordering ----------------

TEST(AnalysisSessionTest, ReportMatchesOneShotAnalyze) {
  TablePtr table = Berkeley();
  const std::string expected = OneShotDigest(table, kBerkeleySql);

  auto session = MakeSession(table, kBerkeleySql);
  auto report = session->Report();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CanonicalReportDigest(*report), expected);
  EXPECT_TRUE(session->complete());
}

TEST(AnalysisSessionTest, EveryStageOrderingReachesTheSameDigest) {
  TablePtr table = Berkeley();
  const std::string expected = OneShotDigest(table, kBerkeleyContextSql);

  using StageCall = std::function<Status(AnalysisSession&)>;
  const StageCall answers = [](AnalysisSession& s) {
    return s.Answers().status();
  };
  const StageCall discover = [](AnalysisSession& s) {
    return s.Discover().status();
  };
  const StageCall detect = [](AnalysisSession& s) {
    return s.Detect().status();
  };
  const StageCall explain = [](AnalysisSession& s) {
    return s.Explain().status();
  };
  const StageCall rewrite = [](AnalysisSession& s) {
    return s.Rewrite().status();
  };
  const StageCall explain1 = [](AnalysisSession& s) {
    return s.Explain(1).status();
  };
  const StageCall rewrite2 = [](AnalysisSession& s) {
    return s.Rewrite(2).status();
  };

  const std::vector<std::vector<StageCall>> orderings = {
      {answers, discover, detect, explain, rewrite},
      {rewrite, explain, detect, discover, answers},
      {detect, rewrite, answers, explain},
      {explain, answers, rewrite, detect},
      // Per-context drill-downs first, then the full stages, twice
      // (idempotency must not perturb results).
      {detect, explain1, rewrite2, explain1, rewrite, explain, detect},
      {rewrite2, rewrite2, explain1, answers, detect, rewrite, explain},
  };

  for (size_t o = 0; o < orderings.size(); ++o) {
    auto session = MakeSession(table, kBerkeleyContextSql);
    for (const StageCall& call : orderings[o]) {
      Status status = call(*session);
      ASSERT_TRUE(status.ok()) << "ordering " << o << ": " << status;
    }
    auto report = session->Report();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(CanonicalReportDigest(*report), expected)
        << "ordering " << o << " diverged from the one-shot digest";
  }
}

TEST(AnalysisSessionTest, ExplicitDirectReferenceStillMatchesOneShot) {
  TablePtr table = Berkeley();
  HypDbOptions options;
  options.direct_reference = "Female";
  const std::string expected = OneShotDigest(table, kBerkeleySql, options);

  auto session = MakeSession(table, kBerkeleySql, options);
  EXPECT_EQ(session->direct_reference(), "Female");
  auto report = session->Report();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CanonicalReportDigest(*report), expected);
}

TEST(AnalysisSessionTest, ResolvedReferenceIsTheLargestLabelByDefault) {
  TablePtr table = Berkeley();
  auto session = MakeSession(table, kBerkeleySql);
  // Berkeley treatments are {Female, Male}: the lexicographically
  // largest label is the session-wide reference for the mediator
  // formula and the rewritten direct-effect SQL alike.
  EXPECT_EQ(session->direct_reference(), "Male");
  auto report = session->Report();
  ASSERT_TRUE(report.ok());
  for (const auto& rewrite : report->rewrites) {
    if (rewrite.has_direct) {
      EXPECT_EQ(rewrite.direct_reference, "Male");
    }
  }
  EXPECT_NE(report->sql_direct.find("'Male'"), std::string::npos);
}

// ---- in-process: idempotency and reuse counters ------------------------

TEST(AnalysisSessionTest, RepeatedStagesAreNoOpsWithReuseCounters) {
  TablePtr table = Berkeley();
  auto session = MakeSession(table, kBerkeleySql);

  auto first = session->Detect();
  ASSERT_TRUE(first.ok());
  const std::vector<ContextBias>* bias = *first;
  auto second = session->Detect();
  ASSERT_TRUE(second.ok());
  // Same persisted object, no recomputation.
  EXPECT_EQ(*second, bias);
  EXPECT_EQ(session->stage_state(AnalysisStage::kDetect).runs, 1);
  EXPECT_EQ(session->stage_state(AnalysisStage::kDetect).reuses, 1);
  // Detect auto-ran discovery once; Explain/Rewrite reuse it.
  EXPECT_EQ(session->stage_state(AnalysisStage::kDiscover).runs, 1);
  ASSERT_TRUE(session->Explain().ok());
  ASSERT_TRUE(session->Rewrite().ok());
  EXPECT_EQ(session->stage_state(AnalysisStage::kDiscover).runs, 1);
  EXPECT_GE(session->stage_state(AnalysisStage::kDiscover).reuses, 2);
}

// ---- in-process: one population engine --------------------------------

// The session fixes one population engine at Create: the plain answers,
// the FD filter and discovery all count through it. Over a table with a
// bijective pair (a, a2), the hook sees the FD filter's marginal of a2
// and its joint with a, although the filter drops a2 before discovery.
TEST(AnalysisSessionTest, FdFilterCountsThroughThePopulationEngine) {
  Rng gen(5);
  ColumnBuilder t("t"), y("y"), a("a"), a2("a2");
  for (int i = 0; i < 3000; ++i) {
    const int av = static_cast<int>(gen.NextBounded(4));
    const int tv = gen.Bernoulli(av >= 2 ? 0.7 : 0.3) ? 1 : 0;
    const int yv = gen.Bernoulli(0.2 + 0.2 * tv + 0.1 * av) ? 1 : 0;
    t.Append(tv ? "on" : "off");
    y.Append(std::to_string(yv));
    a.Append("v" + std::to_string(av));
    a2.Append("w" + std::to_string(av));  // bijection of a
  }
  Table built;
  ASSERT_TRUE(built.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(built.AddColumn(y.Finish()).ok());
  ASSERT_TRUE(built.AddColumn(a.Finish()).ok());
  ASSERT_TRUE(built.AddColumn(a2.Finish()).ok());
  TablePtr table = MakeTable(std::move(built));
  const std::string sql = "SELECT t, avg(y) FROM x GROUP BY t";

  auto recording = std::make_shared<RecordingEngine>(
      MakeViewEngine(TableView(table), MiEngineOptions{}));
  SessionHooks hooks;
  hooks.population_engine = recording;
  auto session =
      AnalysisSession::Create(table, Parse(sql), HypDbOptions{}, hooks);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ((*session)->population_engine(), recording);
  auto report = (*session)->Report();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->discovery.dropped_fd, (std::vector<std::string>{"a2"}));
  EXPECT_TRUE(recording->Saw({3}));
  EXPECT_TRUE(recording->Saw({2, 3}));
  EXPECT_EQ(CanonicalReportDigest(*report), OneShotDigest(table, sql));
}

// ---- in-process: cooperative cancellation ------------------------------

TEST(AnalysisSessionTest, CancellationStopsAtStageBoundariesAndResumes) {
  TablePtr table = Berkeley();
  const std::string expected = OneShotDigest(table, kBerkeleySql);
  auto session = MakeSession(table, kBerkeleySql);

  ASSERT_TRUE(session->Discover().ok());
  session->SetCancelCheck([] { return true; });
  // Persisted state still serves under a pending cancel...
  EXPECT_TRUE(session->Discover().ok());
  // ...but the next stage computation is refused at its boundary.
  auto detect = session->Detect();
  ASSERT_FALSE(detect.ok());
  EXPECT_EQ(detect.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(session->stage_state(AnalysisStage::kDetect).done);
  // Discovery survived the cancellation; clearing the check resumes the
  // session exactly where it stopped, and the result is unperturbed.
  EXPECT_TRUE(session->stage_state(AnalysisStage::kDiscover).done);
  session->SetCancelCheck({});
  ASSERT_TRUE(session->Detect().ok());
  auto report = session->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(CanonicalReportDigest(*report), expected);
}

// ---- service: staged digests under 4-thread mixed load -----------------

TEST(SessionServiceTest, StagedDigestsMatchColdSerialUnderMixedLoad) {
  HypDbServiceOptions options;
  options.num_workers = 4;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  service.RegisterTable("c", Cancer());

  struct Workload {
    std::string dataset;
    std::string sql;
  };
  const std::vector<Workload> workloads = {
      {"b", kBerkeleySql},
      {"b", kBerkeleyContextSql},
      {"c", kCancerSql},
  };
  const std::string expected_b = OneShotDigest(Berkeley(), kBerkeleySql);
  const std::string expected_bc =
      OneShotDigest(Berkeley(), kBerkeleyContextSql);
  const std::string expected_c = OneShotDigest(Cancer(), kCancerSql);
  const std::vector<std::string> expected = {expected_b, expected_bc,
                                             expected_c};

  // Distinct stage orderings per thread; every thread also fires a
  // one-shot analyze of the same query, so staged and monolithic twins
  // share shards and discovery entries concurrently.
  const std::vector<std::vector<std::string>> orderings = {
      {"answers", "discover", "detect", "explain", "rewrite"},
      {"rewrite", "detect", "answers", "explain"},
      {"detect", "report"},
      {"report"},
  };

  std::vector<std::thread> threads;
  std::vector<std::string> staged_digests(4 * workloads.size());
  std::vector<std::string> oneshot_digests(4 * workloads.size());
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t w = 0; w < workloads.size(); ++w) {
        auto info = service.CreateSession(
            {workloads[w].dataset, workloads[w].sql, {}});
        ASSERT_TRUE(info.ok()) << info.status();
        const uint64_t id = info->id;
        for (const std::string& stage : orderings[t]) {
          auto step = service.AdvanceSession(id, stage);
          ASSERT_TRUE(step.ok()) << step.status();
        }
        auto finished = service.AdvanceSession(id, "report");
        ASSERT_TRUE(finished.ok()) << finished.status();
        EXPECT_TRUE(finished->stats.session_complete);
        staged_digests[t * workloads.size() + w] =
            CanonicalReportDigest(finished->report);

        auto oneshot = service.Analyze(
            {workloads[w].dataset, workloads[w].sql, {}});
        ASSERT_TRUE(oneshot.ok()) << oneshot.status();
        oneshot_digests[t * workloads.size() + w] =
            CanonicalReportDigest(oneshot->report);
        EXPECT_TRUE(service.CloseSession(id).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < 4; ++t) {
    for (size_t w = 0; w < workloads.size(); ++w) {
      EXPECT_EQ(staged_digests[t * workloads.size() + w], expected[w])
          << "thread " << t << " workload " << w << " (staged)";
      EXPECT_EQ(oneshot_digests[t * workloads.size() + w], expected[w])
          << "thread " << t << " workload " << w << " (one-shot)";
    }
  }
}

TEST(SessionServiceTest, StageReuseIsVisibleInSessionInfo) {
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  auto info = service.CreateSession({"b", kBerkeleySql, {}});
  ASSERT_TRUE(info.ok()) << info.status();
  const uint64_t id = info->id;

  auto first = service.AdvanceSession(id, "detect");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->stats.stage_reused);
  auto second = service.AdvanceSession(id, "detect");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->stats.stage_reused);

  auto inspected = service.InspectSession(id);
  ASSERT_TRUE(inspected.ok());
  for (const auto& stage : inspected->stages) {
    if (stage.stage == "detect") {
      EXPECT_TRUE(stage.done);
      EXPECT_EQ(stage.runs, 1);
      EXPECT_EQ(stage.reuses, 1);
    }
  }
}

TEST(SessionServiceTest, CooperativeCancelLeavesSessionResumable) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  const std::string expected = OneShotDigest(Berkeley(), kBerkeleySql);

  auto info = service.CreateSession({"b", kBerkeleySql, {}});
  ASSERT_TRUE(info.ok());
  const uint64_t id = info->id;

  // Race a cancel against the full staged run. Whichever side wins —
  // queued cancel, cooperative cancel at a stage boundary, or normal
  // completion — the session must stay consistent and resumable, and
  // the final digest must match the cold one-shot.
  const uint64_t ticket = service.SubmitSessionStage(id, "report");
  bool requested = false;
  for (int i = 0; i < 1000 && !requested && !service.Done(ticket); ++i) {
    requested = service.Cancel(ticket);
  }
  auto result = service.Wait(ticket);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  auto resumed = service.AdvanceSession(id, "report");
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->stats.session_complete);
  EXPECT_EQ(CanonicalReportDigest(resumed->report), expected);
}

// ---- over the wire: full flow, digests, 410/404 ------------------------

struct WireHarness {
  explicit WireHarness(HypDbServiceOptions service_options = {})
      : service(service_options),
        handlers(&service),
        server([this](const net::HttpRequest& r) {
                 return handlers.HandleHttp(r);
               },
               [this](const std::string& l) { return handlers.HandleLine(l); },
               net::HttpServerOptions{}) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  net::HttpClient Client() {
    return net::HttpClient("127.0.0.1", server.port());
  }

  HypDbService service;
  net::HypDbHandlers handlers;
  net::HttpServer server;
};

net::JsonValue AnalyzeBody(const std::string& dataset,
                           const std::string& sql) {
  net::JsonValue body = net::JsonValue::MakeObject();
  body.Set("dataset", net::JsonValue::Str(dataset));
  body.Set("sql", net::JsonValue::Str(sql));
  return body;
}

TEST(SessionWireTest, FullSessionFlowMatchesAnalyzeDigest) {
  WireHarness harness({.num_workers = 2});
  harness.service.RegisterTable("b", Berkeley());
  net::HttpClient client = harness.Client();

  auto analyze =
      client.Post("/v1/analyze", AnalyzeBody("b", kBerkeleyContextSql));
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  const std::string expected = analyze->Find("digest")->string_value();

  auto created =
      client.Post("/v1/sessions", AnalyzeBody("b", kBerkeleyContextSql));
  ASSERT_TRUE(created.ok()) << created.status();
  const int64_t id = created->Find("session")->int_value();
  ASSERT_GT(id, 0);
  EXPECT_FALSE(created->Find("complete")->bool_value());

  const std::string base = "/v1/sessions/" + std::to_string(id);
  auto detect = client.Post(base + "/detect", net::JsonValue::MakeObject());
  ASSERT_TRUE(detect.ok()) << detect.status();
  EXPECT_EQ(detect->Find("stage")->string_value(), "detect");
  EXPECT_FALSE(detect->Find("complete")->bool_value());
  ASSERT_NE(detect->Find("bias"), nullptr);
  EXPECT_GT(detect->Find("bias")->array().size(), 0u);

  // Drill into one context's explanation, then finish the rest.
  net::JsonValue context_body = net::JsonValue::MakeObject();
  context_body.Set("context", net::JsonValue::Int(0));
  auto explain = client.Post(base + "/explain", context_body);
  ASSERT_TRUE(explain.ok()) << explain.status();
  ASSERT_NE(explain->Find("explanation"), nullptr);

  for (const char* stage : {"answers", "explain", "rewrite"}) {
    auto step =
        client.Post(base + "/" + std::string(stage),
                    net::JsonValue::MakeObject());
    ASSERT_TRUE(step.ok()) << stage << ": " << step.status();
  }
  auto rewrite = client.Post(base + "/rewrite",
                             net::JsonValue::MakeObject());
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  EXPECT_TRUE(rewrite->Find("complete")->bool_value());
  EXPECT_TRUE(rewrite->Find("reused")->bool_value());
  ASSERT_NE(rewrite->Find("digest"), nullptr);
  EXPECT_EQ(rewrite->Find("digest")->string_value(), expected);

  // GET of the complete session carries the full report + digest.
  auto inspected = client.Get(base);
  ASSERT_TRUE(inspected.ok()) << inspected.status();
  EXPECT_TRUE(inspected->Find("complete")->bool_value());
  ASSERT_NE(inspected->Find("report"), nullptr);
  EXPECT_EQ(inspected->Find("report")->Find("digest")->string_value(),
            expected);

  auto closed = client.Delete(base);
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE(closed->Find("closed")->bool_value());
}

TEST(SessionWireTest, ExpiryEpochAndUnknownIdsAnswer410And404) {
  HypDbServiceOptions options;
  options.num_workers = 2;
  options.session_ttl_seconds = 0.2;
  WireHarness harness(options);
  harness.service.RegisterTable("b", Berkeley());
  net::HttpClient client = harness.Client();

  // Never-issued id: 404.
  auto unknown = client.Request("GET", "/v1/sessions/999");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  // Expired session: 410 Gone.
  auto created = client.Post("/v1/sessions", AnalyzeBody("b", kBerkeleySql));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string base =
      "/v1/sessions/" + std::to_string(created->Find("session")->int_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto expired = client.Request("GET", base);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->status, 410);

  // Epoch invalidation: re-registering the dataset makes its sessions
  // Gone — a staged client must recreate, never silently mix epochs.
  auto again = client.Post("/v1/sessions", AnalyzeBody("b", kBerkeleySql));
  ASSERT_TRUE(again.ok()) << again.status();
  const std::string base2 =
      "/v1/sessions/" + std::to_string(again->Find("session")->int_value());
  harness.service.RegisterTable("b", Berkeley());
  auto stepped = client.Request("POST", base2 + "/detect", "{}");
  ASSERT_TRUE(stepped.ok());
  EXPECT_EQ(stepped->status, 410);

  // Closed session: 410 on the second DELETE, not a 5xx.
  auto third = client.Post("/v1/sessions", AnalyzeBody("b", kBerkeleySql));
  ASSERT_TRUE(third.ok()) << third.status();
  const std::string base3 =
      "/v1/sessions/" + std::to_string(third->Find("session")->int_value());
  ASSERT_TRUE(client.Delete(base3).ok());
  auto reclosed = client.Request("DELETE", base3);
  ASSERT_TRUE(reclosed.ok());
  EXPECT_EQ(reclosed->status, 410);
}

TEST(SessionWireTest, LineJsonSessionVerbsWork) {
  WireHarness harness({.num_workers = 2});
  harness.service.RegisterTable("b", Berkeley());
  net::LineClient client("127.0.0.1", harness.server.port());

  net::JsonValue create = AnalyzeBody("b", kBerkeleySql);
  create.Set("cmd", net::JsonValue::Str("session"));
  auto created = client.Call(create);
  ASSERT_TRUE(created.ok()) << created.status();
  const int64_t id = created->Find("session")->int_value();

  net::JsonValue step = net::JsonValue::MakeObject();
  step.Set("cmd", net::JsonValue::Str("step"));
  step.Set("session", net::JsonValue::Int(id));
  step.Set("stage", net::JsonValue::Str("report"));
  auto finished = client.Call(step);
  ASSERT_TRUE(finished.ok()) << finished.status();
  ASSERT_NE(finished->Find("digest"), nullptr);
  EXPECT_EQ(finished->Find("digest")->string_value(),
            OneShotDigest(Berkeley(), kBerkeleySql));

  net::JsonValue list = net::JsonValue::MakeObject();
  list.Set("cmd", net::JsonValue::Str("sessions"));
  auto sessions = client.Call(list);
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->array().size(), 1u);

  net::JsonValue close = net::JsonValue::MakeObject();
  close.Set("cmd", net::JsonValue::Str("session_close"));
  close.Set("session", net::JsonValue::Int(id));
  auto closed = client.Call(close);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->Find("closed")->bool_value());
}

// A context must be an int the session can index: 4294967296 used to
// narrow to context 0 and answer its explanation with 200.
TEST(SessionWireTest, OutOfRangeContextIsInvalidArgumentOnEverySurface) {
  WireHarness harness({.num_workers = 2});
  harness.service.RegisterTable("b", Berkeley());
  net::HttpClient client = harness.Client();
  auto created =
      client.Post("/v1/sessions", AnalyzeBody("b", kBerkeleyContextSql));
  ASSERT_TRUE(created.ok()) << created.status();
  const int64_t id = created->Find("session")->int_value();

  auto http = client.Request("POST",
                             "/v1/sessions/" + std::to_string(id) + "/explain",
                             R"({"context":4294967296})");
  ASSERT_TRUE(http.ok());
  EXPECT_EQ(http->status, 400);
  EXPECT_NE(http->body.find("invalid_argument"), std::string::npos);

  net::LineClient line("127.0.0.1", harness.server.port());
  auto stepped = line.CallRaw(R"({"cmd":"step","session":)" +
                              std::to_string(id) +
                              R"(,"stage":"explain","context":4294967296})");
  ASSERT_TRUE(stepped.ok());
  EXPECT_NE(stepped->find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(stepped->find("invalid_argument"), std::string::npos);

  for (const char* context : {"4294967296", "-1", "abc"}) {
    const std::string repl = harness.handlers.HandleRepl(
        "step " + std::to_string(id) + " explain " + context);
    EXPECT_EQ(repl.rfind("error: ", 0), 0u) << repl;
    EXPECT_NE(repl.find("invalid_argument"), std::string::npos) << repl;
  }
  // In range, the same step still answers.
  EXPECT_TRUE(harness.handlers
                  .HandleRepl("step " + std::to_string(id) + " explain 0")
                  .starts_with("{"));
}

TEST(SessionServiceTest, LruCapEvictsTheLongestIdleSession) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  options.max_sessions = 2;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());

  auto first = service.CreateSession({"b", kBerkeleySql, {}});
  ASSERT_TRUE(first.ok());
  auto second = service.CreateSession({"b", kBerkeleyContextSql, {}});
  ASSERT_TRUE(second.ok());
  // Touch the first so the second becomes the LRU victim.
  ASSERT_TRUE(service.InspectSession(first->id).ok());
  auto third = service.CreateSession({"b", kBerkeleySql, {}});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(service.num_sessions(), 2);
  EXPECT_TRUE(service.InspectSession(first->id).ok());
  auto evicted = service.InspectSession(second->id);
  ASSERT_FALSE(evicted.ok());
  EXPECT_EQ(evicted.status().code(), StatusCode::kGone);
}

}  // namespace
}  // namespace hypdb
