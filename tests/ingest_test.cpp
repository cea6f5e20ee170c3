// Ingest-path tests at the service and wire layers: appends never bump
// the dataset epoch (sessions, shard caches and discovery entries
// survive), post-append reports are bit-identical to a cold rebuild on
// the grown table, the discovery staleness bound governs refresh, and
// the HTTP/line append surface maps errors to the documented statuses.
// The concurrent append + analyze test is the TSan target for the
// storage layer's publication protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hypdb.h"
#include "datagen/adult_data.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/rng.h"

namespace hypdb {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Synthetic ingest workload: columns T, O, C with correlated binary
// labels, so detection has something to find and appends shift the
// distribution.
Rows SyntheticRows(int64_t n, Rng* rng, double flip = 0.3) {
  Rows rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    const int c = static_cast<int>(rng->NextBounded(2));
    const int t = rng->Bernoulli(flip) ? 1 - c : c;
    const int o = rng->Bernoulli(flip) ? c : t;
    rows.push_back({std::to_string(t), std::to_string(o),
                    std::to_string(c)});
  }
  return rows;
}

TablePtr TableFromRows(const Rows& rows) {
  const std::vector<std::string> names = {"T", "O", "C"};
  Table table;
  for (size_t c = 0; c < names.size(); ++c) {
    ColumnBuilder b(names[c]);
    for (const auto& row : rows) b.Append(row[c]);
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
}

const char kSql[] = "SELECT T, avg(O) FROM d GROUP BY T";

std::string ColdDigest(const Rows& rows) {
  HypDb db(TableFromRows(rows), HypDbOptions{});
  auto report = db.AnalyzeSql(kSql);
  EXPECT_TRUE(report.ok()) << report.status();
  return CanonicalReportDigest(*report);
}

TEST(IngestTest, AppendNeverBumpsEpochAndPatchesCaches) {
  Rng rng(7);
  Rows rows = SyntheticRows(600, &rng);

  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  const int64_t epoch = service.RegisterTable("d", TableFromRows(rows));

  auto before = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(CanonicalReportDigest(before->report), ColdDigest(rows));

  Rows batch = SyntheticRows(200, &rng);
  rows.insert(rows.end(), batch.begin(), batch.end());
  auto watermark = service.AppendRows("d", batch);
  ASSERT_TRUE(watermark.ok()) << watermark.status();
  EXPECT_EQ(*watermark, 800);

  // Same epoch — the append did not re-register.
  for (const DatasetInfo& info : service.Datasets()) {
    EXPECT_EQ(info.epoch, epoch);
    EXPECT_EQ(info.rows, 800);
    EXPECT_EQ(info.watermark, 800);
  }

  // Post-append analysis is bit-identical to a cold rebuild on the
  // grown table, and the shard cache answered by delta-patching its
  // summaries rather than rescanning from scratch: beside its full scans
  // of the 800 rows, each patch read at most the 200 appended ones.
  auto before_stats = service.engine_stats("d");
  ASSERT_TRUE(before_stats.ok());
  auto after = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(CanonicalReportDigest(after->report), ColdDigest(rows));
  auto stats = service.engine_stats("d");
  ASSERT_TRUE(stats.ok());
  const CountEngineStats delta = *stats - *before_stats;
  EXPECT_GT(delta.delta_patches, 0);
  EXPECT_LE(delta.rows_scanned - (delta.scans - delta.delta_patches) * 800,
            delta.delta_patches * 200);

  // Error paths: unknown dataset, arity mismatch (nothing appended).
  EXPECT_EQ(service.AppendRows("nope", batch).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.AppendRows("d", {{"1"}}).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Dataset("d").ok());
  EXPECT_EQ((*service.Dataset("d"))->NumRows(), 800);
}

TEST(IngestTest, SubpopulationShardsSurviveAndGrow) {
  Rng rng(8);
  Rows rows = SyntheticRows(400, &rng);
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(rows));

  const std::string sql =
      "SELECT T, avg(O) FROM d WHERE C IN ('1') GROUP BY T";
  auto before = service.AnalyzeSql("d", sql);
  ASSERT_TRUE(before.ok()) << before.status();

  Rows batch = SyntheticRows(150, &rng);
  rows.insert(rows.end(), batch.begin(), batch.end());
  ASSERT_TRUE(service.AppendRows("d", batch).ok());

  // The WHERE shard grew with the append: the post-append report equals
  // a cold rebuild of the grown table (the filtered population now
  // includes appended matching rows).
  auto after = service.AnalyzeSql("d", sql);
  ASSERT_TRUE(after.ok()) << after.status();
  HypDb db(TableFromRows(rows), HypDbOptions{});
  auto cold = db.AnalyzeSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(CanonicalReportDigest(after->report),
            CanonicalReportDigest(*cold));
}

TEST(IngestTest, SessionsSurviveAppendPinnedAtTheirWatermark) {
  Rng rng(9);
  Rows rows = SyntheticRows(500, &rng);
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(rows));

  // The session binds the pre-append population.
  AnalyzeRequest request;
  request.dataset = "d";
  request.sql = kSql;
  auto session = service.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  auto detect = service.AdvanceSession(session->id, "detect");
  ASSERT_TRUE(detect.ok()) << detect.status();

  ASSERT_TRUE(service.AppendRows("d", SyntheticRows(300, &rng)).ok());

  // Not Gone: the session survived the append and its remaining stages
  // still answer over the population it bound — the full report equals
  // a cold analysis of the PRE-append table.
  auto report = service.AdvanceSession(session->id, "report");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CanonicalReportDigest(report->report), ColdDigest(rows));
}

// A discovery computed over appended rows never serves a session bound
// before them: an analyze after a large append recomputes discovery at
// the new watermark, and the session still reports the discovery of the
// rows it bound.
TEST(IngestTest, SessionNeverTakesADiscoveryOverRowsItDidNotBind) {
  Rng rng(21);
  Rows rows = SyntheticRows(400, &rng);
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(rows));

  AnalyzeRequest request;
  request.dataset = "d";
  request.sql = kSql;
  auto session = service.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(service.AppendRows("d", SyntheticRows(4000, &rng, 0.05)).ok());
  auto grown = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_FALSE(grown->stats.discovery_reused);

  auto report = service.AdvanceSession(session->id, "report");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->stats.discovery_reused);
  EXPECT_EQ(CanonicalReportDigest(report->report), ColdDigest(rows));
}

TEST(IngestTest, DiscoveryRefreshGovernedByStalenessBound) {
  Rng rng(10);
  Rows rows = SyntheticRows(400, &rng);

  HypDbServiceOptions options;
  options.num_workers = 1;
  options.refresh_rows_fraction = 0.5;  // refresh past 50% growth
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(rows));

  ASSERT_TRUE(service.AnalyzeSql("d", kSql).ok());
  EXPECT_EQ(service.discovery_stats().misses, 1);

  // 25% growth: under the bound — the cached discovery is still served.
  ASSERT_TRUE(service.AppendRows("d", SyntheticRows(100, &rng)).ok());
  auto under = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(under.ok());
  EXPECT_TRUE(under->stats.discovery_reused);
  EXPECT_EQ(service.discovery_stats().stale_refreshes, 0);

  // Another 40% (total 65% past the entry's watermark): refreshed.
  ASSERT_TRUE(service.AppendRows("d", SyntheticRows(160, &rng)).ok());
  auto over = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->stats.discovery_reused);
  EXPECT_EQ(service.discovery_stats().stale_refreshes, 1);
}

TEST(IngestTest, ZeroFractionRetiresDiscoveryOnAnyAppend) {
  Rng rng(11);
  Rows rows = SyntheticRows(300, &rng);
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);  // refresh_rows_fraction = 0.0
  service.RegisterTable("d", TableFromRows(rows));

  ASSERT_TRUE(service.AnalyzeSql("d", kSql).ok());
  ASSERT_TRUE(service.AppendRows("d", SyntheticRows(1, &rng)).ok());
  auto after = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->stats.discovery_reused);
  EXPECT_EQ(service.discovery_stats().stale_refreshes, 1);
}

// ---- wire surface ------------------------------------------------------

net::HttpResponse Post(net::HypDbHandlers* handlers,
                       const std::string& target,
                       const std::string& body) {
  net::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = body;
  return handlers->HandleHttp(request);
}

TEST(IngestWireTest, AppendEndpointStatusMapping) {
  Rng rng(12);
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(SyntheticRows(50, &rng)));
  net::HypDbHandlers handlers(&service);

  // Happy path: 200 with the new watermark.
  net::HttpResponse ok = Post(&handlers, "/v1/datasets/d/rows",
                              R"({"rows": [["1","0","1"], ["0","1","0"]]})");
  EXPECT_EQ(ok.status, 200);
  auto body = net::ParseJson(ok.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("appended")->int_value(), 2);
  EXPECT_EQ(body->Find("watermark")->int_value(), 52);

  // Unknown dataset -> 404; schema (arity) mismatch -> 400.
  EXPECT_EQ(Post(&handlers, "/v1/datasets/nope/rows",
                 R"({"rows": [["1","0","1"]]})")
                .status,
            404);
  EXPECT_EQ(Post(&handlers, "/v1/datasets/d/rows",
                 R"({"rows": [["1","0"]]})")
                .status,
            400);
  // Malformed bodies and unknown keys -> 400 (strict decoding).
  EXPECT_EQ(Post(&handlers, "/v1/datasets/d/rows", R"({"rows": "x"})")
                .status,
            400);
  EXPECT_EQ(Post(&handlers, "/v1/datasets/d/rows",
                 R"({"rows": [], "extra": 1})")
                .status,
            400);
  // Body name must match the path when present.
  EXPECT_EQ(Post(&handlers, "/v1/datasets/d/rows",
                 R"({"name": "other", "rows": []})")
                .status,
            400);
  // Only POST, and only the /rows sub-resource.
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/v1/datasets/d/rows";
  EXPECT_EQ(handlers.HandleHttp(get).status, 400);
  EXPECT_EQ(Post(&handlers, "/v1/datasets/d/other", "{}").status, 404);

  // The line verb carries the name in the body.
  const std::string line = handlers.HandleLine(
      R"({"cmd": "append", "name": "d", "rows": [["1","1","1"]]})");
  auto parsed = net::ParseJson(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ok")->bool_value());
  EXPECT_EQ(parsed->Find("result")->Find("watermark")->int_value(), 53);

  // /healthz surfaces the per-dataset storage shape.
  net::HttpRequest health;
  health.method = "GET";
  health.target = "/healthz";
  auto health_body = net::ParseJson(handlers.HandleHttp(health).body);
  ASSERT_TRUE(health_body.ok());
  const net::JsonValue* storage = health_body->Find("storage");
  ASSERT_NE(storage, nullptr);
  const net::JsonValue* shape = storage->Find("d");
  ASSERT_NE(shape, nullptr);
  EXPECT_EQ(shape->Find("rows")->int_value(), 53);
  EXPECT_EQ(shape->Find("watermark")->int_value(), 53);
}

// ---- concurrency: the TSan target --------------------------------------

// Concurrent appends and analyzes: every report must be bit-identical
// to a cold serial HypDb over SOME batch-boundary prefix of the data —
// a request counts through shard generations fixed at its bind
// watermark, which a batch moves atomically, so no request ever
// observes a partial batch.
TEST(IngestTest, ConcurrentAppendAndAnalyzeBitIdentity) {
  Rng rng(13);
  constexpr int kBatches = 4;
  constexpr int64_t kBatchRows = 120;
  Rows seed = SyntheticRows(360, &rng);
  std::vector<Rows> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(SyntheticRows(kBatchRows, &rng));
  }

  // Cold ground truth at every batch boundary.
  std::set<std::string> expected;
  Rows prefix = seed;
  expected.insert(ColdDigest(prefix));
  for (const Rows& batch : batches) {
    prefix.insert(prefix.end(), batch.begin(), batch.end());
    expected.insert(ColdDigest(prefix));
  }

  HypDbServiceOptions options;
  options.num_workers = 3;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(seed));

  std::atomic<bool> done{false};
  std::vector<std::string> unexpected;
  std::mutex unexpected_mu;
  std::vector<std::thread> analysts;
  for (int t = 0; t < 2; ++t) {
    analysts.emplace_back([&] {
      while (!done.load()) {
        auto report = service.AnalyzeSql("d", kSql);
        if (!report.ok()) {
          std::lock_guard<std::mutex> lock(unexpected_mu);
          unexpected.push_back(report.status().ToString());
          continue;
        }
        const std::string digest = CanonicalReportDigest(report->report);
        if (expected.count(digest) == 0) {
          std::lock_guard<std::mutex> lock(unexpected_mu);
          unexpected.push_back("digest not at any batch boundary");
        }
      }
    });
  }
  for (const Rows& batch : batches) {
    ASSERT_TRUE(service.AppendRows("d", batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true);
  for (auto& a : analysts) a.join();
  EXPECT_TRUE(unexpected.empty()) << unexpected.front();

  // And the settled state equals a cold rebuild of the final table.
  auto final_report = service.AnalyzeSql("d", kSql);
  ASSERT_TRUE(final_report.ok());
  EXPECT_EQ(CanonicalReportDigest(final_report->report),
            ColdDigest(prefix));
}

// The rows a finished session bound: its plain answers cover the whole
// population of kSql, which has no WHERE.
int64_t BoundRows(const HypDbReport& report) {
  int64_t rows = 0;
  for (const ContextAnswer& context : report.plain.contexts) {
    for (const GroupAnswer& group : context.groups) rows += group.count;
  }
  return rows;
}

// Appends beside staged sessions: one thread appends batches while two
// create sessions and advance them stage by stage. A session counts
// through the shard generations at its bind watermark, which no append
// moves (or privately over the rows it bound, when another session has
// moved a shard past it first): every finished session's digest equals
// cold serial at its bind watermark.
TEST(IngestTest, ConcurrentAppendAndStagedSessionsAnswerAtBind) {
  Rng rng(17);
  constexpr int kBatches = 4;
  Rows seed = SyntheticRows(300, &rng);
  std::vector<Rows> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(SyntheticRows(90 + 30 * b, &rng, 0.2));
  }
  std::map<int64_t, std::string> expected;  // bind rows -> cold digest
  Rows prefix = seed;
  expected[static_cast<int64_t>(prefix.size())] = ColdDigest(prefix);
  for (const Rows& batch : batches) {
    prefix.insert(prefix.end(), batch.begin(), batch.end());
    expected[static_cast<int64_t>(prefix.size())] = ColdDigest(prefix);
  }

  HypDbServiceOptions options;
  options.num_workers = 3;
  HypDbService service(options);
  service.RegisterTable("d", TableFromRows(seed));

  const std::vector<std::vector<std::string>> orderings = {
      {"answers", "discover", "detect", "explain", "rewrite"},
      {"detect", "rewrite", "answers", "explain"},
  };
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<std::string> failures;
  std::set<int64_t> bound_at;
  std::vector<std::thread> analysts;
  for (int t = 0; t < 2; ++t) {
    analysts.emplace_back([&, t] {
      AnalyzeRequest request;
      request.dataset = "d";
      request.sql = kSql;
      while (!done.load()) {
        auto session = service.CreateSession(request);
        Status status = session.status();
        for (const std::string& stage : orderings[t]) {
          if (!status.ok()) break;
          status = service.AdvanceSession(session->id, stage).status();
        }
        auto snapshot = status.ok() ? service.SessionSnapshot(session->id)
                                    : StatusOr<ServiceReport>(status);
        std::lock_guard<std::mutex> lock(mu);
        if (!snapshot.ok() || !snapshot->stats.session_complete) {
          failures.push_back(snapshot.ok() ? "session incomplete"
                                           : snapshot.status().ToString());
          continue;
        }
        const int64_t rows = BoundRows(snapshot->report);
        bound_at.insert(rows);
        auto want = expected.find(rows);
        if (want == expected.end() ||
            CanonicalReportDigest(snapshot->report) != want->second) {
          failures.push_back("digest differs from cold serial at bind (" +
                             std::to_string(rows) + " rows)");
        }
        (void)service.CloseSession(session->id);
      }
    });
  }
  for (const Rows& batch : batches) {
    ASSERT_TRUE(service.AppendRows("d", batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  done.store(true);
  for (auto& a : analysts) a.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_FALSE(bound_at.empty());
}

// An append issued while a session stage counts returns at once: the
// stage counts through the shard generations at its bind watermark,
// which the append does not move, so the stage goes on counting after
// the append returns and still reports as at bind.
TEST(IngestTest, AppendReturnsWhileAStageCounts) {
  auto generated = GenerateAdultData({.num_rows = 3000});
  ASSERT_TRUE(generated.ok());
  TablePtr table = MakeTable(std::move(*generated));
  const std::string sql =
      "SELECT Gender, avg(Income) FROM adult GROUP BY Gender";
  HypDb direct(table, HypDbOptions{});
  auto cold = direct.AnalyzeSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();

  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("adult", table);
  AnalyzeRequest request;
  request.dataset = "adult";
  request.sql = sql;
  auto session = service.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  const int64_t at_create = service.engine_stats("adult")->queries;

  std::thread stage([&] {
    auto report = service.AdvanceSession(session->id, "report");
    EXPECT_TRUE(report.ok()) << report.status();
  });
  // The stage has started counting through the dataset's shards.
  while (service.engine_stats("adult")->queries == at_create) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::vector<std::string> row(table->NumColumns());
  for (int c = 0; c < table->NumColumns(); ++c) {
    row[c] = table->column(c).dict().Label(0);
  }
  ASSERT_TRUE(service.AppendRows("adult", {row}).ok());
  const int64_t at_append = service.engine_stats("adult")->queries;
  stage.join();
  EXPECT_GT(service.engine_stats("adult")->queries, at_append);
  auto snapshot = service.SessionSnapshot(session->id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->stats.session_complete);
  EXPECT_EQ(CanonicalReportDigest(snapshot->report),
            CanonicalReportDigest(*cold));
}

}  // namespace
}  // namespace hypdb
