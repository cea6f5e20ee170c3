// Network front-end tests. The load-bearing invariant: responses served
// over a real TCP socket are bit-identical (per report_digest.h) to
// cold serial HypDb::Analyze(), under >= 4 concurrent clients including
// coalesced twin requests. Plus: malformed HTTP and JSON earn
// 4xx responses without crashing the server, the async wire flow
// (submit/poll/wait/cancel/deadline) works end to end, and the raw
// line-JSON mode serves the same payloads on the same port.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/report_digest.h"
#include "util/string_util.h"

namespace hypdb {
namespace net {
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

/// An in-process service behind a real socket on an ephemeral port.
struct Harness {
  explicit Harness(HypDbServiceOptions service_options = {},
                   HttpServerOptions server_options = {})
      : service(service_options),
        handlers(&service),
        server([this](const HttpRequest& r) { return handlers.HandleHttp(r); },
               [this](const std::string& l) { return handlers.HandleLine(l); },
               server_options) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server.port()); }

  HypDbService service;
  HypDbHandlers handlers;
  HttpServer server;
};

/// Opens a fresh connection, sends `bytes` verbatim, half-closes, and
/// returns everything the server answers until it closes — for wire-level
/// malformed-input tests below the HttpClient's abstraction.
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(bytes.empty() ||
              ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
                  static_cast<ssize_t>(bytes.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string SerialDigest(const TablePtr& table, const std::string& sql) {
  HypDb db(table, HypDbOptions{});
  auto report = db.AnalyzeSql(sql);
  EXPECT_TRUE(report.ok()) << report.status();
  return CanonicalReportDigest(*report);
}

JsonValue AnalyzeBody(const std::string& dataset, const std::string& sql) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("dataset", JsonValue::Str(dataset));
  body.Set("sql", JsonValue::Str(sql));
  return body;
}

TEST(NetTest, HealthDatasetsAndStats) {
  Harness harness({.num_workers = 2});
  HttpClient client = harness.Client();

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->Find("ok")->bool_value());
  EXPECT_EQ(health->Find("workers")->int_value(), 2);

  JsonValue reg = JsonValue::MakeObject();
  reg.Set("name", JsonValue::Str("b"));
  reg.Set("generator", JsonValue::Str("berkeley"));
  auto registered = client.Post("/v1/datasets", reg);
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ(registered->Find("epoch")->int_value(), 1);
  EXPECT_GT(registered->Find("rows")->int_value(), 0);

  auto datasets = client.Get("/v1/datasets");
  ASSERT_TRUE(datasets.ok());
  ASSERT_EQ(datasets->array().size(), 1u);
  EXPECT_EQ(datasets->array()[0].Find("name")->string_value(), "b");

  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("workers")->int_value(), 2);
  ASSERT_NE(stats->Find("discovery_cache"), nullptr);

  // Unknown generator and unknown dataset map to clean wire errors.
  reg.Set("generator", JsonValue::Str("nope"));
  EXPECT_EQ(client.Post("/v1/datasets", reg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client
                .Post("/v1/analyze",
                      AnalyzeBody("missing",
                                  "SELECT Gender, avg(Accepted) FROM "
                                  "missing GROUP BY Gender"))
                .status()
                .code(),
            StatusCode::kNotFound);
  // Malformed SQL is caught at parse, before any dataset lookup.
  EXPECT_EQ(client.Post("/v1/analyze", AnalyzeBody("b", "SELECT x"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The acceptance criterion: >= 4 concurrent clients over a real socket,
// mixed workloads with twin requests, every response digest-identical to
// cold serial execution.
TEST(NetTest, ConcurrentClientsBitIdenticalToSerial) {
  TablePtr berkeley = Berkeley();
  TablePtr cancer = Cancer();

  struct Workload {
    std::string dataset;
    std::string sql;
    std::string digest;
  };
  std::vector<Workload> workloads = {
      {"b", "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender", ""},
      {"b",
       "SELECT Gender, avg(Accepted) FROM b WHERE Department IN "
       "('A','B','C') GROUP BY Gender",
       ""},
      {"b",
       "SELECT Gender, Department, avg(Accepted) FROM b GROUP BY Gender, "
       "Department",
       ""},
      {"c", "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY "
            "Lung_Cancer",
       ""},
  };
  for (Workload& w : workloads) {
    w.digest = SerialDigest(w.dataset == "b" ? berkeley : cancer, w.sql);
  }

  Harness harness({.num_workers = 4});
  harness.service.RegisterTable("b", berkeley);
  harness.service.RegisterTable("c", cancer);

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures[kClients];
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client = harness.Client();  // keep-alive, reused
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < workloads.size(); ++i) {
          // Staggered start indices put twin requests in flight
          // concurrently, exercising discovery coalescing.
          const Workload& w = workloads[(i + t) % workloads.size()];
          auto report =
              client.Post("/v1/analyze", AnalyzeBody(w.dataset, w.sql));
          if (!report.ok()) {
            failures[t].push_back(report.status().ToString());
            continue;
          }
          if (report->Find("digest")->string_value() != w.digest) {
            failures[t].push_back("digest mismatch for " + w.sql);
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "client " << t << ": " << failures[t].front();
  }

  // The shared caches carried remote traffic: strictly fewer discovery
  // computations than requests.
  const DiscoveryCacheStats stats = harness.service.discovery_stats();
  const int64_t total = kClients * kRounds *
                        static_cast<int64_t>(workloads.size());
  EXPECT_GT(stats.hits + stats.coalesced, 0);
  EXPECT_LT(stats.misses, total);
  EXPECT_EQ(stats.hits + stats.coalesced + stats.misses, total);
}

TEST(NetTest, PerRequestOptionsChangeTheAnalysis) {
  TablePtr berkeley = Berkeley();
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

  HypDbOptions loose;
  loose.alpha = 0.2;
  HypDb db(berkeley, loose);
  auto expected = db.AnalyzeSql(sql);
  ASSERT_TRUE(expected.ok());

  Harness harness({.num_workers = 2});
  harness.service.RegisterTable("b", berkeley);
  HttpClient client = harness.Client();

  JsonValue body = AnalyzeBody("b", sql);
  JsonValue options = JsonValue::MakeObject();
  options.Set("alpha", JsonValue::Double(0.2));
  body.Set("options", std::move(options));
  auto report = client.Post("/v1/analyze", body);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->Find("digest")->string_value(),
            CanonicalReportDigest(*expected));
}

// /healthz reports each dataset's storage shape and cache occupancy, and
// a request member outside its range (or an unknown option) is a 400
// invalid_argument on HTTP and line-JSON alike, on every verb that reads
// it.
TEST(NetTest, HealthzCacheOccupancyAndRejectedRequestMembers) {
  TablePtr berkeley = Berkeley();
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

  Harness harness({.num_workers = 2});
  harness.service.RegisterTable("b", berkeley);
  HttpClient client = harness.Client();
  LineClient line("127.0.0.1", harness.server.port());
  auto analyzed = client.Post("/v1/analyze", AnalyzeBody("b", sql));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("materialization"), nullptr);
  const JsonValue* storage = health->Find("storage");
  ASSERT_NE(storage, nullptr);
  const JsonValue* shape = storage->Find("b");
  ASSERT_NE(shape, nullptr);
  for (const char* member :
       {"rows", "chunks", "watermark", "cache_hit_ratio", "evictions"}) {
    EXPECT_NE(shape->Find(member), nullptr) << member;
  }
  EXPECT_EQ(shape->Find("cube_cells"), nullptr);
  const JsonValue* cache = shape->Find("cache");
  ASSERT_NE(cache, nullptr);
  for (const char* member :
       {"cached_cells", "pinned_cells", "budget_cells", "entries"}) {
    ASSERT_NE(cache->Find(member), nullptr) << member;
  }
  EXPECT_GT(cache->Find("cached_cells")->int_value(), 0);
  EXPECT_GT(cache->Find("budget_cells")->int_value(), 0);

  // One session for the step bodies.
  auto session = client.Post("/v1/sessions", AnalyzeBody("b", sql));
  ASSERT_TRUE(session.ok()) << session.status();
  const JsonValue id = *session->Find("session");
  const std::string step_path =
      "/v1/sessions/" + std::to_string(id.int_value()) + "/detect";

  auto with = [](JsonValue body, const char* key, JsonValue value) {
    body.Set(key, std::move(value));
    return body;
  };
  auto options = [](const char* key, JsonValue value) {
    JsonValue out = JsonValue::MakeObject();
    out.Set(key, std::move(value));
    return out;
  };
  JsonValue step = JsonValue::MakeObject();
  step.Set("session", id);
  step.Set("stage", JsonValue::Str("detect"));
  const JsonValue negative = JsonValue::Double(-1.0);
  struct Bad {
    std::string verb, path;
    JsonValue body;
  };
  const std::vector<Bad> bad = {
      {"analyze", "/v1/analyze",
       with(AnalyzeBody("b", sql), "options",
            options("materialization", JsonValue::Str("static")))},
      {"analyze", "/v1/analyze",
       with(AnalyzeBody("b", sql), "options",
            options("scan_threads", JsonValue::Int(2)))},
      {"analyze", "/v1/analyze",
       with(AnalyzeBody("b", sql), "options",
            options("alpha", JsonValue::Double(2.5)))},
      {"analyze", "/v1/analyze",
       with(AnalyzeBody("b", sql), "deadline_seconds", negative)},
      {"submit", "/v1/submit",
       with(AnalyzeBody("b", sql), "deadline_seconds", negative)},
      {"step", step_path, with(step, "deadline_seconds", negative)},
  };
  for (const Bad& b : bad) {
    SCOPED_TRACE(SerializeJson(b.body));
    JsonValue http_body = b.body;
    if (b.verb == "step") {  // the path carries the session and stage
      http_body = JsonValue::MakeObject();
      http_body.Set("deadline_seconds", negative);
    }
    auto http = client.Request("POST", b.path, SerializeJson(http_body));
    ASSERT_TRUE(http.ok()) << http.status();
    EXPECT_EQ(http->status, 400);
    EXPECT_NE(http->body.find("invalid_argument"), std::string::npos);
    EXPECT_EQ(line.Call(with(b.body, "cmd", JsonValue::Str(b.verb)))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }

  // A zero deadline still means "no deadline".
  JsonValue zero = JsonValue::MakeObject();
  zero.Set("deadline_seconds", JsonValue::Int(0));
  EXPECT_TRUE(client.Post(step_path, zero).ok());
  EXPECT_TRUE(
      client.Post("/v1/analyze",
                  with(AnalyzeBody("b", sql), "deadline_seconds",
                       JsonValue::Int(0)))
          .ok());
}

TEST(NetTest, AsyncSubmitPollWaitCancelAndDeadline) {
  TablePtr berkeley = Berkeley();
  // One worker makes queueing deterministic: the slow cancer request
  // occupies it while the victims sit in the queue.
  Harness harness({.num_workers = 1});
  harness.service.RegisterTable("b", berkeley);
  harness.service.RegisterTable("c", Cancer(20000));
  HttpClient client = harness.Client();

  const std::string slow_sql =
      "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer";
  const std::string fast_sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

  auto slow = client.Post("/v1/submit", AnalyzeBody("c", slow_sql));
  ASSERT_TRUE(slow.ok()) << slow.status();
  const int64_t slow_ticket = slow->Find("ticket")->int_value();

  // Victim 1: queued behind the slow request; cancellable.
  auto victim = client.Post("/v1/submit", AnalyzeBody("b", fast_sql));
  ASSERT_TRUE(victim.ok());
  const int64_t victim_ticket = victim->Find("ticket")->int_value();

  // Victim 2: a deadline far shorter than the slow request's runtime.
  JsonValue deadline_body = AnalyzeBody("b", fast_sql);
  deadline_body.Set("deadline_seconds", JsonValue::Double(1e-6));
  auto expired = client.Post("/v1/submit", deadline_body);
  ASSERT_TRUE(expired.ok());
  const int64_t expired_ticket = expired->Find("ticket")->int_value();

  // Cancel victim 1 while it is still queued.
  auto cancelled = client.Delete("/v1/requests/" +
                                 std::to_string(victim_ticket));
  ASSERT_TRUE(cancelled.ok()) << cancelled.status();
  EXPECT_TRUE(cancelled->Find("cancelled")->bool_value());
  auto victim_result = client.Get(
      "/v1/requests/" + std::to_string(victim_ticket) + "?wait=1");
  EXPECT_FALSE(victim_result.ok());
  EXPECT_EQ(victim_result.status().code(), StatusCode::kCancelled);
  // A second cancel has nothing left to cancel.
  EXPECT_EQ(client.Delete("/v1/requests/" + std::to_string(victim_ticket))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // The deadline victim is rejected at pickup with 408.
  auto expired_result = client.Get(
      "/v1/requests/" + std::to_string(expired_ticket) + "?wait=1");
  EXPECT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);
  auto raw = client.Request(
      "GET", "/v1/requests/" + std::to_string(expired_ticket));
  ASSERT_TRUE(raw.ok());
  // The result was claimed by the wait above; polling again is a 404.
  EXPECT_EQ(raw->status, 404);

  // The slow request itself completes and digests correctly.
  auto slow_result = client.Get(
      "/v1/requests/" + std::to_string(slow_ticket) + "?wait=1");
  ASSERT_TRUE(slow_result.ok()) << slow_result.status();
  EXPECT_EQ(slow_result->Find("stats")->Find("ticket")->int_value(),
            slow_ticket);

  // Poll (no wait) on a fresh pending ticket answers 202 done:false.
  auto pending = client.Post("/v1/submit", AnalyzeBody("c", slow_sql));
  ASSERT_TRUE(pending.ok());
  const std::string pending_path =
      "/v1/requests/" +
      std::to_string(pending->Find("ticket")->int_value());
  auto poll = client.Request("GET", pending_path);
  ASSERT_TRUE(poll.ok());
  if (poll->status == 202) {
    auto body = ParseJson(poll->body);
    ASSERT_TRUE(body.ok());
    EXPECT_FALSE(body->Find("done")->bool_value());
    auto final_result = client.Get(pending_path + "?wait=1");
    EXPECT_TRUE(final_result.ok()) << final_result.status();
  } else {
    // The warm-cache rerun finished before the poll arrived; the GET
    // that saw done=true claimed the result (claim-once semantics).
    EXPECT_EQ(poll->status, 200);
    auto body = ParseJson(poll->body);
    ASSERT_TRUE(body.ok());
    EXPECT_NE(body->Find("digest"), nullptr);
  }
}

TEST(NetTest, MalformedHttpGets4xxAndServerSurvives) {
  Harness harness({.num_workers = 1});
  const int port = harness.server.port();

  EXPECT_NE(RawExchange(port, "GARBAGE\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawExchange(port, "GET /healthz HTTP/2.7\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawExchange(port, "GET nohpath HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawExchange(port,
                        "POST /v1/analyze HTTP/1.1\r\n"
                        "Content-Length: abc\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawExchange(port, "POST /v1/analyze HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 411"),
            std::string::npos);
  EXPECT_NE(RawExchange(port,
                        "POST /v1/analyze HTTP/1.1\r\n"
                        "Content-Length: 999999999999\r\n\r\n")
                .find("HTTP/1.1 413"),
            std::string::npos);
  EXPECT_NE(RawExchange(port,
                        "POST /v1/analyze HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n")
                .find("HTTP/1.1 501"),
            std::string::npos);
  EXPECT_NE(RawExchange(port,
                        "GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);

  // A header bomb larger than the configured cap is cut off at 400.
  std::string bomb = "GET /healthz HTTP/1.1\r\nX-Bomb: ";
  bomb.append(128 * 1024, 'a');
  EXPECT_NE(RawExchange(port, bomb).find("HTTP/1.1 400"),
            std::string::npos);

  // Malformed JSON in a well-formed HTTP request: 400 from the parser.
  HttpClient client = harness.Client();
  auto bad_json = client.Request("POST", "/v1/analyze", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);
  auto wrong_shape = client.Request("POST", "/v1/analyze", "[1,2,3]");
  ASSERT_TRUE(wrong_shape.ok());
  EXPECT_EQ(wrong_shape->status, 400);
  auto bad_ticket = client.Request("GET", "/v1/requests/notanumber");
  ASSERT_TRUE(bad_ticket.ok());
  EXPECT_EQ(bad_ticket->status, 400);
  auto not_found = client.Request("GET", "/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);
  auto wrong_method = client.Request("DELETE", "/healthz");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 400);

  // After all of the abuse the server still serves.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->Find("ok")->bool_value());
}

TEST(NetTest, LineJsonModeServesIdenticalPayloadsOnTheSamePort) {
  TablePtr berkeley = Berkeley();
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";
  const std::string expected = SerialDigest(berkeley, sql);

  Harness harness({.num_workers = 2});
  harness.service.RegisterTable("b", berkeley);
  LineClient client("127.0.0.1", harness.server.port());

  JsonValue health = JsonValue::MakeObject();
  health.Set("cmd", JsonValue::Str("health"));
  auto health_result = client.Call(health);
  ASSERT_TRUE(health_result.ok()) << health_result.status();
  EXPECT_EQ(health_result->Find("workers")->int_value(), 2);

  JsonValue analyze = AnalyzeBody("b", sql);
  analyze.Set("cmd", JsonValue::Str("analyze"));
  auto report = client.Call(analyze);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->Find("digest")->string_value(), expected);

  // Async verbs over the line protocol.
  JsonValue submit = AnalyzeBody("b", sql);
  submit.Set("cmd", JsonValue::Str("submit"));
  auto ticket = client.Call(submit);
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  JsonValue wait = JsonValue::MakeObject();
  wait.Set("cmd", JsonValue::Str("wait"));
  wait.Set("ticket", *ticket->Find("ticket"));
  auto waited = client.Call(wait);
  ASSERT_TRUE(waited.ok()) << waited.status();
  EXPECT_EQ(waited->Find("digest")->string_value(), expected);

  // Malformed lines answer an error envelope on a live connection.
  auto error_line = client.CallRaw("{broken");
  ASSERT_TRUE(error_line.ok());
  EXPECT_NE(error_line->find("\"ok\":false"), std::string::npos);
  auto missing_cmd = client.CallRaw("{}");
  ASSERT_TRUE(missing_cmd.ok());
  EXPECT_NE(missing_cmd->find("invalid_argument"), std::string::npos);
  EXPECT_EQ(client.Call(health).status().code(), StatusCode::kOk);
}

// ---- one command table, three surfaces ---------------------------------

/// What a surface answered, comparable across surfaces: the error code,
/// or the success body with the members that legitimately differ per
/// call (ids, names, clocks, request stats) removed. Reports compare by
/// digest, metrics by family names.
std::string Outcome(bool ok, const JsonValue& body) {
  if (!ok) return "error " + body.Find("code")->string_value();
  if (const JsonValue* digest = body.Find("digest")) {
    return "digest " + digest->string_value();
  }
  if (const JsonValue* families = body.Find("families")) {
    std::string names = "families";
    for (const JsonValue& f : families->array()) {
      names += " " + f.Find("name")->string_value();
    }
    return names;
  }
  const auto scrub = [](const auto& self, JsonValue v) -> JsonValue {
    if (v.is_array()) {
      for (JsonValue& e : v.array()) e = self(self, std::move(e));
    }
    std::erase_if(v.members(), [](const auto& member) {
      for (const char* key :
           {"ticket", "session", "name", "watermark", "uptime_seconds",
            "age_seconds", "idle_seconds", "seconds", "stats"}) {
        if (member.first == key) return true;
      }
      return false;
    });
    for (auto& member : v.members()) {
      member.second = self(self, std::move(member.second));
    }
    return v;
  };
  return SerializeJson(scrub(scrub, body));
}

std::string Token(const JsonValue& v) {
  return v.is_int() ? std::to_string(v.int_value()) : v.string_value();
}

/// The HTTP request a row's pattern makes of `params`: {key} segments
/// and declared query keys are filled from params, the rest is the body.
HttpRequest ToHttp(const HypDbHandlers::Command& c, JsonValue params) {
  const auto take = [&params](const std::string& key) {
    const JsonValue value = *params.Find(key);
    std::erase_if(params.members(),
                  [&](const auto& m) { return m.first == key; });
    return Token(value);
  };
  HttpRequest request;
  request.method = c.method;
  const std::string pattern = c.path;
  const size_t question = pattern.find('?');
  for (const std::string& segment :
       Split(pattern.substr(0, question), '/')) {
    if (segment.empty()) continue;
    const bool bound = segment.front() == '{';
    const size_t skip = segment.size() > 1 && segment[1] == '#' ? 2 : 1;
    request.target +=
        "/" + (bound ? take(segment.substr(skip, segment.size() - skip - 1))
                     : segment);
  }
  if (question != std::string::npos) {
    for (const std::string& decl : Split(pattern.substr(question + 1), '&')) {
      const std::string key = decl.substr(0, decl.find('='));
      if (params.Find(key) == nullptr) continue;
      request.target += (request.target.find('?') == std::string::npos
                             ? "?"
                             : "&") +
                        key + "=" + take(key);
    }
  }
  if (request.method == "POST") request.body = SerializeJson(params);
  EXPECT_TRUE(request.method == "POST" || params.members().empty())
      << c.verb << " has params its route cannot carry";
  return request;
}

/// The REPL line a row's positional words make of `params`.
std::string ToRepl(const HypDbHandlers::Command& c, const JsonValue& params) {
  std::string line = c.verb;
  size_t used = 0;
  for (const std::string& spec : Split(c.repl, ' ')) {
    if (spec.empty()) continue;
    const bool marked = !std::isalpha(static_cast<unsigned char>(spec[0]));
    const std::string key = marked ? spec.substr(1) : spec;
    const JsonValue* value = params.Find(key);
    if (value == nullptr) continue;
    ++used;
    if (!value->is_array()) {
      line += " " + Token(*value);
      continue;
    }
    for (const JsonValue& row : value->array()) {
      std::vector<std::string> labels;
      for (const JsonValue& label : row.array()) {
        labels.push_back(label.string_value());
      }
      line += " " + Join(labels, ",");
    }
  }
  EXPECT_EQ(used, params.members().size())
      << c.verb << " has params its REPL words cannot carry";
  return line;
}

// Walks the command table: every verb answers alike over HTTP (where it
// has a route), line-JSON, and the REPL parser.
TEST(NetTest, EveryTableVerbAnswersAlikeOnEverySurface) {
  Harness harness({.num_workers = 2});
  HypDbHandlers& handlers = harness.handlers;
  harness.service.RegisterTable("b", Berkeley());
  harness.service.RegisterTable("ingest", Berkeley());
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

  const auto object = [](std::initializer_list<
                             std::pair<const char*, JsonValue>> members) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : members) out.Set(key, value);
    return out;
  };
  // A finished request's ticket, and a fresh session's id.
  const auto finished = [&] {
    const uint64_t ticket =
        harness.service.Submit({"b", sql, std::nullopt});
    while (!harness.service.Done(ticket)) std::this_thread::yield();
    return JsonValue::Int(static_cast<int64_t>(ticket));
  };
  const auto session = [&] {
    auto info = harness.service.CreateSession({"b", sql, std::nullopt});
    EXPECT_TRUE(info.ok()) << info.status();
    return JsonValue::Int(static_cast<int64_t>(info->id));
  };
  const JsonValue traced = finished();
  const JsonValue inspected = session();
  JsonValue row = JsonValue::MakeArray();
  row.Append(JsonValue::Str("Male"))
      .Append(JsonValue::Str("A"))
      .Append(JsonValue::Str("1"));
  JsonValue rows = JsonValue::MakeArray();
  rows.Append(row);

  // Params per verb for surface i (0 HTTP, 1 line, 2 REPL). Verbs that
  // consume what they touch get their own ticket, session or name.
  const std::map<std::string, std::function<JsonValue(int)>> cases = {
      {"health", [&](int) { return object({}); }},
      {"metrics",
       [&](int) { return object({{"format", JsonValue::Str("json")}}); }},
      {"stats", [&](int) { return object({}); }},
      {"datasets", [&](int) { return object({}); }},
      {"register",
       [&](int i) {
         return object({{"name", JsonValue::Str("r" + std::to_string(i))},
                        {"generator", JsonValue::Str("berkeley")}});
       }},
      {"analyze",
       [&](int) {
         return object({{"dataset", JsonValue::Str("b")},
                        {"sql", JsonValue::Str(sql)}});
       }},
      {"submit",
       [&](int) {
         return object({{"dataset", JsonValue::Str("b")},
                        {"sql", JsonValue::Str(sql)}});
       }},
      {"poll", [&](int) { return object({{"ticket", traced}}); }},
      {"wait", [&](int) { return object({{"ticket", finished()}}); }},
      {"cancel", [&](int) { return object({{"ticket", traced}}); }},
      {"trace", [&](int) { return object({{"ticket", traced}}); }},
      {"session",
       [&](int) {
         return object({{"dataset", JsonValue::Str("b")},
                        {"sql", JsonValue::Str(sql)}});
       }},
      {"step",
       [&](int) {
         return object(
             {{"session", session()}, {"stage", JsonValue::Str("detect")}});
       }},
      {"sessions", [&](int) { return object({}); }},
      {"session_info", [&](int) { return object({{"session", inspected}}); }},
      {"session_close", [&](int) { return object({{"session", session()}}); }},
      {"append",
       [&](int) {
         return object({{"name", JsonValue::Str("ingest")}, {"rows", rows}});
       }},
  };

  for (const HypDbHandlers::Command& c : HypDbHandlers::Commands()) {
    const auto found = cases.find(c.verb);
    ASSERT_NE(found, cases.end()) << "no parity case for verb " << c.verb;
    // Build every surface's params first: making them may run requests
    // that move the counters the three replies report.
    std::vector<JsonValue> params;
    for (int i = 0; i < 3; ++i) params.push_back(found->second(i));
    std::vector<std::string> outcomes;

    if (c.method != nullptr) {
      const HttpResponse http = handlers.HandleHttp(ToHttp(c, params[0]));
      auto body = ParseJson(http.body);
      ASSERT_TRUE(body.ok()) << c.verb << ": " << http.body;
      outcomes.push_back(Outcome(http.status < 400, *body));
    }

    JsonValue line = params[1];
    line.Set("cmd", JsonValue::Str(c.verb));
    auto envelope = ParseJson(handlers.HandleLine(SerializeJson(line)));
    ASSERT_TRUE(envelope.ok());
    const bool line_ok = envelope->Find("ok")->bool_value();
    outcomes.push_back(
        Outcome(line_ok, *envelope->Find(line_ok ? "result" : "error")));

    auto repl = ParseReplLine(ToRepl(c, params[2]));
    ASSERT_TRUE(repl.ok()) << repl.status();
    EXPECT_EQ(repl->Find("cmd")->string_value(), c.verb);
    const Reply reply = handlers.Call(*repl);
    outcomes.push_back(Outcome(reply.status < 400, reply.body));

    for (const std::string& outcome : outcomes) {
      EXPECT_EQ(outcome, outcomes.back()) << "verb " << c.verb;
    }
  }

  // Unknown verbs and paths: 400 invalid_argument naming the table's
  // verbs on the line and in the REPL, 404 over HTTP.
  const std::string unknown = handlers.HandleLine(R"({"cmd":"nope"})");
  EXPECT_NE(unknown.find("invalid_argument"), std::string::npos);
  EXPECT_NE(unknown.find(HypDbHandlers::VerbList()), std::string::npos);
  const std::string repl = handlers.HandleRepl("nope 1");
  EXPECT_EQ(repl.rfind("error: ", 0), 0u);
  EXPECT_NE(repl.find(HypDbHandlers::VerbList()), std::string::npos);
  HttpRequest missing;
  missing.method = "GET";
  missing.target = "/v1/nope";
  EXPECT_EQ(handlers.HandleHttp(missing).status, 404);
}

TEST(NetTest, ReplWordsDecodeIntoTheirVerbParams) {
  const auto parsed = [](const std::string& line) {
    auto params = ParseReplLine(line);
    EXPECT_TRUE(params.ok()) << params.status();
    return params.ok() ? SerializeJson(*params) : "";
  };
  EXPECT_EQ(parsed("load f /data/f.csv"),
            R"({"cmd":"register","name":"f","csv":"/data/f.csv"})");
  EXPECT_EQ(parsed("gen b berkeley"),
            R"({"cmd":"register","name":"b","generator":"berkeley"})");
  EXPECT_EQ(parsed("close 7"), R"({"cmd":"session_close","session":7})");
  EXPECT_EQ(parsed("step 3 explain 0"),
            R"({"cmd":"step","session":3,"stage":"explain","context":0})");
  EXPECT_EQ(parsed("analyze b  SELECT g, avg(y) FROM b GROUP BY g "),
            R"({"cmd":"analyze","dataset":"b",)"
            R"("sql":"SELECT g, avg(y) FROM b GROUP BY g"})");
  EXPECT_EQ(parsed("append b x,A,1 y,B,0"),
            R"({"cmd":"append","name":"b","rows":[["x","A","1"],)"
            R"(["y","B","0"]]})");
  EXPECT_EQ(parsed("wait abc"), R"({"cmd":"wait","ticket":"abc"})");
  EXPECT_EQ(ParseReplLine("poll 1 2").status().code(),
            StatusCode::kInvalidArgument);

  // poll answers the line verb's body and leaves the result to wait,
  // which prints the report with its service footer.
  Harness harness({.num_workers = 1});
  HypDbHandlers& handlers = harness.handlers;
  EXPECT_EQ(handlers.HandleRepl("gen b berkeley").rfind("{\"name\":\"b\"", 0),
            0u);
  ASSERT_EQ(handlers.HandleRepl(
                "submit b SELECT Gender, avg(Accepted) FROM b GROUP BY Gender"),
            "{\"ticket\":1}\n");
  while (!harness.service.Done(1)) std::this_thread::yield();
  EXPECT_EQ(handlers.HandleRepl("poll 1"), "{\"ticket\":1,\"done\":true}\n");
  EXPECT_EQ(handlers.HandleRepl("poll 1"), "{\"ticket\":1,\"done\":true}\n");
  const std::string report = handlers.HandleRepl("wait 1");
  EXPECT_EQ(report.rfind("=== HypDB report ===", 0), 0u) << report;
  EXPECT_NE(report.find("\nservice: {\"ticket\":1,"), std::string::npos);
  EXPECT_EQ(handlers.HandleRepl("   "), "");
}

TEST(NetTest, ConnectionLimitAnswers503) {
  Harness harness({.num_workers = 1},
                  HttpServerOptions{.max_connections = 1});
  // Occupy the single slot with a live keep-alive connection.
  HttpClient first = harness.Client();
  ASSERT_TRUE(first.Get("/healthz").ok());
  const std::string overflow =
      RawExchange(harness.server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(overflow.find("HTTP/1.1 503"), std::string::npos);
}

}  // namespace
}  // namespace net
}  // namespace hypdb
