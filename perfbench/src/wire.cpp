// The two wire workloads: HttpServer + HypDbService hosted in-process,
// trace_level 0 and every other service option at its default, driven
// over keep-alive HTTP connections by closed-loop clients.
//
//  * adult_warm_wire — the think-twice loop of analysts who wait on each
//    reply: 2 connections against 2 workers replay a seeded mix of
//    /v1/analyze calls and staged sessions (create -> detect ->
//    explain {"context":0} -> DELETE) over 32 warmed query shapes.
//    Discovery is always reused, so net, scheduler, sessions and the core
//    stages carry the latency.
//  * staples_ingest_wire — writes beside reads: 1 connection against 1
//    worker sends row batches with fresh SessionId labels and, after
//    every few batches, one /v1/analyze that rediscovers and
//    delta-patches. Storage work dominates.
//
// Every analyze digest, detect verdict and append watermark is checked
// against references computed before the clock starts with cold serial
// HypDb::Analyze (for the ingest workload on a plain table that replays
// the same appends).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/hypdb.h"
#include "dataframe/csv.h"
#include "dataframe/view.h"
#include "engine/groupby_kernel.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"

namespace perfbench {
namespace {

using hypdb::Status;
using hypdb::StatusOr;
using hypdb::net::JsonValue;

/// The service under test behind a real socket.
class Server {
 public:
  explicit Server(int workers) {
    hypdb::HypDbServiceOptions options;
    options.num_workers = workers;
    options.trace_level = 0;
    service_ = std::make_unique<hypdb::HypDbService>(options);
    handlers_ = std::make_unique<hypdb::net::HypDbHandlers>(service_.get());
    hypdb::net::HypDbHandlers* handlers = handlers_.get();
    http_ = std::make_unique<hypdb::net::HttpServer>(
        [handlers](const hypdb::net::HttpRequest& r) {
          return handlers->HandleHttp(r);
        },
        [handlers](const std::string& line) {
          return handlers->HandleLine(line);
        });
  }
  ~Server() { http_->Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start() { return http_->Start(); }
  int port() const { return http_->port(); }
  hypdb::HypDbService& service() { return *service_; }

 private:
  std::unique_ptr<hypdb::HypDbService> service_;
  std::unique_ptr<hypdb::net::HypDbHandlers> handlers_;
  std::unique_ptr<hypdb::net::HttpServer> http_;
};

struct Exchange {
  bool ok = false;  // transport succeeded
  int status = 0;
  std::string body;
  double seconds = 0.0;
};

Exchange Call(hypdb::net::HttpClient* client, const char* method,
              const std::string& target, const std::string& body) {
  Exchange out;
  const double t0 = Now();
  StatusOr<hypdb::net::HttpResult> result =
      client->Request(method, target, body);
  out.seconds = Now() - t0;
  if (result.ok()) {
    out.ok = true;
    out.status = result->status;
    out.body = std::move(result->body);
  }
  return out;
}

bool Is2xx(const Exchange& e) {
  return e.ok && e.status >= 200 && e.status < 300;
}

/// `"key":<serialized value>` — how the server's deterministic
/// serializer renders a member, so a response can be checked against a
/// reference without parsing it.
std::string Member(const std::string& key, const JsonValue& value) {
  return "\"" + key + "\":" + hypdb::net::SerializeJson(value);
}

int64_t IntAfter(const std::string& body, const std::string& key) {
  const size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + key.size() + 3, nullptr, 10);
}

double Num(const JsonValue* v) {
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

/// What a traced block learns from one /v1/analyze response.
struct AnalyzeLayers {
  int64_t n = 0;
  double queue = 0, run = 0, net = 0, kib = 0, parse = 0, serialize = 0;
  double answers = 0, discovery = 0, detect = 0, explain = 0, rewrite = 0;
  int64_t reused = 0, queries = 0, scans = 0, delta_patches = 0;
  int64_t rows_scanned = 0, ci_tests = 0, unpatched = 0;

  void Add(const AnalyzeLayers& o) {
    n += o.n;
    queue += o.queue, run += o.run, net += o.net, kib += o.kib;
    parse += o.parse, serialize += o.serialize;
    answers += o.answers, discovery += o.discovery, detect += o.detect;
    explain += o.explain, rewrite += o.rewrite;
    reused += o.reused, queries += o.queries, scans += o.scans;
    delta_patches += o.delta_patches, rows_scanned += o.rows_scanned;
    ci_tests += o.ci_tests, unpatched += o.unpatched;
  }
};

/// Parses a traced analyze response, records its layer spans under `op`
/// and folds its counters into `layers`.
void TraceAnalyze(const Exchange& e, double start, uint64_t op,
                  SpanLog* spans, AnalyzeLayers* layers) {
  const double p0 = Now();
  StatusOr<JsonValue> parsed = hypdb::net::ParseJson(e.body);
  const double parse = Now() - p0;
  if (!parsed.ok()) return;
  const double s0 = Now();
  const std::string again = hypdb::net::SerializeJson(*parsed);
  const double serialize = Now() - s0;
  const JsonValue* stats = parsed->Find("stats");
  if (stats == nullptr || again.empty()) return;
  const double queue = Num(stats->Find("queue_seconds"));
  const double run = Num(stats->Find("run_seconds"));
  AnalyzeLayers& l = *layers;
  ++l.n;
  l.queue += queue;
  l.run += run;
  l.net += e.seconds - queue - run;
  l.kib += e.body.size() / 1024.0;
  l.parse += parse;
  l.serialize += serialize;
  const JsonValue* flag = stats->Find("discovery");
  const bool computed = flag == nullptr || flag->string_value() == "computed";
  if (!computed) ++l.reused;
  if (const JsonValue* d = stats->Find("engine_delta")) {
    l.queries += static_cast<int64_t>(Num(d->Find("queries")));
    l.scans += static_cast<int64_t>(Num(d->Find("scans")));
    const int64_t patches = static_cast<int64_t>(Num(d->Find("delta_patches")));
    l.delta_patches += patches;
    if (patches == 0) ++l.unpatched;
    l.rows_scanned += static_cast<int64_t>(Num(d->Find("rows_scanned")));
  }
  if (computed) {
    if (const JsonValue* disc = parsed->Find("discovery")) {
      l.ci_tests += static_cast<int64_t>(Num(disc->Find("tests_used")));
    }
  }
  double staged = 0.0;
  spans->Add(op, op, "service.queue", start, queue);
  if (const JsonValue* trace = stats->Find("trace")) {
    for (const JsonValue& span : trace->array()) {
      const JsonValue* name = span.Find("span");
      if (name == nullptr || name->string_value() == "queue") continue;
      const double seconds = Num(span.Find("seconds"));
      const std::string& n = name->string_value();
      double* slot = n == "discovery" ? &l.discovery
                     : n == "detect"  ? &l.detect
                     : n == "explain" ? &l.explain
                     : n == "rewrite" ? &l.rewrite
                                      : nullptr;
      if (slot != nullptr) *slot += seconds;
      staged += seconds;
      spans->Add(op, op, "core." + n,
                 start + Num(span.Find("start_seconds")), seconds);
    }
  }
  l.answers += run - staged;
  char attrs[96];
  std::snprintf(attrs, sizeof(attrs), "\"bytes\":%zu", e.body.size());
  spans->Add(op, op, "net.parse", p0, parse, attrs);
  spans->Add(op, op, "net.serialize", s0, serialize);
}

/// Storage scan overhead on the live store: a chunked ScanRange over two
/// columns against the plain kernel scan of its materialized table.
double ScanOverhead(hypdb::HypDbService& service, const std::string& name,
                    const std::vector<std::string>& columns) {
  StatusOr<std::shared_ptr<const hypdb::ChunkedTable>> store =
      service.registry().Store(name);
  if (!store.ok()) return 0.0;
  hypdb::TablePtr plain = (*store)->Materialized();
  std::vector<int> cols;
  for (const std::string& c : columns) {
    StatusOr<int> idx = plain->ColumnIndex(c);
    if (!idx.ok()) return 0.0;
    cols.push_back(*idx);
  }
  const hypdb::GroupByKernelOptions kernel;
  const hypdb::TableView view(plain);
  std::vector<double> chunked, direct;
  for (int rep = 0; rep < 7; ++rep) {
    hypdb::ChunkedScanStats stats;
    double t0 = Now();
    if (!(*store)->ScanRange(cols, 0, (*store)->Watermark(), kernel, &stats)
             .ok()) {
      return 0.0;
    }
    chunked.push_back(Now() - t0);
    t0 = Now();
    if (!hypdb::ScanCounts(view, cols, kernel).ok()) return 0.0;
    direct.push_back(Now() - t0);
  }
  const double base = Quantile(direct, 0.5);
  return base > 0 ? Quantile(chunked, 0.5) / base : 0.0;
}

/// End-of-run storage shape and cache occupancy, read over the wire.
struct StoreShape {
  double rows = 0, chunks = 0, cached_cells = 0;
};

StoreShape ReadShape(hypdb::net::HttpClient* client, const std::string& name) {
  StoreShape shape;
  Exchange list = Call(client, "GET", "/v1/datasets", "");
  if (Is2xx(list)) {
    StatusOr<JsonValue> datasets = hypdb::net::ParseJson(list.body);
    if (datasets.ok()) {
      for (const JsonValue& d : datasets->array()) {
        const JsonValue* n = d.Find("name");
        if (n == nullptr || n->string_value() != name) continue;
        shape.rows = Num(d.Find("rows"));
        shape.chunks = Num(d.Find("chunks"));
      }
    }
  }
  Exchange health = Call(client, "GET", "/healthz", "");
  if (Is2xx(health)) {
    StatusOr<JsonValue> v = hypdb::net::ParseJson(health.body);
    const JsonValue* storage = v.ok() ? v->Find("storage") : nullptr;
    const JsonValue* ds = storage != nullptr ? storage->Find(name) : nullptr;
    const JsonValue* cache = ds != nullptr ? ds->Find("cache") : nullptr;
    if (cache != nullptr) shape.cached_cells = Num(cache->Find("cached_cells"));
  }
  return shape;
}

double SetupMedian(const std::vector<SetupTimes>& setups, bool registration) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) {
    v.push_back(registration ? t.register_seconds : t.seconds);
  }
  return Quantile(v, 0.5);
}

std::string RegisterBody(const std::string& name, const std::string& path) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("name", JsonValue::Str(name));
  body.Set("csv", JsonValue::Str(path));
  return hypdb::net::SerializeJson(body);
}

/// One wire set-up: start a server with `workers` workers, register
/// `csv` under `name`, then run each warm-up analyze (request body,
/// expected digest member) and check its answer.
SetupTimes WireSetup(
    int workers, const std::string& name, const std::string& csv,
    const std::vector<std::pair<std::string, std::string>>& warmups,
    std::unique_ptr<Server>* server) {
  SetupTimes times;
  const double t0 = Now();
  *server = std::make_unique<Server>(workers);
  if (!(*server)->Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return times;
  }
  hypdb::net::HttpClient client("127.0.0.1", (*server)->port());
  Exchange r =
      Call(&client, "POST", "/v1/datasets", RegisterBody(name, csv));
  if (!Is2xx(r)) {
    std::fprintf(stderr, "register failed: %s\n", r.body.c_str());
    return times;
  }
  for (const auto& [body, digest] : warmups) {
    Exchange w = Call(&client, "POST", "/v1/analyze", body);
    if (!Is2xx(w) || w.body.find(digest) == std::string::npos) {
      std::fprintf(stderr, "warm-up analyze failed: %s\n", body.c_str());
      return times;
    }
  }
  times.register_seconds = r.seconds;
  times.seconds = Now() - t0;
  return times;
}

/// Per-layer metrics of a wire workload's traced run.
void WireLayers(Report* out, double csv_load, double register_s,
                const StoreShape& shape, double scan_overhead,
                const AnalyzeLayers& l, double overhead_pct) {
  const double n = std::max<int64_t>(l.n, 1);
  out->Metric("dataframe.csv_load_s", csv_load, "s");
  out->Metric("storage.register_s", register_s, "s");
  out->Metric("storage.rows", shape.rows, "count");
  out->Metric("storage.chunks", shape.chunks, "count");
  out->Metric("storage.scan_overhead", scan_overhead, "ratio");
  out->Metric("engine.count_ms", 0.0, "ms");
  out->Metric("engine.scan_ms", 0.0, "ms");
  out->Metric("engine.cache_ms", 0.0, "ms");
  out->Metric("engine.scan_rows_per_s", 0.0, "rows/s");
  out->Metric("engine.queries", l.queries / n, "count");
  out->Metric("engine.scans", l.scans / n, "count");
  out->Metric("engine.reuse_ratio",
              l.queries > 0 ? 1.0 - static_cast<double>(l.scans) / l.queries
                            : 0.0,
              "ratio");
  out->Metric("engine.delta_patches", l.delta_patches / n, "count");
  out->Metric("engine.rows_scanned", l.rows_scanned / n, "count");
  out->Metric("engine.cached_cells", shape.cached_cells, "count");
  out->Metric("causal.ci_tests", l.ci_tests / n, "count");
  out->Metric("causal.self_ms", 0.0, "ms");
  out->Metric("core.answers_ms", l.answers / n * 1e3, "ms");
  out->Metric("core.discovery_ms", l.discovery / n * 1e3, "ms");
  out->Metric("core.detect_ms", l.detect / n * 1e3, "ms");
  out->Metric("core.explain_ms", l.explain / n * 1e3, "ms");
  out->Metric("core.rewrite_ms", l.rewrite / n * 1e3, "ms");
  out->Metric("service.queue_ms", l.queue / n * 1e3, "ms");
  out->Metric("service.run_ms", l.run / n * 1e3, "ms");
  out->Metric("service.discovery_reuse", l.reused / n, "ratio");
  out->Metric("net.overhead_ms", l.net / n * 1e3, "ms");
  out->Metric("net.response_kib", l.kib / n, "KiB");
  out->Metric("net.parse_ms", l.parse / n * 1e3, "ms");
  out->Metric("net.serialize_ms", l.serialize / n * 1e3, "ms");
  out->Metric("trace.overhead_pct", overhead_pct, "%");
}

/// Time per operation in traced blocks over untraced blocks, as a
/// percentage overhead.
double OverheadPct(double traced_s, int64_t traced_n, double plain_s,
                   int64_t plain_n) {
  if (traced_n == 0 || plain_n == 0 || plain_s <= 0) return 0.0;
  return ((traced_s / traced_n) / (plain_s / plain_n) - 1.0) * 100.0;
}

/// One closed-loop client's tallies.
struct ClientResult {
  std::vector<double> analyze_ms, detect_ms, append_ms;
  int64_t ops = 0, attempted = 0, failed = 0, not_reused = 0;
  double traced_s = 0, plain_s = 0;
  int64_t traced_ops = 0, plain_ops = 0;
  AnalyzeLayers layers;
  SpanLog spans;
};

// ---- adult_warm_wire -----------------------------------------------------

struct AdultShape {
  std::string sql;
  std::string body;
  std::string digest;       // `"digest":...` member of the reference
  std::string bias;         // `"bias":...` member (detect verdict)
  std::string explanation;  // `"explanation":...` member for context 0
};

void AdultClient(int port, const std::vector<AdultShape>& shapes,
                 const std::vector<InputOp>& ops, double deadline,
                 bool trace, ClientResult* r) {
  hypdb::net::HttpClient client("127.0.0.1", port);
  for (size_t i = 0; Now() < deadline; ++i) {
    const InputOp& op = ops[i % ops.size()];
    const AdultShape& shape = shapes[op.shape];
    const bool traced = trace && (i / kTraceBlockOps) % 2 == 1;
    const uint64_t id = traced ? r->spans.BeginOp() : 0;
    const double start = Now();
    bool good = false;
    ++r->attempted;
    if (op.kind == "analyze") {
      Exchange e = Call(&client, "POST", "/v1/analyze", op.body);
      good = Is2xx(e) && e.body.find(shape.digest) != std::string::npos;
      if (good) {
        r->analyze_ms.push_back(e.seconds * 1e3);
        if (e.body.find("\"discovery\":\"computed\"") != std::string::npos) {
          ++r->not_reused;
        }
        if (traced) TraceAnalyze(e, start, id, &r->spans, &r->layers);
      }
    } else {
      Exchange create = Call(&client, "POST", "/v1/sessions", op.body);
      const int64_t session =
          create.ok && create.status == 201 ? IntAfter(create.body, "session")
                                            : -1;
      if (session > 0) {
        const std::string base = "/v1/sessions/" + std::to_string(session);
        Exchange detect = Call(&client, "POST", base + "/detect", "{}");
        const bool verdict =
            Is2xx(detect) && detect.body.find(shape.bias) != std::string::npos;
        if (verdict) {
          r->detect_ms.push_back((create.seconds + detect.seconds) * 1e3);
        }
        Exchange explain =
            Call(&client, "POST", base + "/explain", "{\"context\":0}");
        const bool explained = Is2xx(explain) &&
            explain.body.find(shape.explanation) != std::string::npos;
        Exchange close = Call(&client, "DELETE", base, "");
        good = verdict && explained && Is2xx(close);
        if (traced) {
          r->spans.Add(id, id, "session.create", start, create.seconds);
          r->spans.Add(id, id, "session.detect", start + create.seconds,
                       detect.seconds);
          r->spans.Add(id, id, "session.explain",
                       start + create.seconds + detect.seconds,
                       explain.seconds);
          r->spans.Add(id, id, "session.delete", Now() - close.seconds,
                       close.seconds);
        }
      }
    }
    const double seconds = Now() - start;
    if (!good) ++r->failed;
    ++r->ops;
    if (traced) {
      r->spans.Add(id, 0, op.kind, start, seconds);
      r->traced_s += seconds;
      ++r->traced_ops;
    } else {
      r->plain_s += seconds;
      ++r->plain_ops;
    }
  }
}

}  // namespace

int RunAdultWarmWire(const Args& args) {
  StatusOr<std::vector<InputOp>> ops = ReadOps(args.dir);
  if (!ops.ok()) {
    std::fprintf(stderr, "%s\n", ops.status().ToString().c_str());
    return 1;
  }
  InputOp reg;
  std::vector<AdultShape> shapes;
  std::vector<InputOp> client_ops[2];
  for (const InputOp& op : *ops) {
    if (op.kind == "register") {
      reg = op;
    } else if (op.kind == "shape") {
      shapes.push_back({op.sql, op.body, "", "", ""});
    } else if (op.client >= 0 && op.client < 2) {
      client_ops[op.client].push_back(op);
    }
  }
  if (reg.kind.empty() || shapes.empty() || client_ops[0].empty() ||
      client_ops[1].empty()) {
    std::fprintf(stderr, "malformed adult_warm_wire inputs\n");
    return 1;
  }
  const std::string csv = args.dir + "/" + reg.path;

  // References: cold serial HypDb::Analyze per shape, before any timing.
  const double load0 = Now();
  StatusOr<hypdb::Table> table = hypdb::ReadCsv(csv);
  const double csv_load = Now() - load0;
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  const hypdb::TablePtr plain = hypdb::MakeTable(std::move(*table));
  for (AdultShape& shape : shapes) {
    hypdb::HypDb db(plain);
    StatusOr<hypdb::HypDbReport> report = db.AnalyzeSql(shape.sql);
    if (!report.ok() || report->explanations.empty()) {
      std::fprintf(stderr, "reference %s failed\n", shape.sql.c_str());
      return 1;
    }
    shape.digest = Member(
        "digest", JsonValue::Str(hypdb::CanonicalReportDigest(*report)));
    shape.bias = Member("bias", hypdb::net::ToJson(report->bias));
    shape.explanation =
        Member("explanation", hypdb::net::ToJson(report->explanations[0]));
  }

  // Set-up: server start, register, one analyze per shape. The last
  // set-up's server serves the measured phase.
  std::vector<std::pair<std::string, std::string>> warmups;
  for (const AdultShape& shape : shapes) {
    warmups.emplace_back(shape.body, shape.digest);
  }
  std::unique_ptr<Server> server;
  const std::vector<SetupTimes> setups = RepeatSetup(
      3, [&] { return WireSetup(2, reg.name, csv, warmups, &server); });
  if (setups.empty()) return 1;

  // Measured phase: two closed-loop clients.
  ClientResult results[2];
  results[1].spans = SpanLog(uint64_t{1} << 40);
  const double start = Now();
  const double deadline = start + args.seconds;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back(AdultClient, server->port(), std::cref(shapes),
                           std::cref(client_ops[c]), deadline, args.trace,
                           &results[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  const double elapsed = Now() - start;

  ClientResult all;
  for (ClientResult& r : results) {
    all.analyze_ms.insert(all.analyze_ms.end(), r.analyze_ms.begin(),
                          r.analyze_ms.end());
    all.detect_ms.insert(all.detect_ms.end(), r.detect_ms.begin(),
                         r.detect_ms.end());
    all.ops += r.ops, all.attempted += r.attempted, all.failed += r.failed;
    all.not_reused += r.not_reused;
    all.traced_s += r.traced_s, all.traced_ops += r.traced_ops;
    all.plain_s += r.plain_s, all.plain_ops += r.plain_ops;
    all.layers.Add(r.layers);
  }

  Report out;
  out.Note("workload adult_warm_wire seed " + std::to_string(args.seed) +
           ": " + std::to_string(all.ops) + " operations in " +
           std::to_string(elapsed) + " s, " +
           std::to_string(all.analyze_ms.size()) + " analyze samples, " +
           std::to_string(all.detect_ms.size()) + " detect samples");
  out.Note("detect_p50_ms " + std::to_string(Quantile(all.detect_ms, 0.5)) +
           " ms (session create + detect)");
  out.Note("analyses with discovery not reused: " +
           std::to_string(all.not_reused));
  if (!args.trace) {
    out.Metric("qps", all.ops / elapsed, "1/s");
    out.Metric("analyze_p50_ms", Quantile(all.analyze_ms, 0.5), "ms");
    out.Metric("analyze_p90_ms", Quantile(all.analyze_ms, 0.9), "ms");
    out.Metric("setup_s", SetupMedian(setups, false), "s");
    out.Metric("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    hypdb::net::HttpClient client("127.0.0.1", server->port());
    const StoreShape shape = ReadShape(&client, reg.name);
    const double overhead =
        ScanOverhead(server->service(), reg.name, {"Gender", "Income"});
    WireLayers(&out, csv_load, SetupMedian(setups, true), shape, overhead,
               all.layers,
               OverheadPct(all.traced_s, all.traced_ops, all.plain_s,
                           all.plain_ops));
    results[0].spans.Merge(std::move(results[1].spans));
    if (!args.spans_path.empty() &&
        !results[0].spans.Write(args.spans_path, start)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    }
  }
  server.reset();
  return out.Finish(all.failed == 0, all.attempted, all.failed);
}

// ---- staples_ingest_wire -------------------------------------------------

int RunStaplesIngestWire(const Args& args) {
  StatusOr<std::vector<InputOp>> ops = ReadOps(args.dir);
  if (!ops.ok()) {
    std::fprintf(stderr, "%s\n", ops.status().ToString().c_str());
    return 1;
  }
  InputOp reg;
  std::vector<InputOp> sequence;
  for (const InputOp& op : *ops) {
    if (op.kind == "register") {
      reg = op;
    } else {
      sequence.push_back(op);
    }
  }
  if (reg.kind.empty() || sequence.empty()) {
    std::fprintf(stderr, "malformed staples_ingest_wire inputs\n");
    return 1;
  }
  const std::string csv = args.dir + "/" + reg.path;

  // References: a plain table replaying the same appends, analyzed cold
  // and serially at every analyze point; expected watermarks likewise.
  const double load0 = Now();
  StatusOr<hypdb::Table> base = hypdb::ReadCsv(csv);
  const double csv_load = Now() - load0;
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> names = base->ColumnNames();
  std::vector<std::vector<std::string>> rows;
  for (int64_t r = 0; r < base->NumRows(); ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < base->NumColumns(); ++c) {
      row.push_back(base->column(c).LabelAt(r));
    }
    rows.push_back(std::move(row));
  }
  auto cold_digest = [&](const std::string& sql) -> std::string {
    hypdb::Table table;
    for (size_t c = 0; c < names.size(); ++c) {
      hypdb::ColumnBuilder b(names[c]);
      for (const auto& row : rows) b.Append(row[c]);
      if (!table.AddColumn(b.Finish()).ok()) return "";
    }
    hypdb::HypDb db(hypdb::MakeTable(std::move(table)));
    StatusOr<hypdb::HypDbReport> report = db.AnalyzeSql(sql);
    if (!report.ok()) return "";
    return Member("digest",
                  JsonValue::Str(hypdb::CanonicalReportDigest(*report)));
  };
  const InputOp* warm = nullptr;
  for (const InputOp& op : sequence) {
    if (op.kind == "analyze") {
      warm = &op;
      break;
    }
  }
  // The warm-up analyze runs on the registered base table.
  const std::string base_digest =
      warm != nullptr ? cold_digest(warm->sql) : "";
  if (base_digest.empty()) {
    std::fprintf(stderr, "reference analysis failed\n");
    return 1;
  }
  std::vector<std::string> expected(sequence.size());
  std::vector<int64_t> watermark(sequence.size(), -1);
  for (size_t i = 0; i < sequence.size(); ++i) {
    const InputOp& op = sequence[i];
    if (op.kind == "append") {
      StatusOr<std::vector<std::vector<std::string>>> batch = AppendRows(op);
      if (!batch.ok()) {
        std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
        return 1;
      }
      rows.insert(rows.end(), batch->begin(), batch->end());
      watermark[i] = static_cast<int64_t>(rows.size());
    } else {
      expected[i] = cold_digest(op.sql);
      if (expected[i].empty()) {
        std::fprintf(stderr, "reference analysis failed\n");
        return 1;
      }
    }
  }
  // Set-up: server start, register the base, one warm-up analyze. It
  // takes ~0.1 s, so more repeats keep its median steady.
  std::unique_ptr<Server> server;
  const std::vector<SetupTimes> setups = RepeatSetup(9, [&] {
    return WireSetup(1, reg.name, csv, {{warm->body, base_digest}}, &server);
  });
  if (setups.empty()) return 1;

  // Measured phase: one closed-loop client walks the sequence once.
  ClientResult r;
  hypdb::net::HttpClient client("127.0.0.1", server->port());
  const double start = Now();
  size_t i = 0;
  for (; i < sequence.size() && Now() - start < args.seconds; ++i) {
    const InputOp& op = sequence[i];
    const bool traced = args.trace && (i / kTraceBlockOps) % 2 == 1;
    const uint64_t id = traced ? r.spans.BeginOp() : 0;
    ++r.attempted;
    const double t0 = Now();
    bool good = false;
    if (op.kind == "append") {
      Exchange e = Call(&client, "POST", "/v1/datasets/" + op.name + "/rows",
                        op.body);
      good = Is2xx(e) && IntAfter(e.body, "watermark") == watermark[i];
      if (good) r.append_ms.push_back(e.seconds * 1e3);
    } else {
      Exchange e = Call(&client, "POST", "/v1/analyze", op.body);
      good = Is2xx(e) && e.body.find(expected[i]) != std::string::npos;
      if (good) {
        r.analyze_ms.push_back(e.seconds * 1e3);
        if (traced) TraceAnalyze(e, t0, id, &r.spans, &r.layers);
      }
    }
    const double seconds = Now() - t0;
    if (!good) ++r.failed;
    ++r.ops;
    if (traced) {
      r.spans.Add(id, 0, op.kind, t0, seconds);
      r.traced_s += seconds;
      ++r.traced_ops;
    } else {
      r.plain_s += seconds;
      ++r.plain_ops;
    }
  }
  const double elapsed = Now() - start;

  Report out;
  out.Note("workload staples_ingest_wire seed " + std::to_string(args.seed) +
           ": " + std::to_string(r.ops) + " operations in " +
           std::to_string(elapsed) + " s, " +
           std::to_string(r.analyze_ms.size()) + " analyze samples, " +
           std::to_string(r.append_ms.size()) + " append samples" +
           (i == sequence.size() ? " (input sequence exhausted)" : ""));
  out.Note("append_p50_ms " + std::to_string(Quantile(r.append_ms, 0.5)) +
           " ms");
  if (!args.trace) {
    out.Metric("qps", r.ops / elapsed, "1/s");
    out.Metric("analyze_p50_ms", Quantile(r.analyze_ms, 0.5), "ms");
    out.Metric("analyze_p90_ms", Quantile(r.analyze_ms, 0.9), "ms");
    out.Metric("setup_s", SetupMedian(setups, false), "s");
    out.Metric("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    out.Note("traced analyses without a delta patch: " +
             std::to_string(r.layers.unpatched) + " of " +
             std::to_string(r.layers.n));
    const StoreShape shape = ReadShape(&client, reg.name);
    const double overhead =
        ScanOverhead(server->service(), reg.name, {"Income", "Price"});
    WireLayers(&out, csv_load, SetupMedian(setups, true), shape, overhead,
               r.layers,
               OverheadPct(r.traced_s, r.traced_ops, r.plain_s, r.plain_ops));
    if (!args.spans_path.empty() && !r.spans.Write(args.spans_path, start)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    }
  }
  client.Close();
  server.reset();
  return out.Finish(r.failed == 0, r.attempted, r.failed);
}

}  // namespace perfbench
