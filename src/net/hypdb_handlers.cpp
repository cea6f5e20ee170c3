#include "net/hypdb_handlers.h"

#include <cctype>
#include <charconv>
#include <climits>
#include <optional>
#include <sstream>

#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/flight_data.h"
#include "datagen/staples_data.h"
#include "engine/groupby_kernel.h"
#include "util/build_info.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypdb {
namespace net {
namespace {

/// HTTP status for a Status code (kOk -> 200, kNotFound -> 404, ...).
int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kInternal: return 500;
    case StatusCode::kIoError: return 500;
    case StatusCode::kCancelled: return 409;
    case StatusCode::kDeadlineExceeded: return 408;
    case StatusCode::kGone: return 410;
  }
  return 500;
}

/// The table of a named built-in generator
/// (berkeley|flight|adult|staples|cancer).
StatusOr<Table> GenerateNamedDataset(const std::string& kind) {
  if (kind == "berkeley") return GenerateBerkeleyData();
  if (kind == "flight") return GenerateFlightData();
  if (kind == "adult") return GenerateAdultData();
  if (kind == "staples") return GenerateStaplesData();
  if (kind == "cancer") return GenerateCancerData();
  return Status::InvalidArgument(
      "unknown generator '" + kind +
      "' (expected berkeley|flight|adult|staples|cancer)");
}

}  // namespace

Reply::Reply(const Status& error)
    : status(HttpStatusForCode(error.code())), body(ErrorToJson(error)) {}

std::span<const HypDbHandlers::Command> HypDbHandlers::Commands() {
  using H = HypDbHandlers;
  static const Command kCommands[] = {
      // Readiness: ok/workers/uptime/datasets/queue_depth/sessions/simd
      // + build identity + per-dataset storage shape and cache occupancy.
      {"health", "GET", "/healthz", kRouteHealthz, &H::Health, ""},
      // Prometheus text over HTTP; ?format=json (and line-JSON) get the
      // structured flavor with p50/95/99.
      {"metrics", "GET", "/metrics?format=prometheus", kRouteMetrics,
       &H::Metrics, "format"},
      {"stats", "GET", "/v1/stats", kRouteStats, &H::Stats, ""},
      {"datasets", "GET", "/v1/datasets", kRouteDatasets, &H::Datasets, ""},
      // {"name", "csv"|"generator"}: register (or replace) a dataset.
      {"register", "POST", "/v1/datasets", kRouteDatasets, &H::Register,
       "name generator"},
      {"analyze", "POST", "/v1/analyze", kRouteAnalyze, &H::Analyze,
       "dataset *sql"},
      {"submit", "POST", "/v1/submit", kRouteSubmit, &H::Submit,
       "dataset *sql"},
      {"poll", nullptr, nullptr, kRouteOther, &H::Poll, "#ticket"},
      // Blocks and claims the result. Over HTTP it polls unless ?wait=1:
      // 202 while pending, and the GET that sees it done claims it.
      {"wait", "GET", "/v1/requests/{#ticket}?wait=0", kRouteRequests,
       &H::Wait, "#ticket"},
      // Drops a still-queued request, or asks a running session stage
      // job to stop at its next stage boundary.
      {"cancel", "DELETE", "/v1/requests/{#ticket}", kRouteRequests,
       &H::Cancel, "#ticket"},
      // 404 unknown/expired, 409 ran untraced.
      {"trace", "GET", "/v1/requests/{#ticket}/trace?format", kRouteRequests,
       &H::Trace, "#ticket format"},
      {"session", "POST", "/v1/sessions", kRouteSessions, &H::SessionCreate,
       "dataset *sql"},
      // Stage bodies are optional: {"context"?, "deadline_seconds"?}.
      {"step", "POST", "/v1/sessions/{#session}/{stage}", kRouteSessions,
       &H::SessionStep, "#session stage #context"},
      {"sessions", "GET", "/v1/sessions", kRouteSessions, &H::SessionList,
       ""},
      // The full report + digest once the session is complete.
      {"session_info", "GET", "/v1/sessions/{#session}", kRouteSessions,
       &H::SessionInspect, "#session"},
      {"session_close", "DELETE", "/v1/sessions/{#session}", kRouteSessions,
       &H::SessionClose, "#session"},
      // {"rows": [["label",...],...]} in schema column order; no epoch
      // bump. A body "name" must match the path.
      {"append", "POST", "/v1/datasets/{name}/rows", kRouteIngest,
       &H::Append, "name +rows"},
  };
  return kCommands;
}

std::string HypDbHandlers::VerbList() {
  std::string out;
  for (const Command& c : Commands()) {
    out += (out.empty() ? "" : "|") + std::string(c.verb);
  }
  return out;
}

namespace {

const HypDbHandlers::Command* FindCommand(const std::string& verb) {
  for (const HypDbHandlers::Command& c : HypDbHandlers::Commands()) {
    if (verb == c.verb) return &c;
  }
  return nullptr;
}

/// Binds one path segment or REPL word under `spec`: "#key" as an
/// integer when the text is one (otherwise as the string, which the
/// handler then rejects), "key" as a string.
void Bind(std::string_view spec, std::string_view text, JsonValue* params) {
  if (spec.front() != '#') {
    params->Set(std::string(spec), JsonValue::Str(std::string(text)));
    return;
  }
  int64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  params->Set(std::string(spec.substr(1)),
              error == std::errc() && end == text.data() + text.size()
                  ? JsonValue::Int(value)
                  : JsonValue::Str(std::string(text)));
}

/// Matches `path` against a row's path pattern segment by segment,
/// binding each non-empty {spec} segment into `params`.
bool MatchPath(std::string_view pattern, std::string_view path,
               JsonValue* params) {
  while (!pattern.empty() && !path.empty()) {
    const std::string_view want = pattern.substr(0, pattern.find('/', 1));
    const std::string_view got = path.substr(0, path.find('/', 1));
    if (want.size() > 3 && want[1] == '{') {
      if (got.size() < 2) return false;
      Bind(want.substr(2, want.size() - 3), got.substr(1), params);
    } else if (want != got) {
      return false;
    }
    pattern.remove_prefix(want.size());
    path.remove_prefix(got.size());
  }
  return pattern.empty() && path.empty();
}

/// Binds the query parameters a row declares ("name" or "name=default",
/// '&'-separated) from the request's query string; undeclared ones are
/// ignored.
void BindQuery(const std::string& declared, const std::string& query,
               JsonValue* params) {
  for (const std::string& decl : Split(declared, '&')) {
    const size_t eq = decl.find('=');
    const std::string key = decl.substr(0, eq);
    std::optional<std::string> value;
    if (eq != std::string::npos) value = decl.substr(eq + 1);
    for (const std::string& param : Split(query, '&')) {
      const size_t sep = param.find('=');
      if (param.substr(0, sep) == key) {
        value = sep == std::string::npos ? "" : param.substr(sep + 1);
        break;
      }
    }
    if (value.has_value()) params->Set(key, JsonValue::Str(*value));
  }
}

/// A positive integer id member ("ticket", "session").
StatusOr<uint64_t> IdParam(const JsonValue& params, const std::string& key) {
  const JsonValue* id = params.Find(key);
  if (id == nullptr || !id->is_int() || id->int_value() <= 0) {
    return Status::InvalidArgument("expected a positive integer \"" + key +
                                   "\" member");
  }
  return static_cast<uint64_t>(id->int_value());
}

JsonValue PollBody(uint64_t ticket, bool done) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  out.Set("done", JsonValue::Bool(done));
  return out;
}

}  // namespace

Reply HypDbHandlers::Health(const JsonValue&) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("workers", JsonValue::Int(service_->num_workers()));
  out.Set("uptime_seconds", JsonValue::Double(service_->uptime_seconds()));
  out.Set("datasets",
          JsonValue::Int(static_cast<int64_t>(service_->Datasets().size())));
  out.Set("queue_depth", JsonValue::Int(service_->queue_depth()));
  out.Set("sessions", JsonValue::Int(service_->num_sessions()));
  out.Set("simd",
          JsonValue::Str(GroupByKernelSimdActive() ? "avx2" : "scalar"));
  // Build identity, mirroring the hypdb_build_info metric: lets a probe
  // (or an operator's curl) confirm which binary is actually serving.
  out.Set("version", JsonValue::Str(BuildVersion()));
  out.Set("compiler", JsonValue::Str(BuildCompiler()));
  out.Set("build_type", JsonValue::Str(BuildType()));
  // Per-dataset storage shape: a probe watching an ingest pipeline reads
  // row/watermark progression here without the full dataset list.
  // Cache occupancy rides along so an operator sees pool pressure
  // (cells/budget, hit ratio, evictions) from one readiness probe.
  JsonValue storage = JsonValue::MakeObject();
  for (const DatasetInfo& info : service_->Datasets()) {
    JsonValue shape = JsonValue::MakeObject();
    shape.Set("rows", JsonValue::Int(info.rows));
    shape.Set("watermark", JsonValue::Int(info.watermark));
    shape.Set("cache", ToJson(info.cache));
    shape.Set("cache_hit_ratio", JsonValue::Double(info.cache_hit_ratio));
    shape.Set("evictions", JsonValue::Int(info.evictions));
    storage.Set(info.name, std::move(shape));
  }
  out.Set("storage", std::move(storage));
  return out;
}

Reply HypDbHandlers::Metrics(const JsonValue& params) {
  const MetricsSnapshot snapshot = service_->metrics_registry().Snapshot();
  const JsonValue* format = params.Find("format");
  if (format == nullptr ||
      (format->is_string() && format->string_value() == "json")) {
    return MetricsToJson(snapshot);
  }
  Stopwatch render;
  Reply text(JsonValue::Str(RenderPrometheusText(snapshot)));
  serialize_.Observe(render.ElapsedSeconds());
  return text;
}

Reply HypDbHandlers::Stats(const JsonValue&) {
  return ServiceStatsToJson(*service_);
}

Reply HypDbHandlers::Datasets(const JsonValue&) {
  JsonValue out = JsonValue::MakeArray();
  for (const DatasetInfo& info : service_->Datasets()) {
    out.Append(ToJson(info));
  }
  return out;
}

Reply HypDbHandlers::Register(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(RegisterCommand command,
                         RegisterCommandFromJson(params));
  int64_t epoch = 0;
  if (!command.csv_path.empty()) {
    HYPDB_ASSIGN_OR_RETURN(
        epoch, service_->RegisterCsv(command.name, command.csv_path));
  } else {
    HYPDB_ASSIGN_OR_RETURN(Table table,
                           GenerateNamedDataset(command.generator));
    epoch = service_->RegisterTable(command.name,
                                    MakeTable(std::move(table)));
  }
  HYPDB_ASSIGN_OR_RETURN(TablePtr table, service_->Dataset(command.name));
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::Str(command.name));
  out.Set("epoch", JsonValue::Int(epoch));
  out.Set("rows", JsonValue::Int(table->NumRows()));
  out.Set("columns", JsonValue::Int(table->NumColumns()));
  return out;
}

Reply HypDbHandlers::Append(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(AppendCommand command, AppendCommandFromJson(params));
  if (command.name.empty()) {
    return Status::InvalidArgument(
        "append requires a dataset \"name\"");
  }
  HYPDB_ASSIGN_OR_RETURN(int64_t watermark,
                         service_->AppendRows(command.name, command.rows));
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::Str(command.name));
  out.Set("appended", JsonValue::Int(static_cast<int64_t>(command.rows.size())));
  out.Set("watermark", JsonValue::Int(watermark));
  return out;
}

Reply HypDbHandlers::Analyze(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(params, service_->options().analysis));
  // Submit + Wait rather than the sync facade so deadlines apply to
  // synchronous requests too.
  const uint64_t ticket =
      service_->Submit(std::move(wire.request), wire.submit);
  HYPDB_ASSIGN_OR_RETURN(ServiceReport report, service_->Wait(ticket));
  return ToJson(report);
}

Reply HypDbHandlers::Submit(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(params, service_->options().analysis));
  const uint64_t ticket =
      service_->Submit(std::move(wire.request), wire.submit);
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  return out;
}

Reply HypDbHandlers::Poll(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t ticket, IdParam(params, "ticket"));
  return PollBody(ticket, service_->Done(ticket));
}

Reply HypDbHandlers::Wait(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t ticket, IdParam(params, "ticket"));
  // The HTTP route binds ?wait, "0" unless given: "0" or "false" polls,
  // answering 202 while the request is pending.
  const JsonValue* wait = params.Find("wait");
  if (wait != nullptr &&
      (*wait == JsonValue::Str("0") || *wait == JsonValue::Str("false")) &&
      !service_->Done(ticket)) {
    return Reply(PollBody(ticket, false), 202);
  }
  HYPDB_ASSIGN_OR_RETURN(ServiceReport report, service_->Wait(ticket));
  return ToJson(report);
}

Reply HypDbHandlers::SessionCreate(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(
      WireAnalyzeRequest wire,
      AnalyzeRequestFromJson(params, service_->options().analysis));
  HYPDB_ASSIGN_OR_RETURN(SessionInfo info,
                         service_->CreateSession(wire.request));
  return Reply(ToJson(info), 201);
}

Reply HypDbHandlers::SessionStep(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t session, IdParam(params, "session"));
  const JsonValue* stage = params.Find("stage");
  if (stage == nullptr || !stage->is_string()) {
    return Status::InvalidArgument(
        "expected a string \"stage\" member (answers|discover|detect|"
        "explain|rewrite|report)");
  }
  std::optional<int> context;
  SubmitOptions submit;
  // Strict like every other wire body: only the step parameters are
  // legal here.
  for (const auto& [key, value] : params.members()) {
    if (key == "cmd" || key == "session" || key == "stage") continue;
    if (key == "context") {
      if (!value.is_int() || value.int_value() < 0 ||
          value.int_value() > INT_MAX) {
        return Status::InvalidArgument(
            "\"context\" must be an integer in [0, " +
            std::to_string(INT_MAX) + "]");
      }
      context = static_cast<int>(value.int_value());
    } else if (key == "deadline_seconds" && value.is_number()) {
      if (value.number_value() < 0.0) {
        return Status::InvalidArgument(
            "\"deadline_seconds\" must be >= 0 (0 = no deadline)");
      }
      submit.deadline_seconds = value.number_value();
    } else {
      return Status::InvalidArgument(
          "unknown or mistyped step member \"" + key + "\"");
    }
  }
  HYPDB_ASSIGN_OR_RETURN(
      ServiceReport report,
      service_->AdvanceSession(session, stage->string_value(), context,
                               submit));
  // The "report" stage is the full analysis: answer with the same body
  // /v1/analyze serves (digest-comparable by any client).
  if (stage->string_value() == "report" || stage->string_value() == "run") {
    return ToJson(report);
  }
  return SessionStageToJson(report);
}

Reply HypDbHandlers::SessionInspect(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t session, IdParam(params, "session"));
  HYPDB_ASSIGN_OR_RETURN(SessionInfo info,
                         service_->InspectSession(session));
  JsonValue out = ToJson(info);
  if (info.complete) {
    HYPDB_ASSIGN_OR_RETURN(ServiceReport snapshot,
                           service_->SessionSnapshot(session));
    out.Set("report", ToJson(snapshot));
  }
  return out;
}

Reply HypDbHandlers::SessionClose(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t session, IdParam(params, "session"));
  HYPDB_RETURN_IF_ERROR(service_->CloseSession(session));
  JsonValue out = JsonValue::MakeObject();
  out.Set("session", JsonValue::Int(static_cast<int64_t>(session)));
  out.Set("closed", JsonValue::Bool(true));
  return out;
}

Reply HypDbHandlers::SessionList(const JsonValue&) {
  JsonValue out = JsonValue::MakeArray();
  for (const SessionInfo& info : service_->Sessions()) {
    out.Append(ToJson(info));
  }
  return out;
}

Reply HypDbHandlers::Cancel(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t ticket, IdParam(params, "ticket"));
  if (!service_->Cancel(ticket)) {
    if (service_->Done(ticket)) {
      return Status::FailedPrecondition(
          "request " + std::to_string(ticket) +
          " already finished (or is unknown); nothing to cancel");
    }
    return Status::FailedPrecondition(
        "request " + std::to_string(ticket) +
        " is already running; in-flight work is not aborted");
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ticket", JsonValue::Int(static_cast<int64_t>(ticket)));
  out.Set("cancelled", JsonValue::Bool(true));
  return out;
}

Reply HypDbHandlers::Trace(const JsonValue& params) {
  HYPDB_ASSIGN_OR_RETURN(uint64_t ticket, IdParam(params, "ticket"));
  const JsonValue* format = params.Find("format");
  if (format != nullptr &&
      (!format->is_string() || (format->string_value() != "chrome" &&
                                format->string_value() != "raw"))) {
    return Status::InvalidArgument(
        "trace \"format\" must be \"chrome\" or \"raw\"");
  }
  HYPDB_ASSIGN_OR_RETURN(RequestStats stats,
                         service_->RequestTrace(ticket));
  if (format != nullptr && format->string_value() == "raw") {
    return ToJson(stats);
  }
  return ChromeTraceJson(stats);
}

Reply HypDbHandlers::Call(const JsonValue& params) {
  const JsonValue* cmd = params.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return Status::InvalidArgument("expected a string \"cmd\" member (" +
                                   VerbList() + ")");
  }
  const Command* command = FindCommand(cmd->string_value());
  if (command == nullptr) {
    return Status::InvalidArgument("unknown cmd \"" + cmd->string_value() +
                                   "\" (expected " + VerbList() + ")");
  }
  return (this->*command->run)(params);
}

void HypDbHandlers::Count(Route route, int status, double seconds) const {
  RouteMetrics& m = routes_[route];
  (status >= 500   ? m.server_error
   : status >= 400 ? m.client_error
                   : m.ok)
      .Add();
  m.latency.Observe(seconds);
}

HttpResponse HypDbHandlers::HandleHttp(const HttpRequest& request) {
  Stopwatch watch;
  const size_t question = request.target.find('?');
  const std::string path = request.target.substr(0, question);
  const std::string query =
      question == std::string::npos ? "" : request.target.substr(question + 1);
  // The dispatched row, else the first whose path matches.
  const Command* known = nullptr;
  Reply reply = [&]() -> Reply {
    std::string methods;  // what the matched path accepts
    for (const Command& c : Commands()) {
      if (c.method == nullptr) continue;
      const std::string_view pattern = c.path;
      const size_t declared = pattern.find('?');
      JsonValue bound = JsonValue::MakeObject();
      if (!MatchPath(pattern.substr(0, declared), path, &bound)) continue;
      if (request.method != c.method) {
        if (known == nullptr) known = &c;
        methods += (methods.empty() ? "" : " or ") + std::string(c.method);
        continue;
      }
      known = &c;
      if (declared != std::string_view::npos) {
        BindQuery(std::string(pattern.substr(declared + 1)), query, &bound);
      }
      // POST bodies are the params; an empty body is an empty object.
      JsonValue params = JsonValue::MakeObject();
      if (request.method == "POST" && !request.body.empty()) {
        HYPDB_ASSIGN_OR_RETURN(params, ParseJson(request.body));
        if (!params.is_object()) {
          return Status::InvalidArgument(
              "request body must be a JSON object");
        }
      }
      for (auto& [key, value] : bound.members()) {
        const JsonValue* given = params.Find(key);
        if (given != nullptr && *given != value) {
          return Status::InvalidArgument("body \"" + key +
                                         "\" does not match the URL " + path);
        }
        params.Set(key, std::move(value));
      }
      return (this->*c.run)(params);
    }
    if (known != nullptr) {
      return Status::InvalidArgument("use " + methods + " " + path);
    }
    return Status::NotFound("no route for " + request.method + " " + path);
  }();

  HttpResponse response;
  response.status = reply.status;
  if (reply.body.is_string()) {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = reply.body.string_value();
  } else {
    Stopwatch serialize;
    response.body = SerializeJson(reply.body);
    serialize_.Observe(serialize.ElapsedSeconds());
  }
  // Count after the body is built: a /metrics scrape never includes
  // itself, so a client can assert exact counts against what it sent.
  Count(known != nullptr ? known->route : kRouteOther, response.status,
        watch.ElapsedSeconds());
  return response;
}

std::string HypDbHandlers::HandleLine(const std::string& line) {
  Stopwatch watch;
  StatusOr<JsonValue> params = ParseJson(line);
  Reply reply = params.ok() ? Call(*params) : Reply(params.status());
  const bool ok = reply.status < 400;
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::Bool(ok));
  out.Set(ok ? "result" : "error", std::move(reply.body));
  Count(kRouteLine, reply.status, watch.ElapsedSeconds());
  Stopwatch serialize;
  std::string text = SerializeJson(out);
  serialize_.Observe(serialize.ElapsedSeconds());
  return text;
}

StatusOr<JsonValue> ParseReplLine(const std::string& line) {
  // REPL-only spellings of two verbs.
  static constexpr struct {
    const char* word;
    const char* verb;
    const char* args;
  } kAliases[] = {{"load", "register", "name csv"},
                  {"gen", "register", "name generator"},
                  {"close", "session_close", "#session"}};
  std::istringstream in(line);
  std::string word;
  in >> word;
  JsonValue params = JsonValue::MakeObject();
  params.Set("cmd", JsonValue::Str(word));
  const char* args = nullptr;
  for (const auto& alias : kAliases) {
    if (word == alias.word) {
      params.Set("cmd", JsonValue::Str(alias.verb));
      args = alias.args;
    }
  }
  for (const HypDbHandlers::Command& c : HypDbHandlers::Commands()) {
    if (word == c.verb) args = c.repl;
  }
  if (args == nullptr) return params;  // Call names the unknown verb
  std::string usage = word;
  for (const std::string& spec : Split(args, ' ')) {
    if (spec.empty()) continue;
    const bool marked = !std::isalpha(static_cast<unsigned char>(spec[0]));
    const std::string key = marked ? spec.substr(1) : spec;
    usage += " <" + key + ">";
    if (spec[0] == '*') {
      std::string rest;
      std::getline(in, rest);
      rest = Trim(rest);
      if (!rest.empty()) params.Set(key, JsonValue::Str(rest));
    } else if (spec[0] == '+') {
      JsonValue rows = JsonValue::MakeArray();
      for (std::string token; in >> token;) {
        JsonValue row = JsonValue::MakeArray();
        for (const std::string& label : Split(token, ',')) {
          row.Append(JsonValue::Str(label));
        }
        rows.Append(std::move(row));
      }
      if (!rows.array().empty()) params.Set(key, std::move(rows));
    } else if (std::string token; in >> token) {
      Bind(spec, token, &params);
    }
  }
  if (std::string extra; in >> extra) {
    return Status::InvalidArgument("unexpected argument '" + extra +
                                   "' (usage: " + usage + ")");
  }
  return params;
}

std::string HypDbHandlers::HandleRepl(const std::string& line) {
  if (Trim(line).empty()) return "";
  StatusOr<JsonValue> params = ParseReplLine(line);
  const Reply reply = params.ok() ? Call(*params) : Reply(params.status());
  if (reply.status >= 400) return "error: " + SerializeJson(reply.body) + "\n";
  if (reply.body.is_string()) return reply.body.string_value();
  const JsonValue* rendered = reply.body.Find("rendered");
  if (rendered != nullptr) {
    return rendered->string_value() +
           "service: " + SerializeJson(*reply.body.Find("stats")) + "\n";
  }
  return SerializeJson(reply.body) + "\n";
}

void HypDbHandlers::RegisterMetrics(MetricsRegistry* registry) const {
  static const char* const kRouteNames[kNumRoutes] = {
      "healthz",  "metrics", "stats",  "datasets", "analyze", "submit",
      "requests", "sessions", "ingest", "line",    "other"};
  for (int r = 0; r < kNumRoutes; ++r) {
    const std::string route = kRouteNames[r];
    registry->RegisterCounter(
        "hypdb_http_requests_total",
        "Requests handled, by route and status class.",
        {{"route", route}, {"status", "2xx"}}, &routes_[r].ok);
    registry->RegisterCounter("hypdb_http_requests_total",
                              "Requests handled, by route and status class.",
                              {{"route", route}, {"status", "4xx"}},
                              &routes_[r].client_error);
    registry->RegisterCounter("hypdb_http_requests_total",
                              "Requests handled, by route and status class.",
                              {{"route", route}, {"status", "5xx"}},
                              &routes_[r].server_error);
    registry->RegisterHistogram("hypdb_http_request_seconds",
                                "Handler wall time, by route.",
                                {{"route", route}}, &routes_[r].latency);
  }
  registry->RegisterHistogram(
      "hypdb_http_serialize_seconds",
      "Response serialization time (not part of the request trace: "
      "serialization cannot appear inside its own output).",
      {}, &serialize_);
}

}  // namespace net
}  // namespace hypdb
