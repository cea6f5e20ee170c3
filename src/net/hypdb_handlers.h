// The HypDbService API as one command table (HypDbHandlers::Commands()
// in hypdb_handlers.cpp). Each row names a verb — the line-JSON "cmd"
// and the REPL word — with its HTTP method and path, its
// hypdb_http_requests_total route label, and one handler from a params
// object to (HTTP status, JSON body). HTTP, line-JSON and the
// hypdb_cli REPL only decode a request into params and encode the
// reply, so the three surfaces cannot drift. Every handler maps
// one-to-one onto a HypDbService call, so the shard pools and discovery
// coalescing built for in-process callers apply unchanged to remote
// traffic.
// README.md "API" renders the table with each verb's body.
//
// Errors are ErrorToJson bodies ({"code","message"}) with the HTTP
// status mapped from the Status code; expired/invalidated sessions
// answer 410 Gone, never-issued session ids 404. A path no row matches
// answers 404, a known path with the wrong method 400. The line-JSON
// protocol carries the same payloads in an {"ok":bool,
// "result"|"error": ...} envelope.

#ifndef HYPDB_NET_HYPDB_HANDLERS_H_
#define HYPDB_NET_HYPDB_HANDLERS_H_

#include <span>
#include <string>

#include "net/http_server.h"
#include "net/json.h"
#include "service/hypdb_service.h"

namespace hypdb {
namespace net {

/// What every surface serves for one command: the HTTP status and the
/// JSON body (an ErrorToJson body when status >= 400). A string body is
/// a text rendering (the Prometheus exposition): HTTP serves it raw as
/// text/plain, the REPL prints it, line-JSON carries it as a string.
struct Reply {
  Reply(JsonValue body, int status = 200)
      : status(status), body(std::move(body)) {}
  Reply(const Status& error);

  int status;
  JsonValue body;
};

/// Decodes one REPL line into its verb's params: the first word is the
/// verb (or an alias: `load`/`gen` register a CSV/generator, `close` is
/// session_close) and the rest are the row's positional words, e.g.
/// `step 1 explain 0` -> {"cmd":"step","session":1,"stage":"explain",
/// "context":0}. An unknown word yields just {"cmd": word}.
StatusOr<JsonValue> ParseReplLine(const std::string& line);

/// Fan-in from every surface onto one HypDbService. Thread-safe: the
/// service is, and the handlers' only mutable state is lock-free route
/// metrics.
class HypDbHandlers {
 public:
  /// Stable route classes for metric labels — bounded cardinality, so a
  /// path scanner probing random URLs cannot mint unbounded series
  /// (every path no row matches lands in kRouteOther).
  enum Route {
    kRouteHealthz,
    kRouteMetrics,
    kRouteStats,
    kRouteDatasets,
    kRouteAnalyze,
    kRouteSubmit,
    kRouteRequests,
    kRouteSessions,
    kRouteIngest,
    kRouteLine,
    kRouteOther,
    kNumRoutes
  };

  /// One row of the command table. `path` segments written {key} bind
  /// into params[key] ({#key}: as an integer when the segment is one);
  /// a "?key" suffix declares a query parameter bound the same way,
  /// "?key=value" one with a default. `repl` names the REPL's positional
  /// words: "#key" an integer, "*key" the rest of the line, "+key" the
  /// remaining words as comma-separated rows.
  struct Command {
    const char* verb;
    const char* method;  // nullptr: line-JSON and REPL only
    const char* path;
    Route route;
    Reply (HypDbHandlers::*run)(const JsonValue& params);
    const char* repl;
  };
  static std::span<const Command> Commands();
  /// The table's verbs as "health|metrics|...", for usage messages.
  static std::string VerbList();

  explicit HypDbHandlers(HypDbService* service) : service_(service) {}

  /// The HttpServer HTTP callback. Wraps the dispatch with per-route
  /// status-class counters and a latency histogram; the counters are
  /// bumped AFTER the response body is built, so a GET /metrics scrape
  /// never counts itself in its own body — which is what lets CI assert
  /// exact counter consistency against the requests it issued.
  HttpResponse HandleHttp(const HttpRequest& request);
  /// The HttpServer line-JSON callback: one request line in, one
  /// response line out (envelope documented above). Counted under the
  /// "line" route.
  std::string HandleLine(const std::string& line);
  /// One REPL line in (ParseReplLine), the text to print out: a report
  /// as its rendered text plus a `service:` footer, an error as
  /// `error: {...}`, any other reply as its JSON. Not counted in the
  /// route metrics.
  std::string HandleRepl(const std::string& line);
  /// Runs the row named by params["cmd"] — the line-JSON and REPL
  /// dispatch.
  Reply Call(const JsonValue& params);

  /// Registers hypdb_http_requests_total{route,status},
  /// hypdb_http_request_seconds{route} and hypdb_http_serialize_seconds.
  /// The handlers must outlive every scrape of `registry`.
  void RegisterMetrics(MetricsRegistry* registry) const;

 private:
  /// Per-route status-class counters + latency. Plain C array member:
  /// the atomics make RouteMetrics immovable.
  struct RouteMetrics {
    Counter ok;            // 2xx/3xx
    Counter client_error;  // 4xx
    Counter server_error;  // 5xx
    LatencyHistogram latency;
  };
  void Count(Route route, int status, double seconds) const;

  // The table's handlers, one per verb.
  Reply Health(const JsonValue& params);
  /// JSON unless params["format"] names another rendering, which is the
  /// Prometheus text (GET /metrics defaults to it); the text render is
  /// timed into hypdb_http_serialize_seconds.
  Reply Metrics(const JsonValue& params);
  Reply Stats(const JsonValue& params);
  Reply Datasets(const JsonValue& params);
  Reply Register(const JsonValue& params);
  Reply Append(const JsonValue& params);
  Reply Analyze(const JsonValue& params);
  Reply Submit(const JsonValue& params);
  Reply Poll(const JsonValue& params);
  Reply Wait(const JsonValue& params);
  Reply Cancel(const JsonValue& params);
  /// The retained trace of a completed request, rendered as a Chrome
  /// trace document (the default) or the raw RequestStats body.
  Reply Trace(const JsonValue& params);
  Reply SessionCreate(const JsonValue& params);
  Reply SessionStep(const JsonValue& params);
  Reply SessionList(const JsonValue& params);
  Reply SessionInspect(const JsonValue& params);
  Reply SessionClose(const JsonValue& params);

  HypDbService* service_;
  mutable RouteMetrics routes_[kNumRoutes];
  /// JSON serialization and text rendering time (serialization cannot
  /// appear as a trace span inside its own output).
  mutable LatencyHistogram serialize_;
};

}  // namespace net
}  // namespace hypdb

#endif  // HYPDB_NET_HYPDB_HANDLERS_H_
