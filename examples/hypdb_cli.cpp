// hypdb_cli: analyze Listing-1 SQL queries, one-shot or as a service.
//
// One-shot mode — analyze one query against a CSV file:
//
//   $ ./examples/hypdb_cli data.csv \
//       "SELECT Carrier, avg(Delayed) FROM data GROUP BY Carrier"
//
// Flags (after the two positional arguments):
//   --alpha=0.05        significance level (default 0.01)
//   --no-mediators      skip direct-effect analysis
//   --bounds            also print the effect interval over all subsets
//                       of MB(T) (the Sec. 4 bounds extension)
//   --threads=N         worker threads for data scans (0 = all cores)
//   --morsel=N          rows per scan morsel (work unit handed to a
//                       scan worker; results identical for any value)
//   --no-simd           force the scalar scan kernels (bit-identical)
//
// Service mode (REPL) — a long-lived HypDbService driven line-by-line
// from stdin, sharing discovery results and contingency caches across
// queries and running them on a worker pool. Each line is a verb of the
// command table in net/hypdb_handlers.cpp (HypDbHandlers::Commands())
// and its positional words; it prints the JSON the wire serves for that
// verb, and a report as its rendered text plus a `service:` footer:
//
//   $ ./examples/hypdb_cli --serve [--workers=N] [--threads=N] [--alpha=A]
//   hypdb> load flights /data/flights.csv      # register a CSV
//   hypdb> gen berkeley berkeley               # or a built-in generator
//   hypdb> append flights UA,COS,1 DL,ROC,0    # ingest rows (one comma-
//          separated token per row, schema column order; no epoch bump —
//          caches are delta-patched, not invalidated)
//   hypdb> analyze flights SELECT Carrier, avg(Delayed) FROM flights
//          WHERE Airport IN ('COS','ROC') GROUP BY Carrier
//   hypdb> submit flights SELECT ...           # async
//   {"ticket":3}
//   hypdb> poll 3                              # done yet? (never claims)
//   hypdb> wait 3                              # block + print the report
//   hypdb> cancel 3                            # drop it if still queued
//   hypdb> session flights SELECT Carrier, avg(Delayed) FROM flights
//          GROUP BY Carrier                    # staged "think twice" loop
//   {"session":1,...}
//   hypdb> step 1 detect                       # first bias verdicts only
//   hypdb> step 1 explain 0                    # drill into context 0
//   hypdb> step 1 report                       # run the rest, full report
//   hypdb> sessions                            # live sessions + stages
//   hypdb> close 1                             # delete the session
//   hypdb> stats                               # cache/engine/worker stats
//   hypdb> datasets                            # what is registered
//   hypdb> metrics prometheus                  # the /metrics exposition
//   hypdb> quit
//
// Network mode — the same HypDbService behind the src/net wire protocol
// (HTTP/1.1 + line-JSON on one port; the same command table routes both,
// see net/hypdb_handlers.h):
//
//   $ ./examples/hypdb_cli --listen=8080 [--host=0.0.0.0] [--workers=N] \
//       [--stats-log=requests.jsonl]
//   $ curl -s localhost:8080/healthz
//   $ curl -s localhost:8080/metrics          # Prometheus; ?format=json
//
// --stats-log appends one JSON line per completed request (including
// cancels, deadline misses and failures) with its status code and the
// full RequestStats trace — the service-side flight recorder.
//
// --trace=N sets the engine-deep trace sampling level for requests that
// do not choose their own (0 off, 1 stage/kernel/cache spans — the
// default, 2 adds per-CI-test and per-morsel events). Completed traces
// are retained and served by GET /v1/requests/{id}/trace, the line-JSON
// "trace" verb, and the REPL `trace <ticket>` command (a Chrome/Perfetto
// JSON document — load it in chrome://tracing or ui.perfetto.dev).
//
// --slow-query-log=PATH,SECONDS is the slow-query flight recorder: only
// requests whose queue+run time meets the threshold are appended to PATH
// (same JSONL record as --stats-log, including the engine-deep events),
// so the log stays small enough to keep on all the time.
//
// Re-`load`ing a name invalidates caches.
//
// With no arguments, runs a built-in demo on the Berkeley dataset.

#include <charconv>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "dataframe/csv.h"
#include "datagen/berkeley_data.h"
#include "net/http_server.h"
#include "net/hypdb_handlers.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "util/stats_log.h"
#include "util/string_util.h"

using namespace hypdb;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Numeric flag values parse strictly: the whole value must be a number
// in [lo, hi], otherwise the flag is named and main exits 1.
template <typename T>
bool ParseFlagValue(const std::string& flag, T lo, T hi, T* out) {
  const size_t eq = flag.find('=');
  const std::string text = flag.substr(eq + 1);
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "invalid %s value '%s'\n",
                 flag.substr(0, eq).c_str(), text.c_str());
    return false;
  }
  *out = value;
  return true;
}

// The REPL: each line is answered through the handlers' command table,
// exactly as the wire answers it. Returns the process exit code.
int RunServe(const HypDbServiceOptions& options) {
  HypDbService service(options);
  net::HypDbHandlers handlers(&service);
  std::printf("HypDB service REPL — %d workers. Commands: %s (aliases: "
              "load, gen, close), quit\n",
              service.num_workers(), net::HypDbHandlers::VerbList().c_str());
  std::string line;
  while (std::printf("hypdb> "), std::fflush(stdout),
         std::getline(std::cin, line) && Trim(line) != "quit") {
    std::fputs(handlers.HandleRepl(line).c_str(), stdout);
  }
  return 0;
}

// Network mode: the same service behind the src/net wire protocol, until
// SIGINT/SIGTERM. Clean shutdown (server stopped, workers joined) so CI
// can assert a zero exit from `kill -TERM`.
volatile std::sig_atomic_t g_stop_listening = 0;

void HandleStopSignal(int) { g_stop_listening = 1; }

int RunListen(const HypDbServiceOptions& options, const std::string& host,
              int port) {
  HypDbService service(options);
  net::HypDbHandlers handlers(&service);
  net::HttpServerOptions server_options;
  server_options.host = host;
  server_options.port = port;
  net::HttpServer server(
      [&handlers](const net::HttpRequest& r) {
        return handlers.HandleHttp(r);
      },
      [&handlers](const std::string& line) {
        return handlers.HandleLine(line);
      },
      server_options);
  // One scrape surface for all layers: handlers (per-route counters) and
  // transport (connections/bytes) join the service registry, so
  // GET /metrics covers engine -> scheduler -> HTTP in a single pass.
  handlers.RegisterMetrics(&service.metrics_registry());
  server.RegisterMetrics(&service.metrics_registry());
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("hypdb listening on %s:%d — HTTP/1.1 + line-JSON, %d "
              "workers (Ctrl-C to stop)\n",
              host.c_str(), server.port(), service.num_workers());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_listening) {
    timespec tick{0, 100 * 1000 * 1000};  // 100ms
    nanosleep(&tick, nullptr);
  }
  std::printf("shutting down\n");
  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HypDbOptions options;
  bool bounds = false;
  bool serve = false;
  int listen_port = -1;  // >= 0 once --listen given (0 = ephemeral)
  std::string host = "127.0.0.1";
  std::string stats_log_path;
  std::string slow_log_spec;
  int trace_level = 1;
  bool trace_flag_given = false;
  int workers = 0;

  // Flags may appear anywhere; positionals are collected in order.
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--alpha=", 0) == 0) {
      if (!ParseFlagValue(flag, 0.0, 1.0, &options.alpha)) return 1;
    } else if (flag == "--no-mediators") {
      options.discover_mediators = false;
    } else if (flag == "--bounds") {
      bounds = true;
    } else if (flag.rfind("--threads=", 0) == 0) {
      if (!ParseFlagValue(flag, 0, INT_MAX, &options.engine.scan_threads)) {
        return 1;
      }
    } else if (flag.rfind("--morsel=", 0) == 0) {
      if (!ParseFlagValue(flag, int64_t{1}, INT64_MAX,
                          &options.engine.scan_morsel_rows)) {
        return 1;
      }
    } else if (flag == "--no-simd") {
      options.engine.scan_simd = false;
    } else if (flag.rfind("--workers=", 0) == 0) {
      if (!ParseFlagValue(flag, 0, INT_MAX, &workers)) return 1;
    } else if (flag == "--serve") {
      serve = true;
    } else if (flag.rfind("--listen=", 0) == 0) {
      if (!ParseFlagValue(flag, 0, 65535, &listen_port)) return 1;
    } else if (flag.rfind("--host=", 0) == 0) {
      host = flag.c_str() + 7;
    } else if (flag.rfind("--stats-log=", 0) == 0) {
      stats_log_path = flag.c_str() + 12;
    } else if (flag.rfind("--slow-query-log=", 0) == 0) {
      slow_log_spec = flag.c_str() + 17;
    } else if (flag.rfind("--trace=", 0) == 0) {
      if (!ParseFlagValue(flag, 0, 2, &trace_level)) return 1;
      trace_flag_given = true;
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    } else {
      positional.push_back(flag);
    }
  }
  const bool listen = listen_port >= 0;

  // Mode/flag consistency: silently ignored arguments mislead.
  if (serve && listen) {
    std::fprintf(stderr, "--serve (stdin REPL) and --listen (TCP) are "
                 "mutually exclusive\n");
    return 1;
  }
  if ((serve || listen) && !positional.empty()) {
    std::fprintf(stderr, "service modes take no positional arguments "
                 "(register data with 'load'/'gen' or POST /v1/datasets)\n");
    return 1;
  }
  if ((serve || listen) && bounds) {
    std::fprintf(stderr, "--bounds is one-shot only\n");
    return 1;
  }
  if (!serve && !listen && workers != 0) {
    std::fprintf(stderr, "--workers requires --serve or --listen\n");
    return 1;
  }
  if (!serve && !listen && !stats_log_path.empty()) {
    std::fprintf(stderr, "--stats-log requires --serve or --listen\n");
    return 1;
  }
  if (!serve && !listen && !slow_log_spec.empty()) {
    std::fprintf(stderr, "--slow-query-log requires --serve or --listen\n");
    return 1;
  }
  if (!serve && !listen && trace_flag_given) {
    std::fprintf(stderr, "--trace requires --serve or --listen\n");
    return 1;
  }
  if (!listen && host != "127.0.0.1") {
    std::fprintf(stderr, "--host requires --listen\n");
    return 1;
  }
  if (!serve && positional.size() > 2) {
    std::fprintf(stderr, "unexpected argument %s\n", positional[2].c_str());
    return 1;
  }

  if (serve || listen) {
    HypDbServiceOptions service_options;
    service_options.num_workers = workers;
    service_options.analysis = options;
    service_options.trace_level = trace_level;
    // Declared before the service (inside Run*) so the scheduler's
    // on_complete callback never outlives the logs it writes to — and so
    // their destructors (which flush and close) run after the workers
    // have joined on a clean SIGTERM shutdown.
    std::unique_ptr<StatsLog> stats_log;
    std::unique_ptr<StatsLog> slow_log;
    double slow_threshold = 0.0;
    if (!stats_log_path.empty()) {
      auto opened = StatsLog::Open(stats_log_path);
      if (!opened.ok()) return Fail(opened.status());
      stats_log = std::move(*opened);
    }
    if (!slow_log_spec.empty()) {
      const size_t comma = slow_log_spec.rfind(',');
      if (comma == std::string::npos || comma == 0) {
        std::fprintf(stderr,
                     "--slow-query-log wants PATH,SECONDS "
                     "(e.g. --slow-query-log=slow.jsonl,0.5)\n");
        return 1;
      }
      const std::string seconds = slow_log_spec.substr(comma + 1);
      char* end = nullptr;
      slow_threshold = std::strtod(seconds.c_str(), &end);
      if (seconds.empty() || *end != '\0' || !(slow_threshold > 0.0)) {
        std::fprintf(stderr, "--slow-query-log threshold must be a "
                     "positive number of seconds\n");
        return 1;
      }
      auto opened = StatsLog::Open(slow_log_spec.substr(0, comma));
      if (!opened.ok()) return Fail(opened.status());
      slow_log = std::move(*opened);
    }
    if (stats_log != nullptr || slow_log != nullptr) {
      // One JSONL record per completed request (success, error, cancel,
      // deadline), carrying the same RequestStats JSON the wire serves —
      // including the engine-deep trace events when the request ran
      // traced. The slow-query log gets only the over-threshold subset.
      service_options.on_complete =
          [log = stats_log.get(), slow = slow_log.get(), slow_threshold](
              const RequestStats& stats, const Status& status) {
            net::JsonValue record = net::JsonValue::MakeObject();
            record.Set("ts", net::JsonValue::Int(
                                 static_cast<int64_t>(std::time(nullptr))));
            record.Set("code",
                       net::JsonValue::Str(StatusCodeName(status.code())));
            if (!status.ok()) {
              record.Set("message", net::JsonValue::Str(status.message()));
            }
            record.Set("stats", net::ToJson(stats));
            const std::string line = net::SerializeJson(record);
            if (log != nullptr) log->WriteLine(line);
            if (slow != nullptr &&
                stats.queue_seconds + stats.run_seconds >= slow_threshold) {
              slow->WriteLine(line);
            }
          };
    }
    return serve ? RunServe(service_options)
                 : RunListen(service_options, host, listen_port);
  }

  TablePtr table;
  std::string sql;
  if (positional.size() < 2) {
    std::printf("usage: %s <data.csv> \"<SELECT ...>\" [--alpha=A] "
                "[--no-mediators] [--bounds] [--threads=N] [--morsel=N] "
                "[--no-simd]\n"
                "       %s --serve [--workers=N] [--threads=N] [--alpha=A] "
                "[--stats-log=PATH] [--trace=0|1|2] "
                "[--slow-query-log=PATH,SECONDS]\n"
                "       %s --listen=PORT [--host=ADDR] [--workers=N] "
                "[--threads=N] [--alpha=A] [--stats-log=PATH] "
                "[--trace=0|1|2] [--slow-query-log=PATH,SECONDS]\n"
                "\n",
                argv[0], argv[0], argv[0]);
    std::printf("no arguments given — running the built-in Berkeley demo\n\n");
    auto demo = GenerateBerkeleyData();
    if (!demo.ok()) return Fail(demo.status());
    table = MakeTable(std::move(*demo));
    sql = "SELECT Gender, avg(Accepted) FROM Berkeley GROUP BY Gender";
  } else {
    auto csv = ReadCsv(positional[0]);
    if (!csv.ok()) return Fail(csv.status());
    table = MakeTable(std::move(*csv));
    sql = positional[1];
  }

  HypDb db(table, options);
  auto report = db.AnalyzeSql(sql);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n", RenderReport(*report).c_str());

  if (bounds) {
    auto parsed = ParseAggQuery(sql);
    if (!parsed.ok()) return Fail(parsed.status());
    auto interval = db.BoundEffects(*parsed);
    if (!interval.ok()) return Fail(interval.status());
    std::printf("-- Effect bounds over all adjustment subsets of MB(T) --\n");
    for (size_t o = 0; o < interval->lower.size(); ++o) {
      std::printf("outcome %zu: diff(%s - %s) in [%.4f, %.4f]%s\n", o,
                  interval->t1.c_str(), interval->t0.c_str(),
                  interval->lower[o], interval->upper[o],
                  interval->SignIdentified(static_cast<int>(o))
                      ? "  (sign identified)"
                      : "");
    }
    std::printf("(%zu adjustment sets evaluated%s)\n",
                interval->subsets.size(),
                interval->truncated ? ", truncated" : "");
  }
  return 0;
}
