// HypDbService: HypDB as a long-lived, concurrent analysis service.
//
// The one-shot library usage — construct a HypDb around a table, call
// Analyze() — re-loads data and re-discovers covariates per call. The
// service turns that into the paper's interactive "think twice about your
// group-by query" workflow at production shape:
//
//   HypDbService service;                      // workers = hardware
//   service.RegisterTable("flights", table);   // load once
//   auto r = service.AnalyzeSql("flights",     // synchronous facade
//       "SELECT Carrier, avg(Delayed) FROM flights GROUP BY Carrier");
//   uint64_t t = service.Submit({...});        // async submit/poll
//   ... service.Done(t) ... service.Wait(t);
//
// Composition (each part is its own module under src/service/):
//  * DatasetRegistry — named tables + per-dataset pools of thread-safe
//    CachingCountEngines sharded by subpopulation signature;
//  * DiscoveryCache  — covariate/mediator discovery computed once per
//    DiscoveryKey, with coalescing of concurrent twins and invalidation
//    on dataset re-registration;
//  * SessionManager  — the lifecycle of staged analysis sessions;
//  * QueryScheduler  — a FIFO worker pool of closures behind tickets.
// One request path: an analyze and a new session both go through Bind(),
// which takes the dataset snapshot, binds the query, draws the engines
// at the snapshot's watermark from the registry's shard pool and routes
// discovery through the cache. An analyze then runs every stage in one
// scheduler task; a session keeps its bound state and runs one stage per
// task.
// Reports come back as ServiceReport: the ordinary HypDbReport plus
// RequestStats (queue wait, cache reuse, shared-engine work deltas).
// Reports are bit-identical to cold serial execution by construction —
// see service/report_digest.h for the checked invariant.

#ifndef HYPDB_SERVICE_HYPDB_SERVICE_H_
#define HYPDB_SERVICE_HYPDB_SERVICE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/dataset_registry.h"
#include "service/discovery_cache.h"
#include "service/query_scheduler.h"
#include "service/request.h"
#include "service/session_manager.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace hypdb {

struct HypDbServiceOptions {
  /// Worker threads; 0 resolves to hardware_concurrency.
  int num_workers = 0;
  /// Analysis options for requests without per-request overrides. Also
  /// configures the shared shard engines (engine member).
  HypDbOptions analysis;
  /// Shard engines kept per dataset, the full-table shard included.
  int max_shards_per_dataset = 32;
  /// Cached discovery reports kept.
  int64_t max_discovery_entries = 256;
  /// Discovery staleness bound under appends
  /// (DiscoveryCacheOptions::refresh_rows_fraction): a cached discovery
  /// computed at watermark W is recomputed at the next lookup once the
  /// watermark exceeds W * (1 + fraction). 0.0 = any append retires it.
  double refresh_rows_fraction = 0.0;
  /// Staged analysis sessions kept live (LRU-evicted beyond this).
  int64_t max_sessions = 64;
  /// Idle seconds before a session expires; <= 0 disables expiry.
  double session_ttl_seconds = 600.0;
  /// Default trace sampling level for requests without a per-request
  /// `trace_level` (SubmitOptions / wire key / CLI --trace): 0 off,
  /// 1 stage spans + kernel scans + cache decisions (the default; gated
  /// ≤3% qps by bench_trace_overhead), 2 adds per-CI-test and
  /// per-morsel events.
  int trace_level = 1;
  /// Completed request traces retained for GET /v1/requests/{id}/trace
  /// (results are claim-once, so the trace outlives the claim here).
  /// Oldest dropped beyond the cap; 0 disables retention.
  int64_t trace_retention = 256;
  /// Per-request completion observer forwarded to the scheduler (see
  /// QuerySchedulerOptions::on_complete) — how `--stats-log` and the
  /// slow-query flight recorder hook in without the service depending on
  /// any serialization layer. The stats already carry the harvested
  /// trace events when the request ran at trace_level > 0.
  std::function<void(const RequestStats&, const Status&)> on_complete;
};

/// Thread-safe: any number of client threads may register datasets and
/// submit/await queries concurrently.
class HypDbService {
 public:
  explicit HypDbService(HypDbServiceOptions options = {});

  /// Registers (or replaces) a dataset. Replacement invalidates the
  /// dataset's cached discoveries and engine shards. Returns the epoch.
  int64_t RegisterTable(const std::string& name, TablePtr table);
  StatusOr<int64_t> RegisterCsv(const std::string& name,
                                const std::string& path);
  StatusOr<TablePtr> Dataset(const std::string& name) const;
  std::vector<DatasetInfo> Datasets() const;

  /// Appends rows (one label per column, schema order) to a registered
  /// dataset. Unlike re-registration this does NOT bump the epoch:
  /// sessions, shard caches and cached discoveries survive — the next
  /// generation of each shard delta-patches its summaries by scanning
  /// only the appended rows, and discoveries refresh lazily under
  /// refresh_rows_fraction. An append never waits for an analysis or a
  /// session stage.
  /// Returns the new watermark; NotFound for unknown datasets,
  /// InvalidArgument on arity mismatch (nothing is appended).
  StatusOr<int64_t> AppendRows(
      const std::string& name,
      const std::vector<std::vector<std::string>>& rows);

  /// Synchronous facade: submit + wait.
  StatusOr<ServiceReport> Analyze(AnalyzeRequest request);
  StatusOr<ServiceReport> AnalyzeSql(const std::string& dataset,
                                     const std::string& sql);

  /// Async API: Submit returns a ticket; Done polls; Wait blocks and
  /// claims the result (one Wait per ticket); Cancel drops still-queued
  /// requests, and for in-flight *session stage* jobs requests
  /// cooperative cancellation (kCancelled at the next stage boundary).
  /// Submit parses the SQL first: malformed SQL gets a ticket that is
  /// already done with the parser's error.
  uint64_t Submit(AnalyzeRequest request, SubmitOptions submit = {});
  bool Done(uint64_t ticket) const;
  StatusOr<ServiceReport> Wait(uint64_t ticket);
  bool Cancel(uint64_t ticket);

  /// --- staged analysis sessions (the "think twice" loop) -------------
  /// A session decomposes one analysis into independently invokable,
  /// idempotent stages over persisted state (core/analysis_session.h),
  /// wired into the shared infrastructure: its discovery goes through
  /// the DiscoveryCache, its population and per-context counts through
  /// the registry's shard engines, and each stage runs as a scheduler
  /// job (deadlines and cancellation apply). A session that outlives an
  /// append answers for the rows it bound: it counts through the shard
  /// generations at its bind watermark (DatasetRegistry::Pool).

  /// Creates a session for `request` (binding the query now, through the
  /// same Bind() as an analyze, so malformed queries fail here). The
  /// session dies with the dataset epoch: re-registration invalidates it
  /// (kGone afterwards).
  StatusOr<SessionInfo> CreateSession(const AnalyzeRequest& request);
  /// Runs one stage — "answers", "discover", "detect", "explain",
  /// "rewrite" (the latter two optionally for one `context`), or
  /// "report" (every remaining stage, canonical order). Synchronous
  /// facade over SubmitSessionStage + Wait. The returned report is the
  /// session's current snapshot; stats carry session_id/stage/
  /// stage_reused/session_complete.
  StatusOr<ServiceReport> AdvanceSession(uint64_t session_id,
                                         const std::string& stage,
                                         std::optional<int> context = {},
                                         SubmitOptions submit = {});
  /// Async flavor: the stage job's ticket (Wait/Done/Cancel as usual;
  /// Cancel on the running job takes effect at the next stage boundary).
  uint64_t SubmitSessionStage(uint64_t session_id, std::string stage,
                              std::optional<int> context = {},
                              SubmitOptions submit = {});
  StatusOr<SessionInfo> InspectSession(uint64_t session_id);
  /// The session's current report snapshot without running anything —
  /// the GET-side view (digest-comparable once the session is complete).
  StatusOr<ServiceReport> SessionSnapshot(uint64_t session_id);
  std::vector<SessionInfo> Sessions() const { return sessions_.List(); }
  /// Closes the session; kNotFound/kGone per the SessionManager rules.
  Status CloseSession(uint64_t session_id);
  int64_t num_sessions() const { return sessions_.size(); }

  /// The retained trace of a completed request: final stats including
  /// the harvested sub-stage events. Available after completion (even
  /// after Wait() claimed the result) until trace_retention pushes it
  /// out. kNotFound for unknown/expired tickets; kFailedPrecondition
  /// when the request ran with tracing off.
  StatusOr<RequestStats> RequestTrace(uint64_t ticket) const;

  /// Introspection.
  DiscoveryCacheStats discovery_stats() const { return discovery_.stats(); }
  StatusOr<CountEngineStats> engine_stats(const std::string& dataset) const {
    return registry_.EngineStats(dataset);
  }
  /// The dataset registry (shared engines, column stores). For benches,
  /// tests and operational tooling that inspect stores or shard engines
  /// directly; ordinary clients use the request API.
  DatasetRegistry& registry() { return registry_; }
  int num_workers() const { return scheduler_->num_workers(); }
  const HypDbServiceOptions& options() const { return options_; }

  /// --- observability -------------------------------------------------
  /// The service-wide registry behind GET /metrics: every subsystem's
  /// counters/histograms registered under stable hypdb_* names (see the
  /// README metric reference). Front-end objects (HttpServer, handlers)
  /// add their own metrics here post-construction. Scrapes are safe from
  /// any thread for the service's lifetime.
  MetricsRegistry& metrics_registry() { return metrics_; }
  double uptime_seconds() const { return uptime_.ElapsedSeconds(); }
  int64_t queue_depth() const { return scheduler_->queue_depth(); }
  const SchedulerMetrics& scheduler_metrics() const {
    return scheduler_->metrics();
  }
  const SessionManagerMetrics& session_metrics() const {
    return sessions_.metrics();
  }

 private:
  /// Registers every subsystem's metrics under the service registry.
  /// Called last in the constructor; all registered pointers are members
  /// of *this (or of subsystems *this owns), and metrics_ is declared
  /// first so it is destroyed last — nothing scrapes during teardown.
  void RegisterMetrics();

  /// A request bound to the shared pool at one watermark.
  struct Binding {
    int64_t epoch = 0;
    std::unique_ptr<AnalysisSession> session;
    /// The stats of the session's population engine before the session
    /// was created, so that an analyze's engine_delta covers the
    /// treatment census Create counts.
    CountEngineStats engine_before;
    std::shared_ptr<DiscoveryFlags> discovery;
  };
  /// The one bind of analyze and sessions: takes a snapshot of
  /// `request.dataset`, binds `query`, draws the population and
  /// per-context engines at the snapshot's watermark from
  /// DatasetRegistry::Pool, and routes the session's discovery through
  /// the DiscoveryCache, reporting reuse into Binding::discovery.
  StatusOr<Binding> Bind(const AnalyzeRequest& request,
                         const AggQuery& query);
  /// The body of an analyze job (runs on a scheduler worker).
  StatusOr<ServiceReport> RunAnalyze(const AnalyzeRequest& request,
                                     const AggQuery& query,
                                     RequestStats* stats);
  /// The body of a session stage job (runs on a scheduler worker).
  StatusOr<ServiceReport> RunSessionStage(
      uint64_t session_id, const std::string& stage,
      std::optional<int> context,
      const std::shared_ptr<std::atomic<bool>>& cancel_flag,
      RequestStats* stats);

  /// Bounded retention of completed requests' final stats (with their
  /// harvested trace events), keyed by ticket — what the trace export
  /// endpoint reads after the claim-once result is gone.
  class TraceStore {
   public:
    explicit TraceStore(int64_t cap) : cap_(cap) {}
    void Record(const RequestStats& stats);
    StatusOr<RequestStats> Get(uint64_t ticket) const;

   private:
    const int64_t cap_;
    mutable std::mutex mu_;
    std::map<uint64_t, RequestStats> by_ticket_;
    std::deque<uint64_t> order_;
  };

  // First member: registered metric pointers all outlive the registry.
  MetricsRegistry metrics_;
  /// Ingest accounting (hypdb_ingest_*): rows/batches are bumped on the
  /// append path here; the delta-patch side is aggregated
  /// from the registry's engine stats at scrape time.
  Counter ingest_rows_;
  Counter ingest_batches_;
  Stopwatch uptime_;
  HypDbServiceOptions options_;
  // Outlives the scheduler: workers publish into it via on_complete.
  TraceStore traces_;
  DatasetRegistry registry_;
  DiscoveryCache discovery_;
  mutable SessionManager sessions_;
  // Last member: workers touch registry_/discovery_/sessions_, so they
  // must be joined (scheduler destroyed) before those die.
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_HYPDB_SERVICE_H_
