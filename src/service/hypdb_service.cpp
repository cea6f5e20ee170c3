#include "service/hypdb_service.h"

#include "core/sql_parser.h"
#include "engine/groupby_kernel.h"
#include "util/build_info.h"
#include "util/trace.h"

namespace hypdb {
namespace {

DatasetRegistryOptions RegistryOptions(const HypDbServiceOptions& o) {
  DatasetRegistryOptions out;
  out.engine = o.analysis.engine;
  out.max_shards_per_dataset = o.max_shards_per_dataset;
  out.chunk_rows = o.chunk_rows;
  return out;
}

DiscoveryCacheOptions DiscoveryOptions(const HypDbServiceOptions& o) {
  DiscoveryCacheOptions out;
  out.max_entries = o.max_discovery_entries;
  out.refresh_rows_fraction = o.refresh_rows_fraction;
  return out;
}

QuerySchedulerOptions SchedulerOptions(const HypDbServiceOptions& o) {
  QuerySchedulerOptions out;
  out.num_workers = o.num_workers;
  out.default_trace_level = o.trace_level;
  out.on_complete = o.on_complete;
  return out;
}

SessionManagerOptions SessionOptions(const HypDbServiceOptions& o) {
  SessionManagerOptions out;
  out.max_sessions = o.max_sessions;
  out.ttl_seconds = o.session_ttl_seconds;
  return out;
}

}  // namespace

HypDbService::HypDbService(HypDbServiceOptions options)
    : options_(std::move(options)),
      traces_(options_.trace_retention),
      registry_(RegistryOptions(options_)),
      discovery_(DiscoveryOptions(options_)),
      sessions_(SessionOptions(options_)) {
  QuerySchedulerOptions sched = SchedulerOptions(options_);
  // Interpose on completion: retain the harvested trace (so the trace
  // endpoint can serve it after the claim-once result is gone), then
  // forward to the user's observer (stats log / flight recorder).
  sched.on_complete = [this](const RequestStats& stats,
                             const Status& status) {
    traces_.Record(stats);
    if (options_.on_complete) options_.on_complete(stats, status);
  };
  scheduler_ = std::make_unique<QueryScheduler>(std::move(sched));
  RegisterMetrics();
}

void HypDbService::TraceStore::Record(const RequestStats& stats) {
  if (cap_ <= 0 || stats.ticket == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = by_ticket_.insert_or_assign(stats.ticket, stats);
  (void)it;
  if (inserted) order_.push_back(stats.ticket);
  while (static_cast<int64_t>(order_.size()) > cap_) {
    by_ticket_.erase(order_.front());
    order_.pop_front();
  }
}

StatusOr<RequestStats> HypDbService::TraceStore::Get(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_ticket_.find(ticket);
  if (it == by_ticket_.end()) {
    return Status::NotFound("no retained trace for ticket " +
                            std::to_string(ticket) +
                            " (unknown, still running, or expired)");
  }
  if (it->second.trace_level <= 0) {
    return Status::FailedPrecondition(
        "request " + std::to_string(ticket) +
        " ran with tracing off (trace_level 0); resubmit with "
        "trace_level >= 1");
  }
  return it->second;
}

StatusOr<RequestStats> HypDbService::RequestTrace(uint64_t ticket) const {
  return traces_.Get(ticket);
}

void HypDbService::RegisterMetrics() {
  // Uptime + dataset inventory.
  metrics_.RegisterGaugeFn("hypdb_uptime_seconds",
                           "Seconds since the service was constructed.", {},
                           [this] { return uptime_.ElapsedSeconds(); });
  metrics_.RegisterGaugeFn(
      "hypdb_datasets", "Datasets currently registered.", {},
      [this] { return static_cast<double>(registry_.List().size()); });

  // Scheduler: counters + queue depth + wait/run histograms.
  const SchedulerMetrics& sched = scheduler_->metrics();
  metrics_.RegisterCounter("hypdb_scheduler_submitted_total",
                           "Requests submitted (sync, async and session "
                           "stage jobs).",
                           {}, &sched.submitted);
  metrics_.RegisterCounter("hypdb_scheduler_completed_total",
                           "Requests that reached a terminal outcome.", {},
                           &sched.completed);
  metrics_.RegisterCounter("hypdb_scheduler_failed_total",
                           "Requests completed with an error other than "
                           "cancellation or deadline.",
                           {}, &sched.failed);
  metrics_.RegisterCounter("hypdb_scheduler_cancelled_total",
                           "Requests cancelled while queued or at a "
                           "cooperative stage boundary.",
                           {}, &sched.cancelled);
  metrics_.RegisterCounter("hypdb_scheduler_deadline_exceeded_total",
                           "Requests rejected at pickup because their "
                           "queue wait exceeded the deadline.",
                           {}, &sched.deadline_exceeded);
  metrics_.RegisterGaugeFn(
      "hypdb_scheduler_queue_depth",
      "Requests queued but not yet picked up by a worker.", {},
      [this] { return static_cast<double>(scheduler_->queue_depth()); });
  metrics_.RegisterHistogram("hypdb_scheduler_queue_wait_seconds",
                             "Seconds from submit to worker pickup (or to "
                             "cancellation/deadline rejection).",
                             {}, &sched.queue_wait);
  metrics_.RegisterHistogram("hypdb_scheduler_run_seconds",
                             "Seconds a worker spent executing a request.",
                             {}, &sched.run_time);

  // DiscoveryCache: its stats struct is mutex-guarded inside the cache,
  // so the registry reads it through callbacks instead of raw pointers.
  auto discovery_stat = [this](int64_t DiscoveryCacheStats::* member) {
    return [this, member] {
      return static_cast<double>(discovery_.stats().*member);
    };
  };
  metrics_.RegisterCounterFn("hypdb_discovery_hits_total",
                             "Discoveries served from a completed cache "
                             "entry.",
                             {}, discovery_stat(&DiscoveryCacheStats::hits));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_misses_total",
      "Discoveries computed because no entry existed.", {},
      discovery_stat(&DiscoveryCacheStats::misses));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_coalesced_total",
      "Discoveries that waited on an in-flight twin computation.", {},
      discovery_stat(&DiscoveryCacheStats::coalesced));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_invalidations_total",
      "Cached discoveries dropped by dataset re-registration.", {},
      discovery_stat(&DiscoveryCacheStats::invalidations));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_evictions_total",
      "Cached discoveries dropped by the size bound.", {},
      discovery_stat(&DiscoveryCacheStats::evictions));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_stale_refreshes_total",
      "Cached discoveries recomputed because appended rows exceeded the "
      "staleness bound.",
      {}, discovery_stat(&DiscoveryCacheStats::stale_refreshes));

  // Sessions: lifecycle counters + the live level derived from them.
  const SessionManagerMetrics& sess = sessions_.metrics();
  metrics_.RegisterCounter("hypdb_sessions_created_total",
                           "Analysis sessions created.", {}, &sess.created);
  metrics_.RegisterCounter("hypdb_sessions_expired_total",
                           "Sessions dropped by the idle TTL.", {},
                           &sess.expired);
  metrics_.RegisterCounter("hypdb_sessions_evicted_total",
                           "Sessions dropped by the LRU cap.", {},
                           &sess.evicted);
  metrics_.RegisterCounter("hypdb_sessions_invalidated_total",
                           "Sessions dropped by dataset re-registration.",
                           {}, &sess.invalidated);
  metrics_.RegisterCounter("hypdb_sessions_closed_total",
                           "Sessions closed explicitly.", {}, &sess.closed);
  metrics_.RegisterGaugeFn(
      "hypdb_sessions_live", "Sessions currently live.", {},
      [this] { return static_cast<double>(sessions_.size()); });

  // Engine: shard-engine work aggregated over every registered dataset
  // at scrape time (monotone per dataset; datasets unregister only by
  // replacement, which resets their pools — acceptable counter resets).
  auto engine_stat = [this](int64_t CountEngineStats::* member) {
    return [this, member] {
      int64_t total = 0;
      for (const DatasetInfo& info : registry_.List()) {
        StatusOr<CountEngineStats> stats = registry_.EngineStats(info.name);
        if (stats.ok()) total += (*stats).*member;
      }
      return static_cast<double>(total);
    };
  };
  metrics_.RegisterCounterFn("hypdb_engine_queries_total",
                             "Count queries answered by the shared shard "
                             "engines.",
                             {}, engine_stat(&CountEngineStats::queries));
  metrics_.RegisterCounterFn("hypdb_engine_scans_total",
                             "Full data scans performed by the shared "
                             "shard engines (the Fig. 6c cost driver).",
                             {}, engine_stat(&CountEngineStats::scans));
  metrics_.RegisterCounterFn("hypdb_engine_cache_hits_total",
                             "Count queries answered from an exact cached "
                             "summary.",
                             {}, engine_stat(&CountEngineStats::cache_hits));
  metrics_.RegisterCounterFn(
      "hypdb_engine_marginalizations_total",
      "Count queries derived by marginalizing a cached superset summary.",
      {}, engine_stat(&CountEngineStats::marginalizations));
  metrics_.RegisterCounterFn(
      "hypdb_engine_morsels_total",
      "Morsels dispatched by parallel group-by scans (process-wide).", {},
      [] { return static_cast<double>(GroupByMorselsDispatched()); });

  // Cache occupancy. The gauges sum DatasetInfo over every registered
  // dataset at scrape time (List() reads each engine's CacheUse under
  // the registry mutex).
  auto cache_gauge = [this](int64_t CacheOccupancy::* member) {
    return [this, member] {
      int64_t total = 0;
      for (const DatasetInfo& info : registry_.List()) {
        total += info.cache.*member;
      }
      return static_cast<double>(total);
    };
  };
  metrics_.RegisterGaugeFn(
      "hypdb_cache_cached_cells",
      "Contingency cells resident across every dataset's engine pool.", {},
      cache_gauge(&CacheOccupancy::cached_cells));
  metrics_.RegisterGaugeFn(
      "hypdb_cache_pinned_cells",
      "Resident cells pinned as prefetched focus summaries (exempt from "
      "the eviction budget).",
      {}, cache_gauge(&CacheOccupancy::pinned_cells));
  metrics_.RegisterGaugeFn("hypdb_cache_entries",
                           "Cached summaries resident across every "
                           "dataset's engine pool.",
                           {}, cache_gauge(&CacheOccupancy::entries));
  metrics_.RegisterCounterFn(
      "hypdb_cache_evictions_total",
      "Cached summaries evicted (oldest first) to keep pools under their "
      "cell budgets.",
      {}, engine_stat(&CountEngineStats::evictions));

  // Ingest: the append path (rows/batches, bumped by AppendRows) plus
  // the delta-maintenance work it causes, aggregated over every
  // dataset's engine pool at scrape time like the engine family above.
  metrics_.RegisterCounter("hypdb_ingest_rows_total",
                           "Rows appended across all datasets.", {},
                           &ingest_rows_);
  metrics_.RegisterCounter("hypdb_ingest_batches_total",
                           "Append batches accepted.", {}, &ingest_batches_);
  metrics_.RegisterCounterFn(
      "hypdb_ingest_delta_patches_total",
      "Cached summaries brought current by merging a delta scan of only "
      "the appended rows (instead of invalidating).",
      {}, engine_stat(&CountEngineStats::delta_patches));
  metrics_.RegisterCounterFn(
      "hypdb_ingest_chunk_scans_total",
      "Storage chunks fed to the group-by kernel by chunked scans.", {},
      engine_stat(&CountEngineStats::chunk_scans));
  metrics_.RegisterCounterFn(
      "hypdb_ingest_chunks_skipped_total",
      "Storage chunks skipped entirely below a delta scan's start "
      "watermark — the rows incremental ingest did not re-scan.",
      {}, engine_stat(&CountEngineStats::chunks_skipped));

  // Build identity: the Prometheus info-metric idiom (constant 1, the
  // payload lives in the labels) so scrapes say which binary they hit.
  metrics_.RegisterGaugeFn(
      "hypdb_build_info",
      "Build identity of the running binary (constant 1; see labels).",
      {{"version", BuildVersion()},
       {"compiler", BuildCompiler()},
       {"build_type", BuildType()},
       {"simd", GroupByKernelSimdActive() ? "avx2" : "scalar"}},
      [] { return 1.0; });

  // Trace rollups: per-event-family aggregates bumped as ring events are
  // recorded (process-wide, like the morsel counter). They answer "how
  // often does the cache miss / where do kernel scans land per tier"
  // without fetching any per-request trace.
  TraceRollup& trace = GlobalTraceRollup();
  const struct {
    const char* decision;
    Counter* counter;
  } kCacheDecisions[] = {
      {"hit", &trace.cache_hits},
      {"miss", &trace.cache_misses},
      {"marginalize", &trace.cache_marginalizations},
      {"evict", &trace.cache_evictions},
      {"prefetch", &trace.cache_prefetches},
  };
  for (const auto& d : kCacheDecisions) {
    metrics_.RegisterCounter(
        "hypdb_trace_cache_decisions_total",
        "Traced CachingCountEngine decisions by kind.",
        {{"decision", d.decision}}, d.counter);
  }
  metrics_.RegisterCounter("hypdb_trace_discovery_total",
                           "Traced discovery-cache outcomes.",
                           {{"outcome", "hit"}}, &trace.discovery_hits);
  metrics_.RegisterCounter("hypdb_trace_discovery_total",
                           "Traced discovery-cache outcomes.",
                           {{"outcome", "compute"}},
                           &trace.discovery_computes);
  metrics_.RegisterCounter("hypdb_trace_ci_tests_total",
                           "Traced conditional-independence tests (deep "
                           "trace level only).",
                           {}, &trace.ci_tests);
  metrics_.RegisterCounter("hypdb_trace_morsel_batches_total",
                           "Traced morsel dispatches (deep trace level "
                           "only).",
                           {}, &trace.morsel_batches);
  metrics_.RegisterCounter("hypdb_trace_ingest_events_total",
                           "Traced ingest-path events by kind.",
                           {{"event", "append"}}, &trace.ingest_appends);
  metrics_.RegisterCounter("hypdb_trace_ingest_events_total",
                           "Traced ingest-path events by kind.",
                           {{"event", "delta_patch"}}, &trace.delta_patches);
  metrics_.RegisterCounter("hypdb_trace_ingest_events_total",
                           "Traced ingest-path events by kind.",
                           {{"event", "chunk_scan"}}, &trace.chunk_scans);
  metrics_.RegisterCounter("hypdb_trace_dropped_events_total",
                           "Trace events dropped because the ring pool "
                           "was exhausted.",
                           {}, &trace.dropped_events);
  for (int s = 0; s < kNumTraceStages; ++s) {
    metrics_.RegisterHistogram(
        "hypdb_trace_stage_seconds",
        "Traced analysis-stage latencies by stage.",
        {{"stage", TraceStageName(static_cast<TraceStage>(s))}},
        &trace.stage_seconds[s]);
  }
  for (int t = 0; t < 3; ++t) {
    metrics_.RegisterHistogram(
        "hypdb_trace_kernel_scan_seconds",
        "Traced group-by kernel scan latencies by tier.",
        {{"tier", TraceKernelTierName(static_cast<TraceKernelTier>(t))}},
        &trace.kernel_scan_seconds[t]);
  }
  metrics_.RegisterHistogram("hypdb_trace_ci_test_seconds",
                             "Traced per-CI-test latencies (deep trace "
                             "level only).",
                             {}, &trace.ci_test_seconds);
  metrics_.RegisterHistogram("hypdb_trace_discovery_wait_seconds",
                             "Traced waits on in-flight twin discoveries "
                             "(coalescing).",
                             {}, &trace.discovery_wait_seconds);
}

int64_t HypDbService::RegisterTable(const std::string& name,
                                    TablePtr table) {
  const int64_t epoch = registry_.Register(name, std::move(table));
  // The epoch in DiscoveryKey already makes stale entries unreachable;
  // invalidation frees their memory eagerly. Sessions pin the old
  // epoch's engines and discovery, so they go with it (kGone).
  discovery_.InvalidatePrefix(DatasetKeyPrefix(name));
  sessions_.InvalidateDataset(name);
  return epoch;
}

StatusOr<int64_t> HypDbService::RegisterCsv(const std::string& name,
                                            const std::string& path) {
  HYPDB_ASSIGN_OR_RETURN(int64_t epoch, registry_.RegisterCsv(name, path));
  discovery_.InvalidatePrefix(DatasetKeyPrefix(name));
  sessions_.InvalidateDataset(name);
  return epoch;
}

StatusOr<int64_t> HypDbService::AppendRows(
    const std::string& name,
    const std::vector<std::vector<std::string>>& rows) {
  HYPDB_ASSIGN_OR_RETURN(const int64_t watermark,
                         registry_.AppendRows(name, rows));
  // Deliberately NO discovery invalidation and NO session invalidation:
  // appends keep the epoch, cached summaries patch themselves by delta,
  // and discoveries refresh lazily under the staleness bound. This is
  // the whole point of the chunked store.
  ingest_rows_.Add(static_cast<int64_t>(rows.size()));
  ingest_batches_.Add();
  return watermark;
}

StatusOr<TablePtr> HypDbService::Dataset(const std::string& name) const {
  return registry_.Get(name);
}

std::vector<DatasetInfo> HypDbService::Datasets() const {
  return registry_.List();
}

StatusOr<ServiceReport> HypDbService::Analyze(AnalyzeRequest request) {
  return Wait(Submit(std::move(request)));
}

StatusOr<ServiceReport> HypDbService::AnalyzeSql(const std::string& dataset,
                                                 const std::string& sql) {
  AnalyzeRequest request;
  request.dataset = dataset;
  request.sql = sql;
  return Analyze(std::move(request));
}

uint64_t HypDbService::Submit(AnalyzeRequest request, SubmitOptions submit) {
  StatusOr<AggQuery> query = ParseAggQuery(request.sql);
  if (!query.ok()) return scheduler_->Reject(query.status());
  return scheduler_->Submit(
      [this, request = std::move(request),
       query = std::move(*query)](RequestStats* stats) {
        return RunAnalyze(request, query, stats);
      },
      submit);
}

bool HypDbService::Cancel(uint64_t ticket) {
  return scheduler_->Cancel(ticket);
}

bool HypDbService::Done(uint64_t ticket) const {
  return scheduler_->Done(ticket);
}

StatusOr<ServiceReport> HypDbService::Wait(uint64_t ticket) {
  return scheduler_->Wait(ticket);
}

StatusOr<HypDbService::Binding> HypDbService::Bind(
    const AnalyzeRequest& request, const AggQuery& query) {
  Binding out;
  // One snapshot for the whole request: table, epoch and watermark are
  // read atomically, and every later step (binding, shard lookup,
  // discovery key) uses this triple, so a concurrent re-registration can
  // neither mix old counts into the new epoch's pool nor cache old-table
  // discovery under a new-epoch key, and no append reaches the request.
  HYPDB_ASSIGN_OR_RETURN(DatasetRegistry::Snapshot snapshot,
                         registry_.GetSnapshot(request.dataset));
  out.epoch = snapshot.epoch;
  const HypDbOptions& options =
      request.options.has_value() ? *request.options : options_.analysis;

  // One bind per request: it materializes the WHERE view the population
  // shard aggregates, and the session reuses it. The bind span covers
  // this setup work so every traced kernel event has a stage parent.
  BoundQuery bound;
  SessionHooks hooks;
  {
    TraceSpanScope bind_span(TraceEventKind::kStage, 1,
                             static_cast<uint64_t>(TraceStage::kBind));
    HYPDB_ASSIGN_OR_RETURN(bound, BindQuery(snapshot.table, query));
    // The population shard serves the census, the answers and discovery
    // (and an ungrouped query's one context); per-context shards serve
    // the rest of a grouped query, each the generation at the snapshot's
    // watermark. A null population (see Pool) means the session counts
    // privately over the views bound here; after a re-registration its
    // discovery caches under the (now stale) snapshot epoch.
    HYPDB_ASSIGN_OR_RETURN(hooks,
                           registry_.Pool(request.dataset, snapshot,
                                          SubpopulationSignature(query)));
    out.population = hooks.population_engine;
  }
  // Discovery runs over the snapshot table, so the lookup runs at the
  // bind watermark: an entry computed at it (or, within the staleness
  // bound, before it) serves; an entry computed over later rows never
  // does.
  out.discovery = std::make_shared<DiscoveryFlags>();
  hooks.discovery_interceptor =
      [cache = &discovery_, flags = out.discovery,
       watermark = snapshot.watermark,
       key = DiscoveryKey(request.dataset, snapshot.epoch, query, options)](
          const std::function<StatusOr<DiscoveryReport>()>& compute)
      -> StatusOr<DiscoveryReport> {
    bool reused = false;
    bool coalesced = false;
    StatusOr<DiscoveryReport> report =
        cache->LookupOrCompute(key, compute, &reused, &coalesced, watermark);
    flags->reused.store(reused);
    flags->coalesced.store(coalesced);
    return report;
  };
  HYPDB_ASSIGN_OR_RETURN(
      out.session,
      AnalysisSession::Create(snapshot.table, query, std::move(bound),
                              options, std::move(hooks)));
  return out;
}

StatusOr<ServiceReport> HypDbService::RunAnalyze(const AnalyzeRequest& request,
                                                 const AggQuery& query,
                                                 RequestStats* stats) {
  HYPDB_ASSIGN_OR_RETURN(Binding binding, Bind(request, query));
  CountEngineStats engine_before;
  if (binding.population != nullptr) {
    engine_before = binding.population->stats();
  }
  AnalysisSession& session = *binding.session;
  ServiceReport out;
  HYPDB_ASSIGN_OR_RETURN(out.report, session.Report());
  // Trace cursor: spans are laid out on the submit-relative axis after
  // the scheduler's queue span. The discovery span is the wall time THIS
  // request spent in the stage (near-zero on a cache hit, the full
  // compute when it was the single flight) — not the cached report's
  // original compute time.
  double cursor = stats->queue_seconds;
  const double discovery_span =
      session.stage_state(AnalysisStage::kDiscover).seconds;
  stats->trace.push_back({"discovery", cursor, discovery_span});
  cursor += discovery_span;
  stats->trace.push_back({"detect", cursor, out.report.detect_seconds});
  cursor += out.report.detect_seconds;
  stats->trace.push_back({"explain", cursor, out.report.explain_seconds});
  cursor += out.report.explain_seconds;
  stats->trace.push_back({"rewrite", cursor, out.report.resolve_seconds});
  stats->discovery_reused = binding.discovery->reused.load();
  stats->discovery_coalesced = binding.discovery->coalesced.load();
  if (binding.population != nullptr) {
    stats->engine_delta = binding.population->stats() - engine_before;
  }
  return out;
}

StatusOr<SessionInfo> HypDbService::CreateSession(
    const AnalyzeRequest& request) {
  HYPDB_ASSIGN_OR_RETURN(AggQuery query, ParseAggQuery(request.sql));
  HYPDB_ASSIGN_OR_RETURN(Binding binding, Bind(request, query));
  std::shared_ptr<SessionManager::Entry> entry = sessions_.Insert(
      request.dataset, binding.epoch, request.sql, std::move(binding.session),
      std::move(binding.discovery));
  return sessions_.Info(entry);
}

uint64_t HypDbService::SubmitSessionStage(uint64_t session_id,
                                          std::string stage,
                                          std::optional<int> context,
                                          SubmitOptions submit) {
  auto cancel_flag = std::make_shared<std::atomic<bool>>(false);
  return scheduler_->Submit(
      [this, session_id, stage = std::move(stage), context, cancel_flag](
          RequestStats* stats) {
        return RunSessionStage(session_id, stage, context, cancel_flag,
                               stats);
      },
      submit, cancel_flag);
}

StatusOr<ServiceReport> HypDbService::AdvanceSession(uint64_t session_id,
                                                     const std::string& stage,
                                                     std::optional<int> context,
                                                     SubmitOptions submit) {
  return Wait(SubmitSessionStage(session_id, stage, context, submit));
}

StatusOr<ServiceReport> HypDbService::RunSessionStage(
    uint64_t session_id, const std::string& stage,
    std::optional<int> context,
    const std::shared_ptr<std::atomic<bool>>& cancel_flag,
    RequestStats* stats) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  std::lock_guard<std::mutex> stage_lock(entry->mu);
  AnalysisSession& session = *entry->session;
  session.SetCancelCheck(
      [cancel_flag] { return cancel_flag != nullptr && cancel_flag->load(); });
  int64_t runs_before = 0;
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    runs_before +=
        session.stage_state(static_cast<AnalysisStage>(s)).runs;
  }

  ServiceReport out;
  Status status = [&]() -> Status {
    if (stage == "report" || stage == "run") {
      if (context.has_value()) {
        return Status::InvalidArgument(
            "stage 'report' does not take a context (only explain and "
            "rewrite run per-context)");
      }
      return session.Report().status();
    }
    HYPDB_ASSIGN_OR_RETURN(AnalysisStage parsed, ParseAnalysisStage(stage));
    if (context.has_value() && parsed != AnalysisStage::kExplain &&
        parsed != AnalysisStage::kRewrite) {
      return Status::InvalidArgument(
          "stage '" + stage + "' does not take a context (only explain "
          "and rewrite run per-context)");
    }
    switch (parsed) {
      case AnalysisStage::kAnswers: return session.Answers().status();
      case AnalysisStage::kDiscover: return session.Discover().status();
      case AnalysisStage::kDetect: return session.Detect().status();
      case AnalysisStage::kExplain: {
        if (!context.has_value()) return session.Explain().status();
        // Per-context advances surface the single context's result even
        // while the whole stage (the snapshot vector) is incomplete.
        HYPDB_ASSIGN_OR_RETURN(const ContextExplanation* expl,
                               session.Explain(*context));
        out.stage_explanation = *expl;
        return Status::Ok();
      }
      case AnalysisStage::kRewrite: {
        if (!context.has_value()) return session.Rewrite().status();
        HYPDB_ASSIGN_OR_RETURN(const ContextRewrite* rewrite,
                               session.Rewrite(*context));
        out.stage_rewrite = *rewrite;
        return Status::Ok();
      }
    }
    return Status::Internal("unhandled stage");
  }();
  session.SetCancelCheck({});
  HYPDB_RETURN_IF_ERROR(status);

  int64_t runs_after = 0;
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    runs_after += session.stage_state(static_cast<AnalysisStage>(s)).runs;
  }
  stats->session_id = session_id;
  stats->stage = stage;
  stats->stage_reused = runs_after == runs_before;
  stats->session_complete = session.complete();
  stats->discovery_reused = entry->discovery->reused.load();
  stats->discovery_coalesced = entry->discovery->coalesced.load();
  out.report = session.Snapshot();
  return out;
}

StatusOr<SessionInfo> HypDbService::InspectSession(uint64_t session_id) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  return sessions_.Info(entry);
}

StatusOr<ServiceReport> HypDbService::SessionSnapshot(uint64_t session_id) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  std::lock_guard<std::mutex> stage_lock(entry->mu);
  ServiceReport out;
  out.report = entry->session->Snapshot();
  out.stats.session_id = session_id;
  out.stats.session_complete = entry->session->complete();
  return out;
}

Status HypDbService::CloseSession(uint64_t session_id) {
  return sessions_.Erase(session_id);
}

}  // namespace hypdb
