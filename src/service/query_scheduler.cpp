#include "service/query_scheduler.h"

#include <algorithm>

#include "core/analysis_session.h"
#include "core/sql_parser.h"
#include "service/union_planner.h"
#include "util/string_util.h"

namespace hypdb {

QueryScheduler::QueryScheduler(DatasetRegistry* registry,
                               DiscoveryCache* discovery,
                               QuerySchedulerOptions options)
    : registry_(registry), discovery_(discovery),
      options_(std::move(options)) {
  int workers = options_.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Queued-but-unpicked jobs complete with an error so Wait() never
    // hangs across shutdown.
    for (Job& job : queue_) {
      auto slot = slots_.find(job.ticket);
      if (slot != slots_.end() && !slot->second->done) {
        slot->second->done = true;
        slot->second->result =
            StatusOr<ServiceReport>(Status::FailedPrecondition(
                "scheduler shut down before the request ran"));
      }
    }
    queue_.clear();
  }
  queue_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

uint64_t QueryScheduler::Submit(AnalyzeRequest request,
                                SubmitOptions submit) {
  Job job;
  job.request = std::move(request);
  job.submit = submit;

  metrics_.submitted.Add();
  StatusOr<AggQuery> parsed = ParseAggQuery(job.request.sql);
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t ticket = next_ticket_++;
  job.ticket = ticket;
  slots_.emplace(ticket, std::make_shared<Slot>());
  if (!parsed.ok()) {
    // Malformed SQL never reaches a worker; the ticket completes
    // immediately with the parser error — through the same accounting as
    // worker completions, so it counts against the retention bound.
    // Observe() runs first (and outside mu_, it fires on_complete): the
    // counters must land before the completion is publishable, so a
    // returned Wait() always sees them.
    lock.unlock();
    RequestStats stats;
    stats.ticket = ticket;
    Observe(stats, parsed.status(), /*queued=*/false, /*ran=*/false);
    lock.lock();
    CompleteLocked(ticket, StatusOr<ServiceReport>(parsed.status()));
    lock.unlock();
    done_cv_.notify_all();
    return ticket;
  }
  job.query = std::move(*parsed);
  job.batch_key = BatchKey(job.request.dataset, job.query);
  queue_.push_back(std::move(job));
  lock.unlock();
  queue_cv_.notify_one();
  return ticket;
}

uint64_t QueryScheduler::SubmitTask(
    std::string batch_key,
    std::function<StatusOr<ServiceReport>(RequestStats*)> run,
    SubmitOptions submit, std::shared_ptr<std::atomic<bool>> cancel_flag) {
  Job job;
  job.submit = submit;
  job.batch_key = std::move(batch_key);
  job.run = std::move(run);
  job.cancel_flag = std::move(cancel_flag);
  metrics_.submitted.Add();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t ticket = next_ticket_++;
  job.ticket = ticket;
  slots_.emplace(ticket, std::make_shared<Slot>());
  queue_.push_back(std::move(job));
  lock.unlock();
  queue_cv_.notify_one();
  return ticket;
}

StatusOr<ServiceReport> QueryScheduler::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(ticket);
  if (it == slots_.end()) {
    return Status::NotFound("unknown or already-claimed ticket " +
                            std::to_string(ticket));
  }
  std::shared_ptr<Slot> slot = it->second;
  done_cv_.wait(lock, [&] { return slot->done || stopping_; });
  if (!slot->done) {
    return Status::FailedPrecondition("scheduler shutting down");
  }
  // Claim-once even when two threads raced Wait() on the same pending
  // ticket: the result moves out exactly once; the loser gets the same
  // error a sequential double-Wait does.
  if (!slot->result.has_value()) {
    return Status::NotFound("ticket " + std::to_string(ticket) +
                            " already claimed");
  }
  StatusOr<ServiceReport> result = std::move(*slot->result);
  slot->result.reset();
  if (slots_.erase(ticket) > 0) --retained_results_;
  return result;
}

bool QueryScheduler::Done(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(ticket);
  return it == slots_.end() || it->second->done;
}

bool QueryScheduler::Cancel(uint64_t ticket) {
  std::shared_ptr<std::atomic<bool>> running_flag;
  // Built under the lock (the job dies there), observed after unlock.
  std::optional<RequestStats> cancelled_stats;
  Status cancelled_status = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto job = std::find_if(queue_.begin(), queue_.end(),
                            [&](const Job& j) { return j.ticket == ticket; });
    if (job == queue_.end()) {
      // Not queued: cooperative jobs can still be cancelled in flight —
      // the worker observes the flag at its next stage boundary.
      auto running = running_cancels_.find(ticket);
      if (running == running_cancels_.end()) return false;
      running_flag = running->second;
    } else {
      RequestStats stats;
      stats.ticket = ticket;
      stats.queue_seconds = job->queued.ElapsedSeconds();
      stats.trace.push_back({"queue", 0.0, stats.queue_seconds});
      cancelled_status = Status::Cancelled("request " +
                                           std::to_string(ticket) +
                                           " cancelled before it ran");
      cancelled_stats = std::move(stats);
      // Erased from the queue but not completed yet: the slot flips to
      // done only after Observe() below, so a returned Wait() always
      // sees the cancelled counter and the on_complete record.
      queue_.erase(job);
    }
  }
  if (running_flag != nullptr) {
    running_flag->store(true);
    return true;
  }
  Observe(*cancelled_stats, cancelled_status, /*queued=*/true,
          /*ran=*/false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CompleteLocked(ticket, StatusOr<ServiceReport>(cancelled_status));
  }
  done_cv_.notify_all();
  return true;
}

void QueryScheduler::WorkerLoop(int worker_id) {
  for (;;) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Batching: drain queued twins of this request (same dataset,
      // treatment, subpopulation) and run them back-to-back — the first
      // run leaves the discovery cache and count shards warm for them.
      // Copied, not referenced: push_back below reallocates `batch`.
      const std::string key = batch.front().batch_key;
      for (auto it = queue_.begin();
           it != queue_.end() &&
           static_cast<int>(batch.size()) < std::max(1, options_.batch_max);) {
        if (it->batch_key == key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (batch.size() > 1) {
      metrics_.batched_twins.Add(static_cast<int64_t>(batch.size()) - 1);
      if (options_.union_planning) PlanBatchPrefetch(&batch);
    }
    for (Job& job : batch) RunJob(std::move(job), worker_id);
  }
}

void QueryScheduler::PlanBatchPrefetch(std::vector<Job>* batch) {
  // Analyze jobs only: session stage jobs (job.run) schedule their own
  // engine work inside the session.
  std::vector<Job*> jobs;
  for (Job& job : *batch) {
    if (!job.run) jobs.push_back(&job);
  }
  if (jobs.size() < 2) return;
  const std::string& dataset = jobs.front()->request.dataset;
  // Same lease/snapshot discipline as Execute(): the prefetched summary
  // must aggregate the watermark the shared shard engine answers at.
  StatusOr<DatasetLease> lease = registry_->ReadLease(dataset);
  if (!lease.ok()) return;
  StatusOr<DatasetRegistry::Snapshot> snapshot =
      registry_->GetSnapshot(dataset);
  if (!snapshot.ok()) return;
  // Batch-key equality means every job shares the WHERE clause (and the
  // treatment), so they all resolve to the same shard engine.
  StatusOr<std::shared_ptr<CountEngine>> shard = registry_->ShardEngine(
      dataset, snapshot->epoch, SubpopulationSignature(jobs.front()->query),
      snapshot->watermark);
  if (!shard.ok()) return;

  const Table& table = *snapshot->table;
  std::vector<int64_t> cardinalities(table.NumColumns());
  for (int c = 0; c < table.NumColumns(); ++c) {
    cardinalities[c] = table.column(c).Cardinality();
  }
  // The attribute set each job is about to demand: treatment, contexts,
  // outcomes. (Discovery probes more sets, but these are the ones every
  // job materializes as its focus.)
  std::vector<std::vector<int>> needs;
  std::vector<Job*> need_jobs;
  for (Job* job : jobs) {
    std::vector<int> cols;
    bool resolved = true;
    auto add = [&](const std::string& name) {
      StatusOr<int> idx = table.ColumnIndex(name);
      if (idx.ok()) {
        cols.push_back(*idx);
      } else {
        resolved = false;
      }
    };
    add(job->query.treatment);
    for (const std::string& name : job->query.grouping) add(name);
    for (const std::string& name : job->query.outcomes) add(name);
    if (!resolved || cols.empty()) continue;
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    needs.push_back(std::move(cols));
    need_jobs.push_back(job);
  }
  if (needs.size() < 2) return;

  // Per-request options may override the engine budget, but the shared
  // shard engine was built from the scheduler defaults — plan against
  // the budget that engine actually enforces.
  const int64_t budget = options_.defaults.engine.max_cached_cells;
  for (const UnionPlanBin& bin :
       PlanUnionPrefetch(needs, cardinalities, budget)) {
    if (bin.covered < 2) continue;
    if (!(*shard)->Prefetch(bin.cols).ok()) continue;
    metrics_.union_prefetches.Add();
    for (size_t i = 0; i < needs.size(); ++i) {
      if (std::includes(bin.cols.begin(), bin.cols.end(), needs[i].begin(),
                        needs[i].end())) {
        need_jobs[i]->union_planned = true;
      }
    }
  }
}

void QueryScheduler::RunJob(Job job, int worker_id) {
  RequestStats stats;
  stats.ticket = job.ticket;
  stats.worker_id = worker_id;
  stats.union_prefetched = job.union_planned;
  stats.queue_seconds = job.queued.ElapsedSeconds();
  stats.trace.push_back({"queue", 0.0, stats.queue_seconds});
  // Deadline check at pickup — it also covers batched twins, whose wait
  // keeps growing while earlier batch members run.
  if (job.submit.deadline_seconds > 0.0 &&
      stats.queue_seconds > job.submit.deadline_seconds) {
    const Status status = Status::DeadlineExceeded(StrFormat(
        "request waited %.3fs, past its %.3fs deadline",
        stats.queue_seconds, job.submit.deadline_seconds));
    Observe(stats, status, /*queued=*/true, /*ran=*/false);
    Complete(job.ticket, StatusOr<ServiceReport>(status));
    return;
  }
  if (job.cancel_flag != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    running_cancels_.emplace(job.ticket, job.cancel_flag);
  }
  // Engine-deep tracing: attribute everything the worker (and any helper
  // thread that inherits the context) records to this ticket, on the
  // submit-relative axis the queue span already started.
  TraceContext trace_ctx;
  trace_ctx.ticket = job.ticket;
  trace_ctx.level = std::min(
      2, std::max(0, job.submit.trace_level >= 0
                         ? job.submit.trace_level
                         : options_.default_trace_level));
  trace_ctx.t0_nanos = job.queued.StartNanos();
  stats.trace_level = trace_ctx.level;
  Stopwatch run;
  StatusOr<ServiceReport> result = [&] {
    TraceContextScope trace_scope(trace_ctx);
    return Execute(job, worker_id, &stats);
  }();
  stats.run_seconds = run.ElapsedSeconds();
  if (trace_ctx.level > 0) {
    // Harvested before Observe() fires on_complete, so the slow-query
    // flight recorder sees the full sub-stage trace.
    stats.events = HarvestTrace(job.ticket, trace_ctx.t0_nanos);
  }
  if (job.cancel_flag != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    running_cancels_.erase(job.ticket);
  }
  if (job.run) {
    // Custom work (session stage jobs): one span covering the stage the
    // closure reported it ran. The analyze pipeline gets finer-grained
    // spans inside Execute().
    stats.trace.push_back({stats.stage.empty() ? "run" : stats.stage,
                           stats.queue_seconds, stats.run_seconds});
  }
  // Copied before the move: Observe() needs the terminal status, and an
  // OK StatusOr's status() is just Ok. Observe() runs before Complete()
  // publishes the result: the counters and the on_complete hook must
  // land before any waiter can observe the terminal state.
  const Status status = result.status();
  if (result.ok()) result->stats = stats;
  Observe(stats, status, /*queued=*/true, /*ran=*/true);
  Complete(job.ticket, std::move(result));
}

StatusOr<ServiceReport> QueryScheduler::Execute(const Job& job,
                                                int worker_id,
                                                RequestStats* stats) {
  (void)worker_id;
  // Custom work (session stage jobs) — the closure owns its own
  // sharing/validation; ticket/batching/deadline handling above applies
  // unchanged.
  if (job.run) return job.run(stats);
  // Reader lease for the whole request body: appends serialize behind it,
  // so the storage watermark the snapshot below is materialized at stays
  // the watermark until this request completes — the live shared engines
  // and the snapshot table always agree on the population.
  HYPDB_ASSIGN_OR_RETURN(DatasetLease lease,
                         registry_->ReadLease(job.request.dataset));
  (void)lease;
  // One snapshot for the whole request: table, epoch and watermark are
  // read atomically, every later step (binding, shard lookup, discovery
  // key) uses this triple, so a concurrent re-registration can neither
  // mix old counts into the new epoch's pool nor cache old-table
  // discovery under a new-epoch key.
  HYPDB_ASSIGN_OR_RETURN(DatasetRegistry::Snapshot snapshot,
                         registry_->GetSnapshot(job.request.dataset));
  const HypDbOptions& options = job.request.options.has_value()
                                    ? *job.request.options
                                    : options_.defaults;

  // One bind per request: it materializes the WHERE view the population
  // shard aggregates, and the session reuses it. The bind span covers
  // this setup work so every traced kernel event has a stage parent.
  BoundQuery bound;
  SessionHooks hooks;
  std::shared_ptr<CountEngine> engine;
  CountEngineStats engine_before;
  {
    TraceSpanScope bind_span(TraceEventKind::kStage, 1,
                             static_cast<uint64_t>(TraceStage::kBind));
    HYPDB_ASSIGN_OR_RETURN(bound, BindQuery(snapshot.table, job.query));
    // The same provider sessions use: the population shard serves the
    // answers and discovery, per-context shards serve detection,
    // explanation and the rewrite. A null population means the dataset
    // was re-registered after our snapshot; the request then runs
    // unshared over the snapshot table — still correct, just not pooled
    // — and its discovery caches under the (now stale, unreachable)
    // snapshot epoch.
    HYPDB_ASSIGN_OR_RETURN(
        PooledEngines pooled,
        registry_->Pool(job.request.dataset, snapshot,
                        SubpopulationSignature(job.query), bound.population));
    engine = pooled.population;
    if (engine != nullptr) engine_before = engine->stats();
    hooks.population_engine = std::move(pooled.population);
    hooks.context_engine_provider = std::move(pooled.contexts);
  }
  hooks.discovery_interceptor =
      [this, stats, &snapshot,
       key = DiscoveryKey(job.request.dataset, snapshot.epoch, job.query,
                          options)](
          const std::function<StatusOr<DiscoveryReport>()>& compute) {
        return discovery_->LookupOrCompute(
            key, compute, &stats->discovery_reused,
            &stats->discovery_coalesced, snapshot.watermark);
      };

  HYPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<AnalysisSession> session,
      AnalysisSession::Create(snapshot.table, job.query, std::move(bound),
                              options, std::move(hooks)));
  ServiceReport out;
  HYPDB_ASSIGN_OR_RETURN(out.report, session->Report());
  // Trace cursor: spans are laid out on the submit-relative axis, the
  // queue span (already recorded by RunJob) ends at queue_seconds. The
  // discovery span is the wall time THIS request spent in the stage
  // (near-zero on a cache hit, the full compute when it was the single
  // flight) — not the cached report's original compute time.
  double cursor = stats->queue_seconds;
  const double discovery_span =
      session->stage_state(AnalysisStage::kDiscover).seconds;
  stats->trace.push_back({"discovery", cursor, discovery_span});
  cursor += discovery_span;
  stats->trace.push_back({"detect", cursor, out.report.detect_seconds});
  cursor += out.report.detect_seconds;
  stats->trace.push_back({"explain", cursor, out.report.explain_seconds});
  cursor += out.report.explain_seconds;
  stats->trace.push_back({"rewrite", cursor, out.report.resolve_seconds});
  // RunJob stamps the finished stats (including this delta) onto the
  // report after timing completes.
  if (engine != nullptr) {
    stats->engine_delta = engine->stats() - engine_before;
  }
  return out;
}

int64_t QueryScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void QueryScheduler::Observe(const RequestStats& stats, const Status& status,
                             bool queued, bool ran) {
  metrics_.completed.Add();
  switch (status.code()) {
    case StatusCode::kCancelled:
      metrics_.cancelled.Add();
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.deadline_exceeded.Add();
      break;
    default:
      if (!status.ok()) metrics_.failed.Add();
      break;
  }
  if (queued) metrics_.queue_wait.Observe(stats.queue_seconds);
  if (ran) metrics_.run_time.Observe(stats.run_seconds);
  if (options_.on_complete) options_.on_complete(stats, status);
}

void QueryScheduler::CompleteLocked(uint64_t ticket,
                                    StatusOr<ServiceReport> result) {
  auto it = slots_.find(ticket);
  if (it == slots_.end()) return;
  it->second->result = std::move(result);
  it->second->done = true;
  done_order_.push_back(ticket);
  ++retained_results_;
  // Fire-and-forget submitters never Wait(); drop the oldest *live*
  // unclaimed results so slots_ cannot grow without bound. Stale queue
  // entries (tickets Wait() already claimed and erased) are popped
  // without counting against the bound.
  const int64_t cap = std::max<int64_t>(1, options_.max_retained_results);
  while (retained_results_ > cap && !done_order_.empty()) {
    const uint64_t oldest = done_order_.front();
    done_order_.pop_front();
    auto found = slots_.find(oldest);
    if (found != slots_.end() && found->second->done) {
      slots_.erase(found);
      --retained_results_;
    }
  }
}

void QueryScheduler::Complete(uint64_t ticket,
                              StatusOr<ServiceReport> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CompleteLocked(ticket, std::move(result));
  }
  done_cv_.notify_all();
}

}  // namespace hypdb
