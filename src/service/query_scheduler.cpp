#include "service/query_scheduler.h"

#include <algorithm>

#include "util/string_util.h"

namespace hypdb {

QueryScheduler::QueryScheduler(QuerySchedulerOptions options)
    : options_(std::move(options)) {
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

uint64_t QueryScheduler::Submit(
    Task run, SubmitOptions submit,
    std::shared_ptr<std::atomic<bool>> cancel_flag) {
  Job job;
  job.submit = submit;
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

uint64_t QueryScheduler::Reject(Status error) {
  metrics_.submitted.Add();
  uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = next_ticket_++;
    slots_.emplace(ticket, std::make_shared<Slot>());
  }
  // The ticket completes through the same accounting as worker
  // completions, so it counts against the retention bound. Observe()
  // runs first (and outside mu_, it fires on_complete): the counters
  // must land before the completion is publishable, so a returned Wait()
  // always sees them.
  RequestStats stats;
  stats.ticket = ticket;
  Observe(stats, error, /*queued=*/false, /*ran=*/false);
  Complete(ticket, StatusOr<ServiceReport>(std::move(error)));
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
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    RunJob(std::move(job), worker_id);
  }
}

void QueryScheduler::RunJob(Job job, int worker_id) {
  RequestStats stats;
  stats.ticket = job.ticket;
  stats.worker_id = worker_id;
  stats.queue_seconds = job.queued.ElapsedSeconds();
  stats.trace.push_back({"queue", 0.0, stats.queue_seconds});
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
    return job.run(&stats);
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
  if (stats.trace.size() == 1) {
    // The task laid out no spans of its own (a session stage job, or a
    // failure before the first stage): one span covers its run.
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
