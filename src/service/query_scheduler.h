// QueryScheduler: worker pool executing AnalyzeRequests with batching.
//
// Submit() parses and enqueues a request and returns a ticket; a pool of
// worker threads drains the queue. Two mechanisms share work between
// requests on the same data:
//  * Batching — a worker that picks up a request also drains (up to
//    batch_max) queued requests with the same batch key (dataset,
//    treatment, subpopulation) and runs them back-to-back, so the first
//    one's discovery and contingency summaries are warm for the rest.
//  * Coalescing — requests with equal discovery keys that are *already
//    running* on other workers block on the in-flight computation via
//    DiscoveryCache::LookupOrCompute instead of recomputing.
// Per-request RequestStats record queue wait, run time, reuse flags and
// the shared shard-engine work delta.
//
// Results are bit-identical to serial execution: counts are exact
// integers whatever the cache state, permutation tests are seeded from
// the request options, and a reused discovery is the verbatim report the
// equivalent computation produces (service tests assert digest equality).

#ifndef HYPDB_SERVICE_QUERY_SCHEDULER_H_
#define HYPDB_SERVICE_QUERY_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/dataset_registry.h"
#include "service/discovery_cache.h"
#include "service/request.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace hypdb {

/// Scheduler-level observability counters, owned by the scheduler and
/// bumped lock-free on completion paths (the SQLStats idiom). `completed`
/// counts every terminal outcome, success or not; the error counters
/// partition the failures. Shutdown-discarded queued jobs are not
/// observed — no worker ever touched them.
struct SchedulerMetrics {
  Counter submitted;
  Counter completed;
  Counter failed;             // errors other than cancel/deadline
  Counter cancelled;          // kCancelled (queued or cooperative)
  Counter deadline_exceeded;  // kDeadlineExceeded at pickup
  Counter batched_twins;      // jobs drained as same-batch-key followers
  LatencyHistogram queue_wait;  // submit -> pickup (or cancel/deadline)
  LatencyHistogram run_time;    // pickup -> completion, jobs that ran
};

struct QuerySchedulerOptions {
  /// Worker threads; 0 resolves to hardware_concurrency.
  int num_workers = 0;
  /// Same-batch-key requests a worker drains per pickup (1 = no batching).
  int batch_max = 8;
  /// Completed-but-unclaimed results retained; beyond this the oldest are
  /// dropped (their tickets then Wait() as not-found). Bounds the memory
  /// of fire-and-forget submitters that never collect.
  int64_t max_retained_results = 1024;
  /// Analysis options for requests that do not carry their own.
  HypDbOptions defaults;
  /// Trace sampling level for requests that do not carry their own
  /// (SubmitOptions::trace_level < 0). Level 1 — stage spans, kernel
  /// scans, cache decisions — is cheap enough to be the default (the
  /// bench_trace_overhead gate); 0 disables recording, 2 adds
  /// per-CI-test and per-morsel events.
  int default_trace_level = 1;
  /// Observer fired once per terminal outcome (success, error, cancel,
  /// deadline) with the final stats and status — the hook behind
  /// `--stats-log`. Called outside scheduler locks on whichever thread
  /// completed the request; must be thread-safe and must not call back
  /// into the scheduler. Not fired for jobs discarded by shutdown.
  std::function<void(const RequestStats&, const Status&)> on_complete;
};

/// Per-submission controls (deadline today; priorities would live here).
struct SubmitOptions {
  /// Maximum seconds the request may sit in the queue. A job whose wait
  /// already exceeds the deadline when a worker picks it up is rejected
  /// with kDeadlineExceeded instead of running — the waiter has likely
  /// timed out, so the cycles are better spent on live requests. 0 (the
  /// default) means no deadline.
  double deadline_seconds = 0.0;
  /// Per-request trace sampling level (wire key `trace_level`): 0 off,
  /// 1 stage/kernel/cache events, 2 adds per-CI-test and per-morsel
  /// events. Negative (the default) inherits the scheduler-wide
  /// QuerySchedulerOptions::default_trace_level.
  int trace_level = -1;
};

/// Thread-safe. Destruction waits for in-flight work, discarding queued
/// requests that no worker has picked up.
class QueryScheduler {
 public:
  QueryScheduler(DatasetRegistry* registry, DiscoveryCache* discovery,
                 QuerySchedulerOptions options = {});
  ~QueryScheduler();

  /// Enqueues `request`; returns the ticket to Wait()/Done() on.
  uint64_t Submit(AnalyzeRequest request, SubmitOptions submit = {});

  /// Enqueues an arbitrary unit of work (a session stage job) behind the
  /// same ticket machinery: it queues with `batch_key` (so it drains
  /// together with analyze twins of the same dataset/treatment/
  /// subpopulation), honors SubmitOptions::deadline_seconds at pickup,
  /// and can be Cancel()ed while queued. When `cancel_flag` is non-null
  /// the job is additionally *cooperatively* cancellable while running:
  /// Cancel(ticket) sets the flag and the job observes it at its next
  /// stage boundary, completing with kCancelled (or normally, if no
  /// boundary remained). `run` executes on a worker thread and may fill
  /// request-level stats; the scheduler stamps timing fields afterwards.
  uint64_t SubmitTask(
      std::string batch_key,
      std::function<StatusOr<ServiceReport>(RequestStats*)> run,
      SubmitOptions submit = {},
      std::shared_ptr<std::atomic<bool>> cancel_flag = nullptr);

  /// Blocks until the ticket completes; a ticket can be waited on once.
  StatusOr<ServiceReport> Wait(uint64_t ticket);

  /// True when the ticket has completed (Wait() will not block).
  bool Done(uint64_t ticket) const;

  /// Drops the ticket if it is still queued: the job never runs and its
  /// slot completes with kCancelled (a pending Wait() returns that).
  /// For a *running* job submitted with a cancel flag (session stage
  /// jobs), sets the flag and returns true — cancellation is then
  /// cooperative: the job completes with kCancelled at its next stage
  /// boundary, or normally if it had already passed the last one.
  /// Returns false when the ticket is unknown, done, or running without
  /// a cancel flag — in-flight analyze work is never aborted, so a false
  /// return with Done() false means the result is still coming.
  bool Cancel(uint64_t ticket);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Live observability counters/histograms (see SchedulerMetrics).
  const SchedulerMetrics& metrics() const { return metrics_; }

  /// Requests queued but not yet picked up by a worker.
  int64_t queue_depth() const;

 private:
  struct Job {
    uint64_t ticket = 0;
    AnalyzeRequest request;
    SubmitOptions submit;
    AggQuery query;         // parsed at Submit
    std::string batch_key;  // dataset + treatment + subpopulation
    Stopwatch queued;       // started at Submit; read at pickup
    /// Custom work (SubmitTask); when set, Execute() runs this instead
    /// of the analyze pipeline.
    std::function<StatusOr<ServiceReport>(RequestStats*)> run;
    /// Cooperative-cancel handle of a SubmitTask job (may be null).
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };

  struct Slot {
    bool done = false;
    std::optional<StatusOr<ServiceReport>> result;
  };

  void WorkerLoop(int worker_id);
  void RunJob(Job job, int worker_id);
  StatusOr<ServiceReport> Execute(const Job& job, int worker_id,
                                  RequestStats* stats);
  void Complete(uint64_t ticket, StatusOr<ServiceReport> result);
  /// Marks the ticket done and bounds retained unclaimed results.
  /// Requires mu_ held; caller notifies done_cv_ after unlocking.
  void CompleteLocked(uint64_t ticket, StatusOr<ServiceReport> result);
  /// Records one terminal outcome into metrics_ and fires on_complete.
  /// `queued`/`ran` gate the wait/run histograms (a parse failure never
  /// queued; a deadline rejection never ran). Call WITHOUT mu_ held —
  /// on_complete is user code.
  void Observe(const RequestStats& stats, const Status& status, bool queued,
               bool ran);

  DatasetRegistry* registry_;
  DiscoveryCache* discovery_;
  QuerySchedulerOptions options_;
  mutable SchedulerMetrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // workers: queue non-empty / stop
  std::condition_variable done_cv_;   // waiters: a ticket completed
  std::deque<Job> queue_;
  std::map<uint64_t, std::shared_ptr<Slot>> slots_;
  /// Cancel flags of currently *running* cooperative jobs, by ticket.
  std::map<uint64_t, std::shared_ptr<std::atomic<bool>>> running_cancels_;
  std::deque<uint64_t> done_order_;  // completion order; may hold stale
                                     // (already-claimed) tickets
  int64_t retained_results_ = 0;     // live completed-unclaimed slots
  uint64_t next_ticket_ = 1;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_QUERY_SCHEDULER_H_
