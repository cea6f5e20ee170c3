// Engine-deep execution tracing: per-thread ring buffers of binary trace
// events, harvested per request.
//
// The PR 7 trace timeline (RequestStats::trace) stops at stage
// granularity; this layer records what happened *inside* a stage — which
// cache decision, kernel scan, CI test, or coalescing wait ate the time.
// Design constraints, in order:
//  * Hot path: no locks, no allocation, ~2 cache-line writes per event.
//    Each thread writes into its own fixed-capacity ring of 64-byte
//    slots; slots are all-atomic words written with release stores and
//    published with a release store of a per-slot sequence number (a
//    seqlock in the single-writer direction), so concurrent harvesters
//    are race-free under TSan and torn reads are detected and skipped.
//  * Attribution: a thread_local TraceContext carries the request ticket
//    and sampling level from the QueryScheduler worker down through
//    AnalysisSession stages into the engines; code that spawns helper
//    threads (the morsel kernel) captures the context by value and
//    re-installs it in the workers.
//  * Digest neutrality by construction: recording observes, it never
//    feeds back into any computed value.
//  * Bounded memory: rings come from a fixed pool, are recycled when
//    threads exit, and wrap silently (oldest events overwritten; the
//    drop counter in TraceRollup records pool exhaustion).
//
// Sampling levels (resolved per request, SubmitOptions::trace_level):
//   0  off — recording compiled in but every call early-returns.
//   1  default — session stage spans, kernel scan spans (per tier),
//      cache decision instants (hit/miss/marginalize/evict/prefetch),
//      discovery cache outcomes and coalescing-wait spans.
//   2  deep — everything above plus per-CI-test spans and per-morsel
//      batch instants.

#ifndef HYPDB_UTIL_TRACE_H_
#define HYPDB_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace hypdb {

/// What one trace event describes. Families group the kinds for rollup
/// metrics and Chrome-trace categories.
enum class TraceEventKind : uint8_t {
  kNone = 0,
  // Spans (dur > 0 semantics; a degenerate span may still measure 0).
  kStage,          // one AnalysisSession stage; arg0 = TraceStage
  kKernelScan,     // one group-by kernel scan; arg0 = tier, arg1 = rows
  kCiTest,         // one conditional-independence test; arg1 = rows
  kDiscoveryWait,  // blocked on an in-flight twin discovery (coalesced)
  kIngestAppend,   // one append batch; arg0 = rows, arg1 = new watermark
  kDeltaPatch,     // cached summary patched current; arg0 = stale rows
  // Instants (dur == 0 always).
  kCacheHit,          // CachingCountEngine exact-summary hit
  kCacheMiss,         // CachingCountEngine scan (no reusable summary)
  kCacheMarginalize,  // answered by marginalizing a superset summary
  kCacheEvict,        // LRU eviction to budget; arg0 = cells evicted
  kCachePrefetch,     // prefetch pinned a summary; arg0 = cells
  kDiscoveryHit,      // DiscoveryCache served a cached report
  kDiscoveryCompute,  // this request computed the discovery
  kMorselBatch,       // one morsel dispatched; arg0 = begin, arg1 = rows
};

/// Stage ids carried in kStage events' arg0 (names via TraceStageName).
enum class TraceStage : uint8_t {
  kAnswers = 0,
  kDiscover,
  kDetect,
  kExplain,
  kRewrite,
  /// Query setup: name binding plus the treatment-label enumeration
  /// scan — engine work that runs before any analysis stage opens.
  kBind,
};

inline constexpr int kNumTraceStages = 6;

/// Kernel tiers carried in kKernelScan events' arg0.
enum class TraceKernelTier : uint8_t {
  kReference = 0,
  kScalar,
  kSimd,
};

/// Stable lower-case names for export ("stage", "kernel_scan", ...).
const char* TraceEventKindName(TraceEventKind kind);
const char* TraceStageName(TraceStage stage);
const char* TraceKernelTierName(TraceKernelTier tier);

/// One harvested event, converted to the request's submit-relative
/// seconds axis (the same axis as RequestStats::trace), ready for the
/// JSON codecs. Purely observational — excluded from report digests.
struct TraceEventRecord {
  TraceEventKind kind = TraceEventKind::kNone;
  uint32_t thread_id = 0;  // stable per-thread id (1-based, process-wide)
  double start_seconds = 0.0;
  double dur_seconds = 0.0;  // 0 for instants
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

/// The per-request attribution installed on a worker thread while a
/// request executes. ticket == 0 or level <= 0 disables recording.
struct TraceContext {
  uint64_t ticket = 0;
  int level = 0;
  /// steady_clock nanos at request submission — the origin of the
  /// submit-relative axis events are exported on.
  uint64_t t0_nanos = 0;
};

/// The calling thread's current context (a disabled default when none
/// is installed). Cheap: one thread_local read.
TraceContext CurrentTraceContext();

/// True when an event gated at `min_level` would be recorded right now.
/// Callers use this to skip argument computation, not for correctness.
bool TraceEnabled(int min_level);

/// Installs `ctx` as the calling thread's context for the scope's
/// lifetime, restoring the previous one on exit. Used by the scheduler
/// worker around RunJob() and by the morsel kernel's helper threads.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Records an instant event (dur == 0) if the current context admits
/// `min_level`. Lock-free, allocation-free.
void TraceInstant(TraceEventKind kind, int min_level, uint64_t arg0 = 0,
                  uint64_t arg1 = 0);

/// RAII span: measures construction → destruction and records one
/// complete event at destruction (so a span costs a single slot write).
/// Disabled spans (level too low, no context) cost two branches.
class TraceSpanScope {
 public:
  TraceSpanScope(TraceEventKind kind, int min_level, uint64_t arg0 = 0,
                 uint64_t arg1 = 0);
  ~TraceSpanScope();
  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

  /// Updates arg1 after construction (e.g. a result size only known at
  /// the end of the measured region).
  void set_arg1(uint64_t v) { arg1_ = v; }

 private:
  uint64_t start_nanos_ = 0;  // 0 = disabled
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
  TraceEventKind kind_ = TraceEventKind::kNone;
};

/// Collects every live ring event belonging to `ticket`, converts
/// timestamps to seconds relative to `t0_nanos`, and returns them
/// sorted by start time (ties: longer span first, so parents precede
/// children). Rings wrap, so the result holds the *most recent* events
/// of a very long request, not necessarily all of them. Consuming:
/// harvested slots are emptied, so a later scheduler's request that
/// reuses the same ticket number never inherits stale events (tickets
/// are per-scheduler; a process can host several). Thread-safe.
std::vector<TraceEventRecord> HarvestTrace(uint64_t ticket,
                                           uint64_t t0_nanos);

/// Aggregate rollups per event family, bumped as events are recorded
/// (relaxed atomics; negligible next to the ring write). Registered
/// into the service MetricsRegistry so /metrics can answer "how often
/// does the cache miss" without per-request traces.
struct TraceRollup {
  Counter cache_hits;
  Counter cache_misses;
  Counter cache_marginalizations;
  Counter cache_evictions;
  Counter cache_prefetches;
  Counter discovery_hits;
  Counter discovery_computes;
  Counter ci_tests;
  Counter morsel_batches;
  Counter ingest_appends;
  Counter delta_patches;
  /// Events lost because the ring pool was exhausted (more live threads
  /// than kMaxRings) — the only way recording is ever incomplete.
  Counter dropped_events;
  LatencyHistogram stage_seconds[kNumTraceStages];  // by TraceStage
  LatencyHistogram kernel_scan_seconds[3];  // by TraceKernelTier
  LatencyHistogram ci_test_seconds;
  LatencyHistogram discovery_wait_seconds;
};

/// The process-wide rollup (function-local static: outlives every
/// service, so registries may point into it).
TraceRollup& GlobalTraceRollup();

/// Testing hook: per-ring capacity.
int TraceRingCapacity();

}  // namespace hypdb

#endif  // HYPDB_UTIL_TRACE_H_
