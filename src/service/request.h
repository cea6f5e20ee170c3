// Request/response types of the HypDB service layer, plus the cache-key
// helpers that make work sharable across queries.
//
// The service keys shared state two ways:
//  * SubpopulationSignature(query) — a canonical rendering of the WHERE
//    clause. Queries whose WHERE clauses select the same rows (up to term
//    and value order) map to the same shard of a dataset's CountEngine
//    pool, so their contingency summaries share one cache.
//  * DiscoveryKey(dataset, epoch, query, options) — everything the
//    covariate/mediator discovery outcome depends on: the dataset (and
//    its registration epoch, so re-registering invalidates), the
//    treatment, the outcomes, the subpopulation, and the discovery-
//    relevant options (CI test config, CD/FD knobs, alpha, seed). Two
//    requests with equal keys provably compute the same DiscoveryReport,
//    which is what lets the DiscoveryCache serve one computation to many
//    queries.

#ifndef HYPDB_SERVICE_REQUEST_H_
#define HYPDB_SERVICE_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/hypdb.h"
#include "util/trace.h"

namespace hypdb {

/// One unit of service work: a Listing-1 SQL query against a registered
/// dataset, with optional per-request analysis options.
struct AnalyzeRequest {
  /// Name the dataset was registered under (DatasetRegistry).
  std::string dataset;
  /// Listing-1 SQL text (see core/sql_parser.h for the dialect).
  std::string sql;
  /// Per-request override of the service-wide analysis options.
  std::optional<HypDbOptions> options;
};

/// One stage of a request's trace timeline. `start_seconds` is measured
/// from request submission on the same monotonic clock as
/// queue_seconds/run_seconds, so spans can be laid out on one axis.
struct TraceSpan {
  /// "queue", "discovery", "detect", "explain", "rewrite", or a session
  /// stage name. Serialization is not a span here: the response cannot
  /// contain its own serialization time (it is measured into the
  /// hypdb_http_serialize_seconds histogram instead).
  std::string name;
  double start_seconds = 0.0;
  double seconds = 0.0;
};

/// Service-side accounting for one request — what the pipeline itself
/// cannot know (queue wait, cross-query reuse, shared-engine work).
struct RequestStats {
  uint64_t ticket = 0;
  int worker_id = -1;
  /// Seconds between Submit() and a worker picking the request up.
  double queue_seconds = 0.0;
  /// Seconds the worker spent executing the pipeline.
  double run_seconds = 0.0;
  /// Discovery was served from the DiscoveryCache (a prior request
  /// computed it).
  bool discovery_reused = false;
  /// Discovery was coalesced with an in-flight twin request (computed
  /// once, shared by both — the scheduler's same-(table,treatment)
  /// batching).
  bool discovery_coalesced = false;
  /// Shared shard-engine work observed during this request (scan/hit
  /// deltas). Attribution is approximate under concurrency: overlapping
  /// requests on the same shard see each other's work.
  CountEngineStats engine_delta;
  /// Where the latency went: stage spans in execution order ("queue"
  /// first, then the pipeline stages that actually ran). Populated on
  /// success AND on cancel/deadline/error paths (then typically just
  /// "queue"). Purely observational — excluded from the report digest by
  /// construction, so metrics stay digest-neutral.
  std::vector<TraceSpan> trace;
  /// The sampling level this request ran at (resolved from
  /// SubmitOptions::trace_level / the service default; 0 = off).
  int trace_level = 0;
  /// Engine-deep ring-buffer events harvested for this request (empty at
  /// trace_level 0): session stage spans, kernel scans, cache decisions,
  /// CI tests, morsel batches — on the same submit-relative axis as
  /// `trace`. Rendered only when non-empty, so the analyze-path wire
  /// format of untraced requests is byte-stable. Observational only.
  std::vector<TraceEventRecord> events;

  // --- session stage jobs only (session_id == 0 otherwise) ------------
  /// The AnalysisSession this request advanced.
  uint64_t session_id = 0;
  /// The stage that ran ("answers"..."rewrite", or "report").
  std::string stage;
  /// The stage was fully served from persisted session state (no
  /// computation happened — detect-after-detect is a no-op).
  bool stage_reused = false;
  /// Every stage of the session is now complete; the report snapshot's
  /// digest is comparable to a one-shot analysis.
  bool session_complete = false;
};

/// What HypDbService hands back: the full report plus service stats.
/// For session stage advances, `report` is the session's current
/// snapshot (per-context stages appear once every context is done) and
/// the optional members carry the single-context result of a
/// per-context explain/rewrite advance.
struct ServiceReport {
  HypDbReport report;
  RequestStats stats;
  std::optional<ContextExplanation> stage_explanation;
  std::optional<ContextRewrite> stage_rewrite;
};

/// Canonical rendering of the query's WHERE clause: values sorted and
/// de-duplicated within each term, terms sorted, identical terms
/// de-duplicated. Queries selecting the same subpopulation (up to term
/// order, value order, and term/value repetition) share it.
std::string SubpopulationSignature(const AggQuery& query);

/// One parsed conjunct of a subpopulation signature: attribute IN values.
struct SubpopulationTerm {
  std::string attribute;
  std::vector<std::string> values;
};

/// Inverse of SubpopulationSignature: parses the canonical rendering back
/// into structured terms (attributes and values unescaped, in signature
/// order). This is how DatasetRegistry decides whether a shard's
/// subpopulation is a pure equality conjunction it can serve by slicing
/// the dataset's shared parent engine. InvalidArgument for strings that
/// are not well-formed signatures.
StatusOr<std::vector<SubpopulationTerm>> ParseSubpopulationSignature(
    const std::string& signature);

/// Prefix every cache key of `dataset` starts with — the invalidation
/// handle used when a dataset is re-registered.
std::string DatasetKeyPrefix(const std::string& dataset);

/// Cache key for the discovery outcome of `query` under `options` against
/// registration `epoch` of `dataset`. Includes every option that can
/// change the discovered covariates/mediators.
std::string DiscoveryKey(const std::string& dataset, int64_t epoch,
                         const AggQuery& query, const HypDbOptions& options);

/// Batch key of the scheduler: requests sharing (dataset, treatment,
/// subpopulation) are drained together so the first one's discovery warms
/// the cache for the rest.
std::string BatchKey(const std::string& dataset, const AggQuery& query);

}  // namespace hypdb

#endif  // HYPDB_SERVICE_REQUEST_H_
