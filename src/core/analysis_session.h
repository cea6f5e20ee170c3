// AnalysisSession: the paper's "think twice" loop as a first-class,
// stage-addressable object.
//
// The one-shot HypDb::Analyze() runs the whole pipeline — answers,
// discovery, detection, explanation, resolution — whether or not the
// analyst wants more than the first warning. The session decomposes it
// into independently invokable, idempotent stages over persisted state:
//
//   auto session = AnalysisSession::Create(table, query, options);
//   session->Answers();      // the plain (possibly biased) SQL answers
//   session->Discover();     // covariates Z / mediators M (CD algorithm)
//   session->Detect();       // per-context bias verdicts — first warning
//   session->Explain(1);     // drill into one context's explanation
//   session->Rewrite(1);     // …and its rewritten answers
//   session->Report();       // everything (runs whatever is missing)
//
// Each stage persists its result (and the intermediate state later
// stages need: the bound query, the resolved direct-effect reference
// group, the discovery report, the per-context views, treatment
// inventories and count engines), so repeated calls are
// no-ops and later stages reuse instead of recomputing. Prerequisites
// run automatically: Detect() on a fresh session binds and discovers
// first; Rewrite() does not force Detect() or Explain() — stages only
// depend on what they consume.
//
// The load-bearing invariant: a session that reaches every stage
// assembles a report bit-identical (service/report_digest.h) to one-shot
// HypDb::Analyze(), for EVERY order the stages were invoked in, with any
// subset invoked per-context first. Analyze() itself is now a thin
// composition of these stages, so the two paths cannot drift.
//
// Not thread-safe: callers (the service's SessionManager) serialize
// stage execution per session.

#ifndef HYPDB_CORE_ANALYSIS_SESSION_H_
#define HYPDB_CORE_ANALYSIS_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/explainer.h"
#include "core/hypdb.h"
#include "core/query.h"
#include "core/rewriter.h"
#include "util/statusor.h"

namespace hypdb {

/// The five pipeline stages, in canonical (one-shot) order.
enum class AnalysisStage {
  kAnswers = 0,
  kDiscover,
  kDetect,
  kExplain,
  kRewrite,
};
inline constexpr int kNumAnalysisStages = 5;

/// Stable lowercase stage name ("answers", "discover", ...).
const char* AnalysisStageName(AnalysisStage stage);
/// Inverse of AnalysisStageName; InvalidArgument on anything else.
StatusOr<AnalysisStage> ParseAnalysisStage(const std::string& name);

/// Per-stage bookkeeping: `runs` counts computations performed (one per
/// whole stage, or one per context for the per-context stages), `reuses`
/// counts calls fully served from persisted state.
struct StageState {
  bool done = false;
  int64_t runs = 0;
  int64_t reuses = 0;
  double seconds = 0.0;
};

class AnalysisSession {
 public:
  /// Binds `query` against `table` (errors surface here, not at the
  /// first stage) and resolves the direct-effect reference group once
  /// for the whole session.
  static StatusOr<std::unique_ptr<AnalysisSession>> Create(
      TablePtr table, AggQuery query, HypDbOptions options = {},
      SessionHooks hooks = {});
  /// The same over `bound`, which the caller already bound from `query`
  /// against `table` (the service binds once per request to pick its
  /// population shard, and the session reuses that bind).
  static StatusOr<std::unique_ptr<AnalysisSession>> Create(
      TablePtr table, AggQuery query, BoundQuery bound, HypDbOptions options,
      SessionHooks hooks);

  const AggQuery& query() const { return query_; }
  const BoundQuery& bound() const { return bound_; }
  /// The engine every population-wide count goes through — the plain
  /// answers, the FD filter and discovery: hooks.population_engine when
  /// set, else the default stack over bound().population, fixed at
  /// Create.
  const std::shared_ptr<CountEngine>& population_engine() const {
    return population_engine_;
  }
  const HypDbOptions& options() const { return options_; }
  /// The reference group of the mediator formula, resolved once at bind
  /// time (options.direct_reference, or the lexicographically largest
  /// treatment label) so the staged and one-shot paths cannot disagree.
  const std::string& direct_reference() const { return direct_reference_; }

  // ---- stages ----------------------------------------------------------
  // Returned pointers live as long as the session and stay valid across
  // later stage calls.

  StatusOr<const QueryAnswers*> Answers();
  StatusOr<const DiscoveryReport*> Discover();
  StatusOr<const std::vector<ContextBias>*> Detect();
  /// All contexts (computing only those not already done per-context).
  StatusOr<const std::vector<ContextExplanation>*> Explain();
  /// One context (0-based index into the sorted context list).
  StatusOr<const ContextExplanation*> Explain(int context);
  StatusOr<const std::vector<ContextRewrite>*> Rewrite();
  StatusOr<const ContextRewrite*> Rewrite(int context);

  /// Runs every remaining stage (canonical order) and assembles the full
  /// report — bit-identical to one-shot HypDb::Analyze().
  StatusOr<HypDbReport> Report();

  /// Number of contexts of the bound query (splits them on first call).
  StatusOr<int> NumContexts();
  /// Contexts already split, without forcing the split: -1 before any
  /// context-consuming stage ran (const introspection path).
  int SplitContextCount() const {
    return contexts_split_ ? static_cast<int>(contexts_.size()) : -1;
  }

  /// Report of what has been computed so far: per-context stages are
  /// included only once every context is done, so the snapshot is always
  /// well-formed. Digest-comparable only when complete().
  HypDbReport Snapshot() const;
  /// True when every stage (and every context of the per-context
  /// stages) has run.
  bool complete() const;
  const StageState& stage_state(AnalysisStage stage) const {
    return stages_[static_cast<int>(stage)];
  }

  /// Cooperative cancellation: when set and returning true, the next
  /// stage computation (not reuse — persisted state always serves) fails
  /// with kCancelled before it starts. The session stays valid and
  /// resumable; clearing the check (empty function) resumes.
  void SetCancelCheck(std::function<bool()> check) {
    cancel_check_ = std::move(check);
  }

 private:
  AnalysisSession(TablePtr table, AggQuery query, HypDbOptions options,
                  SessionHooks hooks);

  Status CheckCancel(const char* stage);
  Status EnsureContexts();
  /// The persisted count engine of context `i` (provider-shared or
  /// session-private), created on first use.
  StatusOr<std::shared_ptr<CountEngine>> ContextEngine(int i);
  StatusOr<DiscoveryReport> ComputeDiscovery();
  Status ExplainOne(int i);
  Status RewriteOne(int i);
  Status ValidateContextIndex(int context);

  TablePtr table_;
  AggQuery query_;
  HypDbOptions options_;
  SessionHooks hooks_;

  // Bound-query state (Create).
  BoundQuery bound_;
  std::shared_ptr<CountEngine> population_engine_;
  std::string direct_reference_;
  std::string sql_plain_;

  // Context state (EnsureContexts): views, per-context WHERE terms,
  // treatment inventories, significance-seed assignment, engines.
  bool contexts_split_ = false;
  std::vector<Context> contexts_;
  std::vector<std::vector<std::pair<std::string, std::vector<std::string>>>>
      context_wheres_;
  std::vector<std::vector<std::pair<int32_t, std::string>>>
      context_treatments_;
  std::vector<uint64_t> rewrite_seeds_;
  std::vector<std::shared_ptr<CountEngine>> context_engines_;

  // Stage results.
  QueryAnswers answers_;
  DiscoveryReport discovery_;
  std::vector<ContextBias> bias_;
  std::vector<ContextExplanation> explanations_;
  std::vector<char> explain_done_;
  std::vector<ContextRewrite> rewrites_;
  std::vector<char> rewrite_done_;
  std::string sql_total_;
  std::string sql_direct_;

  StageState stages_[kNumAnalysisStages];
  /// Count-engine work of answers + detection + explanation + resolution
  /// (the discovery stage's work lives in discovery_.count_stats,
  /// matching the one-shot report layout).
  CountEngineStats pipeline_stats_;
  /// This session ran ComputeDiscovery (rather than receiving a report
  /// computed elsewhere through the discovery interceptor).
  bool discovery_computed_ = false;

  std::function<bool()> cancel_check_;
};

/// The session-wide reference-group resolution rule (also used for the
/// rewritten direct-effect SQL): `options.direct_reference` when set,
/// otherwise the lexicographically largest treatment label of the bound
/// population (empty when there are none).
std::string ResolveDirectReference(const HypDbOptions& options,
                                   const BoundQuery& bound);

}  // namespace hypdb

#endif  // HYPDB_CORE_ANALYSIS_SESSION_H_
