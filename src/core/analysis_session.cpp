#include "core/analysis_session.h"

#include <algorithm>

#include "causal/cd_algorithm.h"
#include "causal/ci_oracle.h"
#include "causal/fd_filter.h"
#include "core/sql_printer.h"
#include "stats/mi_engine.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace hypdb {
namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

std::vector<std::string> Names(const TablePtr& table,
                               const std::vector<int>& cols) {
  std::vector<std::string> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(table->column(c).name());
  return out;
}

}  // namespace

const char* AnalysisStageName(AnalysisStage stage) {
  switch (stage) {
    case AnalysisStage::kAnswers: return "answers";
    case AnalysisStage::kDiscover: return "discover";
    case AnalysisStage::kDetect: return "detect";
    case AnalysisStage::kExplain: return "explain";
    case AnalysisStage::kRewrite: return "rewrite";
  }
  return "unknown";
}

StatusOr<AnalysisStage> ParseAnalysisStage(const std::string& name) {
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    AnalysisStage stage = static_cast<AnalysisStage>(s);
    if (name == AnalysisStageName(stage)) return stage;
  }
  return Status::InvalidArgument(
      "unknown stage '" + name +
      "' (expected answers|discover|detect|explain|rewrite)");
}

AnalysisSession::AnalysisSession(TablePtr table, AggQuery query,
                                 HypDbOptions options, SessionHooks hooks)
    : table_(std::move(table)), query_(std::move(query)),
      options_(std::move(options)), hooks_(std::move(hooks)) {}

StatusOr<std::unique_ptr<AnalysisSession>> AnalysisSession::Create(
    TablePtr table, AggQuery query, HypDbOptions options,
    SessionHooks hooks) {
  BoundQuery bound;
  {
    // Applying the WHERE reads rows; the kBind span gives that work a
    // stage parent in the trace.
    TraceSpanScope span(TraceEventKind::kStage, 1,
                        static_cast<uint64_t>(TraceStage::kBind));
    HYPDB_ASSIGN_OR_RETURN(bound, BindQuery(table, query));
  }
  return Create(std::move(table), std::move(query), std::move(bound),
                std::move(options), std::move(hooks));
}

StatusOr<std::unique_ptr<AnalysisSession>> AnalysisSession::Create(
    TablePtr table, AggQuery query, BoundQuery bound, HypDbOptions options,
    SessionHooks hooks) {
  std::unique_ptr<AnalysisSession> session(new AnalysisSession(
      std::move(table), std::move(query), std::move(options),
      std::move(hooks)));
  AnalysisSession& s = *session;
  s.bound_ = std::move(bound);
  s.population_engine_ =
      s.hooks_.population_engine != nullptr
          ? s.hooks_.population_engine
          : MakeViewEngine(s.bound_.population, s.options_.engine);
  // The reference group of the mediator formula: the option, or the
  // largest treatment label of the population's census.
  s.direct_reference_ = s.options_.direct_reference;
  if (s.direct_reference_.empty()) {
    TraceSpanScope span(TraceEventKind::kStage, 1,
                        static_cast<uint64_t>(TraceStage::kBind));
    HYPDB_ASSIGN_OR_RETURN(auto census, s.Census(*s.population_engine_));
    if (!census.empty()) s.direct_reference_ = census.back().second;
  }
  s.sql_plain_ = s.query_.ToSql();
  return session;
}

StatusOr<std::vector<std::pair<int32_t, std::string>>>
AnalysisSession::Census(CountEngine& engine) {
  const CountEngineStats before = engine.stats();
  auto census = TreatmentsIn(engine, *table_, bound_.treatment);
  pipeline_stats_ += engine.stats() - before;
  return census;
}

std::shared_ptr<CountEngine> AnalysisSession::MakeContextEngine(size_t i) {
  // An ungrouped query's one context is the population: one engine.
  if (bound_.grouping.empty()) return population_engine_;
  std::shared_ptr<CountEngine> engine;
  if (hooks_.context_engine_provider) {
    engine = hooks_.context_engine_provider(context_wheres_[i],
                                            contexts_[i].view);
  }
  return engine != nullptr ? engine
                           : MakeViewEngine(contexts_[i].view,
                                            options_.engine);
}

Status AnalysisSession::CheckCancel(const char* stage) {
  if (cancel_check_ && cancel_check_()) {
    return Status::Cancelled(std::string("session cancelled before the ") +
                             stage + " stage");
  }
  return Status::Ok();
}

Status AnalysisSession::EnsureContexts() {
  if (contexts_split_) return Status::Ok();
  // Context splitting runs ahead of whichever stage needed it, outside
  // that stage's span; the treatment-inventory counts below are engine
  // work, so the bind span gives them a stage parent in the trace.
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kBind));
  HYPDB_ASSIGN_OR_RETURN(contexts_, SplitContexts(table_, bound_));
  const size_t n = contexts_.size();

  // Per-context WHERE conjunction: the query's WHERE plus one IN-term
  // per grouping attribute — the handle the service renders into its
  // canonical shard signature.
  context_wheres_.clear();
  for (const Context& ctx : contexts_) {
    auto where = query_.where;
    for (size_t g = 0; g < query_.grouping.size() && g < ctx.labels.size();
         ++g) {
      where.emplace_back(query_.grouping[g],
                         std::vector<std::string>{ctx.labels[g]});
    }
    context_wheres_.push_back(std::move(where));
  }

  // Engines and treatment inventories, each counted through its
  // context's engine, and from them the rewrite significance-seed
  // assignment: the i-th context that has >= 2 treatments draws from
  // seed (base + i), whatever order contexts are rewritten in.
  context_engines_.clear();
  context_treatments_.clear();
  rewrite_seeds_.clear();
  uint64_t seed = options_.seed ^ 0x9E50;
  for (size_t i = 0; i < n; ++i) {
    context_engines_.push_back(MakeContextEngine(i));
    HYPDB_ASSIGN_OR_RETURN(auto treatments, Census(*context_engines_[i]));
    rewrite_seeds_.push_back(seed);
    if (treatments.size() >= 2) ++seed;
    context_treatments_.push_back(std::move(treatments));
  }

  explanations_.assign(n, ContextExplanation{});
  explain_done_.assign(n, 0);
  rewrites_.assign(n, ContextRewrite{});
  rewrite_done_.assign(n, 0);
  contexts_split_ = true;
  return Status::Ok();
}

StatusOr<int> AnalysisSession::NumContexts() {
  HYPDB_RETURN_IF_ERROR(EnsureContexts());
  return static_cast<int>(contexts_.size());
}

Status AnalysisSession::ValidateContextIndex(int context) {
  HYPDB_RETURN_IF_ERROR(EnsureContexts());
  if (context < 0 || context >= static_cast<int>(contexts_.size())) {
    return Status::OutOfRange(
        "context " + std::to_string(context) + " out of range (query has " +
        std::to_string(contexts_.size()) + " contexts)");
  }
  return Status::Ok();
}

StatusOr<const QueryAnswers*> AnalysisSession::Answers() {
  StageState& st = stages_[static_cast<int>(AnalysisStage::kAnswers)];
  if (st.done) {
    ++st.reuses;
    return &answers_;
  }
  HYPDB_RETURN_IF_ERROR(CheckCancel("answers"));
  Stopwatch timer;
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kAnswers));
  // The averages derive from count(*) GROUP BY (T, X..., Y), which the
  // population engine keeps for discovery; a shared one serves them from
  // cache once warm.
  CountEngine& engine = *population_engine_;
  const CountEngineStats stats_before = engine.stats();
  HYPDB_ASSIGN_OR_RETURN(answers_,
                         EvaluateBoundQuery(table_, query_, bound_, engine));
  pipeline_stats_ += engine.stats() - stats_before;
  st.done = true;
  ++st.runs;
  st.seconds += timer.ElapsedSeconds();
  return &answers_;
}

StatusOr<DiscoveryReport> AnalysisSession::ComputeDiscovery() {
  Stopwatch timer;
  DiscoveryReport report;
  // The FD filter and both discovery runs (PA_T and PA_Y) count through
  // the population engine: their statistics overlap heavily, and the
  // answers' summaries are already there. Its stats are reported as a
  // delta over this call. The delta excludes work done before the call
  // but NOT work other queries do concurrently on a shared engine during
  // it — approximate attribution, never part of the bit-identity
  // invariant (report digests exclude count_stats for this reason).
  const CountEngineStats stats_before = population_engine_->stats();

  // Candidate attributes: everything except the treatment, minus logical
  // dependencies (Sec. 4). The treatment is pinned first so bijection
  // partners of T are dropped, never T itself.
  std::vector<int> filtered = {bound_.treatment};
  {
    std::vector<int> pool = {bound_.treatment};
    for (int c = 0; c < table_->NumColumns(); ++c) {
      if (c != bound_.treatment) pool.push_back(c);
    }
    if (options_.apply_fd_filter) {
      Rng rng(options_.seed ^ 0xFD);
      HYPDB_ASSIGN_OR_RETURN(
          FdFilterReport fd,
          FilterLogicalDependencies(bound_.population, *population_engine_,
                                    pool, rng));
      filtered = fd.kept;
      for (const auto& [dropped, partner] : fd.dropped_fd) {
        report.dropped_fd.push_back(table_->column(dropped).name());
      }
      for (int dropped : fd.dropped_keys) {
        report.dropped_keys.push_back(table_->column(dropped).name());
      }
      if (!Contains(filtered, bound_.treatment)) {
        // The treatment itself looked key-like; discovery is meaningless.
        return Status::FailedPrecondition(
            "treatment attribute " + query_.treatment +
            " was classified as key-like");
      }
    } else {
      filtered = pool;
    }
  }

  std::vector<int> candidates;
  for (int c : filtered) {
    if (c != bound_.treatment) candidates.push_back(c);
  }

  MiEngine engine(population_engine_, options_.engine);
  CiTester tester(&engine, options_.ci, options_.seed);
  DataCiOracle oracle(&tester, options_.alpha);

  // Z = PA_T (Alg. 1); outcomes never enter the covariate set.
  HYPDB_ASSIGN_OR_RETURN(
      CdResult cd_t,
      DiscoverParents(oracle, bound_.treatment, candidates, bound_.outcomes));
  report.covariates_fell_back = cd_t.fell_back_to_blanket;
  report.treatment_blanket_cols = cd_t.markov_blanket;
  for (int p : cd_t.parents) {
    if (!Contains(bound_.outcomes, p)) report.covariate_cols.push_back(p);
  }

  // M = PA_Y − {T} for the primary outcome.
  if (options_.discover_mediators) {
    const int y = bound_.outcomes[0];
    std::vector<int> y_candidates;
    for (int c : filtered) {
      if (c != y) y_candidates.push_back(c);
    }
    HYPDB_ASSIGN_OR_RETURN(
        CdResult cd_y,
        DiscoverParents(oracle, y, y_candidates, {bound_.treatment}));
    report.mediators_fell_back = cd_y.fell_back_to_blanket;
    for (int p : cd_y.parents) {
      if (p != bound_.treatment && !Contains(bound_.outcomes, p)) {
        report.mediator_cols.push_back(p);
      }
    }
  }

  report.covariates = Names(table_, report.covariate_cols);
  report.mediators = Names(table_, report.mediator_cols);
  report.tests_used = oracle.num_tests();
  report.count_stats = population_engine_->stats() - stats_before;
  report.seconds = timer.ElapsedSeconds();
  discovery_computed_ = true;
  return report;
}

StatusOr<const DiscoveryReport*> AnalysisSession::Discover() {
  StageState& st = stages_[static_cast<int>(AnalysisStage::kDiscover)];
  if (st.done) {
    ++st.reuses;
    return &discovery_;
  }
  HYPDB_RETURN_IF_ERROR(CheckCancel("discover"));
  Stopwatch timer;
  // The stage span wraps whichever path runs — cache hit, coalesced
  // wait, or the full computation — so discovery-cache and CI-test
  // events nest inside it.
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kDiscover));
  if (hooks_.discovery_interceptor) {
    HYPDB_ASSIGN_OR_RETURN(
        discovery_,
        hooks_.discovery_interceptor([this] { return ComputeDiscovery(); }));
  } else {
    HYPDB_ASSIGN_OR_RETURN(discovery_, ComputeDiscovery());
  }

  // The rewritten SQL texts derive from discovery + the reference group
  // resolved at bind time, so they become available here — analysts can
  // inspect the Listing-2 rewrite before paying for its evaluation.
  sql_total_ = RewrittenTotalSql(query_, discovery_.covariates);
  if (options_.discover_mediators) {
    sql_direct_ = RewrittenDirectSql(query_, discovery_.covariates,
                                     discovery_.mediators,
                                     direct_reference_);
  }
  st.done = true;
  ++st.runs;
  st.seconds += timer.ElapsedSeconds();
  return &discovery_;
}

StatusOr<const std::vector<ContextBias>*> AnalysisSession::Detect() {
  StageState& st = stages_[static_cast<int>(AnalysisStage::kDetect)];
  if (st.done) {
    ++st.reuses;
    return &bias_;
  }
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(EnsureContexts());
  HYPDB_RETURN_IF_ERROR(CheckCancel("detect"));
  Stopwatch timer;
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kDetect),
                      contexts_.size());
  DetectorOptions det;
  det.ci = options_.ci;
  det.alpha = options_.alpha;
  det.seed = options_.seed ^ 0xDE7EC7;
  det.estimator = options_.engine.estimator;
  const std::vector<int>* mediators =
      options_.discover_mediators ? &discovery_.mediator_cols : nullptr;
  HYPDB_ASSIGN_OR_RETURN(
      bias_, DetectBias(table_, bound_, contexts_,
                        discovery_.covariate_cols, mediators, det,
                        context_engines_, &pipeline_stats_));
  st.done = true;
  ++st.runs;
  st.seconds += timer.ElapsedSeconds();
  return &bias_;
}

Status AnalysisSession::ExplainOne(int i) {
  if (explain_done_[i]) return Status::Ok();
  StageState& st = stages_[static_cast<int>(AnalysisStage::kExplain)];
  Stopwatch timer;
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kExplain),
                      static_cast<uint64_t>(i));
  std::vector<int> v = discovery_.covariate_cols;
  for (int m : discovery_.mediator_cols) {
    if (!Contains(v, m)) v.push_back(m);
  }
  std::sort(v.begin(), v.end());
  HYPDB_ASSIGN_OR_RETURN(
      explanations_[i],
      ExplainContext(table_, bound_, contexts_[i], v,
                     options_.engine.estimator, context_engines_[i],
                     &pipeline_stats_));
  explain_done_[i] = 1;
  ++st.runs;
  st.seconds += timer.ElapsedSeconds();
  st.done = std::all_of(explain_done_.begin(), explain_done_.end(),
                        [](char d) { return d != 0; });
  return Status::Ok();
}

StatusOr<const std::vector<ContextExplanation>*> AnalysisSession::Explain() {
  StageState& st = stages_[static_cast<int>(AnalysisStage::kExplain)];
  if (st.done) {
    ++st.reuses;
    return &explanations_;
  }
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(EnsureContexts());
  HYPDB_RETURN_IF_ERROR(CheckCancel("explain"));
  for (size_t i = 0; i < contexts_.size(); ++i) {
    HYPDB_RETURN_IF_ERROR(ExplainOne(static_cast<int>(i)));
  }
  if (contexts_.empty()) st.done = true;
  return &explanations_;
}

StatusOr<const ContextExplanation*> AnalysisSession::Explain(int context) {
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(ValidateContextIndex(context));
  StageState& st = stages_[static_cast<int>(AnalysisStage::kExplain)];
  if (explain_done_[context]) {
    ++st.reuses;
    return &explanations_[context];
  }
  HYPDB_RETURN_IF_ERROR(CheckCancel("explain"));
  HYPDB_RETURN_IF_ERROR(ExplainOne(context));
  return &explanations_[context];
}

Status AnalysisSession::RewriteOne(int i) {
  if (rewrite_done_[i]) return Status::Ok();
  StageState& st = stages_[static_cast<int>(AnalysisStage::kRewrite)];
  Stopwatch timer;
  TraceSpanScope span(TraceEventKind::kStage, 1,
                      static_cast<uint64_t>(TraceStage::kRewrite),
                      static_cast<uint64_t>(i));
  RewriterOptions rw;
  rw.ci = options_.ci;
  rw.compute_direct = options_.discover_mediators;
  rw.direct_reference = direct_reference_;
  rw.compute_significance = options_.compute_significance;
  rw.estimator = options_.engine.estimator;
  HYPDB_ASSIGN_OR_RETURN(
      rewrites_[i],
      RewriteContextAndEstimate(table_, bound_, contexts_[i],
                                context_treatments_[i],
                                discovery_.covariate_cols,
                                discovery_.mediator_cols, rw,
                                rewrite_seeds_[i], context_engines_[i],
                                &pipeline_stats_));
  rewrite_done_[i] = 1;
  ++st.runs;
  st.seconds += timer.ElapsedSeconds();
  st.done = std::all_of(rewrite_done_.begin(), rewrite_done_.end(),
                        [](char d) { return d != 0; });
  return Status::Ok();
}

StatusOr<const std::vector<ContextRewrite>*> AnalysisSession::Rewrite() {
  StageState& st = stages_[static_cast<int>(AnalysisStage::kRewrite)];
  if (st.done) {
    ++st.reuses;
    return &rewrites_;
  }
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(EnsureContexts());
  HYPDB_RETURN_IF_ERROR(CheckCancel("rewrite"));
  for (size_t i = 0; i < contexts_.size(); ++i) {
    HYPDB_RETURN_IF_ERROR(RewriteOne(static_cast<int>(i)));
  }
  if (contexts_.empty()) st.done = true;
  return &rewrites_;
}

StatusOr<const ContextRewrite*> AnalysisSession::Rewrite(int context) {
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(ValidateContextIndex(context));
  StageState& st = stages_[static_cast<int>(AnalysisStage::kRewrite)];
  if (rewrite_done_[context]) {
    ++st.reuses;
    return &rewrites_[context];
  }
  HYPDB_RETURN_IF_ERROR(CheckCancel("rewrite"));
  HYPDB_RETURN_IF_ERROR(RewriteOne(context));
  return &rewrites_[context];
}

bool AnalysisSession::complete() const {
  for (const StageState& st : stages_) {
    if (!st.done) return false;
  }
  return true;
}

HypDbReport AnalysisSession::Snapshot() const {
  HypDbReport report;
  report.query = query_;
  report.sql_plain = sql_plain_;
  const auto& st = stages_;
  if (st[static_cast<int>(AnalysisStage::kAnswers)].done) {
    report.plain = answers_;
  }
  if (st[static_cast<int>(AnalysisStage::kDiscover)].done) {
    report.discovery = discovery_;
    report.sql_total = sql_total_;
    report.sql_direct = sql_direct_;
  }
  if (st[static_cast<int>(AnalysisStage::kDetect)].done) {
    report.bias = bias_;
  }
  if (st[static_cast<int>(AnalysisStage::kExplain)].done) {
    report.explanations = explanations_;
  }
  if (st[static_cast<int>(AnalysisStage::kRewrite)].done) {
    report.rewrites = rewrites_;
  }
  report.detect_seconds =
      st[static_cast<int>(AnalysisStage::kDetect)].seconds;
  report.explain_seconds =
      st[static_cast<int>(AnalysisStage::kExplain)].seconds;
  report.resolve_seconds =
      st[static_cast<int>(AnalysisStage::kRewrite)].seconds;
  report.count_stats = pipeline_stats_;
  if (discovery_computed_) report.count_stats += discovery_.count_stats;
  return report;
}

StatusOr<HypDbReport> AnalysisSession::Report() {
  HYPDB_RETURN_IF_ERROR(Answers().status());
  HYPDB_RETURN_IF_ERROR(Discover().status());
  HYPDB_RETURN_IF_ERROR(Detect().status());
  HYPDB_RETURN_IF_ERROR(Explain().status());
  HYPDB_RETURN_IF_ERROR(Rewrite().status());
  return Snapshot();
}

}  // namespace hypdb
