#include "core/hypdb.h"

#include <algorithm>
#include <cmath>

#include "core/analysis_session.h"
#include "core/sql_parser.h"
#include "util/string_util.h"

namespace hypdb {
namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

bool HypDbReport::AnyBias() const {
  for (const auto& b : bias) {
    if (b.total.biased || (b.has_direct && b.direct.biased)) return true;
  }
  return false;
}

HypDb::HypDb(TablePtr table, HypDbOptions options)
    : table_(std::move(table)), options_(std::move(options)) {}

// Answers, Discover and BoundEffects each run on a throwaway session, so
// they share its stages and its choice of count engine.

StatusOr<QueryAnswers> HypDb::Answers(const AggQuery& query) const {
  HYPDB_ASSIGN_OR_RETURN(std::unique_ptr<AnalysisSession> session,
                         AnalysisSession::Create(table_, query, options_));
  HYPDB_ASSIGN_OR_RETURN(const QueryAnswers* answers, session->Answers());
  return *answers;
}

StatusOr<DiscoveryReport> HypDb::Discover(const AggQuery& query) const {
  HYPDB_ASSIGN_OR_RETURN(std::unique_ptr<AnalysisSession> session,
                         AnalysisSession::Create(table_, query, options_));
  HYPDB_ASSIGN_OR_RETURN(const DiscoveryReport* report, session->Discover());
  return *report;
}

StatusOr<EffectBounds> HypDb::BoundEffects(
    const AggQuery& query, const EffectBoundsOptions& options) const {
  HYPDB_ASSIGN_OR_RETURN(std::unique_ptr<AnalysisSession> session,
                         AnalysisSession::Create(table_, query, options_));
  HYPDB_ASSIGN_OR_RETURN(const DiscoveryReport* discovery,
                         session->Discover());
  const BoundQuery& bound = session->bound();
  std::vector<int> candidates;
  for (int c : discovery->treatment_blanket_cols) {
    if (!Contains(bound.outcomes, c)) candidates.push_back(c);
  }
  return BoundTotalEffect(table_, bound, candidates,
                          session->population_engine(), options);
}

StatusOr<HypDbReport> HypDb::Analyze(const AggQuery& query,
                                     SessionHooks hooks) {
  // The one-shot pipeline is a composition of the session stages in
  // canonical order — Report() runs answers, discovery, detection,
  // explanation and resolution over one set of persisted intermediate
  // state, so the staged and one-shot paths are the same code and their
  // reports bit-identical by construction.
  HYPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<AnalysisSession> session,
      AnalysisSession::Create(table_, query, options_, std::move(hooks)));
  return session->Report();
}

StatusOr<HypDbReport> HypDb::AnalyzeSql(const std::string& sql) {
  HYPDB_ASSIGN_OR_RETURN(AggQuery query, ParseAggQuery(sql));
  return Analyze(query);
}

namespace {

std::string ContextHeading(const std::vector<std::string>& grouping,
                           const std::vector<std::string>& labels) {
  if (labels.empty()) return "";
  std::vector<std::string> parts;
  for (size_t i = 0; i < labels.size(); ++i) {
    parts.push_back((i < grouping.size() ? grouping[i] : "?") + "=" +
                    labels[i]);
  }
  return " [" + Join(parts, ", ") + "]";
}

std::string FormatP(const CiResult& r) {
  if (r.p_value < 0.001) return "<0.001";
  if (r.p_low != r.p_high) {
    return StrFormat("(%.3f, %.3f)", r.p_low, r.p_high);
  }
  return StrFormat("%.3f", r.p_value);
}

}  // namespace

std::string RenderReport(const HypDbReport& report) {
  std::string out;
  out += "=== HypDB report ===\n";
  out += "SQL query:\n" + report.sql_plain + "\n\n";

  out += "-- Discovery --\n";
  out += "covariates (Z): " + Join(report.discovery.covariates, ", ") +
         (report.discovery.covariates_fell_back ? "  [fallback: MB(T)]"
                                                : "") +
         "\n";
  out += "mediators  (M): " + Join(report.discovery.mediators, ", ") +
         (report.discovery.mediators_fell_back ? "  [fallback: MB(Y)]" : "") +
         "\n";
  if (!report.discovery.dropped_fd.empty()) {
    out += "dropped (FD): " + Join(report.discovery.dropped_fd, ", ") + "\n";
  }
  if (!report.discovery.dropped_keys.empty()) {
    out += "dropped (key-like): " + Join(report.discovery.dropped_keys, ", ") +
           "\n";
  }

  for (size_t c = 0; c < report.plain.contexts.size(); ++c) {
    const ContextAnswer& ctx = report.plain.contexts[c];
    out += "\n-- Context" +
           ContextHeading(report.query.grouping, ctx.context_labels) +
           " --\n";
    const ContextBias* bias = c < report.bias.size() ? &report.bias[c]
                                                     : nullptr;
    if (bias != nullptr) {
      out += StrFormat("bias (total): %s  I=%.4f  p=%s\n",
                       bias->total.biased ? "BIASED" : "unbiased",
                       bias->total.ci.statistic,
                       FormatP(bias->total.ci).c_str());
      if (bias->has_direct) {
        out += StrFormat("bias (direct): %s  I=%.4f  p=%s\n",
                         bias->direct.biased ? "BIASED" : "unbiased",
                         bias->direct.ci.statistic,
                         FormatP(bias->direct.ci).c_str());
      }
    }

    const ContextRewrite* rw =
        c < report.rewrites.size() ? &report.rewrites[c] : nullptr;
    for (size_t o = 0; o < report.plain.outcome_names.size(); ++o) {
      out += "outcome avg(" + report.plain.outcome_names[o] + "):\n";
      out += StrFormat("  %-14s %12s %14s %15s\n", "group", "SQL answer",
                       "total effect", "direct effect");
      for (const GroupAnswer& g : ctx.groups) {
        std::string total = "-";
        std::string direct = "-";
        if (rw != nullptr) {
          for (const auto& ag : rw->total) {
            if (ag.treatment_label == g.treatment_label) {
              total = StrFormat("%.4f", ag.means[o]);
            }
          }
          for (const auto& ag : rw->direct) {
            if (ag.treatment_label == g.treatment_label) {
              direct = StrFormat("%.4f", ag.means[o]);
            }
          }
        }
        out += StrFormat("  %-14s %12.4f %14s %15s\n",
                         g.treatment_label.c_str(), g.averages[o],
                         total.c_str(), direct.c_str());
      }
      if (rw != nullptr && ctx.groups.size() == 2) {
        const std::string& t0 = ctx.groups[0].treatment_label;
        const std::string& t1 = ctx.groups[1].treatment_label;
        double plain_diff = ctx.Difference(t1, t0, static_cast<int>(o));
        double total_diff = rw->Difference(t1, t0, static_cast<int>(o), true);
        double direct_diff =
            rw->has_direct ? rw->Difference(t1, t0, static_cast<int>(o), false)
                           : std::nan("");
        out += StrFormat("  %-14s %12.4f %14.4f %15.4f\n", "diff", plain_diff,
                         total_diff, direct_diff);
        if (o < rw->plain_sig.size()) {
          std::string p_plain = FormatP(rw->plain_sig[o]);
          std::string p_total =
              o < rw->total_sig.size() ? FormatP(rw->total_sig[o]) : "-";
          std::string p_direct =
              o < rw->direct_sig.size() ? FormatP(rw->direct_sig[o]) : "-";
          out += StrFormat("  %-14s %12s %14s %15s\n", "p-value",
                           p_plain.c_str(), p_total.c_str(),
                           p_direct.c_str());
        }
      }
    }

    const ContextExplanation* expl =
        c < report.explanations.size() ? &report.explanations[c] : nullptr;
    if (expl != nullptr && !expl->coarse.empty()) {
      out += "coarse-grained explanations (responsibility):\n";
      for (const auto& r : expl->coarse) {
        if (r.rho <= 0.0) continue;
        out += StrFormat("  %-20s %.3f\n", r.attribute.c_str(), r.rho);
      }
      for (const auto& fine : expl->fine) {
        out += "fine-grained for " + fine.covariate + ":\n";
        for (const auto& t : fine.top) {
          out += StrFormat("  #%d  (T=%s, Y=%s, %s=%s)  k_tz=%.4f k_yz=%.4f\n",
                           t.borda_rank, t.t_label.c_str(), t.y_label.c_str(),
                           fine.covariate.c_str(), t.z_label.c_str(),
                           t.kappa_tz, t.kappa_yz);
        }
      }
    }
  }

  out += "\n-- Rewritten query (total effect, Listing 2) --\n" +
         report.sql_total + "\n";
  if (!report.sql_direct.empty()) {
    out += "\n-- Rewritten query (direct effect, Eq. 3) --\n" +
           report.sql_direct + "\n";
  }
  out += StrFormat(
      "\ntimings: discovery %.3fs, detect %.3fs, explain %.3fs, resolve "
      "%.3fs\n",
      report.discovery.seconds, report.detect_seconds, report.explain_seconds,
      report.resolve_seconds);
  const CountEngineStats& cs = report.count_stats;
  out += StrFormat("count engine: %lld queries, %lld scans",
                   static_cast<long long>(cs.queries),
                   static_cast<long long>(cs.scans));
  out += StrFormat(", %lld cache hits, %lld marginalized",
                   static_cast<long long>(cs.cache_hits),
                   static_cast<long long>(cs.marginalizations));
  if (cs.cube_hits > 0) {
    out += StrFormat(", %lld cube hits",
                     static_cast<long long>(cs.cube_hits));
  }
  out += "\n";
  return out;
}

}  // namespace hypdb
