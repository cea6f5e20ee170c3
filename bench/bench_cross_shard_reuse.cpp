// Cross-shard count reuse gate: a multi-subpopulation workload through
// the predicate-slicing shard pool must perform strictly fewer data
// scans than the sharded-but-isolated baseline — with bit-identical
// report digests and p-values. The paper's Sec. 6 argument ("every
// statistic is a count(*) GROUP BY, so share the counts") applied
// *across* WHERE clauses: counts over S for a subpopulation P = v are a
// slice of the full-table S ∪ P summary, so one parent materialization
// serves every department instead of one scan per (department, column
// set).
//
// Workload: one dataset (Berkeley admissions), >= 4 equality
// subpopulations (one per department), analyzed twice: through isolated
// shards (the baseline — one private scanner-plus-cache engine per
// subpopulation signature, handed to HypDb::Analyze through
// SessionHooks the way the service hands out its shards) and through
// HypDbService's slicing shard pool.
// Assertions (exits non-zero on violation):
//  * every report digests identical to a cold serial HypDb::Analyze;
//  * per-query p-values agree to 1e-9 between the two modes;
//  * shared-mode total scans < isolated-mode total scans, strictly;
//  * shared mode actually sliced (predicate_slices > 0; 0 when isolated).

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "datagen/berkeley_data.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

std::vector<double> PValuesOf(const HypDbReport& report) {
  std::vector<double> out;
  for (const auto& b : report.bias) {
    out.push_back(b.total.ci.p_value);
    if (b.has_direct) out.push_back(b.direct.ci.p_value);
  }
  return out;
}

struct ModeResult {
  std::vector<std::string> digests;
  std::vector<std::vector<double>> p_values;  // per query
  CountEngineStats stats;
  int64_t errors = 0;
};

void Record(const HypDbReport& report, int rep, ModeResult* result) {
  if (rep > 0) return;
  result->digests.push_back(CanonicalReportDigest(report));
  result->p_values.push_back(PValuesOf(report));
}

// The isolated baseline: every subpopulation signature — a query's WHERE
// and each context's C ∧ X = x_i — gets its own private engine over its
// rows, shared by every query that names the signature, and each
// discovery is computed once per query as the service's discovery cache
// would.
ModeResult RunIsolated(const TablePtr& table,
                       const std::vector<std::string>& queries, int reps) {
  const HypDbOptions options;
  HypDb db(table, options);
  std::map<std::string, std::shared_ptr<CountEngine>> shards;
  auto shard = [&](const std::vector<std::pair<
                       std::string, std::vector<std::string>>>& where,
                   const TableView& view) {
    AggQuery subpopulation;
    subpopulation.where = where;
    std::shared_ptr<CountEngine>& engine =
        shards[SubpopulationSignature(subpopulation)];
    if (engine == nullptr) engine = MakeViewEngine(view, options.engine);
    return engine;
  };
  std::map<std::string, DiscoveryReport> discoveries;
  ModeResult result;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& sql : queries) {
      StatusOr<HypDbReport> report = [&]() -> StatusOr<HypDbReport> {
        HYPDB_ASSIGN_OR_RETURN(AggQuery query, ParseAggQuery(sql));
        HYPDB_ASSIGN_OR_RETURN(BoundQuery bound, BindQuery(table, query));
        SessionHooks hooks;
        hooks.population_engine = shard(query.where, bound.population);
        hooks.context_engine_provider = shard;
        hooks.discovery_interceptor =
            [&discoveries, &sql](
                const std::function<StatusOr<DiscoveryReport>()>& compute)
            -> StatusOr<DiscoveryReport> {
          auto hit = discoveries.find(sql);
          if (hit != discoveries.end()) return hit->second;
          HYPDB_ASSIGN_OR_RETURN(DiscoveryReport computed, compute());
          return discoveries.emplace(sql, std::move(computed))
              .first->second;
        };
        return db.Analyze(query, std::move(hooks));
      }();
      if (!report.ok()) {
        std::printf("isolated analyze failed: %s\n",
                    report.status().ToString().c_str());
        ++result.errors;
        continue;
      }
      Record(*report, rep, &result);
    }
  }
  for (const auto& [signature, engine] : shards) {
    result.stats += engine->stats();
  }
  return result;
}

ModeResult RunShared(const TablePtr& table,
                     const std::vector<std::string>& queries, int reps) {
  HypDbServiceOptions options;
  options.num_workers = 1;  // deterministic scan accounting
  HypDbService service(options);
  service.RegisterTable("b", table);
  ModeResult result;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& sql : queries) {
      auto report = service.AnalyzeSql("b", sql);
      if (!report.ok()) {
        std::printf("analyze failed: %s\n",
                    report.status().ToString().c_str());
        ++result.errors;
        continue;
      }
      Record(report->report, rep, &result);
    }
  }
  auto stats = service.engine_stats("b");
  if (stats.ok()) result.stats = *stats;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  const int reps = std::max(1, static_cast<int>(scale));
  Header("bench_cross_shard_reuse",
         "Sec. 6 contingency-table sharing across WHERE clauses — "
         "predicate-sliced shards vs isolated shards");

  auto generated = GenerateBerkeleyData();
  if (!generated.ok()) {
    std::printf("datagen failed: %s\n",
                generated.status().ToString().c_str());
    return 1;
  }
  TablePtr table = MakeTable(std::move(*generated));

  // One subpopulation per department — six, comfortably >= the gate's 4.
  std::vector<std::string> queries;
  for (const std::string dept : {"A", "B", "C", "D", "E", "F"}) {
    queries.push_back(
        "SELECT Gender, avg(Accepted) FROM b WHERE Department IN ('" +
        dept + "') GROUP BY Gender");
  }

  // Cold serial ground truth: the digests both modes must reproduce.
  std::vector<std::string> serial_digests;
  for (const std::string& sql : queries) {
    HypDb db(table, HypDbOptions{});
    auto report = db.AnalyzeSql(sql);
    if (!report.ok()) {
      std::printf("serial analyze failed: %s\n",
                  report.status().ToString().c_str());
      return 1;
    }
    serial_digests.push_back(CanonicalReportDigest(*report));
  }

  ModeResult isolated = RunIsolated(table, queries, reps);
  ModeResult shared = RunShared(table, queries, reps);

  const bool digests_ok = isolated.errors == 0 && shared.errors == 0 &&
                          isolated.digests == serial_digests &&
                          shared.digests == serial_digests;
  // Shape divergence (different p-value counts per query) is its own
  // failure, reported as such — not folded into the digest verdict.
  bool shapes_ok = true;
  double max_dp = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (q >= isolated.p_values.size() || q >= shared.p_values.size() ||
        isolated.p_values[q].size() != shared.p_values[q].size()) {
      shapes_ok = false;
      break;
    }
    for (size_t i = 0; i < isolated.p_values[q].size(); ++i) {
      max_dp = std::max(max_dp, std::fabs(isolated.p_values[q][i] -
                                          shared.p_values[q][i]));
    }
  }

  Row({"mode", "queries", "scans", "slices", "cache_hits", "marginal"},
      12);
  Row({"isolated", std::to_string(queries.size() * reps),
       std::to_string(isolated.stats.scans),
       std::to_string(isolated.stats.predicate_slices),
       std::to_string(isolated.stats.cache_hits),
       std::to_string(isolated.stats.marginalizations)},
      12);
  Row({"shared", std::to_string(queries.size() * reps),
       std::to_string(shared.stats.scans),
       std::to_string(shared.stats.predicate_slices),
       std::to_string(shared.stats.cache_hits),
       std::to_string(shared.stats.marginalizations)},
      12);
  std::printf("max |Δp| = %.3g\n", max_dp);

  const bool fewer_scans = shared.stats.scans < isolated.stats.scans;
  const bool sliced = shared.stats.predicate_slices > 0 &&
                      isolated.stats.predicate_slices == 0;
  const bool same_p = shapes_ok && max_dp <= 1e-9;

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("rows", net::JsonValue::Int(table->NumRows()));
  results.Set("subpopulations",
              net::JsonValue::Int(static_cast<int64_t>(queries.size())));
  results.Set("reps", net::JsonValue::Int(reps));
  results.Set("isolated_scans", net::JsonValue::Int(isolated.stats.scans));
  results.Set("shared_scans", net::JsonValue::Int(shared.stats.scans));
  results.Set("predicate_slices",
              net::JsonValue::Int(shared.stats.predicate_slices));
  results.Set("max_p_delta", net::JsonValue::Double(max_dp));
  results.Set("p_shapes_identical", net::JsonValue::Bool(shapes_ok));
  results.Set("digests_identical", net::JsonValue::Bool(digests_ok));
  WriteBenchJson("cross_shard_reuse", std::move(results));

  const bool pass = digests_ok && same_p && fewer_scans && sliced;
  std::printf(
      "%s: shared shards %s scans (%lld vs %lld isolated), digests %s, "
      "p-values %s\n",
      pass ? "PASS" : "FAIL",
      fewer_scans ? "reduce" : "DO NOT reduce",
      static_cast<long long>(shared.stats.scans),
      static_cast<long long>(isolated.stats.scans),
      digests_ok ? "bit-identical" : "DIVERGED",
      same_p ? "identical to 1e-9" : "DIVERGED");
  return pass ? 0 : 1;
}
