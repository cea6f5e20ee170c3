// Adaptive materialization gate: under a shifting workload and the same
// cache cell budget, the adaptive policy (benefit-per-cell eviction +
// background cube advisor) must do strictly fewer scans than the static
// oldest-first policy — including the scans the advisor spends building
// cubes — while every answer stays bit-identical.
//
// The workload alternates a small hot set of column pairs (queried every
// round) with a stream of cold wide one-shot triples whose summaries
// flood the cache. Oldest-first eviction lets the flood push the hot
// pairs out every round, so the static engine re-scans them forever; the
// adaptive policy keeps them resident (their benefit-per-cell dwarfs the
// flood's) and the advisor promotes the hot dimensions into a cube that
// serves them even when the cache cannot.
//
// Assertions (exits non-zero on violation):
//  * adaptive_scans + advisor_build_scans < static_scans, strictly,
//    under the same max_cached_cells;
//  * every group-count answer from both registries is bit-identical to
//    a direct scan of the same table;
//  * the advisor promoted at least one cube, and the promotion is
//    visible in the hypdb_cache_advisor_promotions_total metric;
//  * service-level reports under the adaptive configuration are
//    digest-identical to a cold serial HypDb.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "engine/groupby_kernel.h"
#include "service/dataset_registry.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/metrics.h"
#include "util/rng.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

// 12 columns: c0..c2 narrow (the hot analysis dimensions), c3..c11 wide
// (the cold flood). Every cold triple bounds at 8^3 = 512 cells, just
// under the 600-cell budget, so each one is admitted and evicts.
TablePtr SyntheticTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Table table;
  for (int c = 0; c < 12; ++c) {
    const int card = c < 3 ? 4 : 8;
    ColumnBuilder b("c" + std::to_string(c));
    for (int64_t r = 0; r < rows; ++r) {
      b.Append(std::to_string(rng.NextBounded(card)));
    }
    auto added = table.AddColumn(b.Finish());
    if (!added.ok()) std::abort();
  }
  return MakeTable(std::move(table));
}

bool SameCounts(const GroupCounts& a, const GroupCounts& b) {
  if (a.NumGroups() != b.NumGroups() || a.total != b.total) return false;
  for (int g = 0; g < a.NumGroups(); ++g) {
    if (a.keys[g] != b.keys[g] || a.counts[g] != b.counts[g]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  const int64_t rows = static_cast<int64_t>(4000 * scale);
  const int kRounds = 8;
  const int64_t kBudget = 600;
  Header("bench_adaptive_cache",
         "Sec. 6 materialization economics under a shifting workload — "
         "cost-based retention + cube promotion vs oldest-first");

  TablePtr table = SyntheticTable(rows, 20260808);
  TableView view(table);

  // The hot sets every round re-demands, and the cold flood triples.
  const std::vector<std::vector<int>> hot = {{0, 1}, {1, 2}};
  std::vector<std::vector<int>> flood;
  for (int c = 3; c + 2 < 12; ++c) flood.push_back({c, c + 1, c + 2});

  auto make_registry = [&](MaterializationMode mode) {
    DatasetRegistryOptions options;
    options.engine.materialization = mode;
    options.engine.scan_threads = 1;
    options.engine.max_cached_cells = kBudget;
    // Background thread off; the bench drives AdvisorPass between
    // rounds so scan accounting is deterministic.
    return std::make_unique<DatasetRegistry>(options);
  };
  auto static_registry = make_registry(MaterializationMode::kStatic);
  auto adaptive_registry = make_registry(MaterializationMode::kAdaptive);
  const int64_t static_epoch = static_registry->Register("d", table);
  const int64_t adaptive_epoch = adaptive_registry->Register("d", table);

  auto static_engine = static_registry->ShardEngine("d", static_epoch, "");
  auto adaptive_engine =
      adaptive_registry->ShardEngine("d", adaptive_epoch, "");
  if (!static_engine.ok() || !adaptive_engine.ok()) {
    std::printf("shard engine construction failed\n");
    return 1;
  }

  bool counts_ok = true;
  auto run_round = [&](int round) {
    std::vector<std::vector<int>> sets;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& h : hot) sets.push_back(h);
    }
    // Three cold one-shot triples per round, rotating through the flood.
    for (int k = 0; k < 3; ++k) {
      sets.push_back(flood[(round * 3 + k) % flood.size()]);
    }
    for (const auto& cols : sets) {
      auto from_static = (*static_engine)->Counts(cols);
      auto from_adaptive = (*adaptive_engine)->Counts(cols);
      auto direct = ScanCounts(view, cols);
      if (!from_static.ok() || !from_adaptive.ok() || !direct.ok()) {
        counts_ok = false;
        continue;
      }
      counts_ok &= SameCounts(*from_static, *direct);
      counts_ok &= SameCounts(*from_adaptive, *direct);
    }
  };

  for (int round = 0; round < kRounds; ++round) {
    run_round(round);
    adaptive_registry->AdvisorPass();
  }

  CountEngineStats static_stats;
  CountEngineStats adaptive_stats;
  if (auto s = static_registry->EngineStats("d"); s.ok()) static_stats = *s;
  if (auto s = adaptive_registry->EngineStats("d"); s.ok()) {
    adaptive_stats = *s;
  }
  const CubeAdvisorStats advisor = adaptive_registry->advisor_stats();
  const int64_t static_scans = static_stats.scans;
  const int64_t adaptive_scans = adaptive_stats.scans;
  const int64_t adaptive_total = adaptive_scans + advisor.build_scans;

  // ---- service-level A/B: digests vs cold serial, advisor metrics ----
  auto berkeley_table = GenerateBerkeleyData();
  if (!berkeley_table.ok()) {
    std::printf("berkeley generation failed\n");
    return 1;
  }
  TablePtr berkeley = MakeTable(std::move(*berkeley_table));
  const std::vector<std::string> sqls = {
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender",
      "SELECT Gender, Department, avg(Accepted) FROM b GROUP BY Gender, "
      "Department",
  };
  std::vector<std::string> expected;
  for (const std::string& sql : sqls) {
    HypDb db(berkeley, HypDbOptions{});
    auto report = db.AnalyzeSql(sql);
    if (!report.ok()) {
      std::printf("cold serial analyze failed: %s\n",
                  report.status().ToString().c_str());
      return 1;
    }
    expected.push_back(CanonicalReportDigest(*report));
  }

  HypDbServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.analysis.engine.materialization =
      MaterializationMode::kAdaptive;
  service_options.analysis.engine.max_cached_cells = kBudget;
  service_options.advisor_interval_seconds = 0;  // manual passes below
  HypDbService service(service_options);
  service.RegisterTable("b", berkeley);

  bool digests_ok = true;
  for (int pass = 0; pass < 3; ++pass) {
    // Twice per pass: repeated answers re-query the shared parent engine
    // (discovery is cached, query answering is not), which is the demand
    // signal the advisor's min-demand threshold watches.
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t i = 0; i < sqls.size(); ++i) {
        auto report = service.AnalyzeSql("b", sqls[i]);
        if (!report.ok()) {
          std::printf("service analyze failed: %s\n",
                      report.status().ToString().c_str());
          return 1;
        }
        digests_ok &= CanonicalReportDigest(report->report) == expected[i];
      }
    }
    service.registry().AdvisorPass();
  }
  const CubeAdvisorStats service_advisor = service.advisor_stats();
  const std::string metrics_text =
      RenderPrometheusText(service.metrics_registry().Snapshot());
  const bool promotions_visible =
      service_advisor.promotions > 0 &&
      metrics_text.find("hypdb_cache_advisor_promotions_total") !=
          std::string::npos &&
      metrics_text.find("hypdb_cache_advisor_promotions_total 0\n") ==
          std::string::npos;

  Row({"metric", "value"}, 28);
  Row({"rows", std::to_string(rows)}, 28);
  Row({"budget_cells", std::to_string(kBudget)}, 28);
  Row({"static_scans", std::to_string(static_scans)}, 28);
  Row({"adaptive_scans", std::to_string(adaptive_scans)}, 28);
  Row({"advisor_build_scans", std::to_string(advisor.build_scans)}, 28);
  Row({"adaptive_total_scans", std::to_string(adaptive_total)}, 28);
  Row({"static_evictions", std::to_string(static_stats.evictions)}, 28);
  Row({"adaptive_evictions", std::to_string(adaptive_stats.evictions)}, 28);
  Row({"cube_hits", std::to_string(adaptive_stats.cube_hits)}, 28);
  Row({"advisor_promotions", std::to_string(advisor.promotions)}, 28);
  Row({"advisor_demotions", std::to_string(advisor.demotions)}, 28);
  Row({"service_promotions",
       std::to_string(service_advisor.promotions)}, 28);

  const bool fewer_scans = adaptive_total < static_scans;
  const bool promoted = advisor.promotions > 0;
  std::printf("\ngates:\n");
  std::printf("  adaptive_total < static_scans : %s (%lld vs %lld)\n",
              fewer_scans ? "PASS" : "FAIL",
              static_cast<long long>(adaptive_total),
              static_cast<long long>(static_scans));
  std::printf("  counts bit-identical          : %s\n",
              counts_ok ? "PASS" : "FAIL");
  std::printf("  registry advisor promoted     : %s\n",
              promoted ? "PASS" : "FAIL");
  std::printf("  service digests identical     : %s\n",
              digests_ok ? "PASS" : "FAIL");
  std::printf("  promotions visible in metrics : %s\n",
              promotions_visible ? "PASS" : "FAIL");

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("rows", net::JsonValue::Int(rows));
  results.Set("budget_cells", net::JsonValue::Int(kBudget));
  results.Set("static_scans", net::JsonValue::Int(static_scans));
  results.Set("adaptive_scans", net::JsonValue::Int(adaptive_scans));
  results.Set("advisor_build_scans",
              net::JsonValue::Int(advisor.build_scans));
  results.Set("adaptive_total_scans", net::JsonValue::Int(adaptive_total));
  results.Set("cube_hits", net::JsonValue::Int(adaptive_stats.cube_hits));
  results.Set("advisor_promotions",
              net::JsonValue::Int(advisor.promotions));
  results.Set("advisor_demotions", net::JsonValue::Int(advisor.demotions));
  results.Set("service_promotions",
              net::JsonValue::Int(service_advisor.promotions));
  results.Set("counts_identical", net::JsonValue::Bool(counts_ok));
  results.Set("digests_identical", net::JsonValue::Bool(digests_ok));
  results.Set("fewer_scans", net::JsonValue::Bool(fewer_scans));
  WriteBenchJson("adaptive_cache", results);

  return (fewer_scans && counts_ok && promoted && digests_ok &&
          promotions_visible)
             ? 0
             : 1;
}
