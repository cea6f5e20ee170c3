// E13 — Fig. 6(c): efficacy of caching entropies and materializing
// contingency tables, now measured through the CountEngine subsystem.
//
// Part 1 (timings): the CD algorithm runs with each optimization toggled;
// "warm" repeats the run with the caches already populated (the paper's
// "precomputed entropies" floor). Scan counts come from the engine stats.
// The entropy memo is toggled by the decorators of entropy_ablation.h:
// src/ keeps exactly one, on the caching engine's entries.
//
// Part 2 (equivalence): the same fixed CI-test workload runs once against
// a bare scan engine and once against the caching engine. The caching
// engine must perform strictly fewer data scans while reproducing every
// p-value to 1e-9 — caching is a pure execution-strategy change, never a
// statistical one. Exits non-zero on violation.

#include <cmath>
#include <cstdlib>

#include "bench_util.h"
#include "causal/cd_algorithm.h"
#include "causal/ci_oracle.h"
#include "datagen/random_data.h"
#include "entropy_ablation.h"
#include "stats/ci_test.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

struct CdRun {
  double seconds = -1;
  int64_t scans = 0;
};

// One CD run with the entropy memo (`cache`) and count materialization
// toggled independently.
CdRun RunCd(const TablePtr& table, int target, bool cache,
            bool materialize) {
  const TableView view(table);
  // The caching stack when materializing, else the bare scanner.
  std::shared_ptr<CountEngine> counts =
      materialize ? MakeViewEngine(view, MiEngineOptions{})
                  : std::make_shared<ViewCountProvider>(view);
  std::shared_ptr<CountEngine> decorated;
  if (cache) {
    decorated = std::make_shared<EntropyMemoEngine>(std::move(counts));
  } else {
    decorated = std::make_shared<CountsOnlyEngine>(std::move(counts));
  }
  MiEngine engine(std::move(decorated));
  CiOptions chi2;
  chi2.method = CiMethod::kGTest;
  CiTester tester(&engine, chi2, 11);
  DataCiOracle oracle(&tester, 0.01);
  std::vector<int> candidates;
  for (int c = 0; c < table->NumColumns(); ++c) {
    if (c != target) candidates.push_back(c);
  }
  Stopwatch timer;
  auto r = DiscoverParents(oracle, target, candidates);
  CdRun run;
  run.seconds = r.ok() ? timer.ElapsedSeconds() : -1;
  run.scans = engine.count_engine().stats().scans;
  return run;
}

// Fixed CI-test workload: every pair, unconditional and one-variable
// conditioned. Returns false on any p-value divergence.
bool RunWorkload(MiEngine* engine, uint64_t seed,
                 std::vector<double>* p_values) {
  CiOptions hybrid;
  hybrid.permutations = 200;
  CiTester tester(engine, hybrid, seed);
  const int cols = 8;
  for (int x = 0; x < cols; ++x) {
    for (int y = x + 1; y < cols; ++y) {
      for (int variant = 0; variant < 2; ++variant) {
        std::vector<int> z;
        if (variant == 1) z.push_back((y + 1) % cols == x ? (y + 2) % cols
                                                          : (y + 1) % cols);
        if (!z.empty() && (z[0] == x || z[0] == y)) continue;
        auto r = tester.Test(x, y, z);
        if (!r.ok()) return false;
        p_values->push_back(r->p_value);
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  Header("bench_fig6c_caching",
         "Fig. 6(c) — CD runtime and data scans: plain vs +materialization "
         "vs +caching vs both vs warm");
  Row({"rows", "plain[s]", "+mat[s]", "+cache[s]", "both[s]", "warm[s]",
       "scans:plain", "scans:both"},
      12);

  Rng rng(66);
  for (int64_t rows : {10000, 50000, 250000, 1000000}) {
    RandomDataOptions data_options;
    data_options.num_nodes = 10;
    data_options.expected_degree = 3.0;
    data_options.num_rows = static_cast<int64_t>(rows * scale);
    auto ds = GenerateRandomDataset(data_options, rng);
    if (!ds.ok()) return 1;
    TablePtr table = std::make_shared<const Table>(std::move(ds->table));
    const int target = 0;

    CdRun plain = RunCd(table, target, false, false);
    CdRun mat = RunCd(table, target, false, true);
    CdRun cache = RunCd(table, target, true, false);

    // "both", then a warm re-run on the same engine (caches populated).
    MiEngineOptions engine_options;
    CiOptions chi2;
    chi2.method = CiMethod::kGTest;
    MiEngine engine(TableView(table), engine_options);
    CiTester tester(&engine, chi2, 11);
    DataCiOracle oracle(&tester, 0.01);
    std::vector<int> candidates;
    for (int c = 0; c < table->NumColumns(); ++c) {
      if (c != target) candidates.push_back(c);
    }
    Stopwatch timer;
    (void)DiscoverParents(oracle, target, candidates);
    double both = timer.ElapsedSeconds();
    int64_t both_scans = engine.count_engine().stats().scans;
    timer.Restart();
    (void)DiscoverParents(oracle, target, candidates);
    double warm = timer.ElapsedSeconds();

    Row({std::to_string(data_options.num_rows), Fmt("%.3f", plain.seconds),
         Fmt("%.3f", mat.seconds), Fmt("%.3f", cache.seconds),
         Fmt("%.3f", both), Fmt("%.3f", warm),
         std::to_string(plain.scans), std::to_string(both_scans)},
        12);
  }
  std::printf("\n(expected shape: plain > +mat, +cache > both >> warm;\n"
              " the gap widens with the row count because summaries stay\n"
              " small while scans grow linearly)\n");

  // ---- Equivalence check: caching must change scans, never p-values.
  std::printf("\n-- caching equivalence (fixed CI workload) --\n");
  RandomDataOptions eq_options;
  eq_options.num_nodes = 8;
  eq_options.expected_degree = 2.5;
  eq_options.num_rows = static_cast<int64_t>(20000 * scale);
  Rng eq_rng(99);
  auto eq_ds = GenerateRandomDataset(eq_options, eq_rng);
  if (!eq_ds.ok()) return 1;
  TablePtr eq_table = std::make_shared<const Table>(std::move(eq_ds->table));

  // The bare scanner: every entropy is recomputed from a fresh scan.
  MiEngine scan_engine(
      std::make_shared<ViewCountProvider>(TableView(eq_table)));
  MiEngine cached_engine(TableView(eq_table), MiEngineOptions{});
  std::vector<double> p_scan;
  std::vector<double> p_cached;
  if (!RunWorkload(&scan_engine, 4242, &p_scan) ||
      !RunWorkload(&cached_engine, 4242, &p_cached) ||
      p_scan.size() != p_cached.size()) {
    std::printf("FAIL: workload did not complete identically\n");
    return 1;
  }
  double max_dp = 0.0;
  for (size_t i = 0; i < p_scan.size(); ++i) {
    max_dp = std::max(max_dp, std::fabs(p_scan[i] - p_cached[i]));
  }
  int64_t scans_bare = scan_engine.count_engine().stats().scans;
  CountEngineStats cached_stats = cached_engine.count_engine().stats();
  std::printf("tests: %zu   scans (bare): %lld   scans (caching): %lld   "
              "cache hits: %lld   marginalized: %lld\n",
              p_scan.size(), static_cast<long long>(scans_bare),
              static_cast<long long>(cached_stats.scans),
              static_cast<long long>(cached_stats.cache_hits),
              static_cast<long long>(cached_stats.marginalizations));
  std::printf("max |Δp| = %.3g\n", max_dp);

  bool fewer_scans = cached_stats.scans < scans_bare;
  bool same_p = max_dp <= 1e-9;

  // The machine-readable trail CI collects (this bench gates the build,
  // so its trajectory must accumulate like the throughput benches').
  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("rows", net::JsonValue::Int(eq_options.num_rows));
  results.Set("tests",
              net::JsonValue::Int(static_cast<int64_t>(p_scan.size())));
  results.Set("scans_bare", net::JsonValue::Int(scans_bare));
  results.Set("scans_caching", net::JsonValue::Int(cached_stats.scans));
  results.Set("cache_hits", net::JsonValue::Int(cached_stats.cache_hits));
  results.Set("marginalizations",
              net::JsonValue::Int(cached_stats.marginalizations));
  results.Set("max_p_delta", net::JsonValue::Double(max_dp));
  results.Set("identical", net::JsonValue::Bool(same_p));
  WriteBenchJson("fig6c_caching", std::move(results));

  std::printf("%s: caching engine %s scans and %s p-values\n",
              fewer_scans && same_p ? "PASS" : "FAIL",
              fewer_scans ? "reduces" : "DOES NOT reduce",
              same_p ? "preserves" : "CHANGES");
  return fewer_scans && same_p ? 0 : 1;
}
