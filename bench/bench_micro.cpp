// Microbenchmarks (google-benchmark) for the primitives every HypDB
// component sits on: CSV parsing and dictionary encoding, group-by
// counting, entropy estimation, stratified summarization, Patefield
// sampling, cached CMI.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "dataframe/column.h"
#include "dataframe/csv.h"
#include "dataframe/group_by.h"
#include "datagen/random_data.h"
#include "datagen/staples_data.h"
#include "stats/ci_test.h"
#include "stats/contingency.h"
#include "stats/mi_engine.h"
#include "stats/patefield.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr BenchTable(int64_t rows) {
  static std::map<int64_t, TablePtr> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  Rng rng(42);
  RandomDataOptions options;
  options.num_nodes = 8;
  options.min_categories = 4;
  options.max_categories = 8;
  options.num_rows = rows;
  auto ds = GenerateRandomDataset(options, rng);
  TablePtr table = MakeTable(std::move(ds->table));
  cache[rows] = table;
  return table;
}

// A Staples-shaped CSV of 100k rows: five small-domain columns plus the
// unique SessionId key.
const std::string& StaplesCsv() {
  static const std::string text = [] {
    StaplesDataOptions options;
    options.num_rows = 100000;
    return ToCsv(*GenerateStaplesData(options));
  }();
  return text;
}

void BM_ParseCsv(benchmark::State& state) {
  const std::string& text = StaplesCsv();
  for (auto _ : state) {
    auto table = ParseCsv(text);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseCsv)->Unit(benchmark::kMillisecond);

// Arg 0: hits on a 16-label dictionary. Arg 1: 100k fresh labels into an
// empty dictionary per iteration.
void BM_DictionaryGetOrAdd(benchmark::State& state) {
  const bool fresh = state.range(0) == 1;
  std::vector<std::string> labels;
  for (int i = 0; i < (fresh ? 100000 : 16); ++i) {
    labels.push_back("s" + std::to_string(i));
  }
  Dictionary hits;
  for (const std::string& label : labels) hits.GetOrAdd(label);
  int64_t calls = 0;
  for (auto _ : state) {
    if (fresh) {
      Dictionary d;
      for (const std::string& label : labels) d.GetOrAdd(label);
      benchmark::DoNotOptimize(d.size());
      calls += static_cast<int64_t>(labels.size());
    } else {
      int32_t sum = 0;
      for (int r = 0; r < 6250; ++r) {
        for (const std::string& label : labels) sum += hits.GetOrAdd(label);
      }
      benchmark::DoNotOptimize(sum);
      calls += 6250 * 16;
    }
  }
  state.SetItemsProcessed(calls);
}
BENCHMARK(BM_DictionaryGetOrAdd)->Arg(0)->Arg(1);

void BM_CountBy(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  TableView view(table);
  for (auto _ : state) {
    auto counts = CountBy(view, {0, 1, 2});
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountBy)->Arg(10000)->Arg(100000);

void BM_EntropyCachedCmi(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  MiEngine engine{TableView(table)};
  for (auto _ : state) {
    auto mi = engine.Mi(0, 1, {2, 3});
    benchmark::DoNotOptimize(mi);
  }
}
BENCHMARK(BM_EntropyCachedCmi)->Arg(100000);

void BM_BuildStratified(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  TableView view(table);
  for (auto _ : state) {
    auto st = BuildStratified(view, 0, 1, {2, 3});
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildStratified)->Arg(10000)->Arg(100000);

void BM_PatefieldSample(benchmark::State& state) {
  // A 4x4 table with total = range(0).
  int64_t total = state.range(0);
  std::vector<int64_t> rows(4, total / 4);
  std::vector<int64_t> cols(4, total / 4);
  auto sampler = PatefieldSampler::Create(rows, cols);
  Rng rng(7);
  Table2D out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Sample(rng, &out));
  }
}
BENCHMARK(BM_PatefieldSample)->Arg(1000)->Arg(100000);

void BM_MitTest(benchmark::State& state) {
  TablePtr table = BenchTable(50000);
  MiEngine engine{TableView(table)};
  CiOptions options;
  options.method = CiMethod::kMitSampled;
  options.permutations = static_cast<int>(state.range(0));
  CiTester tester(&engine, options, 1);
  for (auto _ : state) {
    auto r = tester.Test(0, 1, {2});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MitTest)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hypdb

BENCHMARK_MAIN();
