// E12 — Fig. 6(b): running time of one conditional-independence test:
// MIT vs MIT(sampling) vs HyMIT vs χ², on data whose conditioning set
// induces many strata. Expected shape: χ² fastest, MIT slowest by a
// large factor, the sampled variant and HyMIT in between. For scale, a
// permutation test by physically shuffling the data (what MIT replaces)
// is also measured.
//
// Gate (exits 1 on violation): at the largest row count, MIT(sampling)
// must be faster than MIT and MIT faster than the shuffle baseline.
// MIT's cost does not grow with the rows while the baseline's does, so
// small scales narrow the second margin (CI runs scale 0.25, where the
// largest row count is 10k). Results land in
// BENCH_fig6b_test_runtime.json.

#include "bench_util.h"
#include "stats/ci_test.h"
#include "stats/entropy.h"
#include "stats/mi_engine.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

// t, y binary; z1 x z2 conditioning with many strata.
TablePtr MakeData(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder t("t"), y("y"), z1("z1"), z2("z2");
  for (int64_t i = 0; i < rows; ++i) {
    int zi = static_cast<int>(rng.NextBounded(12));
    int zj = static_cast<int>(rng.NextBounded(12));
    int ti = rng.Bernoulli(0.25 + 0.04 * (zi % 3)) ? 1 : 0;
    int yi = rng.Bernoulli(0.3 + 0.03 * (zj % 4) + 0.1 * ti) ? 1 : 0;
    t.Append(std::to_string(ti));
    y.Append(std::to_string(yi));
    z1.Append(std::to_string(zi));
    z2.Append(std::to_string(zj));
  }
  Table table;
  (void)table.AddColumn(t.Finish());
  (void)table.AddColumn(y.Finish());
  (void)table.AddColumn(z1.Finish());
  (void)table.AddColumn(z2.Finish());
  return MakeTable(std::move(table));
}

// The naive baseline MIT replaces: permute the T column physically and
// recompute Î(T;Y|Z) from scratch, `permutations` times.
double ShuffleBaselineMs(const TablePtr& data, int permutations, Rng& rng) {
  // Copy out the columns once.
  std::vector<int32_t> t = data->column(0).codes();
  const auto& y = data->column(1).codes();
  const auto& z1 = data->column(2).codes();
  const auto& z2 = data->column(3).codes();
  Stopwatch timer;
  for (int p = 0; p < permutations; ++p) {
    rng.Shuffle(&t);
    // Recompute the CMI from raw arrays (144 strata x 2x2).
    std::vector<int64_t> cells(12 * 12 * 4, 0);
    for (size_t i = 0; i < t.size(); ++i) {
      int stratum = z1[i] * 12 + z2[i];
      ++cells[stratum * 4 + t[i] * 2 + y[i]];
    }
    double cmi = 0.0;
    for (int s = 0; s < 144; ++s) {
      std::vector<int64_t> quad(cells.begin() + s * 4,
                                cells.begin() + s * 4 + 4);
      int64_t total = quad[0] + quad[1] + quad[2] + quad[3];
      if (total == 0) continue;
      std::vector<int64_t> rows = {quad[0] + quad[1], quad[2] + quad[3]};
      std::vector<int64_t> cols = {quad[0] + quad[2], quad[1] + quad[3]};
      double h = EntropyFromCounts(rows, total, EntropyEstimator::kPlugin) +
                 EntropyFromCounts(cols, total, EntropyEstimator::kPlugin) -
                 EntropyFromCounts(quad, total, EntropyEstimator::kPlugin);
      cmi += h * static_cast<double>(total) /
             static_cast<double>(t.size());
    }
    (void)cmi;
  }
  return timer.ElapsedMillis();
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  const int permutations = 1000;
  Header("bench_fig6b_test_runtime",
         "Fig. 6(b) — per-test runtime of the independence tests (ms)");
  std::printf("(m = %d permutations; 144 strata)\n\n", permutations);
  const char* names[] = {"chi2", "HyMIT", "MIT(sampling)", "MIT",
                         "shuffle-base"};
  Row({"rows", names[0], names[1], names[2], names[3], names[4]}, 15);

  net::JsonValue points = net::JsonValue::MakeArray();
  double ms[5] = {};  // per method, at the latest (largest) row count
  for (int64_t rows : {5000, 10000, 20000, 40000}) {
    int64_t n = static_cast<int64_t>(rows * scale);
    TablePtr data = MakeData(n, 99 + rows);
    std::vector<std::string> row = {std::to_string(n)};

    int col = 0;
    for (CiMethod method : {CiMethod::kGTest, CiMethod::kHybrid,
                            CiMethod::kMitSampled, CiMethod::kMit}) {
      MiEngine engine(TableView(data),
                      MiEngineOptions{.cache_entropies = false});
      CiOptions options;
      options.method = method;
      options.permutations = permutations;
      CiTester tester(&engine, options, 4242);
      const int reps = method == CiMethod::kMit ? 2 : 5;
      Stopwatch timer;
      for (int r = 0; r < reps; ++r) {
        auto result = tester.Test(0, 1, {2, 3});
        if (!result.ok()) return 1;
      }
      ms[col] = timer.ElapsedMillis() / reps;
      row.push_back(Fmt("%.2f", ms[col++]));
    }

    Rng rng(7);
    ms[col] = ShuffleBaselineMs(data, permutations, rng);
    row.push_back(Fmt("%.1f", ms[col]));
    Row(row, 15);
    net::JsonValue point = net::JsonValue::MakeObject();
    point.Set("rows", net::JsonValue::Int(n));
    net::JsonValue per_test = net::JsonValue::MakeObject();
    for (int i = 0; i < 5; ++i) {
      per_test.Set(names[i], net::JsonValue::Double(ms[i]));
    }
    point.Set("ms_per_test", std::move(per_test));
    points.Append(std::move(point));
  }
  std::printf("\n(expected shape: chi2 < HyMIT ~ MIT(sampling) << MIT <<\n"
              " shuffle baseline; MIT's cost is independent of row count,\n"
              " the shuffle baseline grows linearly)\n");

  const bool pass = ms[2] < ms[3] && ms[3] < ms[4];
  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("permutations", net::JsonValue::Int(permutations));
  results.Set("points", std::move(points));
  results.Set("pass", net::JsonValue::Bool(pass));
  WriteBenchJson("fig6b_test_runtime", std::move(results));
  std::printf(pass ? "PASS: MIT(sampling) < MIT < shuffle-base at the "
                     "largest row count\n"
                   : "FAIL: expected MIT(sampling) < MIT < shuffle-base at "
                     "the largest row count\n");
  return pass ? 0 : 1;
}
