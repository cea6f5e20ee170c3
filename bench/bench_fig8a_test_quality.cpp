// E15 — Fig. 8(a): accuracy of the optimized independence tests on
// sparse data. Ground truth comes from d-separation on random DAGs;
// each method classifies (x ⊥ y | z) queries and is scored with F1
// (positive class = dependent).
//
// Usage: bench_fig8a_test_quality [scale] [--seed=N]
//   scale     multiplies the three row counts (default 1)
//   --seed=N  seeds the random DAGs and their data (default 88); the
//             queries and the testers' streams stay fixed
//
// Gate (exits 1 on violation): at a scale with recorded floors (0.2,
// the CI step, and 1), every method's F1 at every row count must reach
// its floor. Each floor is the lowest printed F1 that method scored at
// that row count over kFloorSeeds, less 0.001 so that rounding cannot
// fail a recorded seed. At other scales the table prints without a
// verdict. Results land in BENCH_fig8a_test_quality.json.

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "causal/eval.h"
#include "datagen/random_data.h"
#include "graph/d_separation.h"
#include "stats/ci_test.h"
#include "util/rng.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

constexpr int kMethods = 4;
constexpr int kRowCounts = 3;

// The seeds the floors were taken over.
constexpr uint64_t kFloorSeeds[] = {88, 1, 2, 3, 4, 5};

struct Floors {
  double scale;
  // [row count][method], methods in the table's column order.
  double f1[kRowCounts][kMethods];
};

constexpr Floors kFloors[] = {
    {0.2,
     {{0.464, 0.423, 0.493, 0.140},
      {0.825, 0.775, 0.811, 0.539},
      {0.928, 0.893, 0.901, 0.685}}},
    {1.0,
     {{0.824, 0.789, 0.807, 0.543},
      {0.927, 0.913, 0.906, 0.737},
      {0.974, 0.986, 0.939, 0.909}}},
};

const Floors* FloorsFor(double scale) {
  for (const Floors& f : kFloors) {
    if (f.scale == scale) return &f;
  }
  return nullptr;
}

// Parses --seed=N strictly; false on a malformed value.
bool ParseSeed(int argc, char** argv, uint64_t* seed) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) != 0) continue;
    const char* text = argv[i] + 7;
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0) {
      std::printf("invalid --seed value '%s'\n", text);
      return false;
    }
    *seed = value;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  uint64_t seed = 88;
  if (!ParseSeed(argc, argv, &seed)) return 1;
  Header("bench_fig8a_test_quality",
         "Fig. 8(a) — F1 of MIT / MIT(sampling) / HyMIT / chi2 on sparse "
         "data");
  std::printf("(seed %llu)\n\n", static_cast<unsigned long long>(seed));

  const std::vector<CiMethod> methods = {
      CiMethod::kMit, CiMethod::kMitSampled, CiMethod::kHybrid,
      CiMethod::kGTest};
  const char* names[] = {"MIT", "MIT(sampling)", "HyMIT", "chi2"};
  const Floors* floors = FloorsFor(scale);

  Row({"rows", names[0], names[1], names[2], names[3]}, 15);

  Rng rng(seed);
  bool pass = true;
  net::JsonValue points = net::JsonValue::MakeArray();
  const int64_t row_counts[kRowCounts] = {2000, 10000, 40000};
  for (int ri = 0; ri < kRowCounts; ++ri) {
    // Sparse regime: 8 categories per attribute.
    RandomDataOptions data_options;
    data_options.num_nodes = 8;
    data_options.expected_degree = 2.5;
    data_options.min_categories = 8;
    data_options.max_categories = 8;
    data_options.num_rows = static_cast<int64_t>(row_counts[ri] * scale);

    // Accumulate over a few datasets; same queries for every method.
    F1Stats stats[kMethods];
    for (int rep = 0; rep < 3; ++rep) {
      auto ds = GenerateRandomDataset(data_options, rng);
      if (!ds.ok()) return 1;
      TablePtr table = std::make_shared<const Table>(std::move(ds->table));

      // Random CI queries labeled by d-separation.
      struct Query {
        int x, y;
        std::vector<int> z;
        bool dependent;
      };
      std::vector<Query> queries;
      Rng qrng(1000 + rep);
      for (int qi = 0; qi < 40; ++qi) {
        Query q;
        q.x = static_cast<int>(qrng.NextBounded(8));
        q.y = static_cast<int>(qrng.NextBounded(7));
        if (q.y >= q.x) ++q.y;
        for (int c = 0; c < 8; ++c) {
          if (c != q.x && c != q.y && qrng.Bernoulli(0.25)) {
            q.z.push_back(c);
          }
        }
        q.dependent = !DSeparated(ds->dag, q.x, q.y, q.z);
        queries.push_back(std::move(q));
      }

      for (size_t mi = 0; mi < methods.size(); ++mi) {
        MiEngine engine{TableView(table)};
        CiOptions options;
        options.method = methods[mi];
        options.permutations = 100;
        CiTester tester(&engine, options, 500 + rep);
        for (const Query& q : queries) {
          auto r = tester.Test(q.x, q.y, q.z);
          if (!r.ok()) continue;
          bool predicted_dependent = !r->IndependentAt(0.01);
          if (predicted_dependent && q.dependent) {
            ++stats[mi].true_positives;
          } else if (predicted_dependent && !q.dependent) {
            ++stats[mi].false_positives;
          } else if (!predicted_dependent && q.dependent) {
            ++stats[mi].false_negatives;
          }
        }
      }
    }

    Row({std::to_string(data_options.num_rows), Fmt("%.3f", stats[0].F1()),
         Fmt("%.3f", stats[1].F1()), Fmt("%.3f", stats[2].F1()),
         Fmt("%.3f", stats[3].F1())},
        15);
    net::JsonValue point = net::JsonValue::MakeObject();
    point.Set("rows", net::JsonValue::Int(data_options.num_rows));
    net::JsonValue f1 = net::JsonValue::MakeObject();
    net::JsonValue floor = net::JsonValue::MakeObject();
    for (int mi = 0; mi < kMethods; ++mi) {
      f1.Set(names[mi], net::JsonValue::Double(stats[mi].F1()));
      if (floors == nullptr) continue;
      floor.Set(names[mi], net::JsonValue::Double(floors->f1[ri][mi]));
      if (stats[mi].F1() < floors->f1[ri][mi]) {
        std::printf("  below floor: %s F1 %.3f < %.3f\n", names[mi],
                    stats[mi].F1(), floors->f1[ri][mi]);
        pass = false;
      }
    }
    point.Set("f1", std::move(f1));
    if (floors != nullptr) point.Set("floor", std::move(floor));
    points.Append(std::move(point));
  }
  std::printf("\n(expected shape: the four tests are comparable, with the\n"
              " permutation-based ones at least matching chi2 on the\n"
              " smallest / sparsest samples)\n");

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("seed", net::JsonValue::Int(static_cast<int64_t>(seed)));
  results.Set("points", std::move(points));
  results.Set("gated", net::JsonValue::Bool(floors != nullptr));
  net::JsonValue floor_seeds = net::JsonValue::MakeArray();
  for (uint64_t s : kFloorSeeds) {
    floor_seeds.Append(net::JsonValue::Int(static_cast<int64_t>(s)));
  }
  results.Set("floor_seeds", std::move(floor_seeds));
  results.Set("pass", net::JsonValue::Bool(pass));
  WriteBenchJson("fig8a_test_quality", std::move(results));
  if (floors == nullptr) {
    std::printf("no F1 floors recorded for scale %g; gate skipped\n", scale);
    return 0;
  }
  std::printf(pass ? "PASS: every F1 reaches its floor\n"
                   : "FAIL: an F1 fell below its floor\n");
  return pass ? 0 : 1;
}
