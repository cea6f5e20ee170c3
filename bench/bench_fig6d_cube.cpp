// E14 + E16 — Fig. 6(d) and Fig. 8(b): benefit of a pre-computed OLAP
// data cube. The CD algorithm answers every count from the cube instead
// of scanning the data. Sweep 1 varies the input size (Fig. 6d), sweep 2
// the number of attributes at fixed size (Fig. 8b). Binary attributes,
// as in the paper's PostgreSQL cube experiment.
//
// The cube runs in a CubeCountProvider: a cube over every attribute,
// built up front, in front of a scanner. Gates
// (exits 1 on violation), at every sweep point:
//  * CD over the cube finds the same parent set for every attribute as
//    CD over scans;
//  * the cube run's base scanner did 0 scans (every count came from the
//    lattice).
// Results land in BENCH_fig6d_cube.json.

#include "bench_util.h"
#include "causal/cd_algorithm.h"
#include "causal/ci_oracle.h"
#include "cube/data_cube.h"
#include "datagen/random_data.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

struct CubeRunResult {
  double no_cube_seconds = 0;
  double cube_seconds = 0;
  double cube_build_seconds = 0;
  int64_t cube_cells = 0;
  int64_t cube_hits = 0;
  /// Scans by the cube run's base scanner; the gate requires 0.
  int64_t base_scans = 0;
  /// CD found the same parent sets over the cube as over scans.
  bool same_parents = false;
};

StatusOr<CubeRunResult> RunBoth(const TablePtr& table) {
  CubeRunResult out;
  const int n = table->NumColumns();
  std::vector<int> all;
  for (int c = 0; c < n; ++c) all.push_back(c);

  CiOptions chi2;
  chi2.method = CiMethod::kGTest;

  // CD for every attribute, each count from `provider` (scans when null);
  // returns the seconds taken and appends each attribute's parents.
  auto run = [&](std::shared_ptr<CountEngine> provider,
                 std::vector<std::vector<int>>* parents) -> StatusOr<double> {
    // Fresh engine per run, with no cache above it, so the provider (scan
    // vs cube) is the only difference.
    MiEngine engine(provider ? std::move(provider)
                             : std::make_shared<ViewCountProvider>(
                                   TableView(table)));
    CiTester tester(&engine, chi2, 13);
    DataCiOracle oracle(&tester, 0.01);
    Stopwatch timer;
    for (int target = 0; target < n; ++target) {
      std::vector<int> candidates;
      for (int c = 0; c < n; ++c) {
        if (c != target) candidates.push_back(c);
      }
      HYPDB_ASSIGN_OR_RETURN(CdResult cd,
                             DiscoverParents(oracle, target, candidates));
      parents->push_back(std::move(cd.parents));
    }
    return timer.ElapsedSeconds();
  };

  std::vector<std::vector<int>> scan_parents;
  HYPDB_ASSIGN_OR_RETURN(out.no_cube_seconds, run(nullptr, &scan_parents));

  Stopwatch build_timer;
  HYPDB_ASSIGN_OR_RETURN(DataCube cube,
                         DataCube::Build(TableView(table), all));
  out.cube_build_seconds = build_timer.ElapsedSeconds();
  out.cube_cells = cube.TotalCells();
  auto base = std::make_shared<ViewCountProvider>(TableView(table));
  auto provider = std::make_shared<CubeCountProvider>(
      base, std::make_shared<const DataCube>(std::move(cube)),
      base->PopulationVersion());
  std::vector<std::vector<int>> cube_parents;
  HYPDB_ASSIGN_OR_RETURN(out.cube_seconds, run(provider, &cube_parents));
  out.cube_hits = provider->stats().cube_hits;
  out.base_scans = base->num_scans();
  out.same_parents = cube_parents == scan_parents;
  return out;
}

StatusOr<TablePtr> BinaryDataset(int num_nodes, int64_t rows, Rng& rng) {
  RandomDataOptions options;
  options.num_nodes = num_nodes;
  options.expected_degree = 3.0;
  options.min_categories = 2;
  options.max_categories = 2;  // binary, as the paper's cube experiment
  options.num_rows = rows;
  HYPDB_ASSIGN_OR_RETURN(RandomDataset ds,
                         GenerateRandomDataset(options, rng));
  return MakeTable(std::move(ds.table));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  Header("bench_fig6d_cube",
         "Fig. 6(d) + Fig. 8(b) — CD with vs without a pre-computed cube");
  Rng rng(68);
  net::JsonValue points = net::JsonValue::MakeArray();
  bool pass = true;

  // One sweep point: runs both configurations, prints the row, records
  // it and applies the gates. False when the point could not run.
  auto point = [&](const char* sweep, int attrs, int64_t rows) {
    auto table = BinaryDataset(attrs, rows, rng);
    if (!table.ok()) return false;
    auto result = RunBoth(*table);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return false;
    }
    Row({std::to_string(std::string(sweep) == "rows" ? rows : attrs),
         Fmt("%.3f", result->no_cube_seconds),
         Fmt("%.3f", result->cube_seconds),
         Fmt("%.1fx", result->no_cube_seconds /
                          std::max(result->cube_seconds, 1e-9)),
         Fmt("%.3f", result->cube_build_seconds),
         std::to_string(result->cube_cells),
         result->same_parents ? "same" : "DIFFER",
         std::to_string(result->base_scans)},
        12);
    pass &= result->same_parents && result->base_scans == 0;
    net::JsonValue p = net::JsonValue::MakeObject();
    p.Set("sweep", net::JsonValue::Str(sweep));
    p.Set("rows", net::JsonValue::Int(rows));
    p.Set("attrs", net::JsonValue::Int(attrs));
    p.Set("no_cube_seconds",
          net::JsonValue::Double(result->no_cube_seconds));
    p.Set("cube_seconds", net::JsonValue::Double(result->cube_seconds));
    p.Set("build_seconds",
          net::JsonValue::Double(result->cube_build_seconds));
    p.Set("cube_cells", net::JsonValue::Int(result->cube_cells));
    p.Set("cube_hits", net::JsonValue::Int(result->cube_hits));
    p.Set("base_scans", net::JsonValue::Int(result->base_scans));
    p.Set("same_parents", net::JsonValue::Bool(result->same_parents));
    points.Append(std::move(p));
    return true;
  };
  const std::vector<std::string> columns = {
      "no cube[s]", "cube[s]", "speedup", "build[s]",
      "cells",      "parents", "base scans"};
  auto header = [&](const char* first) {
    std::vector<std::string> row = {first};
    row.insert(row.end(), columns.begin(), columns.end());
    Row(row, 12);
  };

  std::printf("\nsweep 1 (Fig. 6d): 10 binary attributes, varying rows\n");
  header("rows");
  for (int64_t rows : {100000, 400000, 1600000}) {
    if (!point("rows", 10, static_cast<int64_t>(rows * scale))) return 1;
  }

  std::printf("\nsweep 2 (Fig. 8b): 400k rows, varying attribute count\n");
  header("attrs");
  for (int attrs : {8, 10, 12}) {
    if (!point("attrs", attrs, static_cast<int64_t>(400000 * scale))) {
      return 1;
    }
  }
  std::printf("\n(expected shape: cube time ~flat in rows — all answers\n"
              " come from the lattice; the no-cube column grows linearly;\n"
              " dramatic speedups, bigger at larger inputs)\n");

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("points", std::move(points));
  results.Set("pass", net::JsonValue::Bool(pass));
  WriteBenchJson("fig6d_cube", std::move(results));
  std::printf(pass ? "PASS: CD over the cube finds the parents CD over "
                     "scans finds, without a base scan\n"
                   : "FAIL: see the parents and base scans columns\n");
  return pass ? 0 : 1;
}
