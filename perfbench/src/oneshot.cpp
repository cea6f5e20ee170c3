// table1_oneshot: the paper's own runtime path. Each pass runs a cold
// HypDb::AnalyzeSql on a fresh HypDb for the Table 1 query of each of
// the five tables, single-threaded. Storage, service and network layers
// are absent, so this workload is the no-change control for them.
//
// The traced run alternates untraced passes with traced ones. A traced
// pass drives AnalysisSession stage by stage, with timing decorators
// around the default count-engine stack (CachingCountEngine over
// ViewCountProvider) injected through SessionHooks, and must reproduce
// the untraced digests.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/analysis_session.h"
#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "dataframe/csv.h"
#include "engine/caching_count_engine.h"
#include "service/report_digest.h"
#include "stats/mi_engine.h"

namespace perfbench {
namespace {

using hypdb::CountEngine;
using hypdb::GroupCounts;
using hypdb::Status;
using hypdb::StatusOr;
using hypdb::TablePtr;

/// Engine time and scan work of one analysis, summed over every
/// decorated engine it created.
struct EngineTally {
  double outer_seconds = 0.0;  // all Counts/Prefetch calls into the stack
  double scan_seconds = 0.0;   // calls that reached ViewCountProvider
  int64_t scan_rows = 0;
};

/// Times every call into `base`. The outer decorator sits above the
/// caching layer (count time), the inner one above the scanner (scan
/// time and rows). Single-threaded use only.
class TimedEngine : public CountEngine {
 public:
  TimedEngine(std::shared_ptr<CountEngine> base, EngineTally* tally,
              bool scanner)
      : base_(std::move(base)), tally_(tally), scanner_(scanner) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    const double t0 = Now();
    StatusOr<GroupCounts> out = base_->Counts(cols);
    Charge(Now() - t0, out.ok());
    return out;
  }
  Status Prefetch(const std::vector<int>& cols) override {
    const double t0 = Now();
    Status out = base_->Prefetch(cols);
    Charge(Now() - t0, false);
    return out;
  }
  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    const double t0 = Now();
    StatusOr<GroupCounts> out =
        base_->CountsDelta(cols, from_version, to_version);
    Charge(Now() - t0, false);
    return out;
  }
  int64_t NumRows() const override { return base_->NumRows(); }
  int64_t PopulationVersion() const override {
    return base_->PopulationVersion();
  }
  int64_t ObservedCellBound(const std::vector<int>& cols) const override {
    return base_->ObservedCellBound(cols);
  }
  hypdb::CacheOccupancy CacheUse() const override { return base_->CacheUse(); }
  hypdb::CountEngineStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Charge(double seconds, bool scanned) {
    if (!scanner_) {
      tally_->outer_seconds += seconds;
      return;
    }
    tally_->scan_seconds += seconds;
    if (scanned) tally_->scan_rows += base_->NumRows();
  }

  std::shared_ptr<CountEngine> base_;
  EngineTally* tally_;
  bool scanner_;
};

/// The default engine stack of a one-shot analysis, with a timing
/// decorator above and below the caching layer.
std::shared_ptr<CountEngine> TimedStack(
    const hypdb::TableView& view, const hypdb::MiEngineOptions& o,
    EngineTally* tally,
    std::vector<std::shared_ptr<CountEngine>>* created) {
  auto scanner = std::make_shared<TimedEngine>(
      std::make_shared<hypdb::ViewCountProvider>(view,
                                                 hypdb::ScanKernelOptions(o)),
      tally, /*scanner=*/true);
  hypdb::CachingCountEngineOptions caching;
  caching.max_cached_cells = o.max_cached_cells;
  caching.policy = hypdb::MakeCachePolicy(o.materialization);
  auto stack = std::make_shared<TimedEngine>(
      std::make_shared<hypdb::CachingCountEngine>(std::move(scanner),
                                                  caching),
      tally, /*scanner=*/false);
  created->push_back(stack);
  return stack;
}

struct Shape {
  std::string name;
  std::string path;
  std::string sql;
  hypdb::AggQuery query;
  std::string digest;  // cold serial reference
  TablePtr table;
};

/// Per-layer sums over traced analyses.
struct Layers {
  int64_t analyses = 0;
  double stage[6] = {0, 0, 0, 0, 0, 0};  // answers..rewrite, report
  EngineTally engine;
  double discovery_engine_seconds = 0.0;
  int64_t ci_tests = 0;
  int64_t queries = 0;
  int64_t scans = 0;
  int64_t delta_patches = 0;
  int64_t cached_cells = 0;
  double seconds = 0.0;  // wall time of the traced analyses
};

const char* const kStageNames[6] = {"core.answers", "core.discovery",
                                    "core.detect",  "core.explain",
                                    "core.rewrite", "core.report"};

/// One stage-by-stage analysis with decorated engines. Returns the
/// report digest (empty on failure).
std::string TracedAnalysis(const Shape& shape, Layers* layers,
                           SpanLog* spans) {
  const hypdb::HypDbOptions options;
  StatusOr<hypdb::BoundQuery> bound =
      hypdb::BindQuery(shape.table, shape.query);
  if (!bound.ok()) return "";
  EngineTally tally;
  std::vector<std::shared_ptr<CountEngine>> engines;
  hypdb::SessionHooks hooks;
  hooks.population_engine =
      TimedStack(bound->population, options.engine, &tally, &engines);
  hooks.context_engine_provider =
      [&](const std::vector<std::pair<std::string,
                                      std::vector<std::string>>>&,
          const hypdb::TableView& view) {
        return TimedStack(view, options.engine, &tally, &engines);
      };

  const uint64_t op = spans->BeginOp();
  double marks[7];
  EngineTally at[7];
  marks[0] = Now();
  at[0] = tally;
  auto session = hypdb::AnalysisSession::Create(shape.table, shape.query,
                                                options, std::move(hooks));
  if (!session.ok() || !(*session)->Answers().ok()) return "";
  marks[1] = Now();
  at[1] = tally;
  StatusOr<const hypdb::DiscoveryReport*> discovery = (*session)->Discover();
  if (!discovery.ok()) return "";
  marks[2] = Now();
  at[2] = tally;
  if (!(*session)->Detect().ok()) return "";
  marks[3] = Now();
  at[3] = tally;
  if (!(*session)->Explain().ok()) return "";
  marks[4] = Now();
  at[4] = tally;
  if (!(*session)->Rewrite().ok()) return "";
  marks[5] = Now();
  at[5] = tally;
  StatusOr<hypdb::HypDbReport> report = (*session)->Report();
  if (!report.ok()) return "";
  marks[6] = Now();
  at[6] = tally;

  for (int s = 0; s < 6; ++s) {
    const double seconds = marks[s + 1] - marks[s];
    layers->stage[s] += seconds;
    char attrs[160];
    std::snprintf(attrs, sizeof(attrs),
                  "\"engine_ms\":%.4f,\"scan_ms\":%.4f,\"scan_rows\":%lld",
                  (at[s + 1].outer_seconds - at[s].outer_seconds) * 1e3,
                  (at[s + 1].scan_seconds - at[s].scan_seconds) * 1e3,
                  static_cast<long long>(at[s + 1].scan_rows -
                                         at[s].scan_rows));
    spans->Add(op, op, kStageNames[s], marks[s], seconds, attrs);
  }
  spans->Add(op, 0, "analyze " + shape.name, marks[0], marks[6] - marks[0]);
  layers->analyses += 1;
  layers->seconds += marks[6] - marks[0];
  layers->engine.outer_seconds += tally.outer_seconds;
  layers->engine.scan_seconds += tally.scan_seconds;
  layers->engine.scan_rows += tally.scan_rows;
  layers->discovery_engine_seconds += at[2].outer_seconds - at[1].outer_seconds;
  layers->ci_tests += (*discovery)->tests_used;
  layers->queries += report->count_stats.queries;
  layers->scans += report->count_stats.scans;
  layers->delta_patches += report->count_stats.delta_patches;
  for (const auto& engine : engines) {
    layers->cached_cells += engine->CacheUse().cached_cells;
  }
  return hypdb::CanonicalReportDigest(*report);
}

}  // namespace

int RunTable1Oneshot(const Args& args) {
  StatusOr<std::vector<InputOp>> ops = ReadOps(args.dir);
  if (!ops.ok()) {
    std::fprintf(stderr, "%s\n", ops.status().ToString().c_str());
    return 1;
  }
  std::vector<Shape> shapes;
  std::vector<std::vector<int64_t>> passes(1);
  for (const InputOp& op : *ops) {
    if (op.kind == "oneshot") {
      Shape shape{op.name, args.dir + "/" + op.path, op.sql, {}, "", nullptr};
      StatusOr<hypdb::AggQuery> query = hypdb::ParseAggQuery(op.sql);
      if (!query.ok()) {
        std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
        return 1;
      }
      shape.query = *query;
      shapes.push_back(std::move(shape));
    } else if (op.kind == "analyze" && op.shape >= 0 &&
               op.shape < static_cast<int64_t>(shapes.size())) {
      passes.back().push_back(op.shape);
    } else if (op.kind == "pass_end") {
      passes.emplace_back();
    } else {
      passes.clear();
      break;
    }
  }
  if (!passes.empty()) passes.pop_back();  // empty after the last pass_end
  if (shapes.empty() || passes.empty()) {
    std::fprintf(stderr, "malformed table1_oneshot inputs\n");
    return 1;
  }

  // Reference digests: cold serial HypDb::Analyze, before any timing.
  for (Shape& shape : shapes) {
    StatusOr<hypdb::Table> table = hypdb::ReadCsv(shape.path);
    if (!table.ok()) {
      std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
      return 1;
    }
    hypdb::HypDb db(hypdb::MakeTable(std::move(*table)));
    StatusOr<hypdb::HypDbReport> report = db.Analyze(shape.query);
    if (!report.ok()) {
      std::fprintf(stderr, "reference %s: %s\n", shape.name.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    shape.digest = hypdb::CanonicalReportDigest(*report);
  }

  // Set-up: load the five CSVs; the last load serves the measured phase.
  std::vector<double> setup_seconds;
  for (const SetupTimes& t : RepeatSetup(3, [&shapes] {
         SetupTimes times;
         const double t0 = Now();
         for (Shape& shape : shapes) {
           StatusOr<hypdb::Table> table = hypdb::ReadCsv(shape.path);
           if (!table.ok()) {
             std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
             return times;
           }
           shape.table = hypdb::MakeTable(std::move(*table));
         }
         times.seconds = Now() - t0;
         return times;
       })) {
    setup_seconds.push_back(t.seconds);
  }
  if (setup_seconds.empty()) return 1;

  // Measured phase: whole passes until the time is up.
  std::vector<double> latencies;
  std::vector<std::vector<double>> per_shape(shapes.size());
  int64_t attempted = 0;
  int64_t failed = 0;
  Layers layers;
  SpanLog spans;
  double untraced_seconds = 0.0;
  int64_t untraced_analyses = 0;
  const double start = Now();
  for (size_t pass = 0; Now() - start < args.seconds; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    for (int64_t index : passes[pass % passes.size()]) {
      const Shape& shape = shapes[index];
      ++attempted;
      std::string digest;
      if (traced) {
        digest = TracedAnalysis(shape, &layers, &spans);
      } else {
        hypdb::HypDb db(shape.table);
        const double t0 = Now();
        StatusOr<hypdb::HypDbReport> report = db.AnalyzeSql(shape.sql);
        const double seconds = Now() - t0;
        latencies.push_back(seconds * 1e3);
        per_shape[index].push_back(seconds * 1e3);
        untraced_seconds += seconds;
        ++untraced_analyses;
        if (report.ok()) digest = hypdb::CanonicalReportDigest(*report);
      }
      if (digest != shape.digest) ++failed;
    }
  }
  const double elapsed = Now() - start;

  Report out;
  out.Note("workload table1_oneshot seed " + std::to_string(args.seed) +
           ": " + std::to_string(attempted) + " analyses in " +
           std::to_string(elapsed) + " s, " +
           std::to_string(latencies.size()) + " untraced latency samples");
  for (size_t s = 0; s < shapes.size(); ++s) {
    out.Note(shapes[s].name + " analyze p50 " +
             std::to_string(Quantile(per_shape[s], 0.5)) + " ms");
  }
  if (!args.trace) {
    out.Metric("qps", static_cast<double>(attempted) / elapsed, "1/s");
    out.Metric("analyze_p50_ms", Quantile(latencies, 0.5), "ms");
    out.Metric("analyze_p90_ms", Quantile(latencies, 0.9), "ms");
    out.Metric("setup_s", Quantile(setup_seconds, 0.5), "s");
    out.Metric("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    const double n = std::max<int64_t>(layers.analyses, 1);
    const double count_ms = layers.engine.outer_seconds / n * 1e3;
    const double scan_ms = layers.engine.scan_seconds / n * 1e3;
    out.Metric("dataframe.csv_load_s", Quantile(setup_seconds, 0.5), "s");
    out.Metric("storage.register_s", 0.0, "s");
    out.Metric("storage.rows", 0.0, "count");
    out.Metric("storage.chunks", 0.0, "count");
    out.Metric("storage.scan_overhead", 0.0, "ratio");
    out.Metric("engine.count_ms", count_ms, "ms");
    out.Metric("engine.scan_ms", scan_ms, "ms");
    out.Metric("engine.cache_ms", count_ms - scan_ms, "ms");
    out.Metric("engine.scan_rows_per_s",
               layers.engine.scan_seconds > 0
                   ? layers.engine.scan_rows / layers.engine.scan_seconds
                   : 0.0,
               "rows/s");
    out.Metric("engine.queries", layers.queries / n, "count");
    out.Metric("engine.scans", layers.scans / n, "count");
    out.Metric("engine.reuse_ratio",
               layers.queries > 0
                   ? 1.0 - static_cast<double>(layers.scans) / layers.queries
                   : 0.0,
               "ratio");
    out.Metric("engine.delta_patches", layers.delta_patches / n, "count");
    out.Metric("engine.rows_scanned", layers.engine.scan_rows / n, "count");
    out.Metric("engine.cached_cells", layers.cached_cells / n, "count");
    out.Metric("causal.ci_tests", layers.ci_tests / n, "count");
    out.Metric("causal.self_ms",
               (layers.stage[1] - layers.discovery_engine_seconds) / n * 1e3,
               "ms");
    for (int s = 0; s < 5; ++s) {
      out.Metric(std::string(kStageNames[s]) + "_ms",
                 layers.stage[s] / n * 1e3, "ms");
    }
    out.Metric("service.queue_ms", 0.0, "ms");
    out.Metric("service.run_ms", 0.0, "ms");
    out.Metric("service.discovery_reuse", 0.0, "ratio");
    out.Metric("net.overhead_ms", 0.0, "ms");
    out.Metric("net.response_kib", 0.0, "KiB");
    out.Metric("net.parse_ms", 0.0, "ms");
    out.Metric("net.serialize_ms", 0.0, "ms");
    out.Metric("trace.overhead_pct",
               untraced_analyses > 0 && layers.analyses > 0
                   ? ((layers.seconds / layers.analyses) /
                          (untraced_seconds / untraced_analyses) -
                      1.0) * 100.0
                   : 0.0,
               "%");
    if (!args.spans_path.empty() && !spans.Write(args.spans_path, start)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    }
  }
  return out.Finish(failed == 0, attempted, failed);
}

}  // namespace perfbench
