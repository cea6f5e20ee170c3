// Staged-session latency: time-to-first-bias-verdict of the staged
// AnalysisSession vs the full one-shot analysis, on the adult workload
// (paper Sec. 7.3 / Fig. 3 top — the "think twice" query).
//
// The paper's interaction model shows the analyst the plain answers and
// a bias warning first; explanations and rewrites are drilled into on
// demand. The session API makes that warning cheap: Detect() runs only
// bind + discovery + the per-context balance tests, skipping the
// explanation and rewrite stages entirely. This bench measures both
// paths through the service (shared shards, discovery cache, scheduler)
// against a cold service each. Both are dominated by the same cold
// discovery, so one sample of each is noise-bound; the bench runs kQuads
// quads of cold pairs in ABBA order (one-shot first, then staged first)
// and asserts:
//  1. the median over quads of the one-shot/staged latency ratio > 1
//     (strictly): the staged time-to-first-verdict is faster;
//  2. in every pair, finishing the staged session yields a report digest
//     bit-identical to the one-shot analysis (and to every other pair's).
// Violation of either exits non-zero. Every sample lands in
// BENCH_session_latency.json.
//
// Usage: bench_session_latency [scale]   (scale multiplies rows)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/adult_data.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

constexpr char kSql[] =
    "SELECT Gender, avg(Income) FROM adult GROUP BY Gender";

TablePtr Adult(double scale) {
  AdultDataOptions options;
  options.num_rows = static_cast<int64_t>(options.num_rows * scale);
  auto table = GenerateAdultData(options);
  if (!table.ok()) {
    std::fprintf(stderr, "adult datagen failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return MakeTable(std::move(*table));
}

/// ABBA quads measured; odd, so the median is one quad. The staged path
/// skips only explanation and rewrite, ~6% of a cold analysis at scale
/// 0.5, while single cold samples spread ±10% on a shared 4-vCPU host,
/// and a run's place in its pair alone has moved it by ~4%. A quad runs
/// each side once first and once second, so its ratio (the geometric
/// mean of its two pairs') cancels that order effect, and its four runs
/// share one stretch of host speed.
constexpr int kQuads = 37;
constexpr int kPairs = 2 * kQuads;

struct Sample {
  double seconds = 0.0;
  std::string digest;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One-shot path: a cold service, full analysis.
StatusOr<Sample> OneShot(const TablePtr& adult) {
  HypDbService service;
  service.RegisterTable("adult", adult);
  Stopwatch timer;
  auto report = service.AnalyzeSql("adult", kSql);
  Sample out{timer.ElapsedSeconds(), ""};
  if (!report.ok()) return report.status();
  out.digest = CanonicalReportDigest(report->report);
  return out;
}

// Staged path: an equally cold service; the analyst's first verdict is
// create + detect (discovery included). Then the session is finished to
// check bit-identity of the complete staged report.
StatusOr<Sample> Staged(const TablePtr& adult) {
  HypDbService service;
  service.RegisterTable("adult", adult);
  Stopwatch timer;
  HYPDB_ASSIGN_OR_RETURN(SessionInfo info,
                         service.CreateSession({"adult", kSql, {}}));
  HYPDB_RETURN_IF_ERROR(service.AdvanceSession(info.id, "detect").status());
  Sample out{timer.ElapsedSeconds(), ""};
  HYPDB_ASSIGN_OR_RETURN(ServiceReport finished,
                         service.AdvanceSession(info.id, "report"));
  if (!finished.stats.session_complete) {
    return Status::Internal("staged session did not complete");
  }
  out.digest = CanonicalReportDigest(finished.report);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  Header("bench_session_latency",
         "staged AnalysisSession: time-to-first-bias-verdict vs one-shot "
         "(adult workload, Sec. 7.3)");

  TablePtr adult = Adult(scale);

  std::vector<double> oneshot_seconds;
  std::vector<double> staged_seconds;
  net::JsonValue staged_first = net::JsonValue::MakeArray();
  std::string digest;  // the first one-shot digest; every sample matches
  bool digests_match = true;
  Row({"pair", "first", "one-shot[s]", "staged[s]", "digests"});
  for (int pair = 0; pair < kPairs; ++pair) {
    // ABBA: the second pair of each quad runs the staged side first.
    const bool staged_runs_first = pair % 2 == 1;
    StatusOr<Sample> staged = Status::Internal("not run");
    if (staged_runs_first) staged = Staged(adult);
    StatusOr<Sample> oneshot = OneShot(adult);
    if (!staged_runs_first) staged = Staged(adult);
    for (const StatusOr<Sample>* run : {&oneshot, &staged}) {
      if (!run->ok()) {
        std::fprintf(stderr, "pair %d failed: %s\n", pair,
                     run->status().ToString().c_str());
        return 1;
      }
    }
    if (digest.empty()) digest = oneshot->digest;
    const bool match =
        oneshot->digest == digest && staged->digest == oneshot->digest;
    digests_match &= match;
    oneshot_seconds.push_back(oneshot->seconds);
    staged_seconds.push_back(staged->seconds);
    staged_first.Append(net::JsonValue::Bool(staged_runs_first));
    Row({std::to_string(pair), staged_runs_first ? "staged" : "one-shot",
         Fmt("%.3f", oneshot->seconds), Fmt("%.3f", staged->seconds),
         match ? "identical" : "DIFFER"});
  }

  const double oneshot_median = Median(oneshot_seconds);
  const double staged_median = Median(staged_seconds);
  std::vector<double> quad_ratios;
  for (int quad = 0; quad < kQuads; ++quad) {
    const int a = 2 * quad;
    const int b = a + 1;
    quad_ratios.push_back(
        std::sqrt(oneshot_seconds[a] / staged_seconds[a] *
                  (oneshot_seconds[b] / staged_seconds[b])));
  }
  const double speedup = Median(quad_ratios);
  std::printf("median one-shot %.3fs, median staged detect %.3fs\n",
              oneshot_median, staged_median);
  std::printf("time-to-first-bias-verdict speedup (median of %d ABBA "
              "quads): %.3fx\n",
              kQuads, speedup);

  auto samples = [](const std::vector<double>& v) {
    net::JsonValue out = net::JsonValue::MakeArray();
    for (double x : v) out.Append(net::JsonValue::Double(x));
    return out;
  };
  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("sql", net::JsonValue::Str(kSql));
  results.Set("scale", net::JsonValue::Double(scale));
  results.Set("pairs", net::JsonValue::Int(kPairs));
  results.Set("quads", net::JsonValue::Int(kQuads));
  results.Set("one_shot_seconds", net::JsonValue::Double(oneshot_median));
  results.Set("staged_detect_seconds",
              net::JsonValue::Double(staged_median));
  results.Set("one_shot_samples", samples(oneshot_seconds));
  results.Set("staged_detect_samples", samples(staged_seconds));
  results.Set("staged_first", std::move(staged_first));
  results.Set("quad_ratios", samples(quad_ratios));
  results.Set("speedup", net::JsonValue::Double(speedup));
  results.Set("digest_match", net::JsonValue::Bool(digests_match));
  WriteBenchJson("session_latency", std::move(results));

  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: a staged session report is not bit-identical to "
                 "the one-shot analysis\n");
    return 1;
  }
  if (speedup <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: the staged time-to-first-verdict is not faster than "
                 "the full one-shot analysis (median quad ratio %.3fx)\n",
                 speedup);
    return 1;
  }
  std::printf("OK: staged verdict %.3fx faster (median of %d ABBA quads of "
              "cold pairs), digests bit-identical\n",
              speedup, kQuads);
  return 0;
}
