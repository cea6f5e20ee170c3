// E3 — Fig. 5(a): avoiding false discoveries. Generate many random
// Listing-1 queries over FlightData comparing two carriers, rewrite each
// w.r.t. fixed potential covariates, and classify what the rewriting
// did. (The paper conditions on {Airport, Day, Month, DayOfWeek}; our
// generator's delay depends on Airport / Year / DepTime, so the
// equivalent covariate list here is {Airport, Year, DayOfWeek} — Day and
// Month would only inflate the stratification.) Classification:
//   * significant difference became insignificant  (paper: >10%)
//   * the trend reversed                            (paper: ~20%)
//   * off-diagonal (difference materially changed)
// The scatter of Fig. 5(a) is summarized as those fractions plus a
// coarse 2D histogram of (plain diff, rewritten diff).

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/query.h"
#include "core/rewriter.h"
#include "datagen/flight_data.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

using namespace hypdb;
using namespace hypdb::bench;

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  const int num_queries = static_cast<int>(250 * scale);
  Header("bench_fig5a_false_discoveries",
         "Fig. 5(a) — effect of query rewriting on random SQL queries");

  auto table = GenerateFlightData({.num_rows = 50000});
  if (!table.ok()) return 1;
  TablePtr data = MakeTable(std::move(*table));

  const std::vector<std::string> carriers = {"AA", "UA", "DL",
                                             "WN", "AS", "B6"};
  const std::vector<std::string> airports = {
      "COS", "MFE", "MTJ", "ROC", "SEA", "DEN",
      "ORD", "PHX", "BOS", "SJC", "AUS", "PDX"};
  std::vector<int> covariates = {
      *data->ColumnIndex("Airport"), *data->ColumnIndex("Year"),
      *data->ColumnIndex("DayOfWeek")};

  Rng rng(20180610);
  int analyzed = 0;
  int was_significant = 0;
  int became_insignificant = 0;
  int reversed = 0;
  int hist[3][3] = {};  // plain diff bucket x rewritten diff bucket

  RewriterOptions rw_options;
  rw_options.compute_direct = false;
  rw_options.ci.permutations = 400;

  for (int qi = 0; qi < num_queries; ++qi) {
    // Random pair of carriers, random airport subset, random month
    // restriction half the time (the paper's random WHERE clauses).
    AggQuery q;
    q.treatment = "Carrier";
    q.outcomes = {"Delayed"};
    int c1 = static_cast<int>(rng.NextBounded(carriers.size()));
    int c2 = static_cast<int>(rng.NextBounded(carriers.size() - 1));
    if (c2 >= c1) ++c2;
    q.where.push_back({"Carrier", {carriers[c1], carriers[c2]}});
    std::vector<std::string> chosen;
    for (const auto& a : airports) {
      if (rng.Bernoulli(0.4)) chosen.push_back(a);
    }
    if (chosen.size() < 2) chosen = {"COS", "ROC"};
    q.where.push_back({"Airport", chosen});
    if (rng.Bernoulli(0.5)) {
      std::vector<std::string> months;
      for (int m = 1; m <= 12; ++m) {
        if (rng.Bernoulli(0.5)) months.push_back(std::to_string(m));
      }
      if (!months.empty()) q.where.push_back({"Month", months});
    }

    auto bound = BindQuery(data, q);
    if (!bound.ok()) continue;
    // No grouping: the population is the query's one context, and one
    // engine serves the treatment census, the plain answers and the
    // rewrite.
    std::shared_ptr<CountEngine> population =
        MakeViewEngine(bound->population, MiEngineOptions{});
    auto treatments = TreatmentsIn(*population, *data, bound->treatment);
    if (!treatments.ok() || treatments->size() != 2) continue;
    auto plain = EvaluateBoundQuery(data, q, *bound, *population);
    if (!plain.ok()) continue;
    const uint64_t seed = 0xF1A5 + qi;
    auto rewrite = RewriteContextAndEstimate(
        data, *bound, Context{{}, bound->population}, *treatments,
        covariates, {}, rw_options, seed, population);
    if (!rewrite.ok()) continue;
    const ContextRewrite& rw = *rewrite;
    if (rw.total.size() != 2 || rw.plain_sig.empty()) continue;

    const std::string& t1 = (*treatments)[1].second;
    const std::string& t0 = (*treatments)[0].second;
    double plain_diff = plain->contexts[0].Difference(t1, t0, 0);
    double total_diff = rw.Difference(t1, t0, 0);
    if (std::isnan(plain_diff) || std::isnan(total_diff)) continue;
    ++analyzed;

    bool sig_before = rw.plain_sig[0].p_value <= 0.05;
    bool sig_after = rw.total_sig[0].p_value <= 0.05;
    if (sig_before) {
      ++was_significant;
      if (!sig_after) ++became_insignificant;
      if (sig_after && plain_diff * total_diff < 0) ++reversed;
    }
    auto bucket = [](double d) { return d < -0.01 ? 0 : d > 0.01 ? 2 : 1; };
    ++hist[bucket(plain_diff)][bucket(total_diff)];
  }

  std::printf("\nqueries analyzed: %d (of %d generated)\n", analyzed,
              num_queries);
  std::printf("significant before rewriting: %d\n", was_significant);
  if (was_significant > 0) {
    std::printf("  -> became insignificant: %d (%.1f%%)   [paper: >10%%]\n",
                became_insignificant,
                100.0 * became_insignificant / was_significant);
    std::printf("  -> trend reversed:       %d (%.1f%%)   [paper: ~20%%]\n",
                reversed, 100.0 * reversed / was_significant);
  }
  std::printf("\nscatter summary (rows: plain diff, cols: rewritten diff;\n"
              "buckets: <-0.01 | ~0 | >+0.01). Off-diagonal mass = the\n"
              "queries where rewriting mattered:\n");
  const char* labels[3] = {"neg", "~0", "pos"};
  Row({"", labels[0], labels[1], labels[2]}, 8);
  for (int r = 0; r < 3; ++r) {
    Row({labels[r], std::to_string(hist[r][0]), std::to_string(hist[r][1]),
         std::to_string(hist[r][2])},
        8);
  }
  return 0;
}
