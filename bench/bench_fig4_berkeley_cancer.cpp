// E6/E7 — Fig. 4: the BerkeleyData (gender → admission) and CancerData
// (lung cancer → car accidents) reports.
//
// BerkeleyData holds Bickel et al.'s 1973 counts, so its report is
// deterministic, and the bench gates the paper's finding on it: the
// context is biased, Department is a covariate, the plain answers favour
// men significantly (p < 0.001), and the total effect reverses the sign.
// It exits 1 otherwise and records the values in
// BENCH_fig4_berkeley_cancer.json. The Cancer half prints only: its
// claims are statistical over generated data.

#include <algorithm>

#include "bench_util.h"
#include "core/hypdb.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"

using namespace hypdb;
using namespace hypdb::bench;

int main(int argc, char** argv) {
  double scale = ScaleArg(argc, argv);
  Header("bench_fig4_berkeley_cancer",
         "Fig. 4 — BerkeleyData (top) and CancerData (bottom) reports");

  bool reproduced = false;
  {
    std::printf("\n--- Fig. 4 top: the effect of Gender on admission ---\n");
    auto table = GenerateBerkeleyData();
    if (!table.ok()) return 1;
    HypDb db(MakeTable(std::move(*table)), HypDbOptions{});
    auto report = db.AnalyzeSql(
        "SELECT Gender, avg(Accepted) FROM BerkeleyData GROUP BY Gender");
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", RenderReport(*report).c_str());
    std::printf("[paper: plain 0.30/0.46 favoring men; conditioning on\n"
                " Department shrinks and slightly reverses the gap]\n");

    if (report->bias.size() != 1 || report->plain.contexts.size() != 1 ||
        report->rewrites.size() != 1 ||
        report->rewrites[0].plain_sig.empty()) {
      std::printf("FAIL: expected one context with a rewrite\n");
      return 1;
    }
    const std::vector<std::string>& covariates = report->discovery.covariates;
    const bool biased = report->bias[0].total.biased;
    const bool department =
        std::find(covariates.begin(), covariates.end(), "Department") !=
        covariates.end();
    const double plain_diff =
        report->plain.contexts[0].Difference("Male", "Female", 0);
    const double plain_p = report->rewrites[0].plain_sig[0].p_value;
    const double total_diff =
        report->rewrites[0].Difference("Male", "Female", 0);
    // NaN differences fail every comparison below.
    const bool favours_men = plain_diff > 0.0 && plain_p < 0.001;
    const bool reverses = total_diff < 0.0;
    reproduced = biased && department && favours_men && reverses;
    std::printf("\nBerkeley gate: biased %s, Department a covariate %s,\n"
                "  plain Male - Female %+.4f (p %.3g), total effect "
                "%+.4f: %s\n",
                biased ? "yes" : "NO", department ? "yes" : "NO",
                plain_diff, plain_p, total_diff,
                reproduced ? "reproduced" : "FAILED");

    net::JsonValue results = net::JsonValue::MakeObject();
    results.Set("biased", net::JsonValue::Bool(biased));
    results.Set("department_covariate", net::JsonValue::Bool(department));
    results.Set("plain_male_minus_female",
                net::JsonValue::Double(plain_diff));
    results.Set("plain_p", net::JsonValue::Double(plain_p));
    results.Set("total_male_minus_female",
                net::JsonValue::Double(total_diff));
    results.Set("reproduced", net::JsonValue::Bool(reproduced));
    WriteBenchJson("fig4_berkeley_cancer", std::move(results));
  }

  {
    std::printf(
        "\n--- Fig. 4 bottom: lung cancer's effect on car accidents ---\n");
    auto table = GenerateCancerData(
        {.num_rows = static_cast<int64_t>(2000 * scale)});
    if (!table.ok()) return 1;
    HypDb db(MakeTable(std::move(*table)), HypDbOptions{});
    auto report = db.AnalyzeSql(
        "SELECT Lung_Cancer, avg(Car_Accident) FROM CancerData "
        "GROUP BY Lung_Cancer");
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", RenderReport(*report).c_str());
    std::printf("[paper/ground truth: plain 0.60/0.77; significant total\n"
                " effect via Fatigue; no direct effect (no LC->CA edge)]\n");
  }
  return reproduced ? 0 : 1;
}
