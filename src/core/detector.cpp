#include "core/detector.h"

#include <algorithm>

#include "stats/mi_engine.h"
#include "stats/multiple_testing.h"

namespace hypdb {
namespace {

std::vector<std::string> ColumnNames(const TablePtr& table,
                                     const std::vector<int>& cols) {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (int c : cols) names.push_back(table->column(c).name());
  return names;
}

// Balance test of T vs the compound V within one context view. Variables
// that are constant within the context (e.g. the grouping attributes)
// contribute nothing and are kept — the compound support compaction
// handles them.
StatusOr<BalanceTest> TestBalance(const TablePtr& table, CiTester& tester,
                                  int treatment, const std::vector<int>& v,
                                  double alpha) {
  BalanceTest test;
  test.variables = ColumnNames(table, v);
  if (v.empty()) {
    // Nothing to be unbalanced against.
    test.ci = CiResult{};
    test.biased = false;
    return test;
  }
  HYPDB_ASSIGN_OR_RETURN(test.ci, tester.TestSets({treatment}, v, {}));
  test.biased = !test.ci.IndependentAt(alpha);
  return test;
}

}  // namespace

StatusOr<std::vector<ContextBias>> DetectBias(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<Context>& contexts,
    const std::vector<int>& covariates, const std::vector<int>* mediators,
    const DetectorOptions& options,
    const std::vector<std::shared_ptr<CountEngine>>& context_engines,
    CountEngineStats* count_stats) {
  if (context_engines.size() != contexts.size()) {
    return Status::InvalidArgument("DetectBias needs one engine per context");
  }
  std::vector<ContextBias> out;
  out.reserve(contexts.size());
  uint64_t seed = options.seed;
  for (size_t c = 0; c < contexts.size(); ++c) {
    const Context& ctx = contexts[c];
    ContextBias bias;
    bias.context_labels = ctx.labels;
    bias.rows = ctx.view.NumRows();

    // One count engine per context: the balance tests for total and
    // direct effect share most of their counts.
    MiEngine engine(context_engines[c],
                    MiEngineOptions{.estimator = options.estimator});
    const CountEngineStats stats_before = engine.count_engine().stats();
    CiTester tester(&engine, options.ci, seed++);
    HYPDB_ASSIGN_OR_RETURN(
        bias.total, TestBalance(table, tester, bound.treatment, covariates,
                                options.alpha));
    if (mediators != nullptr) {
      std::vector<int> v = covariates;
      for (int m : *mediators) {
        if (std::find(v.begin(), v.end(), m) == v.end()) v.push_back(m);
      }
      std::sort(v.begin(), v.end());
      HYPDB_ASSIGN_OR_RETURN(
          bias.direct,
          TestBalance(table, tester, bound.treatment, v, options.alpha));
      bias.has_direct = true;
    }
    if (count_stats != nullptr) {
      *count_stats += engine.count_engine().stats() - stats_before;
    }
    out.push_back(std::move(bias));
  }

  // FDR adjustment across the whole family of balance tests (Sec. 8):
  // one query fires 1-2 tests per context; with many contexts the raw
  // per-test alpha inflates the discovery rate.
  std::vector<double> p_values;
  for (const ContextBias& bias : out) {
    if (!bias.total.variables.empty()) {
      p_values.push_back(bias.total.ci.p_value);
    }
    if (bias.has_direct) p_values.push_back(bias.direct.ci.p_value);
  }
  std::vector<double> adjusted = BenjaminiHochberg(p_values);
  size_t idx = 0;
  for (ContextBias& bias : out) {
    if (!bias.total.variables.empty()) {
      bias.total.p_adjusted = adjusted[idx++];
      bias.total.biased_fdr = bias.total.p_adjusted <= options.alpha;
    }
    if (bias.has_direct) {
      bias.direct.p_adjusted = adjusted[idx++];
      bias.direct.biased_fdr = bias.direct.p_adjusted <= options.alpha;
    }
  }
  return out;
}

}  // namespace hypdb
