// Tests for bias detection (Sec. 3.1), explanation (Sec. 3.2) and
// resolution by rewriting (Sec. 3.3) on hand-built tables with known
// ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/detector.h"
#include "core/explainer.h"
#include "core/hypdb.h"
#include "core/query.h"
#include "core/rewriter.h"
#include "dataframe/group_by.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

namespace hypdb {
namespace {

// A confounded dataset: z ~ Bern(0.5); t leans toward z; y depends on z
// (and optionally on t directly).
TablePtr Confounded(int64_t n, bool direct_effect, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder t("t");
  ColumnBuilder y("y");
  ColumnBuilder z("z");
  ColumnBuilder noise("noise");
  for (int64_t i = 0; i < n; ++i) {
    int zi = rng.Bernoulli(0.5) ? 1 : 0;
    int ti = rng.Bernoulli(zi ? 0.8 : 0.2) ? 1 : 0;
    double py = 0.2 + 0.5 * zi + (direct_effect ? 0.2 * ti : 0.0);
    int yi = rng.Bernoulli(py) ? 1 : 0;
    t.Append(ti ? "treat" : "control");
    y.Append(std::to_string(yi));
    z.Append(std::to_string(zi));
    noise.Append(std::to_string(rng.NextBounded(3)));
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(noise.Finish()).ok());
  return MakeTable(std::move(table));
}

// A randomized dataset: t assigned independently of everything.
TablePtr Randomized(int64_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder t("t");
  ColumnBuilder y("y");
  ColumnBuilder z("z");
  for (int64_t i = 0; i < n; ++i) {
    int zi = rng.Bernoulli(0.5) ? 1 : 0;
    int ti = rng.Bernoulli(0.5) ? 1 : 0;
    int yi = rng.Bernoulli(0.2 + 0.4 * zi + 0.2 * ti) ? 1 : 0;
    t.Append(ti ? "treat" : "control");
    y.Append(std::to_string(yi));
    z.Append(std::to_string(zi));
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(t.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(y.Finish()).ok());
  EXPECT_TRUE(table.AddColumn(z.Finish()).ok());
  return MakeTable(std::move(table));
}

AggQuery BasicQuery() {
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  return q;
}

// Every query here has no grouping, so its one context is the whole
// population; the stage functions count it through the default stack, as
// a session does without service hooks.
Context Whole(const BoundQuery& bound) { return Context{{}, bound.population}; }

std::shared_ptr<CountEngine> Engine(const BoundQuery& bound) {
  return MakeViewEngine(bound.population, MiEngineOptions{});
}

StatusOr<std::vector<ContextBias>> Detect(const TablePtr& table,
                                          const BoundQuery& bound,
                                          const std::vector<int>& covariates,
                                          const std::vector<int>* mediators) {
  return DetectBias(table, bound, {Whole(bound)}, covariates, mediators,
                    DetectorOptions{}, {Engine(bound)});
}

StatusOr<std::vector<ContextExplanation>> Explain(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<int>& variables) {
  HYPDB_ASSIGN_OR_RETURN(
      ContextExplanation expl,
      ExplainContext(table, bound, Whole(bound), variables,
                     ExplainerOptions{}, Engine(bound)));
  return std::vector<ContextExplanation>{std::move(expl)};
}

StatusOr<std::vector<ContextRewrite>> Rewrite(
    const TablePtr& table, const BoundQuery& bound,
    const std::vector<int>& covariates, const std::vector<int>& mediators,
    const RewriterOptions& options) {
  std::shared_ptr<CountEngine> engine = Engine(bound);
  HYPDB_ASSIGN_OR_RETURN(auto treatments,
                         TreatmentsIn(*engine, *table, bound.treatment));
  HYPDB_ASSIGN_OR_RETURN(
      ContextRewrite rewrite,
      RewriteContextAndEstimate(table, bound, Whole(bound), treatments,
                                covariates, mediators, options,
                                /*sig_seed=*/0x5EED, engine));
  return std::vector<ContextRewrite>{std::move(rewrite)};
}

// Alg. 3 over one view's default stack.
StatusOr<std::vector<ExplanationTriple>> FineGrained(const TablePtr& table,
                                                     int t_col, int y_col,
                                                     int z_col, int top_k) {
  std::shared_ptr<CountEngine> engine =
      MakeViewEngine(TableView(table), MiEngineOptions{});
  return FineGrainedExplanations(*engine, *table, t_col, y_col, z_col,
                                 top_k);
}

TEST(DetectorTest, FlagsConfoundedQuery) {
  TablePtr data = Confounded(6000, false, 1);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  int z = *data->ColumnIndex("z");
  auto bias = Detect(data, *bound, {z}, nullptr);
  ASSERT_TRUE(bias.ok());
  ASSERT_EQ(bias->size(), 1u);
  EXPECT_TRUE((*bias)[0].total.biased);
  EXPECT_GT((*bias)[0].total.ci.statistic, 0.05);
  EXPECT_FALSE((*bias)[0].has_direct);
  EXPECT_EQ((*bias)[0].total.variables, (std::vector<std::string>{"z"}));
}

TEST(DetectorTest, PassesRandomizedQuery) {
  TablePtr data = Randomized(6000, 2);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  int z = *data->ColumnIndex("z");
  auto bias = Detect(data, *bound, {z}, nullptr);
  ASSERT_TRUE(bias.ok());
  EXPECT_FALSE((*bias)[0].total.biased);
}

TEST(DetectorTest, EmptyCovariatesNeverBiased) {
  TablePtr data = Confounded(2000, false, 3);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  auto bias = Detect(data, *bound, {}, nullptr);
  ASSERT_TRUE(bias.ok());
  EXPECT_FALSE((*bias)[0].total.biased);
}

TEST(DetectorTest, DirectSetIncludesMediators) {
  TablePtr data = Confounded(6000, true, 4);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  int z = *data->ColumnIndex("z");
  std::vector<int> mediators = {*data->ColumnIndex("noise")};
  auto bias =
      Detect(data, *bound, {z}, &mediators);
  ASSERT_TRUE(bias.ok());
  EXPECT_TRUE((*bias)[0].has_direct);
  EXPECT_EQ((*bias)[0].direct.variables.size(), 2u);
}

TEST(ExplainerTest, ResponsibilitiesSumToOneAndRankConfounder) {
  TablePtr data = Confounded(8000, false, 5);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  int z = *data->ColumnIndex("z");
  int noise = *data->ColumnIndex("noise");
  auto expl = Explain(data, *bound, {z, noise});
  ASSERT_TRUE(expl.ok());
  ASSERT_EQ(expl->size(), 1u);
  const ContextExplanation& e = (*expl)[0];
  ASSERT_EQ(e.coarse.size(), 2u);
  // z is the real confounder; noise is noise.
  EXPECT_EQ(e.coarse[0].attribute, "z");
  EXPECT_GT(e.coarse[0].rho, 0.8);
  double total = 0;
  for (const auto& r : e.coarse) {
    EXPECT_GE(r.rho, 0.0);
    total += r.rho;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ExplainerTest, FineGrainedFindsDominantTriple) {
  // Deterministic strong confounding: t = z, y = z on 90% of rows.
  Rng rng(6);
  ColumnBuilder t("t"), y("y"), z("z");
  for (int i = 0; i < 4000; ++i) {
    int zi = rng.Bernoulli(0.5) ? 1 : 0;
    int ti = rng.Bernoulli(0.9) ? zi : 1 - zi;
    int yi = rng.Bernoulli(0.9) ? zi : 1 - zi;
    t.Append(ti ? "T1" : "T0");
    y.Append(std::to_string(yi));
    z.Append(zi ? "Zhigh" : "Zlow");
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));

  auto triples = FineGrained(data, 0, 1, 2, 4);
  ASSERT_TRUE(triples.ok());
  ASSERT_GE(triples->size(), 2u);
  // Top triples must be the aligned ones: (T1, 1, Zhigh) / (T0, 0, Zlow).
  const ExplanationTriple& top = (*triples)[0];
  EXPECT_GT(top.kappa_tz, 0.0);
  EXPECT_GT(top.kappa_yz, 0.0);
  bool aligned = (top.t_label == "T1" && top.y_label == "1" &&
                  top.z_label == "Zhigh") ||
                 (top.t_label == "T0" && top.y_label == "0" &&
                  top.z_label == "Zlow");
  EXPECT_TRUE(aligned) << top.t_label << "," << top.y_label << ","
                       << top.z_label;
  EXPECT_EQ((*triples)[0].borda_rank, 1);
  EXPECT_EQ((*triples)[1].borda_rank, 2);
}

TEST(ExplainerTest, KappaSumsToMutualInformation) {
  TablePtr data = Confounded(5000, true, 7);
  // Σ κ(t,z) over observed pairs = Î(T;Z) (plugin).
  auto counts = CountBy(TableView(data), {0, 2});
  ASSERT_TRUE(counts.ok());
  // Reuse the explainer's path through triples: compare against MiEngine.
  MiEngine engine(TableView(data),
                  MiEngineOptions{.estimator = EntropyEstimator::kPlugin});
  double mi = *engine.Mi(0, 2, {});
  // Sum κ from the fine-grained machinery over a y-agnostic query: use
  // all triples with top_k large and aggregate unique (t,z) pairs.
  auto triples = FineGrained(data, 0, 1, 2, 1000);
  ASSERT_TRUE(triples.ok());
  std::map<std::pair<std::string, std::string>, double> kappa;
  for (const auto& tr : *triples) {
    kappa[{tr.t_label, tr.z_label}] = tr.kappa_tz;
  }
  double sum = 0;
  for (const auto& [k, v] : kappa) sum += v;
  EXPECT_NEAR(sum, mi, 1e-9);
}

TEST(RewriterTest, AdjustmentMatchesClosedForm) {
  // Hand-computable blocks.
  //   z=0: control 10 rows avg 0.2, treat 10 rows avg 0.4   (20 rows)
  //   z=1: control 20 rows avg 0.6, treat 10 rows avg 0.8   (30 rows)
  ColumnBuilder t("t"), y("y"), z("z");
  auto emit = [&](const char* tv, int zv, int ones, int zeros) {
    for (int i = 0; i < ones; ++i) {
      t.Append(tv);
      y.Append("1");
      z.Append(std::to_string(zv));
    }
    for (int i = 0; i < zeros; ++i) {
      t.Append(tv);
      y.Append("0");
      z.Append(std::to_string(zv));
    }
  };
  emit("control", 0, 2, 8);
  emit("treat", 0, 4, 6);
  emit("control", 1, 12, 8);
  emit("treat", 1, 8, 2);
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));

  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  RewriterOptions opt;
  opt.compute_direct = false;
  opt.compute_significance = false;
  auto rw = Rewrite(data, *bound, {*data->ColumnIndex("z")}, {},
                               opt);
  ASSERT_TRUE(rw.ok());
  ASSERT_EQ(rw->size(), 1u);
  const ContextRewrite& r = (*rw)[0];
  EXPECT_EQ(r.blocks_seen, 2);
  EXPECT_EQ(r.blocks_used, 2);
  // Weights: z=0 -> 20/50, z=1 -> 30/50.
  // adjusted(control) = .4*.2 + .6*.6 = 0.44
  // adjusted(treat)   = .4*.4 + .6*.8 = 0.64
  ASSERT_EQ(r.total.size(), 2u);
  EXPECT_EQ(r.total[0].treatment_label, "control");
  EXPECT_NEAR(r.total[0].means[0], 0.44, 1e-12);
  EXPECT_NEAR(r.total[1].means[0], 0.64, 1e-12);
  EXPECT_NEAR(r.Difference("treat", "control", 0), 0.2, 1e-12);
}

TEST(RewriterTest, EmptyCovariatesIsNoOp) {
  TablePtr data = Confounded(3000, true, 8);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  auto plain = HypDb(data).Answers(BasicQuery());
  ASSERT_TRUE(plain.ok());
  RewriterOptions opt;
  opt.compute_direct = false;
  opt.compute_significance = false;
  auto rw = Rewrite(data, *bound, {}, {}, opt);
  ASSERT_TRUE(rw.ok());
  const ContextRewrite& r = (*rw)[0];
  for (size_t g = 0; g < r.total.size(); ++g) {
    EXPECT_NEAR(r.total[g].means[0],
                plain->contexts[0].groups[g].averages[0], 1e-9);
  }
}

TEST(RewriterTest, ExactMatchingPrunesSingletonBlocks) {
  // z=2 block contains only "treat" rows: must be pruned.
  ColumnBuilder t("t"), y("y"), z("z");
  auto add = [&](const char* tv, const char* yv, const char* zv, int k) {
    for (int i = 0; i < k; ++i) {
      t.Append(tv);
      y.Append(yv);
      z.Append(zv);
    }
  };
  add("control", "0", "0", 5);
  add("treat", "1", "0", 5);
  add("treat", "1", "2", 10);  // overlap violated here
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(z.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));

  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  RewriterOptions opt;
  opt.compute_direct = false;
  opt.compute_significance = false;
  auto rw = Rewrite(data, *bound, {*data->ColumnIndex("z")}, {},
                               opt);
  ASSERT_TRUE(rw.ok());
  const ContextRewrite& r = (*rw)[0];
  EXPECT_EQ(r.blocks_seen, 2);
  EXPECT_EQ(r.blocks_used, 1);
  // Only the z=0 block survives: means 0 and 1.
  EXPECT_NEAR(r.total[0].means[0], 0.0, 1e-12);
  EXPECT_NEAR(r.total[1].means[0], 1.0, 1e-12);
}

TEST(RewriterTest, TotalEffectRemovesConfounding) {
  // No direct effect: adjusted difference ≈ 0 although plain gap is big.
  TablePtr data = Confounded(30000, false, 9);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  auto plain = HypDb(data).Answers(BasicQuery());
  ASSERT_TRUE(plain.ok());
  double plain_diff =
      plain->contexts[0].Difference("treat", "control", 0);
  EXPECT_GT(plain_diff, 0.2);

  RewriterOptions opt;
  opt.compute_direct = false;
  auto rw = Rewrite(data, *bound, {*data->ColumnIndex("z")}, {},
                               opt);
  ASSERT_TRUE(rw.ok());
  const ContextRewrite& r = (*rw)[0];
  EXPECT_LT(std::fabs(r.Difference("treat", "control", 0)), 0.03);
  // And the significance test agrees: I(T;Y|Z) ≈ 0.
  ASSERT_EQ(r.total_sig.size(), 1u);
  EXPECT_GT(r.total_sig[0].p_value, 0.01);
  // While the plain difference is significant.
  EXPECT_LE(r.plain_sig[0].p_value, 0.01);
}

TEST(RewriterTest, DirectEffectNullOnPureMediation) {
  // t -> m -> y with no direct t -> y edge.
  Rng rng(10);
  ColumnBuilder t("t"), m("m"), y("y");
  for (int i = 0; i < 20000; ++i) {
    int ti = rng.Bernoulli(0.5) ? 1 : 0;
    int mi = rng.Bernoulli(ti ? 0.8 : 0.2) ? 1 : 0;
    int yi = rng.Bernoulli(mi ? 0.7 : 0.2) ? 1 : 0;
    t.Append(ti ? "treat" : "control");
    m.Append(std::to_string(mi));
    y.Append(std::to_string(yi));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(m.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));

  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  RewriterOptions opt;
  auto rw = Rewrite(data, *bound, {},
                               {*data->ColumnIndex("m")}, opt);
  ASSERT_TRUE(rw.ok());
  const ContextRewrite& r = (*rw)[0];
  ASSERT_TRUE(r.has_direct);
  // Counterfactual means nearly equal: no direct effect.
  EXPECT_LT(std::fabs(r.Difference("treat", "control", 0, false)), 0.02);
  // Total (plain, Z = ∅) difference is large.
  EXPECT_GT(r.Difference("treat", "control", 0, true), 0.15);
  // Significance agrees.
  ASSERT_EQ(r.direct_sig.size(), 1u);
  EXPECT_GT(r.direct_sig[0].p_value, 0.01);
}

TEST(RewriterTest, DirectReferenceSelectsGroup) {
  TablePtr data = Confounded(4000, true, 11);
  auto bound = BindQuery(data, BasicQuery());
  ASSERT_TRUE(bound.ok());
  RewriterOptions opt;
  opt.direct_reference = "control";
  opt.compute_significance = false;
  auto rw = Rewrite(data, *bound, {*data->ColumnIndex("z")},
                               {*data->ColumnIndex("noise")}, opt);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)[0].direct_reference, "control");
}

TEST(RewriterTest, SingleTreatmentContextYieldsNoComparison) {
  ColumnBuilder t("t"), y("y");
  for (int i = 0; i < 10; ++i) {
    t.Append("only");
    y.Append(i % 2 ? "1" : "0");
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(t.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(y.Finish()).ok());
  TablePtr data = MakeTable(std::move(table));
  AggQuery q;
  q.treatment = "t";
  q.outcomes = {"y"};
  auto bound = BindQuery(data, q);
  ASSERT_TRUE(bound.ok());
  auto rw = Rewrite(data, *bound, {}, {}, RewriterOptions{});
  ASSERT_TRUE(rw.ok());
  EXPECT_TRUE((*rw)[0].total.empty());
  EXPECT_FALSE((*rw)[0].has_direct);
}

}  // namespace
}  // namespace hypdb
