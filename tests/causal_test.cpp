// Tests for src/causal: Markov blankets, the CD algorithm, FGS structure
// learning, hill climbing, the FD filter, and the F1 metric — against
// both the exact d-separation oracle and sampled data.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "causal/cd_algorithm.h"
#include "causal/ci_oracle.h"
#include "causal/eval.h"
#include "causal/fd_filter.h"
#include "causal/gs_structure.h"
#include "causal/hill_climbing.h"
#include "causal/markov_blanket.h"
#include "causal/subsets.h"
#include "datagen/cancer_data.h"
#include "datagen/random_data.h"
#include "graph/random_dag.h"
#include "recording_engine.h"
#include "stats/mi_engine.h"
#include "util/rng.h"

namespace hypdb {
namespace {

std::vector<int> AllBut(int n, int except) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    if (i != except) out.push_back(i);
  }
  return out;
}

// Fig. 2 DAG: W -> T <- Z, T -> {C, Y}, D -> {C, Y}.
enum Fig2 { W = 0, Z, T, C, D, Y, kFig2Count };
Dag Fig2Dag() {
  Dag dag(kFig2Count);
  dag.AddEdge(W, T);
  dag.AddEdge(Z, T);
  dag.AddEdge(T, Y);
  dag.AddEdge(T, C);
  dag.AddEdge(D, C);
  dag.AddEdge(D, Y);
  return dag;
}

TEST(SubsetsTest, EnumeratesInSizeOrder) {
  std::vector<std::vector<int>> seen;
  auto r = ForEachSubset({1, 2, 3}, -1,
                         [&](const std::vector<int>& s) -> StatusOr<bool> {
                           seen.push_back(s);
                           return false;
                         });
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_TRUE(seen[0].empty());
  EXPECT_EQ(seen[1], (std::vector<int>{1}));
  EXPECT_EQ(seen[7], (std::vector<int>{1, 2, 3}));
  // Sizes are non-decreasing.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].size(), seen[i - 1].size());
  }
}

TEST(SubsetsTest, MaxSizeCapAndEarlyStop) {
  int count = 0;
  auto r = ForEachSubset({1, 2, 3, 4}, 1,
                         [&](const std::vector<int>&) -> StatusOr<bool> {
                           ++count;
                           return false;
                         });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count, 5);  // empty + 4 singletons

  count = 0;
  r = ForEachSubset({1, 2, 3}, -1,
                    [&](const std::vector<int>& s) -> StatusOr<bool> {
                      ++count;
                      return s.size() == 1;
                    });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(count, 2);  // {} then {1}
}

TEST(MarkovBlanketTest, ExactOnFig2) {
  Dag dag = Fig2Dag();
  DSeparationOracle oracle(&dag);
  auto mb = GrowShrinkMb(oracle, T, AllBut(kFig2Count, T));
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(*mb, dag.MarkovBlanket(T));
  auto mb_d = IambMb(oracle, D, AllBut(kFig2Count, D));
  ASSERT_TRUE(mb_d.ok());
  EXPECT_EQ(*mb_d, dag.MarkovBlanket(D));
}

// Property sweep: both blanket learners recover the true MB of every
// node on random DAGs under the exact oracle.
class BlanketSweep : public testing::TestWithParam<int> {};

TEST_P(BlanketSweep, RecoversTrueBoundary) {
  Rng rng(GetParam() * 131);
  Dag dag = RandomErdosRenyiDag({.num_nodes = 9, .expected_degree = 2.5},
                                rng);
  DSeparationOracle oracle(&dag);
  for (int v = 0; v < dag.NumNodes(); ++v) {
    auto gs = GrowShrinkMb(oracle, v, AllBut(9, v));
    ASSERT_TRUE(gs.ok());
    EXPECT_EQ(*gs, dag.MarkovBlanket(v)) << "GS node " << v;
    auto iamb = IambMb(oracle, v, AllBut(9, v));
    ASSERT_TRUE(iamb.ok());
    EXPECT_EQ(*iamb, dag.MarkovBlanket(v)) << "IAMB node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlanketSweep, testing::Range(1, 13));

TEST(CdAlgorithmTest, RecoversParentsOnFig2) {
  Dag dag = Fig2Dag();
  DSeparationOracle oracle(&dag);
  auto r = DiscoverParents(oracle, T, AllBut(kFig2Count, T));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->fell_back_to_blanket);
  // PA_T = {W, Z}; D (a parent of T's children) must be evicted by
  // phase II, exactly the Sec. 4 discussion.
  EXPECT_EQ(r->parents, (std::vector<int>{W, Z}));
  EXPECT_GT(r->tests_used, 0);
}

TEST(CdAlgorithmTest, CollidersOnly) {
  // Pure collider A -> C <- B.
  Dag dag(3);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 2);
  DSeparationOracle oracle(&dag);
  auto r = DiscoverParents(oracle, 2, {0, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->parents, (std::vector<int>{0, 1}));
}

TEST(CdAlgorithmTest, FallsBackWhenSingleParent) {
  // Chain A -> B -> C: B has one parent, assumption fails.
  Dag dag(3);
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  DSeparationOracle oracle(&dag);
  auto r = DiscoverParents(oracle, 1, {0, 2}, CdOptions{}, {2});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->fell_back_to_blanket);
  // Fallback = MB(B) − outcomes = {A, C} − {C} = {A}.
  EXPECT_EQ(r->parents, (std::vector<int>{0}));
}

TEST(CdAlgorithmTest, RootTreatmentFallsBackToBlanket) {
  Dag dag = Fig2Dag();
  DSeparationOracle oracle(&dag);
  // W is a root: no parents, fallback to MB(W) = {T, Z}.
  auto r = DiscoverParents(oracle, W, AllBut(kFig2Count, W), CdOptions{},
                           {Y});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->fell_back_to_blanket);
  EXPECT_EQ(r->parents, (std::vector<int>{Z, T}));
}

TEST(CdAlgorithmTest, RejectsTreatmentInCandidates) {
  Dag dag = Fig2Dag();
  DSeparationOracle oracle(&dag);
  EXPECT_FALSE(DiscoverParents(oracle, T, {T, W}).ok());
}

// Sweep: on random DAGs with the exact oracle, CD recovers the parents
// of every node with ≥ 2 non-adjacent parents perfectly (Prop. 4.1).
class CdSweep : public testing::TestWithParam<int> {};

TEST_P(CdSweep, ExactWhereAssumptionHolds) {
  Rng rng(GetParam() * 733);
  Dag dag = RandomErdosRenyiDag({.num_nodes = 9, .expected_degree = 2.5},
                                rng);
  DSeparationOracle oracle(&dag);
  for (int v = 0; v < dag.NumNodes(); ++v) {
    const std::vector<int>& parents = dag.Parents(v);
    // The Sec. 4 assumption: EVERY parent has a non-adjacent co-parent.
    bool eligible = parents.size() >= 2;
    for (int u : parents) {
      bool has_partner = false;
      for (int w : parents) {
        if (w != u && !dag.Adjacent(u, w)) {
          has_partner = true;
          break;
        }
      }
      if (!has_partner) {
        eligible = false;
        break;
      }
    }
    if (!eligible) continue;
    auto r = DiscoverParents(oracle, v, AllBut(9, v));
    ASSERT_TRUE(r.ok());
    std::vector<int> expected = parents;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(r->parents, expected) << "node " << v;
    EXPECT_FALSE(r->fell_back_to_blanket);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdSweep, testing::Range(1, 17));

TEST(CdAlgorithmTest, WorksOnSampledLucasData) {
  auto table = GenerateCancerData({.num_rows = 20000});
  ASSERT_TRUE(table.ok());
  TablePtr t = MakeTable(std::move(*table));
  MiEngine engine{TableView(t)};
  CiTester tester(&engine, CiOptions{}, 77);
  DataCiOracle oracle(&tester, 0.01);
  auto r = DiscoverParents(oracle, kCarAccident, AllBut(kLucasNodeCount,
                                                        kCarAccident));
  ASSERT_TRUE(r.ok());
  // True parents: Attention_Disorder and Fatigue (non-adjacent pair).
  EXPECT_EQ(r->parents,
            (std::vector<int>{kAttentionDisorder, kFatigue}));
}

TEST(GsStructureTest, RecoversSkeletonOnFig2) {
  Dag dag = Fig2Dag();
  DSeparationOracle oracle(&dag);
  auto r = LearnStructureGs(oracle, AllBut(kFig2Count, -1));
  ASSERT_TRUE(r.ok());
  // Every true edge is adjacent in the learned pdag, and nothing else.
  for (int a = 0; a < kFig2Count; ++a) {
    for (int b = a + 1; b < kFig2Count; ++b) {
      EXPECT_EQ(r->pdag.Adjacent(a, b), dag.Adjacent(a, b))
          << a << "-" << b;
    }
  }
  // The collider at T (W -> T <- Z) must be oriented.
  EXPECT_TRUE(r->pdag.HasDirected(W, T));
  EXPECT_TRUE(r->pdag.HasDirected(Z, T));
  EXPECT_GT(r->tests_used, 0);
}

TEST(GsStructureTest, LucasSkeleton) {
  Dag dag = LucasDag();
  DSeparationOracle oracle(&dag);
  std::vector<int> vars;
  for (int v = 0; v < kLucasNodeCount; ++v) vars.push_back(v);
  auto r = LearnStructureGs(oracle, vars);
  ASSERT_TRUE(r.ok());
  for (int a = 0; a < kLucasNodeCount; ++a) {
    for (int b = a + 1; b < kLucasNodeCount; ++b) {
      EXPECT_EQ(r->pdag.Adjacent(a, b), dag.Adjacent(a, b))
          << a << "-" << b;
    }
  }
  // Smoking's collider (Anxiety -> Smoking <- Peer_Pressure) oriented.
  EXPECT_TRUE(r->pdag.HasDirected(kAnxiety, kSmoking));
  EXPECT_TRUE(r->pdag.HasDirected(kPeerPressure, kSmoking));
}

TEST(PdagTest, StateMachine) {
  Pdag g(3);
  g.SetUndirected(0, 1);
  EXPECT_TRUE(g.HasUndirected(0, 1));
  EXPECT_TRUE(g.Adjacent(1, 0));
  EXPECT_TRUE(g.Direct(0, 1));
  EXPECT_TRUE(g.HasDirected(0, 1));
  EXPECT_FALSE(g.HasUndirected(0, 1));
  EXPECT_FALSE(g.Direct(1, 0));  // refuses to flip
  EXPECT_EQ(g.DirectedParents(1), (std::vector<int>{0}));
  g.SetUndirected(1, 2);
  EXPECT_EQ(g.CountUndirected(), 1);
  Dag d = g.DirectedPart();
  EXPECT_TRUE(d.HasEdge(0, 1));
  EXPECT_EQ(d.NumEdges(), 1);
}

TEST(HillClimbingTest, RecoversStrongPairDependence) {
  // a -> b with a strong CPT; HC must link them (either direction is
  // score-equivalent).
  Rng rng(5);
  Dag dag(2);
  dag.AddEdge(0, 1);
  std::vector<Cpt> cpts(2);
  cpts[0].card = 2;
  cpts[0].rows = {{0.5, 0.5}};
  cpts[1].card = 2;
  cpts[1].parents = {0};
  cpts[1].parent_cards = {2};
  cpts[1].rows = {{0.95, 0.05}, {0.1, 0.9}};
  auto net = BayesNet::FromCpts(dag, cpts);
  ASSERT_TRUE(net.ok());
  auto table = net->Sample(4000, rng);
  ASSERT_TRUE(table.ok());
  TablePtr t = MakeTable(std::move(*table));

  for (ScoreType score :
       {ScoreType::kBic, ScoreType::kAic, ScoreType::kBdeu}) {
    HcOptions opt;
    opt.score = score;
    auto r = HillClimb(TableView(t), {0, 1}, opt);
    ASSERT_TRUE(r.ok()) << ScoreTypeName(score);
    EXPECT_EQ(r->dag.NumEdges(), 1) << ScoreTypeName(score);
    EXPECT_TRUE(r->dag.Adjacent(0, 1)) << ScoreTypeName(score);
  }
}

TEST(HillClimbingTest, RecoversColliderSkeleton) {
  // a -> c <- b with marginally visible single-parent effects (a pure
  // XOR would be invisible to greedy single-edge moves — a known
  // hill-climbing limitation, not a defect).
  Rng rng(7);
  Dag dag(3);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 2);
  std::vector<Cpt> cpts(3);
  cpts[0].card = 2;
  cpts[0].rows = {{0.5, 0.5}};
  cpts[1].card = 2;
  cpts[1].rows = {{0.5, 0.5}};
  cpts[2].card = 2;
  cpts[2].parents = {0, 1};
  cpts[2].parent_cards = {2, 2};
  cpts[2].rows = {{0.95, 0.05}, {0.55, 0.45}, {0.5, 0.5}, {0.05, 0.95}};
  auto net = BayesNet::FromCpts(dag, cpts);
  ASSERT_TRUE(net.ok());
  auto table = net->Sample(8000, rng);
  ASSERT_TRUE(table.ok());
  TablePtr t = MakeTable(std::move(*table));

  auto r = HillClimb(TableView(t), {0, 1, 2}, HcOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->dag.Adjacent(0, 2));
  EXPECT_TRUE(r->dag.Adjacent(1, 2));
  EXPECT_FALSE(r->dag.Adjacent(0, 1));
}

TEST(HillClimbingTest, ScoreImprovesMonotonically) {
  Rng rng(9);
  RandomDataOptions opt;
  opt.num_nodes = 5;
  opt.num_rows = 3000;
  auto ds = GenerateRandomDataset(opt, rng);
  ASSERT_TRUE(ds.ok());
  TablePtr t = MakeTable(std::move(ds->table));
  HcOptions hc;
  auto empty_score = [&]() {
    double total = 0;
    for (int v = 0; v < 5; ++v) {
      total += *FamilyScore(TableView(t), v, {}, hc);
    }
    return total;
  }();
  auto r = HillClimb(TableView(t), {0, 1, 2, 3, 4}, hc);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->score, empty_score);
}

TEST(FamilyScoreTest, TrueParentBeatsEmptyUnderBic) {
  Rng rng(11);
  Dag dag(2);
  dag.AddEdge(0, 1);
  std::vector<Cpt> cpts(2);
  cpts[0].card = 2;
  cpts[0].rows = {{0.5, 0.5}};
  cpts[1].card = 2;
  cpts[1].parents = {0};
  cpts[1].parent_cards = {2};
  cpts[1].rows = {{0.9, 0.1}, {0.2, 0.8}};
  auto net = BayesNet::FromCpts(dag, cpts);
  ASSERT_TRUE(net.ok());
  auto table = net->Sample(5000, rng);
  ASSERT_TRUE(table.ok());
  TablePtr t = MakeTable(std::move(*table));
  HcOptions opt;
  EXPECT_GT(*FamilyScore(TableView(t), 1, {0}, opt),
            *FamilyScore(TableView(t), 1, {}, opt));
  // And an unrelated "parent" does not pay for its parameters.
  ColumnBuilder noise("noise");
  Rng nrng(1);
  for (int64_t i = 0; i < t->NumRows(); ++i) {
    noise.Append(std::to_string(nrng.NextBounded(3)));
  }
  Table with_noise;
  ASSERT_TRUE(with_noise.AddColumn(t->column(0)).ok());
  ASSERT_TRUE(with_noise.AddColumn(t->column(1)).ok());
  ASSERT_TRUE(with_noise.AddColumn(noise.Finish()).ok());
  TablePtr t2 = MakeTable(std::move(with_noise));
  EXPECT_GT(*FamilyScore(TableView(t2), 1, {0}, opt),
            *FamilyScore(TableView(t2), 1, {0, 2}, opt));
}

TEST(FdFilterTest, DropsBijectionsAndKeys) {
  Rng gen(3);
  ColumnBuilder a("a"), a_copy("a_wac"), b("b"), key("key");
  for (int i = 0; i < 3000; ++i) {
    int av = static_cast<int>(gen.NextBounded(5));
    a.Append("v" + std::to_string(av));
    a_copy.Append("w" + std::to_string(av));  // bijection of a
    b.Append(std::to_string(gen.NextBounded(3)));
    key.Append(std::to_string(i));  // key
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(a.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(a_copy.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(b.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(key.Finish()).ok());
  TablePtr t = MakeTable(std::move(table));

  Rng rng(17);
  ViewCountProvider scanner{TableView(t)};
  auto report = FilterLogicalDependencies(TableView(t), scanner,
                                          {0, 1, 2, 3}, {}, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kept, (std::vector<int>{0, 2}));
  ASSERT_EQ(report->dropped_fd.size(), 1u);
  EXPECT_EQ(report->dropped_fd[0].first, 1);
  EXPECT_EQ(report->dropped_fd[0].second, 0);
  EXPECT_EQ(report->dropped_keys, (std::vector<int>{3}));
}

// The FD test's marginal and pairwise entropies count through the engine
// the filter is handed, so an analysis's population cache holds them; a
// caching stack and a bare scanner give the same report.
TEST(FdFilterTest, CountsThroughTheEngineItIsHanded) {
  Rng gen(3);
  ColumnBuilder a("a"), a_copy("a_wac"), b("b"), key("key");
  for (int i = 0; i < 3000; ++i) {
    int av = static_cast<int>(gen.NextBounded(5));
    a.Append("v" + std::to_string(av));
    a_copy.Append("w" + std::to_string(av));
    b.Append(std::to_string(gen.NextBounded(3)));
    key.Append(std::to_string(i));
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(a.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(a_copy.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(b.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(key.Finish()).ok());
  TablePtr t = MakeTable(std::move(table));
  const TableView view(t);

  RecordingEngine caching(MakeViewEngine(view, MiEngineOptions{}));
  Rng rng(17);
  auto cached =
      FilterLogicalDependencies(view, caching, {0, 1, 2, 3}, {}, rng);
  ASSERT_TRUE(cached.ok());
  // Each survivor's marginal, and the joint of the one plausible pair;
  // the key-like column is dropped before any count.
  EXPECT_EQ(caching.seen(), (std::set<std::vector<int>>{
                                {0}, {1}, {2}, {0, 1}}));
  EXPECT_GT(caching.stats().queries, 0);

  RecordingEngine bare(std::make_shared<ViewCountProvider>(view));
  Rng same_rng(17);
  auto scanned =
      FilterLogicalDependencies(view, bare, {0, 1, 2, 3}, {}, same_rng);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(bare.seen(), caching.seen());
  EXPECT_EQ(scanned->kept, cached->kept);
  EXPECT_EQ(scanned->dropped_fd, cached->dropped_fd);
  EXPECT_EQ(scanned->dropped_keys, cached->dropped_keys);
  EXPECT_EQ(cached->kept, (std::vector<int>{0, 2}));
}

TEST(FdFilterTest, KeepsOrdinaryAttributes) {
  Rng gen(5);
  Table table;
  for (int c = 0; c < 4; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
    for (int i = 0; i < 2000; ++i) {
      b.Append(std::to_string(gen.NextBounded(4 + c)));
    }
    ASSERT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  TablePtr t = MakeTable(std::move(table));
  Rng rng(19);
  ViewCountProvider scanner{TableView(t)};
  auto report = FilterLogicalDependencies(TableView(t), scanner,
                                          {0, 1, 2, 3}, {}, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kept, (std::vector<int>{0, 1, 2, 3}));
}

TEST(F1Test, PerfectAndPartialRecovery) {
  Dag truth(4);
  truth.AddEdge(0, 2);
  truth.AddEdge(1, 2);
  truth.AddEdge(2, 3);
  std::map<int, std::vector<int>> perfect = {
      {0, {}}, {1, {}}, {2, {0, 1}}, {3, {2}}};
  F1Stats s = ParentRecoveryF1(truth, perfect, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(s.F1(), 1.0);

  std::map<int, std::vector<int>> partial = {{2, {0}}, {3, {0}}};
  s = ParentRecoveryF1(truth, partial, {0, 1, 2, 3});
  EXPECT_EQ(s.true_positives, 1);
  EXPECT_EQ(s.false_positives, 1);
  EXPECT_EQ(s.false_negatives, 2);
  EXPECT_NEAR(s.F1(), 2.0 * 0.5 * (1.0 / 3) / (0.5 + 1.0 / 3), 1e-12);

  // Restricted to nodes with >= 2 parents: only node 2 counts.
  s = ParentRecoveryF1(truth, partial, {0, 1, 2, 3}, 2);
  EXPECT_EQ(s.true_positives, 1);
  EXPECT_EQ(s.false_negatives, 1);
  EXPECT_EQ(s.false_positives, 0);
}

TEST(F1Test, EmptyEverything) {
  Dag truth(2);
  F1Stats s = ParentRecoveryF1(truth, {}, {0, 1});
  EXPECT_DOUBLE_EQ(s.F1(), 0.0);
  EXPECT_DOUBLE_EQ(s.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(s.Recall(), 0.0);
}

}  // namespace
}  // namespace hypdb
