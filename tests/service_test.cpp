// Service-layer tests: registry/epoch lifecycle, discovery cache hits,
// coalescing and invalidation, and the core concurrency invariant —
// N threads issuing mixed queries against shared datasets produce
// reports bit-identical to cold serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hypdb.h"
#include "core/sql_parser.h"
#include "dataframe/group_by.h"
#include "dataframe/predicate.h"
#include "datagen/adult_data.h"
#include "datagen/berkeley_data.h"
#include "datagen/cancer_data.h"
#include "datagen/staples_data.h"
#include "service/dataset_registry.h"
#include "service/discovery_cache.h"
#include "service/hypdb_service.h"
#include "service/query_scheduler.h"
#include "service/report_digest.h"
#include "service/request.h"
#include "stats/entropy.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr Berkeley() {
  auto table = GenerateBerkeleyData();
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

TablePtr Cancer(int64_t rows = 4000) {
  auto table = GenerateCancerData({.num_rows = rows});
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

TablePtr Staples(int64_t rows) {
  auto table = GenerateStaplesData({.num_rows = rows});
  EXPECT_TRUE(table.ok());
  return MakeTable(std::move(*table));
}

void ExpectSameCounts(const StatusOr<GroupCounts>& got,
                      const StatusOr<GroupCounts>& want) {
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(got->keys, want->keys);
  EXPECT_EQ(got->counts, want->counts);
  EXPECT_EQ(got->total, want->total);
}

// Runs `sql` twice through a fresh service and checks both reports
// against cold serial HypDb::Analyze. The warm repeat must read no rows:
// its discovery comes from the cache and every count of answers,
// detection, explanation and rewrite from the shard caches the first
// run filled — so it queries the population shard, no shard of the
// pool scans, and the report's own count work holds no scan. Returns
// the repeat for further checks.
ServiceReport ExpectWarmRepeatReadsNoRows(const TablePtr& table,
                                          const std::string& sql) {
  SCOPED_TRACE(sql);
  HypDb direct(table, HypDbOptions{});
  auto expected = direct.AnalyzeSql(sql);
  EXPECT_TRUE(expected.ok()) << expected.status();
  if (!expected.ok()) return {};
  const std::string digest = CanonicalReportDigest(*expected);

  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("d", table);
  auto first = service.AnalyzeSql("d", sql);
  EXPECT_TRUE(first.ok()) << first.status();
  if (!first.ok()) return {};
  EXPECT_EQ(CanonicalReportDigest(first->report), digest);
  EXPECT_FALSE(first->stats.discovery_reused);
  // The cold run computed discovery itself, so its work is counted.
  EXPECT_GT(first->report.count_stats.queries,
            first->report.discovery.count_stats.queries);

  auto pool_before = service.engine_stats("d");
  auto repeat = service.AnalyzeSql("d", sql);
  EXPECT_TRUE(repeat.ok()) << repeat.status();
  if (!repeat.ok()) return {};
  EXPECT_TRUE(repeat->stats.discovery_reused);
  EXPECT_EQ(CanonicalReportDigest(repeat->report), digest);
  EXPECT_GT(repeat->stats.engine_delta.queries, 0);
  EXPECT_EQ(repeat->stats.engine_delta.scans, 0);
  EXPECT_EQ(repeat->report.count_stats.scans, 0);
  // A reused discovery adds nothing to the report's own count work (the
  // repeat issues the first run's queries minus discovery's); its
  // original computation stays described in discovery.count_stats.
  EXPECT_EQ(repeat->report.discovery.count_stats.queries,
            first->report.discovery.count_stats.queries);
  EXPECT_EQ(repeat->report.count_stats.queries +
                first->report.discovery.count_stats.queries,
            first->report.count_stats.queries);
  auto pool_after = service.engine_stats("d");
  EXPECT_TRUE(pool_before.ok() && pool_after.ok());
  if (pool_before.ok() && pool_after.ok()) {
    EXPECT_EQ(pool_after->scans, pool_before->scans);
  }
  return *repeat;
}

TEST(SubpopulationSignatureTest, CanonicalizesTermAndValueOrder) {
  AggQuery a;
  a.where = {{"Airport", {"ROC", "COS", "ROC"}}, {"Carrier", {"UA", "AA"}}};
  AggQuery b;
  b.where = {{"Carrier", {"AA", "UA"}}, {"Airport", {"COS", "ROC"}}};
  EXPECT_EQ(SubpopulationSignature(a), SubpopulationSignature(b));

  AggQuery c = b;
  c.where[0].second.push_back("DL");
  EXPECT_NE(SubpopulationSignature(b), SubpopulationSignature(c));
  EXPECT_EQ(SubpopulationSignature(AggQuery{}), "");
}

TEST(SubpopulationSignatureTest, StructuralCharactersInValuesNeverCollide) {
  // One value containing the rendering's own delimiters...
  AggQuery tricky;
  tricky.where = {{"A", {"1&B=2"}}};
  // ...must not print the same signature as the two-term clause it mimics.
  AggQuery two_terms;
  two_terms.where = {{"A", {"1"}}, {"B", {"2"}}};
  EXPECT_NE(SubpopulationSignature(tricky),
            SubpopulationSignature(two_terms));
  AggQuery comma_value;
  comma_value.where = {{"A", {"1,2"}}};
  AggQuery two_values;
  two_values.where = {{"A", {"1", "2"}}};
  EXPECT_NE(SubpopulationSignature(comma_value),
            SubpopulationSignature(two_values));
}

TEST(SubpopulationSignatureTest, RepeatedTermsAndValuesCollapse) {
  // t AND t selects the same rows as t — one shard, not two.
  AggQuery once;
  once.where = {{"Department", {"A"}}};
  AggQuery twice;
  twice.where = {{"Department", {"A"}}, {"Department", {"A"}}};
  EXPECT_EQ(SubpopulationSignature(once), SubpopulationSignature(twice));
  AggQuery value_dup;
  value_dup.where = {{"Department", {"A", "A"}}};
  EXPECT_EQ(SubpopulationSignature(once),
            SubpopulationSignature(value_dup));

  // Distinct terms on one attribute intersect — NOT collapsible.
  AggQuery intersect;
  intersect.where = {{"Department", {"A"}}, {"Department", {"B"}}};
  EXPECT_NE(SubpopulationSignature(once),
            SubpopulationSignature(intersect));
}

TEST(SubpopulationSignatureTest, ParseInvertsTheRendering) {
  AggQuery q;
  q.where = {{"Carrier", {"UA", "AA", "UA"}},
             {"A&B", {"x=y", "w,z", "\\esc"}},
             {"Airport", {"ROC"}}};
  auto terms = ParseSubpopulationSignature(SubpopulationSignature(q));
  ASSERT_TRUE(terms.ok());
  ASSERT_EQ(terms->size(), 3u);
  // Signature order: terms sorted, values sorted and deduped, structure
  // characters unescaped back to the original strings.
  EXPECT_EQ((*terms)[0].attribute, "A&B");
  EXPECT_EQ((*terms)[0].values,
            (std::vector<std::string>{"\\esc", "w,z", "x=y"}));
  EXPECT_EQ((*terms)[1].attribute, "Airport");
  EXPECT_EQ((*terms)[1].values, (std::vector<std::string>{"ROC"}));
  EXPECT_EQ((*terms)[2].attribute, "Carrier");
  EXPECT_EQ((*terms)[2].values, (std::vector<std::string>{"AA", "UA"}));

  EXPECT_TRUE(ParseSubpopulationSignature("")->empty());
  EXPECT_FALSE(ParseSubpopulationSignature("no-equals").ok());
  EXPECT_FALSE(ParseSubpopulationSignature("a=1&bad").ok());
  EXPECT_FALSE(ParseSubpopulationSignature("a=1\\").ok());
}

TEST(DiscoveryKeyTest, SeparatesOptionsDatasetsAndEpochs) {
  AggQuery q;
  q.treatment = "Gender";
  q.outcomes = {"Accepted"};
  HypDbOptions o;
  const std::string base = DiscoveryKey("berkeley", 1, q, o);
  EXPECT_EQ(base, DiscoveryKey("berkeley", 1, q, o));
  EXPECT_NE(base, DiscoveryKey("berkeley", 2, q, o));
  EXPECT_NE(base, DiscoveryKey("adult", 1, q, o));

  using Edit = std::pair<const char*, void (*)(HypDbOptions&)>;
  // Every value discovery depends on splits the key. A sub-6-significant-
  // digit difference counts: a different test threshold is a different
  // configuration.
  const std::vector<Edit> statistical = {
      {"ci.method", [](HypDbOptions& x) { x.ci.method = CiMethod::kMit; }},
      {"ci.permutations", [](HypDbOptions& x) { x.ci.permutations = 999; }},
      {"ci.hybrid_beta",
       [](HypDbOptions& x) { x.ci.hybrid_beta += 1e-7; }},
      {"ci.mit_estimator",
       [](HypDbOptions& x) {
         x.ci.mit_estimator = EntropyEstimator::kPlugin;
       }},
      {"alpha", [](HypDbOptions& x) { x.alpha = 0.05; }},
      {"apply_fd_filter",
       [](HypDbOptions& x) { x.apply_fd_filter = false; }},
      {"discover_mediators",
       [](HypDbOptions& x) { x.discover_mediators = false; }},
      {"engine.estimator",
       [](HypDbOptions& x) { x.engine.estimator = EntropyEstimator::kPlugin; }},
      {"seed", [](HypDbOptions& x) { x.seed = 123; }},
  };
  for (const auto& [name, edit] : statistical) {
    HypDbOptions changed = o;
    edit(changed);
    EXPECT_NE(base, DiscoveryKey("berkeley", 1, q, changed)) << name;
  }
  // Execution strategy and the stages after discovery must NOT split it:
  // they change how counts are produced or what is done with the
  // covariates, never what discovery concludes.
  const std::vector<Edit> neutral = {
      {"engine.scan_threads",
       [](HypDbOptions& x) { x.engine.scan_threads = 7; }},
      {"engine.scan_morsel_rows",
       [](HypDbOptions& x) { x.engine.scan_morsel_rows = 1000; }},
      {"engine.scan_simd", [](HypDbOptions& x) { x.engine.scan_simd = false; }},
      {"engine.max_cached_cells",
       [](HypDbOptions& x) { x.engine.max_cached_cells = 1000; }},
      {"compute_significance",
       [](HypDbOptions& x) { x.compute_significance = false; }},
      {"direct_reference",
       [](HypDbOptions& x) { x.direct_reference = "Male"; }},
  };
  for (const auto& [name, edit] : neutral) {
    HypDbOptions changed = o;
    edit(changed);
    EXPECT_EQ(base, DiscoveryKey("berkeley", 1, q, changed)) << name;
  }

  // Outcome ORDER splits the key: mediators are discovered for
  // outcomes[0], so {y1,y2} and {y2,y1} are different discoveries.
  AggQuery multi = q;
  multi.outcomes = {"y1", "y2"};
  AggQuery swapped = q;
  swapped.outcomes = {"y2", "y1"};
  EXPECT_NE(DiscoveryKey("berkeley", 1, multi, o),
            DiscoveryKey("berkeley", 1, swapped, o));
}

TEST(DatasetRegistryTest, RegisterGetEpochAndReplacement) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Get("nope").ok());
  EXPECT_FALSE(registry.Epoch("nope").ok());

  EXPECT_EQ(registry.Register("b", Berkeley()), 1);
  auto table = registry.Get("b");
  ASSERT_TRUE(table.ok());
  EXPECT_GT((*table)->NumRows(), 0);
  EXPECT_EQ(*registry.Epoch("b"), 1);

  // Shards are created on demand and dropped on re-registration.
  auto engine = registry.ShardEngine("b", 1, "", *table);
  ASSERT_TRUE(engine.ok());
  auto again = registry.ShardEngine("b", 1, "", *table);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine->get(), again->get());
  EXPECT_EQ(registry.List()[0].shards, 1);

  EXPECT_EQ(registry.Register("b", Berkeley()), 2);
  EXPECT_EQ(registry.List()[0].shards, 0);

  // A caller bound before the re-registration gets no shard of the new
  // epoch: its population aggregates the replaced table.
  auto stale = registry.ShardEngine("b", 1, "", *table);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.List()[0].shards, 0);

  auto snapshot = registry.GetSnapshot("b");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 2);
  EXPECT_TRUE(
      registry.ShardEngine("b", snapshot->epoch, "", snapshot->table)
          .ok());
}

TEST(DatasetRegistryTest, ShardEnginesShareCountsPerSignature) {
  DatasetRegistry registry;
  registry.Register("b", Berkeley());
  const TablePtr table = *registry.Get("b");
  auto engine = *registry.ShardEngine("b", 1, "", table);
  ASSERT_TRUE((*engine).Counts({0, 1}).ok());
  // The same shard answers the repeat from cache; a different signature
  // gets an independent engine.
  ASSERT_TRUE((*engine).Counts({0, 1}).ok());
  EXPECT_EQ(engine->stats().cache_hits, 1);
  auto other = *registry.ShardEngine("b", 1, "Department=A", table);
  EXPECT_NE(engine.get(), other.get());
  EXPECT_EQ(other->stats().queries, 0);
}

// Every shard counts its own rows, and the full-table shard lives under
// the same first-in-first-out bound as the others: with room for two, it
// is the first to go, and the next full-table request builds a new
// engine that counts the whole table.
TEST(DatasetRegistryTest, FullTableShardIsBoundedLikeAnyOther) {
  DatasetRegistryOptions options;
  options.max_shards_per_dataset = 2;
  DatasetRegistry registry(options);
  const int64_t epoch = registry.Register("b", Berkeley());
  TablePtr table = *registry.Get("b");
  const std::vector<int> cols = {*table->ColumnIndex("Gender"),
                                 *table->ColumnIndex("Accepted")};
  auto full = registry.ShardEngine("b", epoch, "", table);
  ASSERT_TRUE(full.ok());
  ExpectSameCounts((*full)->Counts(cols), CountBy(TableView(table), cols));
  for (const std::string department : {"A", "B"}) {
    AggQuery q;
    q.where = {{"Department", {department}}};
    auto pred = Predicate::FromInLists(*table, q.where);
    ASSERT_TRUE(pred.ok());
    auto shard =
        registry.ShardEngine("b", epoch, SubpopulationSignature(q), table);
    ASSERT_TRUE(shard.ok());
    ExpectSameCounts((*shard)->Counts(cols),
                     CountBy(TableView(table).Filter(*pred), cols));
  }
  EXPECT_EQ(registry.List()[0].shards, 2);

  auto rebuilt = registry.ShardEngine("b", epoch, "", table);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt->get(), full->get());
  EXPECT_EQ((*rebuilt)->stats().queries, 0);
  ExpectSameCounts((*rebuilt)->Counts(cols),
                   CountBy(TableView(table), cols));
  EXPECT_EQ(registry.List()[0].shards, 2);
}

// The pool's counters cover the dataset since it was registered, evicted
// shards and dropped generations included, so the /metrics counters
// summed from them never go backwards when a shard is evicted or drops
// its oldest generation after appends.
TEST(DatasetRegistryTest, PoolCountersNeverGoBackwards) {
  auto generated = GenerateAdultData({.num_rows = 6000});
  ASSERT_TRUE(generated.ok());
  DatasetRegistryOptions options;
  options.max_shards_per_dataset = 2;
  DatasetRegistry registry(options);
  const int64_t epoch =
      registry.Register("a", MakeTable(std::move(*generated)));
  TablePtr table = *registry.Get("a");
  const int gender = *table->ColumnIndex("Gender");
  const int income = *table->ColumnIndex("Income");
  const std::vector<std::vector<int>> queries = {
      {gender}, {gender, income}, {gender}};
  // (signature, count queries asked of its shard)
  const std::vector<std::pair<std::string, size_t>> steps = {
      {"", 1},
      {"Workclass=Private", 3},
      {"CapitalLoss=none", 1},
      {"NativeCountry=US", 1}};
  CountEngineStats last;
  int64_t asked = 0;
  auto step = [&](const std::string& signature, size_t n,
                  const TablePtr& snapshot) {
    SCOPED_TRACE(signature);
    auto shard = registry.ShardEngine("a", epoch, signature, snapshot);
    ASSERT_TRUE(shard.ok()) << shard.status();
    for (size_t q = 0; q < n; ++q) {
      ASSERT_TRUE((*shard)->Counts(queries[q]).ok());
    }
    asked += static_cast<int64_t>(n);
    auto stats = registry.EngineStats("a");
    ASSERT_TRUE(stats.ok());
    const CountEngineStats delta = *stats - last;
    for (int64_t field :
         {delta.queries, delta.scans, delta.cache_hits,
          delta.marginalizations, delta.cube_hits, delta.fallback_calls,
          delta.evictions, delta.delta_patches, delta.rows_scanned}) {
      EXPECT_GE(field, 0);
    }
    EXPECT_EQ(stats->queries, asked);
    last = *stats;
  };
  for (const auto& [signature, n] : steps) {
    step(signature, n, table);
  }
  EXPECT_EQ(registry.List()[0].shards, 2);

  // Two append rounds: each live shard gains a successor per round, and
  // the second drops its oldest kept generation.
  std::vector<std::string> row(table->NumColumns());
  for (int c = 0; c < table->NumColumns(); ++c) {
    row[c] = table->column(c).dict().Label(0);
  }
  for (int round = 1; round <= 2; ++round) {
    ASSERT_TRUE(registry.AppendRows("a", {row, row}).ok());
    const TablePtr grown = *registry.Get("a");
    ASSERT_EQ(grown->NumRows(), table->NumRows() + 2 * round);
    for (const auto& [signature, n] : {steps[2], steps[3], steps[2]}) {
      step(signature, n, grown);
    }
  }
  EXPECT_GT(last.delta_patches, 0);
  EXPECT_EQ(registry.List()[0].shards, 2);
}

// A shard counts one watermark. Callers at the same watermark share its
// generation; a caller at a later one gets a successor seeded from it,
// whose first count of a set the older generation cached is one delta
// patch over the appended rows. The shard keeps its two newest
// generations: the replaced one still serves its watermark, a caller
// between two kept ones gets a successor of the older, and a caller
// older than both gets none.
TEST(DatasetRegistryTest, ShardGenerationsCountOneWatermark) {
  DatasetRegistry registry;
  const int64_t epoch = registry.Register("b", Berkeley());
  TablePtr table = *registry.Get("b");
  const int64_t w = table->NumRows();
  const std::vector<int> cols = {*table->ColumnIndex("Gender"),
                                 *table->ColumnIndex("Accepted")};
  AggQuery department_a;
  department_a.where = {{"Department", {"A"}}};
  // The population a signature names in `t`.
  auto population = [&](const TablePtr& t, const std::string& signature) {
    if (signature.empty()) return TableView(t);
    auto pred = Predicate::FromInLists(*t, department_a.where);
    EXPECT_TRUE(pred.ok());
    return TableView(t).Filter(*pred);
  };
  // (signature, appended rows in its population)
  const std::vector<std::pair<std::string, int64_t>> shards = {
      {"", 3}, {SubpopulationSignature(department_a), 2}};
  std::vector<std::shared_ptr<CountEngine>> at_w;
  for (const auto& [signature, appended] : shards) {
    SCOPED_TRACE(signature);
    auto first = registry.ShardEngine("b", epoch, signature, table);
    auto again = registry.ShardEngine("b", epoch, signature, table);
    ASSERT_TRUE(first.ok() && again.ok());
    EXPECT_EQ(first->get(), again->get());
    ASSERT_TRUE((*first)->Counts(cols).ok());
    at_w.push_back(*first);
  }

  ASSERT_TRUE(registry
                  .AppendRows("b", {{"Male", "A", "1"},
                                    {"Female", "A", "0"},
                                    {"Female", "B", "1"}})
                  .ok());
  TablePtr grown = *registry.Get("b");
  for (size_t i = 0; i < shards.size(); ++i) {
    const auto& [signature, appended] = shards[i];
    SCOPED_TRACE(signature);
    auto next = registry.ShardEngine("b", epoch, signature, grown);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_NE(next->get(), at_w[i].get());
    ExpectSameCounts((*next)->Counts(cols),
                     CountBy(population(grown, signature), cols));
    const CountEngineStats stats = (*next)->stats();
    EXPECT_EQ(stats.queries, 1);
    EXPECT_EQ(stats.delta_patches, 1);
    EXPECT_EQ(stats.scans, 1);
    // The patch reads the appended rows of its population alone.
    EXPECT_EQ(stats.rows_scanned, appended);
    auto replaced = registry.ShardEngine("b", epoch, signature, table);
    ASSERT_TRUE(replaced.ok()) << replaced.status();
    EXPECT_EQ(replaced->get(), at_w[i].get());
    // The generation at w still counts the rows below w.
    ExpectSameCounts(at_w[i]->Counts(cols),
                     CountBy(population(table, signature), cols));
  }

  // Two more appends; a caller at the last watermark keeps the shard's
  // generations at w + 3 and w + 5, then a caller at w + 4 replaces the
  // older with its successor.
  ASSERT_TRUE(registry.AppendRows("b", {{"Male", "A", "0"}}).ok());
  TablePtr middle = *registry.Get("b");
  ASSERT_TRUE(registry.AppendRows("b", {{"Female", "A", "1"}}).ok());
  TablePtr last = *registry.Get("b");
  ASSERT_EQ(last->NumRows(), w + 5);
  for (const auto& [signature, appended] : shards) {
    SCOPED_TRACE(signature);
    auto newest = registry.ShardEngine("b", epoch, signature, last);
    ASSERT_TRUE(newest.ok()) << newest.status();
    auto between = registry.ShardEngine("b", epoch, signature, middle);
    ASSERT_TRUE(between.ok()) << between.status();
    EXPECT_NE(between->get(), newest->get());
    ExpectSameCounts((*between)->Counts(cols),
                     CountBy(population(middle, signature), cols));
    EXPECT_EQ((*between)->stats().delta_patches, 1);
    for (const TablePtr& older : {table, grown}) {
      EXPECT_EQ(
          registry.ShardEngine("b", epoch, signature, older).status().code(),
          StatusCode::kFailedPrecondition);
    }
  }
}

// A shard is built from the store alone, so the shard a request's
// signature names must aggregate exactly the rows of its bound WHERE
// view. Seeded property over random tables whose labels (and column
// names) carry the signature grammar's structure characters and the
// empty string, random Listing-1 WHERE clauses with repeated terms and
// values, and each query's context WHEREs C ∧ X = x_i: every signature
// parses back to its canonical terms, and its shard counts what CountBy
// counts over the bound view — before and after an append that brings
// rows with a label some WHERE term names but no dictionary held yet.
TEST(DatasetRegistryTest, ShardsOfRandomWhereClausesMatchTheBoundView) {
  const std::vector<std::string> labels = {
      "", "\\", "=", ",", "&", "\x1f", "a=b", "c,d&", "\\=", "x"};
  const std::vector<std::string> names = {"A", "B=", "C,&", "D\\\x1f"};
  // The first round asks the first three sets; the second asks all four,
  // so each shard answers the last as a cache miss over its grown rows.
  const std::vector<std::vector<int>> col_sets = {
      {0}, {1, 2}, {3, 0}, {0, 1, 2, 3}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919);
    Table data;
    for (const std::string& name : names) {
      // Each column draws from its own 2-5 label subset.
      std::vector<std::string> domain = labels;
      rng.Shuffle(&domain);
      domain.resize(2 + rng.NextBounded(4));
      ColumnBuilder column(name);
      for (int64_t r = 0; r < 120 + static_cast<int64_t>(seed) * 17; ++r) {
        column.Append(domain[rng.NextBounded(domain.size())]);
      }
      ASSERT_TRUE(data.AddColumn(column.Finish()).ok());
    }
    DatasetRegistry registry;
    const int64_t epoch = registry.Register("d", MakeTable(std::move(data)));
    // The bound table; bound afresh after the append.
    TablePtr table = *registry.Get("d");

    // A random value of column `c`, now and then one absent from its
    // dictionary (it matches no row, and the shard must agree).
    auto value_of = [&](int c) -> std::string {
      if (rng.NextBounded(8) == 0) return "absent";
      const Dictionary& dict = table->column(c).dict();
      return dict.Label(static_cast<int32_t>(rng.NextBounded(dict.size())));
    };
    using Where =
        std::vector<std::pair<std::string, std::vector<std::string>>>;
    auto check = [&](const Where& where, size_t num_col_sets) {
      AggQuery q;
      q.where = where;
      const std::string signature = SubpopulationSignature(q);
      SCOPED_TRACE(signature);
      // Canonical terms: values sorted and deduped, identical terms once.
      std::vector<std::pair<std::string, std::vector<std::string>>> want;
      for (auto [attr, values] : where) {
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        want.emplace_back(attr, values);
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      auto parsed = ParseSubpopulationSignature(signature);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      std::vector<std::pair<std::string, std::vector<std::string>>> got;
      for (const SubpopulationTerm& term : *parsed) {
        got.emplace_back(term.attribute, term.values);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want);

      auto pred = Predicate::FromInLists(*table, where);
      ASSERT_TRUE(pred.ok());
      TableView view = TableView(table).Filter(*pred);
      auto shard = registry.ShardEngine("d", epoch, signature, table);
      ASSERT_TRUE(shard.ok()) << shard.status();
      EXPECT_EQ((*shard)->NumRows(), view.NumRows());
      for (size_t i = 0; i < num_col_sets; ++i) {
        ExpectSameCounts((*shard)->Counts(col_sets[i]),
                         CountBy(view, col_sets[i]));
      }
    };

    std::vector<Where> wheres;
    for (int query = 0; query < 6; ++query) {
      Where where;
      const int terms = 1 + static_cast<int>(rng.NextBounded(3));
      for (int t = 0; t < terms; ++t) {
        // Repeated terms: sometimes a copy of an earlier one.
        if (!where.empty() && rng.NextBounded(4) == 0) {
          where.push_back(where[rng.NextBounded(where.size())]);
          continue;
        }
        const int c = static_cast<int>(rng.NextBounded(names.size()));
        std::vector<std::string> values;
        const int n = 1 + static_cast<int>(rng.NextBounded(3));
        for (int v = 0; v < n; ++v) values.push_back(value_of(c));
        where.emplace_back(names[c], std::move(values));
      }
      wheres.push_back(where);
      // The query's contexts: C ∧ X = x_i for each label x_i of the
      // grouping attribute X.
      const int x = static_cast<int>(rng.NextBounded(names.size()));
      const Dictionary& dict = table->column(x).dict();
      for (int32_t code = 0; code < dict.size(); ++code) {
        Where context = where;
        context.push_back({names[x], {dict.Label(code)}});
        wheres.push_back(std::move(context));
      }
    }
    // A shard that matches no row yet, until the append below.
    const int grown = static_cast<int>(seed % names.size());
    wheres.push_back({{names[grown], {"absent"}}});
    for (const Where& where : wheres) check(where, col_sets.size() - 1);

    // About a third of the appended labels are "absent", which the
    // dictionaries lack and some WHERE terms name.
    std::vector<std::vector<std::string>> rows(100);
    for (std::vector<std::string>& row : rows) {
      for (size_t c = 0; c < names.size(); ++c) {
        const Dictionary& dict = table->column(static_cast<int>(c)).dict();
        row.push_back(rng.NextBounded(3) == 0
                          ? "absent"
                          : dict.Label(static_cast<int32_t>(
                                rng.NextBounded(dict.size()))));
      }
    }
    ASSERT_TRUE(registry.AppendRows("d", rows).ok());
    table = *registry.Get("d");
    ASSERT_GE(table->column(grown).dict().Find("absent"), 0);
    for (const Where& where : wheres) check(where, col_sets.size());
    EXPECT_EQ(
        registry.ShardEngine("d", epoch, "x", table).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(registry.ShardEngine("d", epoch, "nope=1", table)
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
}

TEST(DiscoveryCacheTest, HitsMissesAndEviction) {
  DiscoveryCache cache(DiscoveryCacheOptions{.max_entries = 2});
  std::atomic<int> computes{0};
  auto compute = [&]() -> StatusOr<DiscoveryReport> {
    ++computes;
    DiscoveryReport r;
    r.tests_used = computes.load();
    return r;
  };

  bool reused = true;
  auto first = cache.LookupOrCompute("k1", compute, &reused);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(first->tests_used, 1);

  auto second = cache.LookupOrCompute("k1", compute, &reused);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(reused);
  EXPECT_EQ(second->tests_used, 1);  // served, not recomputed
  EXPECT_EQ(computes.load(), 1);

  (void)cache.LookupOrCompute("k2", compute);
  (void)cache.LookupOrCompute("k3", compute);  // evicts k1 (oldest)
  EXPECT_EQ(cache.size(), 2);
  (void)cache.LookupOrCompute("k1", compute, &reused);
  EXPECT_FALSE(reused);
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_EQ(cache.stats().hits, 1);
}

// An entry serves only lookups at or after the watermark it was
// computed at: a lookup bound before it (a session that outlived an
// append) computes over its own rows, and its result does not displace
// the newer entry.
TEST(DiscoveryCacheTest, NewerEntryDoesNotServeAnOlderLookup) {
  DiscoveryCache cache;
  int computes = 0;
  auto compute = [&]() -> StatusOr<DiscoveryReport> {
    DiscoveryReport r;
    r.tests_used = ++computes;
    return r;
  };
  bool reused = true;
  auto at_200 = cache.LookupOrCompute("k", compute, &reused, nullptr, 200);
  ASSERT_TRUE(at_200.ok());
  EXPECT_FALSE(reused);

  auto at_100 = cache.LookupOrCompute("k", compute, &reused, nullptr, 100);
  ASSERT_TRUE(at_100.ok());
  EXPECT_FALSE(reused);
  EXPECT_EQ(at_100->tests_used, 2);
  EXPECT_EQ(cache.stats().stale_refreshes, 0);

  // The entry at 200 is still the one a lookup at 200 gets.
  auto again = cache.LookupOrCompute("k", compute, &reused, nullptr, 200);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(reused);
  EXPECT_EQ(again->tests_used, 1);
  EXPECT_EQ(computes, 2);
}

TEST(DiscoveryCacheTest, ErrorsPropagateButAreNotCached) {
  DiscoveryCache cache;
  int calls = 0;
  auto failing = [&]() -> StatusOr<DiscoveryReport> {
    ++calls;
    if (calls == 1) return Status::Internal("transient");
    return DiscoveryReport{};
  };
  EXPECT_FALSE(cache.LookupOrCompute("k", failing).ok());
  EXPECT_TRUE(cache.LookupOrCompute("k", failing).ok());
  EXPECT_EQ(calls, 2);
}

TEST(DiscoveryCacheTest, ConcurrentSameKeyCoalescesToOneComputation) {
  DiscoveryCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> reused_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      bool reused = false;
      auto r = cache.LookupOrCompute(
          "shared",
          [&]() -> StatusOr<DiscoveryReport> {
            ++computes;
            // Give the other threads time to pile onto the in-flight
            // entry so coalescing actually exercises the wait path.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return DiscoveryReport{};
          },
          &reused);
      EXPECT_TRUE(r.ok());
      if (reused) ++reused_count;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(reused_count.load(), kThreads - 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

TEST(DiscoveryCacheTest, InvalidatePrefixDropsOnlyThatDataset) {
  DiscoveryCache cache;
  auto ok = []() -> StatusOr<DiscoveryReport> { return DiscoveryReport{}; };
  (void)cache.LookupOrCompute(DatasetKeyPrefix("a") + "x", ok);
  (void)cache.LookupOrCompute(DatasetKeyPrefix("a") + "y", ok);
  (void)cache.LookupOrCompute(DatasetKeyPrefix("ab") + "z", ok);
  EXPECT_EQ(cache.InvalidatePrefix(DatasetKeyPrefix("a")), 2);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.stats().invalidations, 2);
  bool reused = true;
  (void)cache.LookupOrCompute(DatasetKeyPrefix("ab") + "z", ok, &reused);
  EXPECT_TRUE(reused);
}

// The pool is FIFO: every free worker takes the next queued task. Two
// tasks queued behind two blockers must run at the same time once the
// blockers finish; each waits (bounded) until both are running, so a
// worker that took both tasks would time the first one out.
TEST(QuerySchedulerTest, QueuedTasksRunOnEveryFreeWorker) {
  QuerySchedulerOptions options;
  options.num_workers = 2;
  QueryScheduler scheduler(options);
  std::mutex mu;
  std::condition_variable cv;
  int blockers_running = 0;
  bool release = false;
  int tasks_running = 0;
  auto blocker = [&](RequestStats*) -> StatusOr<ServiceReport> {
    std::unique_lock<std::mutex> lock(mu);
    ++blockers_running;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return ServiceReport{};
  };
  auto task = [&](RequestStats*) -> StatusOr<ServiceReport> {
    std::unique_lock<std::mutex> lock(mu);
    ++tasks_running;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return tasks_running == 2; })) {
      return Status::DeadlineExceeded("the other task never ran alongside");
    }
    return ServiceReport{};
  };
  const uint64_t b1 = scheduler.Submit(blocker);
  const uint64_t b2 = scheduler.Submit(blocker);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blockers_running == 2; });
  }
  const uint64_t t1 = scheduler.Submit(task);
  const uint64_t t2 = scheduler.Submit(task);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(scheduler.Wait(b1).ok());
  EXPECT_TRUE(scheduler.Wait(b2).ok());
  auto r1 = scheduler.Wait(t1);
  auto r2 = scheduler.Wait(t2);
  EXPECT_TRUE(r1.ok()) << r1.status();
  EXPECT_TRUE(r2.ok()) << r2.status();
}

TEST(HypDbServiceTest, SyncAnalyzeMatchesDirectHypDb) {
  TablePtr table = Berkeley();
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";

  HypDb direct(table, HypDbOptions{});
  auto expected = direct.AnalyzeSql(sql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("b", table);
  auto got = service.AnalyzeSql("b", sql);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(CanonicalReportDigest(got->report),
            CanonicalReportDigest(*expected));
  EXPECT_FALSE(got->stats.discovery_reused);
  EXPECT_GE(got->stats.run_seconds, 0.0);

  // The repeat reuses the cached discovery and the warm shard engine.
  auto repeat = service.AnalyzeSql("b", sql);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->stats.discovery_reused);
  EXPECT_EQ(CanonicalReportDigest(repeat->report),
            CanonicalReportDigest(*expected));
  EXPECT_EQ(service.discovery_stats().hits, 1);
  auto engine_stats = service.engine_stats("b");
  ASSERT_TRUE(engine_stats.ok());
  EXPECT_GT(engine_stats->queries, 0);

  // ...and reads no rows doing so, on every query shape: plain, a WHERE
  // subpopulation, several contexts (per-context shards), and Staples,
  // whose Distance is both a covariate and a mediator (the rewrite's
  // (T, M, Z) joint must still reach the cache).
  ExpectWarmRepeatReadsNoRows(table, sql);
  ExpectWarmRepeatReadsNoRows(
      table,
      "SELECT Gender, avg(Accepted) FROM b WHERE Department IN ('A', 'C') "
      "GROUP BY Gender");
  ExpectWarmRepeatReadsNoRows(
      table,
      "SELECT Gender, Department, avg(Accepted) FROM b "
      "GROUP BY Gender, Department");
  ServiceReport staples = ExpectWarmRepeatReadsNoRows(
      Staples(4000), "SELECT Income, avg(Price) FROM s GROUP BY Income");
  bool shared_column = false;
  for (int m : staples.report.discovery.mediator_cols) {
    for (int z : staples.report.discovery.covariate_cols) {
      shared_column = shared_column || m == z;
    }
  }
  EXPECT_TRUE(shared_column) << "no mediator is also a covariate";
}

// The paper's headline query on Adult in the four WHERE shapes of the
// warm wire benchmark: every entry holds the orders and entropies its
// readers ask for, so a second warm repeat adds no cached cell and no
// entry anywhere in the dataset's pool, and every digest equals cold
// serial HypDb::Analyze.
TEST(HypDbServiceTest, WarmGenderRepeatsAddNoCachedCells) {
  auto generated = GenerateAdultData({.num_rows = 6000});
  ASSERT_TRUE(generated.ok());
  TablePtr table = MakeTable(std::move(*generated));
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("adult", table);
  auto occupancy = [&service] {
    for (const DatasetInfo& info : service.Datasets()) {
      if (info.name == "adult") return info.cache;
    }
    return CacheOccupancy{};
  };
  for (const char* where :
       {"", " WHERE NativeCountry IN ('US')", " WHERE CapitalLoss IN ('none')",
        " WHERE Workclass IN ('Private')"}) {
    const std::string sql = std::string("SELECT Gender, avg(Income) FROM "
                                        "adult") +
                            where + " GROUP BY Gender";
    SCOPED_TRACE(sql);
    HypDb direct(table, HypDbOptions{});
    auto cold = direct.AnalyzeSql(sql);
    ASSERT_TRUE(cold.ok()) << cold.status();
    const std::string digest = CanonicalReportDigest(*cold);
    // The first run, a first warm repeat, then the second one.
    for (int run = 0; run < 3; ++run) {
      const CacheOccupancy before = occupancy();
      auto report = service.AnalyzeSql("adult", sql);
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(CanonicalReportDigest(report->report), digest);
      if (run == 2) {
        const CacheOccupancy after = occupancy();
        EXPECT_EQ(after.cached_cells, before.cached_cells);
        EXPECT_EQ(after.entries, before.entries);
        EXPECT_EQ(report->stats.engine_delta.scans, 0);
      }
    }
  }
}

TEST(HypDbServiceTest, ReregistrationInvalidatesDiscovery) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";
  ASSERT_TRUE(service.AnalyzeSql("b", sql).ok());
  EXPECT_EQ(service.discovery_stats().misses, 1);

  service.RegisterTable("b", Berkeley());
  EXPECT_EQ(service.discovery_stats().invalidations, 1);
  auto after = service.AnalyzeSql("b", sql);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->stats.discovery_reused);
  EXPECT_EQ(service.discovery_stats().misses, 2);
}

// A session counts through the shard generations at its bind watermark.
// An append leaves them as they are: the session's later stages keep
// counting through the generation it bound and answer as at bind, and
// the next analyze, bound after the append, gets that shard's successor
// while the bound generation still serves its watermark.
TEST(HypDbServiceTest, SessionAnswersAsAtBindAfterAnAppend) {
  TablePtr table = Berkeley();
  const std::string sql =
      "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender";
  HypDb direct(table, HypDbOptions{});
  auto cold = direct.AnalyzeSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();

  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", table);
  AnalyzeRequest request;
  request.dataset = "b";
  request.sql = sql;
  auto session = service.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(service.AdvanceSession(session->id, "answers").ok());
  auto shard =
      *service.registry().ShardEngine("b", session->epoch, "", table);
  // The census and the answers counted through the shard.
  const CountEngineStats at_bind = shard->stats();
  EXPECT_GE(at_bind.queries, 2);
  EXPECT_GE(at_bind.scans, 1);

  ASSERT_TRUE(
      service.AppendRows("b", {{"Male", "A", "1"}, {"Female", "B", "0"}})
          .ok());
  auto report = service.AdvanceSession(session->id, "report");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(CanonicalReportDigest(report->report),
            CanonicalReportDigest(*cold));
  EXPECT_GT(shard->stats().queries, at_bind.queries);  // discovery

  ASSERT_TRUE(service.AnalyzeSql("b", sql).ok());
  const TablePtr grown = *service.Dataset("b");
  ASSERT_EQ(grown->NumRows(), table->NumRows() + 2);
  auto next =
      service.registry().ShardEngine("b", session->epoch, "", grown);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_NE(next->get(), shard.get());
  auto replaced =
      service.registry().ShardEngine("b", session->epoch, "", table);
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ(replaced->get(), shard.get());
}

void ExpectSameStats(const CountEngineStats& got,
                     const CountEngineStats& want) {
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.scans, want.scans);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.marginalizations, want.marginalizations);
  EXPECT_EQ(got.cube_hits, want.cube_hits);
  EXPECT_EQ(got.fallback_calls, want.fallback_calls);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.delta_patches, want.delta_patches);
  EXPECT_EQ(got.rows_scanned, want.rows_scanned);
}

// An analyze's engine_delta is its population engine's work from before
// the treatment census to the report, so on a 1-worker service an
// ungrouped query's delta is exactly its report's count work: cold, warm
// and after an append. A session stage job reports its stage's work.
TEST(HypDbServiceTest, EngineDeltaIsTheWholeRequestsPopulationWork) {
  TablePtr table = Staples(6000);
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("s", table);
  const std::string sql = "SELECT Income, avg(Price) FROM s GROUP BY Income";
  // Eight of the table's rows again, each with a fresh SessionId.
  std::vector<std::vector<std::string>> batch;
  for (int64_t r = 0; r < 8; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < table->NumColumns(); ++c) {
      const Column& column = table->column(c);
      row.push_back(column.name() == "SessionId"
                        ? "appended-" + std::to_string(r)
                        : column.LabelAt(r));
    }
    batch.push_back(std::move(row));
  }
  for (const std::string run : {"cold", "warm", "after an append"}) {
    SCOPED_TRACE(run);
    const bool appended = run == "after an append";
    if (appended) ASSERT_TRUE(service.AppendRows("s", batch).ok());
    auto report = service.AnalyzeSql("s", sql);
    ASSERT_TRUE(report.ok()) << report.status();
    ExpectSameStats(report->stats.engine_delta, report->report.count_stats);
    EXPECT_GT(report->stats.engine_delta.queries, 0);
    EXPECT_EQ(report->stats.engine_delta.delta_patches > 0, appended);
  }

  HypDbService fresh(options);
  fresh.RegisterTable("s", table);
  AnalyzeRequest request;
  request.dataset = "s";
  request.sql = sql;
  auto session = fresh.CreateSession(request);
  ASSERT_TRUE(session.ok()) << session.status();
  auto discover = fresh.AdvanceSession(session->id, "discover");
  ASSERT_TRUE(discover.ok()) << discover.status();
  EXPECT_GT(discover->stats.engine_delta.scans, 0);
  ExpectSameStats(discover->stats.engine_delta,
                  discover->report.discovery.count_stats);
  // A reused stage does no count work.
  auto again = fresh.AdvanceSession(session->id, "discover");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->stats.stage_reused);
  ExpectSameStats(again->stats.engine_delta, CountEngineStats{});
}

TEST(HypDbServiceTest, AsyncSubmitPollWait) {
  HypDbServiceOptions options;
  options.num_workers = 2;
  HypDbService service(options);
  service.RegisterTable("c", Cancer());

  AnalyzeRequest request;
  request.dataset = "c";
  request.sql =
      "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer";
  const uint64_t ticket = service.Submit(request);
  auto report = service.Wait(ticket);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->stats.ticket, ticket);
  EXPECT_TRUE(service.Done(ticket));  // claimed tickets read as done
  EXPECT_FALSE(service.Wait(ticket).ok());  // one Wait per ticket

  // Errors flow through the same channel.
  const uint64_t bad_sql = service.Submit({"c", "SELECT nonsense", {}});
  EXPECT_TRUE(service.Done(bad_sql));
  EXPECT_FALSE(service.Wait(bad_sql).ok());
  const uint64_t bad_ds =
      service.Submit({"missing",
                      "SELECT Lung_Cancer, avg(Car_Accident) FROM c "
                      "GROUP BY Lung_Cancer",
                      {}});
  auto missing = service.Wait(bad_ds);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(HypDbServiceTest, CancelDropsQueuedRequestsOnly) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  service.RegisterTable("c", Cancer(20000));

  // The slow request occupies the lone worker; the victim stays queued.
  const uint64_t slow = service.Submit(
      {"c",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer",
       {}});
  const uint64_t victim = service.Submit(
      {"b", "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender", {}});

  EXPECT_TRUE(service.Cancel(victim));
  EXPECT_TRUE(service.Done(victim));  // completed-with-error counts as done
  auto result = service.Wait(victim);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Nothing left to cancel: the ticket is claimed.
  EXPECT_FALSE(service.Cancel(victim));

  auto slow_result = service.Wait(slow);
  ASSERT_TRUE(slow_result.ok()) << slow_result.status();
  // Finished (and unknown) tickets are not cancellable either.
  EXPECT_FALSE(service.Cancel(slow));
  EXPECT_FALSE(service.Cancel(999999));
}

TEST(HypDbServiceTest, DeadlineRejectsRequestsThatQueuedTooLong) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("b", Berkeley());
  service.RegisterTable("c", Cancer(20000));

  const uint64_t slow = service.Submit(
      {"c",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer",
       {}});
  // Any measurable queue wait exceeds a microsecond deadline.
  SubmitOptions submit;
  submit.deadline_seconds = 1e-6;
  const uint64_t expired = service.Submit(
      {"b", "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender", {}},
      submit);
  auto result = service.Wait(expired);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // A generous deadline leaves the request untouched.
  submit.deadline_seconds = 300.0;
  const uint64_t relaxed = service.Submit(
      {"b", "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender", {}},
      submit);
  EXPECT_TRUE(service.Wait(relaxed).ok());
  EXPECT_TRUE(service.Wait(slow).ok());
}

TEST(HypDbServiceTest, RacedWaitsClaimTheTicketExactlyOnce) {
  HypDbServiceOptions options;
  options.num_workers = 1;
  HypDbService service(options);
  service.RegisterTable("c", Cancer());
  const uint64_t ticket = service.Submit(
      {"c",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer",
       {}});
  std::atomic<int> winners{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 2; ++t) {
    waiters.emplace_back([&] {
      if (service.Wait(ticket).ok()) ++winners;
    });
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(winners.load(), 1);
}

// The tentpole invariant: N client threads hammering a shared service
// with mixed queries over shared datasets get reports bit-identical to a
// cold, serial HypDb per query.
TEST(HypDbServiceTest, ConcurrentMixedQueriesBitIdenticalToSerial) {
  TablePtr berkeley = Berkeley();
  TablePtr cancer = Cancer();

  struct Workload {
    std::string dataset;
    std::string sql;
  };
  const std::vector<Workload> workloads = {
      {"b", "SELECT Gender, avg(Accepted) FROM b GROUP BY Gender"},
      {"b",
       "SELECT Gender, avg(Accepted) FROM b WHERE Department IN "
       "('A','B','C') GROUP BY Gender"},
      {"b",
       "SELECT Gender, Department, avg(Accepted) FROM b GROUP BY Gender, "
       "Department"},
      {"c",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM c GROUP BY Lung_Cancer"},
      {"c",
       "SELECT Lung_Cancer, avg(Car_Accident) FROM c WHERE Smoking IN "
       "('1') GROUP BY Lung_Cancer"},
  };

  // Serial ground truth: a fresh HypDb per query (fully cold).
  std::vector<std::string> expected;
  for (const Workload& w : workloads) {
    HypDb db(w.dataset == "b" ? berkeley : cancer, HypDbOptions{});
    auto report = db.AnalyzeSql(w.sql);
    ASSERT_TRUE(report.ok()) << report.status();
    expected.push_back(CanonicalReportDigest(*report));
  }

  HypDbServiceOptions options;
  options.num_workers = 4;
  HypDbService service(options);
  service.RegisterTable("b", berkeley);
  service.RegisterTable("c", cancer);

  constexpr int kClientThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures[kClientThreads];
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Staggered order per thread: different workloads overlap.
        for (size_t i = 0; i < workloads.size(); ++i) {
          const size_t w = (i + t) % workloads.size();
          auto report =
              service.AnalyzeSql(workloads[w].dataset, workloads[w].sql);
          if (!report.ok()) {
            failures[t].push_back(report.status().ToString());
            continue;
          }
          if (CanonicalReportDigest(report->report) != expected[w]) {
            failures[t].push_back("digest mismatch for " + workloads[w].sql);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClientThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t].front();
  }

  // The shared caches actually carried load: each *distinct discovery
  // key* computed once. That is fewer than the workload count — discovery
  // ignores GROUP BY contexts, so the plain and per-Department Gender
  // queries share one key (and, the digests above prove, correctly so).
  std::set<std::string> distinct_keys;
  for (const Workload& w : workloads) {
    auto q = ParseAggQuery(w.sql);
    ASSERT_TRUE(q.ok());
    distinct_keys.insert(DiscoveryKey(w.dataset, 1, *q, HypDbOptions{}));
  }
  EXPECT_EQ(distinct_keys.size(), 4u);
  auto stats = service.discovery_stats();
  EXPECT_EQ(stats.misses, static_cast<int64_t>(distinct_keys.size()));
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<int64_t>(kClientThreads * kRounds *
                                     workloads.size() -
                                 distinct_keys.size()));
}

}  // namespace
}  // namespace hypdb
