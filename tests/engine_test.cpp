// Tests for the CountEngine subsystem: the packed-tuple scan kernel, the
// caching engine's subset marginalization (counts derived from a cached
// superset must exactly match a direct scan — the Fig. 6c correctness
// requirement), cache-hit instrumentation, the cache policy (oldest-first
// eviction) and a property sweep over random access sequences x budgets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "engine/groupby_kernel.h"
#include "stats/entropy.h"
#include "stats/mi_engine.h"
#include "storage/chunked_count_provider.h"
#include "storage/chunked_table.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr RandomTable(int cols, int64_t rows, uint64_t seed,
                     int max_card = 5) {
  Rng rng(seed);
  Table table;
  for (int c = 0; c < cols; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
    int card = 2 + static_cast<int>(rng.NextBounded(max_card - 1));
    for (int64_t r = 0; r < rows; ++r) {
      b.Append(std::to_string(rng.NextBounded(card)));
    }
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
}

// A table where every column has exactly `card` labels, so every pair of
// columns with enough rows materializes to exactly card^2 cells —
// deterministic eviction pressure.
TablePtr FixedCardTable(int cols, int64_t rows, int card, uint64_t seed) {
  Rng rng(seed);
  Table table;
  for (int c = 0; c < cols; ++c) {
    ColumnBuilder b("c" + std::to_string(c));
    for (int64_t r = 0; r < rows; ++r) {
      b.Append(std::to_string(rng.NextBounded(card)));
    }
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
}

// A view selecting a pseudo-random half of the rows.
TableView HalfView(const TablePtr& t, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    if (rng.Bernoulli(0.5)) rows.push_back(r);
  }
  return TableView(t).WithRows(std::move(rows));
}

void ExpectSameCounts(const GroupCounts& a, const GroupCounts& b) {
  ASSERT_EQ(a.NumGroups(), b.NumGroups());
  EXPECT_EQ(a.total, b.total);
  ASSERT_EQ(a.codec.cols(), b.codec.cols());
  for (int g = 0; g < a.NumGroups(); ++g) {
    EXPECT_EQ(a.keys[g], b.keys[g]) << "group " << g;
    EXPECT_EQ(a.counts[g], b.counts[g]) << "group " << g;
  }
}

// ---- scan kernel ----

TEST(GroupByKernelTest, ParallelScanMatchesSequential) {
  TablePtr t = RandomTable(4, 20000, 3);
  for (const TableView& view : {TableView(t), HalfView(t, 5)}) {
    for (const std::vector<int>& cols :
         std::vector<std::vector<int>>{{0}, {2, 0}, {0, 1, 2, 3}, {}}) {
      auto sequential = ScanCounts(view, cols);
      ASSERT_TRUE(sequential.ok());
      GroupByKernelOptions parallel;
      parallel.num_threads = 4;
      parallel.parallel_min_rows = 64;  // force the threaded path
      auto threaded = ScanCounts(view, cols, parallel);
      ASSERT_TRUE(threaded.ok());
      ExpectSameCounts(*threaded, *sequential);
    }
  }
}

TEST(GroupByKernelTest, HashPathMatchesDensePath) {
  // High-cardinality columns push the domain past the dense threshold.
  TablePtr t = RandomTable(4, 5000, 7, 40);
  TableView view(t);
  auto joint = ScanCounts(view, {0, 1, 2, 3});
  ASSERT_TRUE(joint.ok());
  int64_t total = 0;
  for (int64_t c : joint->counts) total += c;
  EXPECT_EQ(total, view.NumRows());
  // Keys sorted and unique.
  for (int g = 1; g < joint->NumGroups(); ++g) {
    EXPECT_LT(joint->keys[g - 1], joint->keys[g]);
  }
  // Agrees with the dense path on a small projection.
  auto pair_direct = ScanCounts(view, {0, 1});
  auto pair_marginal = MarginalizeOnto(*joint, {0, 1});
  ASSERT_TRUE(pair_direct.ok());
  ExpectSameCounts(pair_marginal, *pair_direct);
}

// ---- caching engine: marginalization property ----

// The Fig. 6c requirement: counts for S ⊆ S' derived from a cached S'
// summary must exactly equal a direct CountBy scan, for random tables,
// views, and subset patterns.
TEST(CachingCountEngineTest, MarginalizedCountsMatchDirectScan) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TablePtr t = RandomTable(5, 2000 + 311 * seed, seed);
    TableView view = seed % 2 == 0 ? TableView(t) : HalfView(t, seed * 17);
    CachingCountEngine engine(std::make_shared<ViewCountProvider>(view));
    ASSERT_TRUE(engine.Prefetch({0, 1, 2, 3, 4}).ok());

    Rng rng(seed * 101);
    for (int trial = 0; trial < 12; ++trial) {
      // Random non-empty subset in random order.
      std::vector<int> cols;
      for (int c = 0; c < 5; ++c) {
        if (rng.Bernoulli(0.5)) cols.push_back(c);
      }
      if (cols.empty()) cols.push_back(static_cast<int>(rng.NextBounded(5)));
      rng.Shuffle(&cols);

      auto from_engine = engine.Counts(cols);
      ASSERT_TRUE(from_engine.ok());
      auto direct = CountBy(view, cols);
      ASSERT_TRUE(direct.ok());
      ExpectSameCounts(*from_engine, *direct);
    }
    // Everything was served by the prefetched superset: one scan total.
    EXPECT_EQ(engine.stats().scans, 1);
  }
}

TEST(CachingCountEngineTest, CountsHitsAndMarginalizations) {
  TablePtr t = RandomTable(4, 3000, 21);
  CachingCountEngine engine(
      std::make_shared<ViewCountProvider>(TableView(t)));

  // Miss -> scan.
  ASSERT_TRUE(engine.Counts({0, 1, 2}).ok());
  CountEngineStats s = engine.stats();
  EXPECT_EQ(s.scans, 1);
  EXPECT_EQ(s.cache_hits, 0);

  // Exact repeat -> cache hit, no scan.
  ASSERT_TRUE(engine.Counts({0, 1, 2}).ok());
  s = engine.stats();
  EXPECT_EQ(s.scans, 1);
  EXPECT_EQ(s.cache_hits, 1);

  // Same set, different order -> still a cache hit.
  ASSERT_TRUE(engine.Counts({2, 0, 1}).ok());
  s = engine.stats();
  EXPECT_EQ(s.scans, 1);
  EXPECT_EQ(s.cache_hits, 2);

  // Subset -> marginalization, no scan.
  ASSERT_TRUE(engine.Counts({1, 0}).ok());
  s = engine.stats();
  EXPECT_EQ(s.scans, 1);
  EXPECT_EQ(s.marginalizations, 1);

  // The derived subset is now cached itself.
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  s = engine.stats();
  EXPECT_EQ(s.scans, 1);
  EXPECT_EQ(s.cache_hits, 3);

  // Disjoint set -> scan.
  ASSERT_TRUE(engine.Counts({3}).ok());
  s = engine.stats();
  EXPECT_EQ(s.scans, 2);
}

TEST(CachingCountEngineTest, RequestOrderDefinesCodec) {
  TablePtr t = RandomTable(3, 1000, 33);
  TableView view(t);
  CachingCountEngine engine(std::make_shared<ViewCountProvider>(view));
  ASSERT_TRUE(engine.Prefetch({0, 1, 2}).ok());
  auto reversed = engine.Counts({2, 1});
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->codec.cols(), (std::vector<int>{2, 1}));
  auto direct = CountBy(view, {2, 1});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*reversed, *direct);
}

TEST(CachingCountEngineTest, EvictionKeepsAnswersCorrect) {
  TablePtr t = RandomTable(4, 4000, 41);
  TableView view(t);
  CachingCountEngineOptions tiny;
  tiny.max_cached_cells = 4;  // essentially nothing fits
  CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                            tiny);
  for (int trial = 0; trial < 4; ++trial) {
    for (const std::vector<int>& cols :
         std::vector<std::vector<int>>{{0, 1}, {1, 2}, {2, 3}}) {
      auto counts = engine.Counts(cols);
      ASSERT_TRUE(counts.ok());
      auto direct = CountBy(view, cols);
      ASSERT_TRUE(direct.ok());
      ExpectSameCounts(*counts, *direct);
    }
  }
  EXPECT_GT(engine.stats().evictions, 0);
  EXPECT_LE(engine.cached_cells(), 4 + 4000);  // at most the newest entry
}

TEST(CachingCountEngineTest, RepeatedPrefetchPinsOnlyLatestFocus) {
  TablePtr t = RandomTable(4, 2000, 57);
  CachingCountEngineOptions tiny;
  tiny.max_cached_cells = 1;  // only pinned entries can persist
  CachingCountEngine engine(
      std::make_shared<ViewCountProvider>(TableView(t)), tiny);
  ASSERT_TRUE(engine.Prefetch({0, 1}).ok());
  ASSERT_TRUE(engine.Prefetch({2, 3}).ok());
  // The first focus is unpinned by the second and evicted by the next
  // insert; pinned summaries never accumulate across discovery phases.
  ASSERT_TRUE(engine.Counts({2}).ok());
  EXPECT_EQ(engine.stats().marginalizations, 1);  // served by {2,3}
  auto c01 = CountBy(TableView(t), {0, 1});
  ASSERT_TRUE(c01.ok());
  EXPECT_LE(engine.cached_cells(),
            CountBy(TableView(t), {2, 3})->NumGroups() + c01->NumGroups());
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  EXPECT_EQ(engine.stats().scans, 3);  // {0,1} was evicted -> re-scan
}

TEST(CachingCountEngineTest, PrefetchedEntriesSurviveEviction) {
  TablePtr t = RandomTable(4, 2000, 51);
  CachingCountEngineOptions tiny;
  tiny.max_cached_cells = 1;
  CachingCountEngine engine(
      std::make_shared<ViewCountProvider>(TableView(t)), tiny);
  ASSERT_TRUE(engine.Prefetch({0, 1, 2, 3}).ok());
  ASSERT_TRUE(engine.Counts({0}).ok());
  ASSERT_TRUE(engine.Counts({1}).ok());
  // The pinned superset still answers: no scan beyond the prefetch.
  EXPECT_EQ(engine.stats().scans, 1);
  EXPECT_EQ(engine.stats().marginalizations, 2);
}

// Regression for the eviction accounting bug: pinned-entry cells used to
// count against max_cached_cells, so a prefetched focus larger than the
// budget forced every derived summary out immediately — repeated subset
// queries re-marginalized the superset forever instead of hitting cache.
// Pinned cells are exempt now: the budget bounds the evictable set.
TEST(CachingCountEngineTest, PinnedCellsExemptFromEvictionBudget) {
  TablePtr t = RandomTable(4, 2000, 91);
  TableView view(t);
  auto joint = CountBy(view, {0, 1, 2, 3});
  ASSERT_TRUE(joint.ok());

  CachingCountEngineOptions options;
  // Budget below the joint summary but with room for small derived
  // entries — the configuration the bug hit.
  options.max_cached_cells = joint->NumGroups() - 1;
  CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                            options);
  ASSERT_TRUE(engine.Prefetch({0, 1, 2, 3}).ok());
  EXPECT_EQ(engine.pinned_cells(), joint->NumGroups());

  // First query derives from the pinned superset and must stay cached...
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  EXPECT_EQ(engine.num_entries(), 2);
  // ...so the repeat is an exact cache hit, not a re-marginalization.
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  CountEngineStats s = engine.stats();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.marginalizations, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.scans, 1);

  // The unpinned budget still evicts: flood with derived subsets until
  // the evictable set exceeds it, and the pinned focus must survive.
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1}, {2}, {3}, {0, 2}, {1, 3},
                                     {2, 3}, {0, 3}, {1, 2}, {0, 1, 2}}) {
    ASSERT_TRUE(engine.Counts(cols).ok());
  }
  EXPECT_LE(engine.cached_cells() - engine.pinned_cells(),
            options.max_cached_cells);
  EXPECT_EQ(engine.pinned_cells(), joint->NumGroups());
  EXPECT_EQ(engine.stats().scans, 1);  // the pinned focus kept serving
}

// Concurrent use of one caching engine (the service's shard sharing):
// results stay bit-identical to a direct scan and accounting stays
// consistent whatever the interleaving.
TEST(CachingCountEngineTest, ConcurrentCountsMatchDirectScan) {
  TablePtr t = RandomTable(5, 8000, 77);
  TableView view(t);
  auto engine = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(view));
  ASSERT_TRUE(engine->Prefetch({0, 1, 2, 3}).ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int trial = 0; trial < 30; ++trial) {
        std::vector<int> cols;
        for (int c = 0; c < 5; ++c) {
          if (rng.Bernoulli(0.5)) cols.push_back(c);
        }
        if (cols.empty()) cols.push_back(w);
        rng.Shuffle(&cols);
        auto counts = engine->Counts(cols);
        auto direct = CountBy(view, cols);
        if (!counts.ok() || !direct.ok() ||
            counts->keys != direct->keys ||
            counts->counts != direct->counts) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every query was answered, and the cache accounting reconciled any
  // racing duplicate inserts.
  EXPECT_EQ(engine->stats().queries, kThreads * 30);
  EXPECT_GE(engine->cached_cells(), 0);
}

// ---- scan_threads auto default (0 = hardware concurrency) ----

TEST(GroupByKernelTest, ZeroThreadsResolvesToHardwareDefault) {
  TablePtr t = RandomTable(4, 20000, 83);
  GroupByKernelOptions autodetect;
  autodetect.num_threads = 0;
  autodetect.parallel_min_rows = 64;
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1, 3}, {0, 1, 2, 3}}) {
    auto sequential = ScanCounts(TableView(t), cols);
    auto detected = ScanCounts(TableView(t), cols, autodetect);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(detected.ok());
    ExpectSameCounts(*detected, *sequential);
  }
}

TEST(MiEngineCountStatsTest, ZeroScanThreadsWorksThroughTheStack) {
  TablePtr t = RandomTable(3, 5000, 87);
  MiEngine sequential(TableView(t), MiEngineOptions{});
  MiEngineOptions auto_threads;
  auto_threads.scan_threads = 0;
  MiEngine detected(TableView(t), auto_threads);
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {0, 1}, {0, 1, 2}}) {
    auto a = sequential.Entropy(cols);
    auto b = detected.Entropy(cols);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);  // bit-identical, not just close
  }
}

// ---- MiEngine on top of the stack ----

// Mirrors the Fig. 6c instrumentation: the ablation's "materialize"
// configuration answers every subsequent entropy from summaries.
TEST(MiEngineCountStatsTest, EntropiesAfterFocusNeverScan) {
  TablePtr t = RandomTable(4, 3000, 61);
  MiEngine engine{TableView(t)};
  ASSERT_TRUE(engine.SetFocus({0, 1, 2, 3}).ok());
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{0}, {1}, {0, 2}, {1, 2, 3}, {3}}) {
    ASSERT_TRUE(engine.Entropy(cols).ok());
  }
  EXPECT_EQ(engine.count_engine().stats().scans, 1);
}

// ---- deterministic marginalization tie-break ----

// A column whose every row holds one label (cardinality 1), so adding it
// to a column set never changes the group count — the tie generator.
Column ConstantColumn(const std::string& name, const std::string& label,
                      int64_t rows) {
  ColumnBuilder b(name);
  for (int64_t r = 0; r < rows; ++r) b.Append(label);
  return b.Finish();
}

TEST(CachingCountEngineTest, MarginalizationTieBreakIsPinned) {
  // c0 and c3 are constant, c1 and c2 take all 3x3 combinations, so
  // {0,1,2} and {1,2} hold equally many groups, as do {0,1} and {1,3}.
  constexpr int64_t kRows = 27;
  Table table;
  ASSERT_TRUE(table.AddColumn(ConstantColumn("c0", "x", kRows)).ok());
  ColumnBuilder b1("c1");
  ColumnBuilder b2("c2");
  for (int64_t r = 0; r < kRows; ++r) {
    b1.Append(std::to_string(r % 3));
    b2.Append(std::to_string((r / 3) % 3));
  }
  ASSERT_TRUE(table.AddColumn(b1.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(b2.Finish()).ok());
  ASSERT_TRUE(table.AddColumn(ConstantColumn("c3", "y", kRows)).ok());
  TablePtr t = MakeTable(std::move(table));

  CachingCountEngine engine(
      std::make_shared<ViewCountProvider>(TableView(t)));
  EXPECT_TRUE(engine.MarginalizationSource({1}).empty());  // nothing cached

  // Equal group counts ({0,1,2} and the derived {1,2} both have 9):
  // fewer columns must win, whatever order populated the cache.
  ASSERT_TRUE(engine.Counts({0, 1, 2}).ok());
  ASSERT_TRUE(engine.Counts({1, 2}).ok());
  EXPECT_EQ(engine.MarginalizationSource({1}),
            (std::vector<int>{1, 2}));

  // Equal group counts AND equal column counts ({0,1} and {1,3} both
  // have 3 groups over 2 columns): the lexicographically smallest
  // column set wins.
  ASSERT_TRUE(engine.Counts({0, 1}).ok());
  ASSERT_TRUE(engine.Counts({1, 3}).ok());
  EXPECT_EQ(engine.MarginalizationSource({1}),
            (std::vector<int>{0, 1}));

  // Fewest groups still dominates both tie-breaks, and an exact cached
  // entry means no marginalization at all.
  EXPECT_EQ(engine.MarginalizationSource({0, 1}), std::vector<int>{});
  ASSERT_TRUE(engine.Counts({1}).ok());
  EXPECT_EQ(engine.MarginalizationSource({1}), std::vector<int>{});

  // Duplicate-column queries bypass the cache in Counts(), so the
  // introspection must report no source for them either.
  EXPECT_EQ(engine.MarginalizationSource({2, 2}), std::vector<int>{});
}

// ---- the cache policy ----

// The one policy: eviction is oldest-first by admission sequence, however
// often an entry was reused.
TEST(CachePolicyTest, OldestFirstEviction) {
  TablePtr t = FixedCardTable(6, 2000, 4, 17);
  TableView view(t);
  CachingCountEngineOptions options;
  options.max_cached_cells = 40;  // holds two 16-cell pairs, not three
  CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                            options);
  // {0,1} is the oldest entry and by far the most reused one.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(engine.Counts({0, 1}).ok());
  ASSERT_TRUE(engine.Counts({2, 3}).ok());
  ASSERT_TRUE(engine.Counts({4, 5}).ok());  // over budget: evicts {0,1}
  EXPECT_EQ(engine.stats().evictions, 1);
  const int64_t scans_before = engine.stats().scans;
  ASSERT_TRUE(engine.Counts({2, 3}).ok());  // still resident
  EXPECT_EQ(engine.stats().scans, scans_before);
  auto again = engine.Counts({0, 1});  // evicted: re-scanned
  ASSERT_TRUE(again.ok());
  ExpectSameCounts(*again, *ScanCounts(view, {0, 1}));
  EXPECT_EQ(engine.stats().scans, scans_before + 1);
}

// Random interleavings of Counts and Prefetch over a range of budgets
// must (a) never evict the pinned focus, (b) never hold more unpinned
// cells than the budget, and (c) produce answers bit-identical to an
// uncached engine.
TEST(CachePolicySweepTest, RandomAccessSequencesMatchUncachedEngine) {
  TablePtr t = FixedCardTable(5, 600, 4, 77);
  TableView view(t);

  for (int64_t budget : {int64_t{8}, int64_t{128}, int64_t{1} << 20}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Rng rng(1000 + static_cast<uint64_t>(budget));
    CachingCountEngineOptions options;
    options.max_cached_cells = budget;
    CachingCountEngine engine(std::make_shared<ViewCountProvider>(view),
                              options);

    std::vector<int> pinned_focus;
    int64_t pinned_focus_cells = 0;
    for (int op = 0; op < 120; ++op) {
      std::vector<int> cols;
      const int size = 1 + static_cast<int>(rng.NextBounded(3));
      while (static_cast<int>(cols.size()) < size) {
        const int c = static_cast<int>(rng.NextBounded(5));
        if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
          cols.push_back(c);
        }
      }
      std::sort(cols.begin(), cols.end());

      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(engine.Prefetch(cols).ok());
        auto direct = ScanCounts(view, cols);
        ASSERT_TRUE(direct.ok());
        pinned_focus = cols;
        pinned_focus_cells = direct->NumGroups();
      } else {
        auto counts = engine.Counts(cols);
        ASSERT_TRUE(counts.ok());
        auto direct = ScanCounts(view, cols);
        ASSERT_TRUE(direct.ok());
        ExpectSameCounts(*counts, *direct);
      }

      // Budget invariant: unpinned residency never exceeds the budget.
      EXPECT_LE(engine.cached_cells() - engine.pinned_cells(), budget);
      // Pin invariant: the focus summary is always fully resident.
      if (!pinned_focus.empty()) {
        EXPECT_EQ(engine.pinned_cells(), pinned_focus_cells);
      }
    }
  }
}

TEST(MiEngineCountStatsTest, MaterializationOffScansEveryTime) {
  TablePtr t = RandomTable(3, 1000, 71);
  MiEngine engine(std::make_shared<ViewCountProvider>(TableView(t)));
  ASSERT_TRUE(engine.Entropy({0, 1}).ok());
  ASSERT_TRUE(engine.Entropy({0, 1}).ok());
  EXPECT_EQ(engine.count_engine().stats().scans, 2);
}

// ---- column orders and entropies kept on the cache entry ----

void ExpectSameSummary(const GroupCounts& got, const GroupCounts& want) {
  EXPECT_EQ(got.codec.cols(), want.codec.cols());
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.total, want.total);
}

// One set asked in two column orders: each answer is the cold scan
// projected onto that order, and a repeat in either order adds no cell.
TEST(CachingCountEngineTest, EntryKeepsEveryRequestedOrder) {
  TablePtr t = RandomTable(4, 2000, 91);
  const TableView view(t);
  CachingCountEngine cache(std::make_shared<ViewCountProvider>(view));
  auto cold = CountBy(view, {0, 1, 2});
  ASSERT_TRUE(cold.ok());
  const int64_t groups = cold->NumGroups();
  for (const std::vector<int>& order :
       {std::vector<int>{2, 0, 1}, std::vector<int>{1, 2, 0}}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const int64_t cells_before = cache.cached_cells();
      auto got = cache.Counts(order);
      ASSERT_TRUE(got.ok());
      ExpectSameSummary(*got, ProjectOnto(*cold, order));
      if (repeat == 1) EXPECT_EQ(cache.cached_cells(), cells_before);
    }
  }
  // One entry holding the scanned order and the kept one.
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.cached_cells(), 2 * groups);
  EXPECT_EQ(cache.CacheUse().cached_cells, 2 * groups);
  EXPECT_EQ(cache.stats().scans, 1);
  EXPECT_EQ(cache.stats().cache_hits, 3);
}

// The memo is EntropyOf over the sorted-order summary, bit for bit, even
// when the entry was built in another order; a repeat is a cache hit
// that derives nothing.
TEST(CachingCountEngineTest, EntropyMemoMatchesSortedCountsBitForBit) {
  TablePtr t = RandomTable(4, 3000, 93);
  const TableView view(t);
  CachingCountEngine cache(std::make_shared<ViewCountProvider>(view));
  ASSERT_TRUE(cache.Counts({3, 1, 0}).ok());
  for (const std::vector<int>& sorted :
       {std::vector<int>{0, 1, 3}, std::vector<int>{1, 3},
        std::vector<int>{2}}) {
    auto cold = CountBy(view, sorted);
    ASSERT_TRUE(cold.ok());
    auto got = cache.Entropy(sorted);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->plugin, EntropyOf(*cold, EntropyEstimator::kPlugin));
    EXPECT_EQ(got->support, cold->NumGroups());
  }
  const CountEngineStats before = cache.stats();
  const int64_t cells = cache.cached_cells();
  ASSERT_TRUE(cache.Entropy({0, 1, 3}).ok());
  EXPECT_EQ(cache.stats().queries, before.queries + 1);
  EXPECT_EQ(cache.stats().cache_hits, before.cache_hits + 1);
  EXPECT_EQ(cache.stats().marginalizations, before.marginalizations);
  EXPECT_EQ(cache.cached_cells(), cells);
  EXPECT_FALSE(cache.Entropy({1, 0}).ok());  // not a sorted set
}

// An append makes the entry stale for the next generation: a successor
// seeded from the cache patches it on first request (in the payload's own
// column order), drops its kept orders and entropy, and answers like a
// cold scan of the grown population.
TEST(CachingCountEngineTest, AppendPatchDropsOrdersAndEntropy) {
  Rng rng(17);
  auto rows = [&rng](int64_t n, int card) {
    std::vector<std::vector<std::string>> out(n);
    for (auto& row : out) {
      for (int c = 0; c < 3; ++c) {
        row.push_back("v" + std::to_string(rng.NextBounded(card)));
      }
    }
    return out;
  };
  auto seed = ChunkedTable::FromTable(RandomTable(3, 400, 19), 64);
  ASSERT_TRUE(seed.ok());
  ChunkedTablePtr table = *seed;
  CachingCountEngine first(
      std::make_shared<ChunkedCountProvider>(table, table->Watermark()));
  ASSERT_TRUE(first.Counts({2, 0}).ok());  // the payload's order
  ASSERT_TRUE(first.Counts({0, 2}).ok());  // a kept order
  ASSERT_TRUE(first.Entropy({0, 2}).ok());
  ASSERT_TRUE(table->Append(rows(150, 6)).ok());  // new labels too
  CachingCountEngine cache(
      std::make_shared<ChunkedCountProvider>(table, table->Watermark()),
      first);

  const TableView grown(table->Materialized());
  auto cold = CountBy(grown, {0, 2});
  ASSERT_TRUE(cold.ok());
  auto patched = cache.Counts({0, 2});
  ASSERT_TRUE(patched.ok());
  ExpectSameSummary(*patched, *cold);
  EXPECT_EQ(cache.stats().delta_patches, 1);
  // The stale order went with the patch; the one just asked is rebuilt.
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.cached_cells(), 2 * cold->NumGroups());
  auto reversed = cache.Counts({2, 0});
  ASSERT_TRUE(reversed.ok());
  ExpectSameSummary(*reversed, ProjectOnto(*cold, {2, 0}));
  auto entropy = cache.Entropy({0, 2});
  ASSERT_TRUE(entropy.ok());
  EXPECT_EQ(entropy->plugin, EntropyOf(*cold, EntropyEstimator::kPlugin));
  EXPECT_EQ(entropy->support, cold->NumGroups());
  // The first build and the one delta pass; nothing rescanned.
  EXPECT_EQ(first.stats().scans + cache.stats().scans, 2);
}

// Kept orders share their entry's eviction, pin and budget.
TEST(CachingCountEngineTest, EvictionDropsAnEntrysOrders) {
  TablePtr t = FixedCardTable(6, 4000, 4, 95);  // every pair: 16 cells
  CachingCountEngineOptions options;
  options.max_cached_cells = 40;
  CachingCountEngine cache(
      std::make_shared<ViewCountProvider>(TableView(t)), options);
  ASSERT_TRUE(cache.Counts({1, 0}).ok());
  ASSERT_TRUE(cache.Counts({0, 1}).ok());
  EXPECT_EQ(cache.cached_cells(), 32);
  ASSERT_TRUE(cache.Counts({2, 3}).ok());  // 48 > 40: the oldest goes
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.cached_cells(), 16);
  EXPECT_EQ(cache.stats().evictions, 1);

  // Random orders over a pinned focus: the unpinned cells stay within
  // the budget after every call.
  ASSERT_TRUE(cache.Prefetch({4, 5}).ok());
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> cols = {static_cast<int>(rng.NextBounded(6))};
    int other = static_cast<int>(rng.NextBounded(6));
    if (other != cols[0]) cols.push_back(other);
    ASSERT_TRUE(cache.Counts(cols).ok());
    if (trial % 3 == 0) {
      ASSERT_TRUE(cache.Entropy(SortedUniqueColumns(cols)).ok());
    }
    EXPECT_LE(cache.cached_cells() - cache.pinned_cells(), 40);
  }
  EXPECT_GE(cache.pinned_cells(), 16);
}

// Concurrent readers of one entry in every column order and its entropy
// (run under ThreadSanitizer in CI): every answer is the cold scan's,
// and the entry ends up holding each order once.
TEST(CachingCountEngineTest, ConcurrentReadersOfOneEntryInSeveralOrders) {
  TablePtr t = RandomTable(4, 5000, 97);
  const TableView view(t);
  auto cache = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(view));
  std::vector<std::vector<int>> orders = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                          {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  std::vector<GroupCounts> want;
  for (const auto& order : orders) {
    auto cold = CountBy(view, order);
    ASSERT_TRUE(cold.ok());
    want.push_back(std::move(*cold));
  }
  const double want_entropy = EntropyOf(want[0], EntropyEstimator::kPlugin);

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int trial = 0; trial < 30; ++trial) {
        const size_t o = (trial + w) % orders.size();
        auto got = cache->Counts(orders[o]);
        if (!got.ok() || got->keys != want[o].keys ||
            got->counts != want[o].counts) {
          ++failures;
        }
        auto entropy = cache->Entropy({0, 1, 2});
        if (!entropy.ok() || entropy->plugin != want_entropy) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // A racing duplicate insert may have dropped orders; one more pass
  // restores them, after which the entry holds each order exactly once.
  for (const auto& order : orders) ASSERT_TRUE(cache->Counts(order).ok());
  EXPECT_EQ(cache->num_entries(), 1);
  EXPECT_EQ(cache->cached_cells(),
            static_cast<int64_t>(orders.size()) * want[0].NumGroups());
}

}  // namespace
}  // namespace hypdb
