// Tests for the CountEngine subsystem: the packed-tuple scan kernel, the
// caching engine's subset marginalization (counts derived from a cached
// superset must exactly match a direct scan — the Fig. 6c correctness
// requirement), cache-hit instrumentation, and eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "engine/groupby_kernel.h"
#include "engine/predicate_slicing_count_engine.h"
#include "stats/mi_engine.h"
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
  MiEngine engine(TableView(t),
                  MiEngineOptions{.cache_entropies = false});
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

// ---- predicate-slicing engine: cross-shard reuse ----

// Rows of `t` matching every (col, code) equality.
TableView EqualityView(const TablePtr& t,
                       const std::vector<SlicePredicate>& preds) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t->NumRows(); ++r) {
    bool match = true;
    for (const SlicePredicate& p : preds) {
      if (t->column(p.col).CodeAt(r) != p.code) {
        match = false;
        break;
      }
    }
    if (match) rows.push_back(r);
  }
  return TableView(t).WithRows(std::move(rows));
}

// The population engine of a slicing engine over `view`.
std::shared_ptr<CountEngine> Scanner(const TableView& view) {
  return std::make_shared<ViewCountProvider>(view);
}

// The tentpole property: for random tables, random equality predicates,
// and random column subsets, counts sliced from the shared full-table
// parent are bit-identical to a direct scan of the filtered view —
// including empty slices and predicate columns inside the query set.
TEST(PredicateSlicingCountEngineTest, SlicedCountsMatchDirectScan) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    TablePtr t = RandomTable(6, 1200 + 173 * seed, seed);
    Rng rng(seed * 53);

    std::vector<SlicePredicate> preds;
    const int num_preds = 1 + static_cast<int>(rng.NextBounded(2));
    for (int p = 0; p < num_preds; ++p) {
      int col;
      do {
        col = static_cast<int>(rng.NextBounded(6));
      } while (!preds.empty() && preds[0].col == col);
      // Occasionally one past the largest code — an empty slice.
      const int32_t card = t->column(col).Cardinality();
      const int32_t code =
          static_cast<int32_t>(rng.NextBounded(card + (p == 0 ? 1 : 0)));
      preds.push_back(SlicePredicate{col, code});
    }
    TableView view = EqualityView(t, preds);

    auto parent = std::make_shared<CachingCountEngine>(
        std::make_shared<ViewCountProvider>(TableView(t)));
    PredicateSlicingCountEngine engine(parent, preds, Scanner(view), *t);
    EXPECT_EQ(engine.NumRows(), view.NumRows());

    for (int trial = 0; trial < 12; ++trial) {
      std::vector<int> cols;
      for (int c = 0; c < 6; ++c) {
        if (rng.Bernoulli(0.4)) cols.push_back(c);
      }
      if (cols.empty()) cols.push_back(static_cast<int>(rng.NextBounded(6)));
      rng.Shuffle(&cols);

      auto sliced = engine.Counts(cols);
      ASSERT_TRUE(sliced.ok());
      auto direct = CountBy(view, cols);
      ASSERT_TRUE(direct.ok());
      ExpectSameCounts(*sliced, *direct);
    }
    // Every query was answered by slicing — the filtered view itself was
    // never scanned.
    CountEngineStats s = engine.stats();
    EXPECT_EQ(s.queries, 12);
    EXPECT_EQ(s.predicate_slices, 12);
    EXPECT_EQ(s.scans, 0);
  }
}

// Stats attribution through the full shard stack (shard cache over the
// slicer over a shared parent): every external query is attributed to
// exactly one of scan / cache_hit / marginalization / predicate_slice.
TEST(PredicateSlicingCountEngineTest, StackAttributesExactlyOnePerQuery) {
  TablePtr t = RandomTable(5, 4000, 19);
  std::vector<SlicePredicate> preds = {
      SlicePredicate{4, t->column(4).CodeAt(0)}};
  TableView view = EqualityView(t, preds);
  auto parent = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(TableView(t)));
  CachingCountEngine shard(std::make_shared<PredicateSlicingCountEngine>(
      parent, preds, Scanner(view), *t));

  ASSERT_TRUE(shard.Counts({0, 1, 2}).ok());  // predicate slice
  ASSERT_TRUE(shard.Counts({0, 1, 2}).ok());  // shard cache hit
  ASSERT_TRUE(shard.Counts({0, 1}).ok());     // shard marginalization
  ASSERT_TRUE(shard.Counts({3}).ok());        // predicate slice
  ASSERT_TRUE(shard.Counts({3, 3}).ok());     // dup columns: fallback scan
  CountEngineStats s = shard.stats();
  EXPECT_EQ(s.queries, 5);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.marginalizations, 1);
  EXPECT_EQ(s.predicate_slices, 2);
  EXPECT_EQ(s.scans, 1);  // the duplicate-column fallback
  EXPECT_EQ(s.queries,
            s.cache_hits + s.marginalizations + s.predicate_slices +
                s.scans);

  // The shared parent's work is accounted on the parent, not the shard:
  // both slices hit {0,1,2,4} first (scan) then {3,4} (scan) — and a
  // second shard over a different value reuses those summaries.
  CountEngineStats p = parent->stats();
  EXPECT_EQ(p.scans, 2);
  const int32_t other = (preds[0].code + 1) % t->column(4).Cardinality();
  std::vector<SlicePredicate> preds2 = {SlicePredicate{4, other}};
  TableView view2 = EqualityView(t, preds2);
  PredicateSlicingCountEngine sibling(parent, preds2, Scanner(view2), *t);
  auto sibling_counts = sibling.Counts({0, 1, 2});
  ASSERT_TRUE(sibling_counts.ok());
  auto sibling_direct = CountBy(view2, {0, 1, 2});
  ASSERT_TRUE(sibling_direct.ok());
  ExpectSameCounts(*sibling_counts, *sibling_direct);
  p = parent->stats();
  EXPECT_EQ(p.scans, 2);       // no new scan: the superset was shared
  EXPECT_EQ(p.cache_hits, 1);  // the sibling's slice reused {0,1,2,4}
}

// A query the parent cannot answer (full-table S ∪ P domain overflow)
// falls back to scanning the filtered view — same answer, one scan.
TEST(PredicateSlicingCountEngineTest, ParentFailureFallsBackToViewScan) {
  // Four 2^16-cardinality columns: the query columns {0,1,2} alone span
  // 2^48 (representable), but together with the predicate column the
  // S ∪ P domain is 2^64 > 2^62 — the parent's codec refuses it.
  constexpr int64_t kRows = 1 << 16;
  Table wide;
  for (int c = 0; c < 4; ++c) {
    ColumnBuilder b("w" + std::to_string(c));
    for (int64_t r = 0; r < kRows; ++r) {
      // Odd multipliers are coprime with 2^16, so every column takes all
      // 2^16 values.
      b.Append(std::to_string((r * (2 * c + 1)) % kRows));
    }
    ASSERT_TRUE(wide.AddColumn(b.Finish()).ok());
  }
  TablePtr t = MakeTable(std::move(wide));

  std::vector<SlicePredicate> preds = {SlicePredicate{3, 0}};
  TableView view = EqualityView(t, preds);
  auto parent = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(TableView(t)));
  PredicateSlicingCountEngine engine(parent, preds, Scanner(view), *t);

  auto counts = engine.Counts({0, 1, 2});
  ASSERT_TRUE(counts.ok());
  auto direct = CountBy(view, {0, 1, 2});
  ASSERT_TRUE(direct.ok());
  ExpectSameCounts(*counts, *direct);
  CountEngineStats s = engine.stats();
  EXPECT_EQ(s.predicate_slices, 0);
  EXPECT_EQ(s.scans, 1);

  // A narrow query on the same engine still slices.
  auto narrow = engine.Counts({0});
  ASSERT_TRUE(narrow.ok());
  ExpectSameCounts(*narrow, *CountBy(view, {0}));
  EXPECT_EQ(engine.stats().predicate_slices, 1);
}

// Prefetch on the production stack (shard cache over the slicer) flows
// down to the shared parent and pins S ∪ P there, so one materialization
// serves the focus queries of every sibling shard.
TEST(PredicateSlicingCountEngineTest, StackPrefetchPinsSharedSuperset) {
  TablePtr t = RandomTable(4, 3000, 23);
  std::vector<SlicePredicate> preds = {
      SlicePredicate{3, t->column(3).CodeAt(0)}};
  TableView view = EqualityView(t, preds);
  auto parent = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(TableView(t)));
  CachingCountEngine shard(std::make_shared<PredicateSlicingCountEngine>(
      parent, preds, Scanner(view), *t));

  ASSERT_TRUE(shard.Prefetch({0, 1, 2}).ok());
  // One full-table scan materialized (and pinned) {0,1,2,3} in the
  // parent; the shard's own focus summary was sliced from it.
  CountEngineStats p = parent->stats();
  EXPECT_EQ(p.scans, 1);
  EXPECT_GT(parent->pinned_cells(), 0);

  // A sibling shard's focus on the same columns is a parent cache hit.
  const int32_t other = (preds[0].code + 1) % t->column(3).Cardinality();
  std::vector<SlicePredicate> preds2 = {SlicePredicate{3, other}};
  TableView view2 = EqualityView(t, preds2);
  CachingCountEngine sibling(std::make_shared<PredicateSlicingCountEngine>(
      parent, preds2, Scanner(view2), *t));
  ASSERT_TRUE(sibling.Prefetch({0, 1, 2}).ok());
  p = parent->stats();
  EXPECT_EQ(p.scans, 1);  // no second scan
  auto counts = sibling.Counts({0, 2});
  ASSERT_TRUE(counts.ok());
  ExpectSameCounts(*counts, *CountBy(view2, {0, 2}));
  EXPECT_EQ(parent->stats().scans, 1);
}

// A parent whose cache budget provably cannot hold the S ∪ P summary
// would evict it on insert and re-scan the full table per slice; the
// slicer must scan its (cheaper) filtered view instead.
TEST(PredicateSlicingCountEngineTest, UncacheableSupersetScansTheView) {
  TablePtr t = RandomTable(4, 3000, 29);
  std::vector<SlicePredicate> preds = {
      SlicePredicate{3, t->column(3).CodeAt(0)}};
  TableView view = EqualityView(t, preds);

  CachingCountEngineOptions tiny;
  tiny.max_cached_cells = 2;  // nothing real fits
  auto parent = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(TableView(t)), tiny);
  PredicateSlicingCountEngine engine(parent, preds, Scanner(view), *t,
                                     tiny.max_cached_cells);

  auto counts = engine.Counts({0, 1});
  ASSERT_TRUE(counts.ok());
  ExpectSameCounts(*counts, *CountBy(view, {0, 1}));
  CountEngineStats s = engine.stats();
  EXPECT_EQ(s.predicate_slices, 0);
  EXPECT_EQ(s.scans, 1);           // the population's scan
  EXPECT_EQ(parent->stats().queries, 0);  // the parent was never asked

  // Prefetch refuses the same superset: nothing is materialized (let
  // alone pinned) in the shared parent for a summary Counts() won't use.
  ASSERT_TRUE(engine.Prefetch({0, 1}).ok());
  EXPECT_EQ(parent->stats().queries, 0);
  EXPECT_EQ(parent->num_entries(), 0);

  // With the budget unknown (0), the slice goes through as usual.
  PredicateSlicingCountEngine unguarded(parent, preds, Scanner(view), *t);
  auto sliced = unguarded.Counts({0, 1});
  ASSERT_TRUE(sliced.ok());
  ExpectSameCounts(*sliced, *CountBy(view, {0, 1}));
  EXPECT_EQ(unguarded.stats().predicate_slices, 1);
}

TEST(MiEngineCountStatsTest, MaterializationOffScansEveryTime) {
  TablePtr t = RandomTable(3, 1000, 71);
  MiEngine engine(TableView(t),
                  MiEngineOptions{.cache_entropies = false,
                                  .materialize_focus = false});
  ASSERT_TRUE(engine.Entropy({0, 1}).ok());
  ASSERT_TRUE(engine.Entropy({0, 1}).ok());
  EXPECT_EQ(engine.count_engine().stats().scans, 2);
}

}  // namespace
}  // namespace hypdb
