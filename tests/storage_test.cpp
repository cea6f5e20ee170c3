// Tests for src/storage: the chunked column store (chunk layout and
// watermark invariants, in-place and delta scans, scan input checks),
// summary merging across dictionary growth, growing filtered
// populations, and the caching engine's delta patching — every patched
// summary must be bit-identical to a cold rebuild of the grown table
// (the additive-counts property the whole ingest path rests on).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataframe/group_by.h"
#include "engine/caching_count_engine.h"
#include "engine/groupby_kernel.h"
#include "storage/chunked_count_provider.h"
#include "storage/chunked_table.h"
#include "util/rng.h"

namespace hypdb {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Labels "v0".."v<card-1>", so later batches with a larger `card` grow
// the dictionaries mid-stream.
Rows RandomRows(int64_t n, int cols, int card, Rng* rng) {
  Rows rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.reserve(cols);
    for (int c = 0; c < cols; ++c) {
      row.push_back("v" + std::to_string(rng->NextBounded(card)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TablePtr TableFromRows(const std::vector<std::string>& names,
                       const Rows& rows) {
  Table table;
  for (size_t c = 0; c < names.size(); ++c) {
    ColumnBuilder b(names[c]);
    for (const auto& row : rows) b.Append(row[c]);
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
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

// ---- chunk layout & publication ----------------------------------------

TEST(ChunkedTableTest, FromTableSplitsIntoChunks) {
  Rng rng(11);
  Rows seed_rows = RandomRows(10, 2, 3, &rng);
  auto table = ChunkedTable::FromTable(TableFromRows({"a", "b"}, seed_rows),
                                       /*chunk_rows=*/4);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->Watermark(), 10);
  EXPECT_EQ((*table)->NumChunks(), 3);  // 4 + 4 + 2
  EXPECT_EQ((*table)->chunk_rows(), 4);
  EXPECT_EQ((*table)->NumColumns(), 2);

  // Materialized round-trips the seed exactly.
  auto cold = ScanCounts(TableView(TableFromRows({"a", "b"}, seed_rows)),
                         {0, 1});
  auto warm = ScanCounts(TableView((*table)->Materialized()), {0, 1});
  ASSERT_TRUE(cold.ok() && warm.ok());
  ExpectSameCounts(*warm, *cold);
}

TEST(ChunkedTableTest, FromTableRejectsNonPositiveChunkRows) {
  Rng rng(12);
  TablePtr seed = TableFromRows({"a"}, RandomRows(4, 1, 2, &rng));
  EXPECT_FALSE(ChunkedTable::FromTable(seed, 0).ok());
  EXPECT_FALSE(ChunkedTable::FromTable(seed, -3).ok());
}

TEST(ChunkedTableTest, AppendPublishesAtomicallyAndValidatesArity) {
  Rng rng(13);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(5, 2, 3, &rng)), 4);
  ASSERT_TRUE(table.ok());

  // Wrong arity: nothing appended, watermark unchanged.
  EXPECT_FALSE((*table)->Append({{"v0"}}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);

  // Empty batch: valid no-op.
  EXPECT_TRUE((*table)->Append({}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);

  // A batch straddling a chunk boundary lands whole.
  EXPECT_TRUE((*table)->Append(RandomRows(6, 2, 3, &rng)).ok());
  EXPECT_EQ((*table)->Watermark(), 11);
  EXPECT_EQ((*table)->NumChunks(), 3);  // 4 + 4 + 3
}

TEST(ChunkedTableTest, ScanRangeSkipsChunksBelowFrom) {
  Rng rng(14);
  Rows all = RandomRows(20, 2, 3, &rng);
  Rows seed(all.begin(), all.begin() + 8);
  auto table =
      ChunkedTable::FromTable(TableFromRows({"a", "b"}, seed), 4);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(Rows(all.begin() + 8, all.end())).ok());

  // Delta over the appended suffix: the two seed chunks are skipped.
  ChunkedScanStats stats;
  auto delta = (*table)->ScanRange({0, 1}, 8, 20, {}, &stats);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(stats.chunks_skipped, 2);
  EXPECT_EQ(stats.rows_scanned, 12);
  EXPECT_EQ(stats.chunk_scans, 3);  // rows 8..19 live in chunks 2,3,4
  EXPECT_EQ(delta->total, 12);

  // The delta is exactly the cold counts of the suffix rows.
  auto cold = ScanCounts(
      TableView(TableFromRows({"a", "b"},
                              Rows(all.begin() + 8, all.end()))),
      {0, 1});
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(delta->NumGroups(), cold->NumGroups());
  EXPECT_EQ(delta->total, cold->total);

  // Out-of-range to_row is an error, not a quiet clamp.
  ChunkedScanStats ignored;
  EXPECT_FALSE((*table)->ScanRange({0}, 0, 21, {}, &ignored).ok());
}

TEST(ChunkedTableTest, ScanRangeRejectsColumnsOutsideSchemaBeforeScanning) {
  // Chunk code arrays are indexed by column directly, so the schema check
  // is the only thing between a bad index and an out-of-bounds read.
  Rng rng(15);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(10, 2, 3, &rng)), 4);
  ASSERT_TRUE(table.ok());
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{2}, {0, 2}, {-1}, {1, 99}}) {
    ChunkedScanStats stats;
    auto counts = (*table)->ScanRange(cols, 1, 9, {}, &stats);
    ASSERT_FALSE(counts.ok());
    EXPECT_EQ(counts.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(stats.chunk_scans, 0);
    EXPECT_EQ(stats.rows_scanned, 0);
  }
}

TEST(ChunkedTableTest, ScanRangeEmptyColumnListCountsTheRange) {
  Rng rng(16);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(10, 2, 3, &rng)), 4);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(RandomRows(7, 2, 3, &rng)).ok());
  // [3, 14): both ends mid-chunk, spanning four chunks.
  ChunkedScanStats stats;
  auto counts = (*table)->ScanRange({}, 3, 14, {}, &stats);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->NumGroups(), 1);
  EXPECT_EQ(counts->keys[0], 0u);
  EXPECT_EQ(counts->counts[0], 11);
  EXPECT_EQ(counts->total, 11);
  EXPECT_EQ(stats.chunk_scans, 4);
  EXPECT_EQ(stats.rows_scanned, 11);
}

// ---- snapshots share the store's dictionaries --------------------------

TEST(ChunkedTableTest, SnapshotsShareDictionariesAndKeepTheirPrefix) {
  // "n" is numeric until the append brings "late"; "k" gains labels too.
  Rows seed = {{"0", "k0"}, {"1", "k1"}, {"0", "k2"}};
  Rows batch = {{"2", "k3"}, {"late", "k0"}, {"1", "k4"}};
  auto table = ChunkedTable::FromTable(TableFromRows({"n", "k"}, seed), 2);
  ASSERT_TRUE(table.ok());
  TablePtr before = (*table)->Materialized();
  ChunkedScanStats stats;
  auto range_before = (*table)->ScanRange({0, 1}, 0, 3, {}, &stats);
  ASSERT_TRUE(range_before.ok());

  ASSERT_TRUE((*table)->Append(batch).ok());
  TablePtr after = (*table)->Materialized();
  auto range_after = (*table)->ScanRange({0, 1}, 0, 6, {}, &stats);
  ASSERT_TRUE(range_after.ok());

  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(&after->column(c).dict().Label(0),
              &before->column(c).dict().Label(0));
  }
  const Column& n_before = before->column(0);
  const Column& n_after = after->column(0);
  EXPECT_EQ(n_before.Cardinality(), 2);
  EXPECT_EQ(n_after.Cardinality(), 4);
  EXPECT_EQ(before->column(1).Cardinality(), 3);
  EXPECT_EQ(after->column(1).Cardinality(), 5);

  EXPECT_EQ(n_before.dict().Find("1"), 1);
  EXPECT_EQ(n_before.dict().Find("2"), -1);
  EXPECT_EQ(n_before.dict().Find("late"), -1);
  EXPECT_EQ(n_after.dict().Find("late"), 3);
  EXPECT_EQ(before->column(1).dict().Find("k4"), -1);
  EXPECT_EQ(after->column(1).dict().Find("k4"), 4);

  EXPECT_TRUE(n_before.IsNumericLike());
  EXPECT_FALSE(n_after.IsNumericLike());
  EXPECT_DOUBLE_EQ(*n_before.NumericValue(1), 1.0);
  EXPECT_EQ(n_before.NumericValue(2).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_DOUBLE_EQ(*n_after.NumericValue(2), 2.0);
  EXPECT_FALSE(n_after.NumericValue(3).ok());

  // Each snapshot counts exactly what the store counted at its watermark.
  auto scan_before = ScanCounts(TableView(before), {0, 1});
  auto scan_after = ScanCounts(TableView(after), {0, 1});
  ASSERT_TRUE(scan_before.ok() && scan_after.ok());
  ExpectSameCounts(*scan_before, *range_before);
  ExpectSameCounts(*scan_after, *range_after);
}

TEST(ChunkedTableTest, OlderSnapshotsReadStableWhileAppendsGrowTheStore) {
  // One writer appends batches whose "key" and "num" labels are all new
  // (numeric for "num") and whose "mix" column turns non-numeric midway;
  // readers meanwhile take snapshots and re-read every older one's
  // labels, codes and numeric values against what they recorded when
  // they took it. Meant for the thread sanitizer as much as for the
  // assertions.
  constexpr int kBatches = 120;
  constexpr int kBatchRows = 6;
  constexpr int kReaders = 2;
  auto table = ChunkedTable::FromTable(
      TableFromRows({"key", "num", "mix"}, {{"k0", "0", "0"}}), 16);
  ASSERT_TRUE(table.ok());
  const ChunkedTablePtr store = *table;

  struct Recorded {
    TablePtr snapshot;
    std::vector<std::vector<std::string>> labels;  // [col][code]
    std::vector<std::vector<double>> values;
    std::vector<bool> numeric_like;
  };
  auto record = [](TablePtr snapshot) {
    Recorded r;
    r.snapshot = std::move(snapshot);
    for (int c = 0; c < r.snapshot->NumColumns(); ++c) {
      const Dictionary& dict = r.snapshot->column(c).dict();
      r.labels.emplace_back();
      r.values.emplace_back();
      for (int32_t code = 0; code < dict.size(); ++code) {
        r.labels.back().push_back(dict.Label(code));
        r.values.back().push_back(dict.NumericValue(code));
      }
      r.numeric_like.push_back(dict.IsNumericLike());
    }
    return r;
  };
  // Returns the number of mismatches, so reader threads only count.
  auto verify = [](const Recorded& r) {
    int bad = 0;
    for (int c = 0; c < r.snapshot->NumColumns(); ++c) {
      const Column& col = r.snapshot->column(c);
      const Dictionary& dict = col.dict();
      const int32_t size = static_cast<int32_t>(r.labels[c].size());
      bad += dict.size() != size;
      bad += col.IsNumericLike() != r.numeric_like[c];
      for (int32_t code = 0; code < size; ++code) {
        bad += dict.Label(code) != r.labels[c][code];
        bad += dict.Find(r.labels[c][code]) != code;
        const double v = dict.NumericValue(code);
        const double want = r.values[c][code];
        bad += !(v == want || (std::isnan(v) && std::isnan(want)));
      }
    }
    // Labels arriving later stay invisible to this prefix.
    const int64_t rows = r.snapshot->NumRows();
    bad += r.snapshot->column(0).dict().Find("k" + std::to_string(rows)) != -1;
    bad += r.snapshot->column(2).IsNumericLike() !=
           (r.snapshot->column(2).dict().Find("late") < 0);
    return bad;
  };

  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<Recorded> seen = {record(store->Materialized())};
      started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        seen.push_back(record(store->Materialized()));
        for (const Recorded& r : seen) mismatches[t] += verify(r);
        if (seen.size() > 8) seen.erase(seen.begin() + 1);  // keep the first
      }
      for (const Recorded& r : seen) mismatches[t] += verify(r);
    });
  }
  // Every reader holds a snapshot before the store starts growing.
  while (started.load() < kReaders) std::this_thread::yield();
  int64_t row = 1;
  for (int b = 0; b < kBatches; ++b) {
    Rows batch;
    for (int i = 0; i < kBatchRows; ++i, ++row) {
      std::string mix = std::to_string(row % 3);
      if (i == 0 && b == kBatches / 2) mix = "late";
      if (i == 0 && b > kBatches / 2) mix = "m" + std::to_string(b);
      batch.push_back({"k" + std::to_string(row), std::to_string(row), mix});
    }
    const bool appended = store->Append(batch).ok();
    EXPECT_TRUE(appended) << "batch " << b;
    if (!appended) break;  // still join the readers below
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  }
  const Recorded last = record(store->Materialized());
  EXPECT_EQ(last.snapshot->NumRows(), 1 + kBatches * kBatchRows);
  EXPECT_EQ(static_cast<int64_t>(last.labels[0].size()),
            last.snapshot->NumRows());
  EXPECT_FALSE(last.numeric_like[2]);
  EXPECT_TRUE(last.numeric_like[1]);
  EXPECT_EQ(verify(last), 0);
}

// ---- MergeGroupCounts across dictionary growth -------------------------

TEST(MergeGroupCountsTest, ReKeysOntoGrownCodec) {
  // A prefix summary computed under the pre-append (smaller) codec plus
  // a delta summary under the grown codec must merge onto the grown
  // codec to exactly one scan of the whole table. Dictionary codes are
  // append-only, so the prefix's codes mean the same thing afterwards —
  // the property MergeGroupCounts rests on.
  Rows first = {{"v0", "v0"}, {"v1", "v0"}, {"v0", "v1"}};
  Rows second = {{"v0", "v2"}, {"v2", "v1"}, {"v1", "v2"}, {"v2", "v2"}};
  auto table =
      ChunkedTable::FromTable(TableFromRows({"x", "y"}, first), 2);
  ASSERT_TRUE(table.ok());

  ChunkedScanStats stats;
  auto a = (*table)->ScanRange({0, 1}, 0, 3, {}, &stats);  // small codec
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*table)->Append(second).ok());
  auto b = (*table)->ScanRange({0, 1}, 3, 7, {}, &stats);  // grown codec
  auto full = (*table)->ScanRange({0, 1}, 0, 7, {}, &stats);
  ASSERT_TRUE(b.ok() && full.ok());
  ASSERT_LT(a->codec.Domain(), full->codec.Domain());

  GroupCounts merged = MergeGroupCounts(*a, *b, full->codec);
  ExpectSameCounts(merged, *full);

  // Merging with an empty summary is the identity (re-keyed).
  GroupCounts empty;
  empty.codec = a->codec;
  GroupCounts same = MergeGroupCounts(*full, empty, full->codec);
  ExpectSameCounts(same, *full);
}

// ---- the property: delta-patched counts == cold rebuild ----------------

TEST(StoragePropertyTest, DeltaScansMatchColdRebuildAcrossConfigs) {
  // Sweep chunk sizes x batch sizes x kernel threading x SIMD on/off; at
  // every step, counts from the chunked store (full, delta, and a range
  // with both ends mid-chunk) must be bit-identical to a cold scan of the
  // same rows of the grown table. Batches include empties and grow the
  // dictionaries mid-stream (card 2 -> 7). Chunks of 128 rows put the
  // in-place spans' SIMD bodies and scalar tails at unaligned offsets.
  // A random IN selection, counted by a chain of successor providers,
  // must match a cold filter of the grown table the same way; its labels
  // include ones that arrive only in later batches.
  const std::vector<int64_t> kChunkRows = {1, 3, 7, 64, 128};
  const std::vector<int> kThreads = {1, 4};
  const std::vector<std::vector<int>> kColSets = {{0}, {1, 2}, {0, 1, 2}};

  for (int64_t chunk_rows : kChunkRows) {
    for (int threads : kThreads) {
      for (bool simd : {true, false}) {
        SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                     " threads=" + std::to_string(threads) +
                     " simd=" + std::to_string(simd));
        Rng rng(100 * chunk_rows + threads);
        GroupByKernelOptions kernel;
        kernel.num_threads = threads;
        kernel.parallel_min_rows = 16;  // exercise the threaded path
        kernel.use_simd = simd;

        Rows all = RandomRows(20, 3, 2, &rng);
        auto table = ChunkedTable::FromTable(
            TableFromRows({"a", "b", "c"}, all), chunk_rows);
        ASSERT_TRUE(table.ok());

        // a IN (random labels of v0..v7), and now and then c IN (...).
        std::vector<SubpopulationTerm> terms;
        for (const std::string& attr : {"a", "c"}) {
          if (attr == "c" && rng.NextBounded(2) == 0) continue;
          SubpopulationTerm term{attr, {}};
          for (int v = 0; v < 8; ++v) {
            if (rng.NextBounded(2) == 0) {
              term.values.push_back("v" + std::to_string(v));
            }
          }
          terms.push_back(std::move(term));
        }
        std::vector<std::pair<std::string, std::vector<std::string>>> where;
        for (const SubpopulationTerm& t : terms) {
          where.emplace_back(t.attribute, t.values);
        }
        auto selected = ChunkedCountProvider::Create(
            *table, terms, (*table)->Watermark(), kernel);
        ASSERT_TRUE(selected.ok()) << selected.status();

        int64_t last = (*table)->Watermark();
        for (int step = 0; step < 6; ++step) {
          const int card = 2 + step;  // dictionary growth mid-stream
          Rows batch =
              RandomRows(rng.NextBounded(3) == 0 ? 0 : rng.NextBounded(40),
                         3, card, &rng);
          all.insert(all.end(), batch.begin(), batch.end());
          ASSERT_TRUE((*table)->Append(batch).ok());
          ASSERT_EQ((*table)->Watermark(),
                    static_cast<int64_t>(all.size()));

          TablePtr cold_table = TableFromRows({"a", "b", "c"}, all);
          auto pred = Predicate::FromInLists(*cold_table, where);
          ASSERT_TRUE(pred.ok());
          const TableView cold_selected = TableView(cold_table).Filter(*pred);
          auto grown = (*selected)->Successor((*table)->Watermark());
          ASSERT_TRUE(grown.ok()) << grown.status();
          selected = std::move(grown);
          EXPECT_EQ((*selected)->NumRows(), cold_selected.NumRows());
          for (const auto& cols : kColSets) {
            auto cold = ScanCounts(TableView(cold_table), cols, kernel);
            ChunkedScanStats stats;
            auto warm = (*table)->ScanRange(cols, 0, (*table)->Watermark(),
                                            kernel, &stats);
            ASSERT_TRUE(cold.ok() && warm.ok());
            ExpectSameCounts(*warm, *cold);

            // Delta + prefix == full, under the grown codec.
            ChunkedScanStats delta_stats;
            auto prefix = (*table)->ScanRange(cols, 0, last, kernel,
                                              &delta_stats);
            auto delta = (*table)->ScanRange(cols, last,
                                             (*table)->Watermark(), kernel,
                                             &delta_stats);
            ASSERT_TRUE(prefix.ok() && delta.ok());
            GroupCounts patched =
                MergeGroupCounts(*prefix, *delta, cold->codec);
            ExpectSameCounts(patched, *cold);

            // [from, to) with both ends mid-chunk (when chunks hold more
            // than one row) against a cold scan of exactly those rows.
            const int64_t w = (*table)->Watermark();
            int64_t from = static_cast<int64_t>(rng.NextBounded(w + 1));
            if (from % chunk_rows == 0 && from < w) ++from;
            int64_t to =
                from + static_cast<int64_t>(rng.NextBounded(w - from + 1));
            if (to % chunk_rows == 0 && to > from) --to;
            std::vector<int64_t> ids;
            for (int64_t r = from; r < to; ++r) ids.push_back(r);
            auto cold_range = ScanCounts(
                TableView(cold_table).WithRows(std::move(ids)), cols, kernel);
            ChunkedScanStats range_stats;
            auto range = (*table)->ScanRange(cols, from, to, kernel,
                                             &range_stats);
            ASSERT_TRUE(cold_range.ok() && range.ok());
            ExpectSameCounts(*range, *cold_range);
            EXPECT_EQ(range_stats.rows_scanned, to - from);

            // The selection: all of it, and [from, to) alone.
            auto cold_all = ScanCounts(cold_selected, cols, kernel);
            CountEngineStats before = (*selected)->stats();
            auto all_selected = (*selected)->Counts(cols);
            ASSERT_TRUE(cold_all.ok() && all_selected.ok());
            ExpectSameCounts(*all_selected, *cold_all);
            EXPECT_EQ((*selected)->stats().rows_scanned - before.rows_scanned,
                      cold_selected.NumRows());
            std::vector<int64_t> picked;
            for (int64_t r : *cold_selected.row_ids()) {
              if (r >= from && r < to) picked.push_back(r);
            }
            const int64_t num_picked = static_cast<int64_t>(picked.size());
            auto cold_picked = ScanCounts(
                TableView(cold_table).WithRows(std::move(picked)), cols,
                kernel);
            before = (*selected)->stats();
            auto delta_selected = (*selected)->CountsDelta(cols, from, to);
            ASSERT_TRUE(cold_picked.ok() && delta_selected.ok());
            ExpectSameCounts(*delta_selected, *cold_picked);
            EXPECT_EQ((*selected)->stats().rows_scanned - before.rows_scanned,
                      num_picked);
          }
          last = (*table)->Watermark();
        }
      }
    }
  }
}

TEST(StoragePropertyTest, CachingEngineDeltaPatchMatchesColdRebuild) {
  // The end-to-end engine property: after each append, the next
  // generation of a CachingCountEngine over the chunked provider, seeded
  // from the previous one's cache, answers by patching the cached
  // summaries; results must equal a cold rebuild and the work must be a
  // delta, not a rescan.
  Rng rng(42);
  Rows all = RandomRows(200, 3, 3, &rng);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b", "c"}, all), /*chunk_rows=*/32);
  ASSERT_TRUE(table.ok());

  auto cache = std::make_shared<CachingCountEngine>(
      std::make_shared<ChunkedCountProvider>(*table, (*table)->Watermark()));
  const std::vector<int> cols = {0, 1};
  ASSERT_TRUE(cache->Counts(cols).ok());  // warm the cache
  CountEngineStats stats = cache->stats();

  for (int step = 0; step < 4; ++step) {
    Rows batch = RandomRows(25, 3, 3 + step, &rng);
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_TRUE((*table)->Append(batch).ok());

    cache = std::make_shared<CachingCountEngine>(
        std::make_shared<ChunkedCountProvider>(*table, (*table)->Watermark()),
        *cache);
    auto patched = cache->Counts(cols);
    auto cold =
        ScanCounts(TableView(TableFromRows({"a", "b", "c"}, all)), cols);
    ASSERT_TRUE(patched.ok() && cold.ok());
    ExpectSameCounts(*patched, *cold);
    stats += cache->stats();
  }

  EXPECT_EQ(stats.delta_patches, 4);
  // Patch scans touched only appended chunks: strictly less work than
  // one cold rescan per step would have been.
  EXPECT_GT(stats.chunks_skipped, 0);
  EXPECT_LT(stats.rows_scanned,
            static_cast<int64_t>(all.size()) * 4);
}

// ---- growing filtered populations --------------------------------------

TEST(FilteredPopulationTest, GrowsWithAppendsAndMatchesColdFilter) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}, {"x", "v1"}, {"y", "v0"}};
  auto table =
      ChunkedTable::FromTable(TableFromRows({"g", "o"}, seed), 2);
  ASSERT_TRUE(table.ok());

  auto shard = ChunkedCountProvider::Create(*table, {{"g", {"x"}}},
                                            (*table)->Watermark());
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 2);

  auto before = (*shard)->Counts({1});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->total, 2);

  // Appended matching rows join the successor's population; others
  // don't, and the provider itself keeps counting its watermark.
  ASSERT_TRUE(
      (*table)->Append({{"x", "v2"}, {"y", "v2"}, {"x", "v0"}}).ok());
  EXPECT_EQ((*shard)->NumRows(), 2);
  auto grown = (*shard)->Successor((*table)->Watermark());
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->NumRows(), 4);
  auto after = (*grown)->Counts({1});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->total, 4);

  // Delta over the appended range covers exactly the two new matches.
  auto delta = (*grown)->CountsDelta({1}, 4, 7);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->total, 2);
  // Neither a delta nor a successor reaches past the watermark.
  EXPECT_EQ((*shard)->CountsDelta({1}, 4, 7).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*grown)->Successor(8).status().code(), StatusCode::kOutOfRange);

  // Unknown column is a creation-time error.
  EXPECT_EQ(ChunkedCountProvider::Create(*table, {{"nope", {"x"}}},
                                         (*table)->Watermark())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FilteredPopulationTest, LabelArrivingInLaterAppendStartsMatching) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}};
  auto table =
      ChunkedTable::FromTable(TableFromRows({"g", "o"}, seed), 2);
  ASSERT_TRUE(table.ok());

  // "z" doesn't exist yet; the shard is just empty, not an error.
  auto shard = ChunkedCountProvider::Create(*table, {{"g", {"z"}}},
                                            (*table)->Watermark());
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 0);

  ASSERT_TRUE((*table)->Append({{"z", "v0"}, {"x", "v1"}}).ok());
  auto grown = (*shard)->Successor((*table)->Watermark());
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->NumRows(), 1);
  auto counts = (*grown)->Counts({1});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->total, 1);
}

}  // namespace
}  // namespace hypdb
