// Tests for src/storage: the column store (one append-only code array
// per column, watermark publication, growth by doubling, in-place and
// delta scans, scan input checks), snapshots that share the store's
// codes and labels, summary merging across dictionary growth, the
// registry's growing filtered shards, and the caching engine's delta
// patching — every patched summary must be bit-identical to a cold
// rebuild of the grown table (the additive-counts property the whole
// ingest path rests on).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataframe/group_by.h"
#include "dataframe/predicate.h"
#include "engine/caching_count_engine.h"
#include "engine/groupby_kernel.h"
#include "service/dataset_registry.h"
#include "service/request.h"
#include "storage/chunked_table.h"
#include "util/rng.h"

namespace hypdb {
namespace {

using Rows = std::vector<std::vector<std::string>>;
using Where = std::vector<std::pair<std::string, std::vector<std::string>>>;

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

bool SameCounts(const GroupCounts& a, const GroupCounts& b) {
  return a.codec.cols() == b.codec.cols() && a.total == b.total &&
         a.keys == b.keys && a.counts == b.counts;
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

// `counts` re-keyed under `codec` (cardinalities at least its own): how
// a cold scan of a prefix compares with a store scan under the store's
// current dictionary sizes.
GroupCounts Rekeyed(const GroupCounts& counts, const TupleCodec& codec) {
  GroupCounts empty;
  empty.codec = codec;
  return MergeGroupCounts(counts, empty, codec);
}

// The canonical signature of `where`.
std::string SignatureOf(const Where& where) {
  AggQuery query;
  query.where = where;
  return SubpopulationSignature(query);
}

// ---- one code array per column -----------------------------------------

TEST(ChunkedTableTest, FromTableCopiesTheSeedOnce) {
  Rng rng(11);
  Rows seed_rows = RandomRows(10, 2, 3, &rng);
  TablePtr seed = TableFromRows({"a", "b"}, seed_rows);
  auto table = ChunkedTable::FromTable(seed);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->Watermark(), 10);
  EXPECT_EQ((*table)->NumColumns(), 2);
  EXPECT_FALSE(ChunkedTable::FromTable(nullptr).ok());

  // Materialized round-trips the seed exactly, from the store's own
  // copy of the codes (the seed is not kept).
  TablePtr snapshot = (*table)->Materialized();
  for (int c = 0; c < 2; ++c) {
    EXPECT_NE(snapshot->column(c).codes().data(),
              seed->column(c).codes().data());
    EXPECT_TRUE(std::equal(snapshot->column(c).codes().begin(),
                           snapshot->column(c).codes().end(),
                           seed->column(c).codes().begin(),
                           seed->column(c).codes().end()));
  }
  auto cold = ScanCounts(TableView(seed), {0, 1});
  auto warm = ScanCounts(TableView(snapshot), {0, 1});
  ASSERT_TRUE(cold.ok() && warm.ok());
  ExpectSameCounts(*warm, *cold);
}

TEST(ChunkedTableTest, AppendPublishesAtomicallyAndValidatesArity) {
  Rng rng(13);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(5, 2, 3, &rng)));
  ASSERT_TRUE(table.ok());

  // Wrong arity: nothing appended, watermark unchanged.
  EXPECT_FALSE((*table)->Append({{"v0"}}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);

  // Empty batch: valid no-op.
  EXPECT_TRUE((*table)->Append({}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);

  // A batch that outgrows the arrays lands whole.
  EXPECT_TRUE((*table)->Append(RandomRows(40, 2, 3, &rng)).ok());
  EXPECT_EQ((*table)->Watermark(), 45);
  EXPECT_EQ((*table)->Materialized()->NumRows(), 45);
}

TEST(ChunkedTableTest, ScanRangeCountsARangeInPlace) {
  Rng rng(14);
  Rows all = RandomRows(20, 2, 3, &rng);
  Rows seed(all.begin(), all.begin() + 8);
  auto table = ChunkedTable::FromTable(TableFromRows({"a", "b"}, seed));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(Rows(all.begin() + 8, all.end())).ok());

  // Delta over the appended suffix reads the suffix alone.
  ChunkedScanStats stats;
  auto delta = (*table)->ScanRange({0, 1}, 8, 20, {}, &stats);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(stats.rows_scanned, 12);
  EXPECT_EQ(delta->total, 12);

  // The delta is exactly the cold counts of the suffix rows.
  std::vector<int64_t> suffix;
  for (int64_t r = 8; r < 20; ++r) suffix.push_back(r);
  auto cold = ScanCounts(
      TableView(TableFromRows({"a", "b"}, all)).WithRows(suffix), {0, 1});
  ASSERT_TRUE(cold.ok());
  ExpectSameCounts(*delta, *cold);

  // Out-of-range to_row is an error, not a quiet clamp.
  ChunkedScanStats ignored;
  EXPECT_FALSE((*table)->ScanRange({0}, 0, 21, {}, &ignored).ok());
}

TEST(ChunkedTableTest, ScanRangeRejectsColumnsOutsideSchemaBeforeScanning) {
  // Code arrays are indexed by column directly, so the schema check is
  // the only thing between a bad index and an out-of-bounds read.
  Rng rng(15);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(10, 2, 3, &rng)));
  ASSERT_TRUE(table.ok());
  for (const std::vector<int>& cols :
       std::vector<std::vector<int>>{{2}, {0, 2}, {-1}, {1, 99}}) {
    ChunkedScanStats stats;
    auto counts = (*table)->ScanRange(cols, 1, 9, {}, &stats);
    ASSERT_FALSE(counts.ok());
    EXPECT_EQ(counts.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(stats.rows_scanned, 0);
  }
}

TEST(ChunkedTableTest, ScanRangeEmptyColumnListCountsTheRange) {
  Rng rng(16);
  auto table = ChunkedTable::FromTable(
      TableFromRows({"a", "b"}, RandomRows(10, 2, 3, &rng)));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(RandomRows(17, 2, 3, &rng)).ok());
  // [3, 14): both ends inside the seed's rows and the appended ones.
  ChunkedScanStats stats;
  auto counts = (*table)->ScanRange({}, 3, 14, {}, &stats);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->NumGroups(), 1);
  EXPECT_EQ(counts->keys[0], 0u);
  EXPECT_EQ(counts->counts[0], 11);
  EXPECT_EQ(counts->total, 11);
  EXPECT_EQ(stats.rows_scanned, 11);
  // An empty range counts nothing.
  auto none = (*table)->ScanRange({0}, 5, 5, {}, &stats);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->total, 0);
  EXPECT_EQ(none->NumGroups(), 0);
  EXPECT_EQ(stats.rows_scanned, 11);
}

// ---- snapshots share the store's codes ---------------------------------

TEST(ChunkedTableTest, SnapshotsShareTheStoresCodeArrays) {
  // 10 seed rows leave room for 20: snapshots taken until then are
  // handles on one array per column; the append that outgrows it moves
  // the store to a new array, and the older snapshots keep reading
  // theirs unchanged.
  Rng rng(17);
  Rows all = RandomRows(10, 2, 4, &rng);
  auto table = ChunkedTable::FromTable(TableFromRows({"a", "b"}, all));
  ASSERT_TRUE(table.ok());
  TablePtr first = (*table)->Materialized();
  EXPECT_EQ((*table)->Materialized(), first);  // cached per watermark
  Rows batch = RandomRows(6, 2, 6, &rng);
  all.insert(all.end(), batch.begin(), batch.end());
  ASSERT_TRUE((*table)->Append(batch).ok());
  TablePtr second = (*table)->Materialized();
  ASSERT_EQ(second->NumRows(), 16);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(second->column(c).codes().data(),
              first->column(c).codes().data());
  }

  batch = RandomRows(30, 2, 8, &rng);
  all.insert(all.end(), batch.begin(), batch.end());
  ASSERT_TRUE((*table)->Append(batch).ok());
  TablePtr grown = (*table)->Materialized();
  ASSERT_EQ(grown->NumRows(), 46);
  TablePtr cold = TableFromRows({"a", "b"}, all);
  for (int c = 0; c < 2; ++c) {
    EXPECT_NE(grown->column(c).codes().data(),
              second->column(c).codes().data());
    // Every snapshot reads exactly the codes of its prefix.
    for (const TablePtr& snapshot : {first, second, grown}) {
      const auto codes = snapshot->column(c).codes();
      ASSERT_EQ(static_cast<int64_t>(codes.size()), snapshot->NumRows());
      EXPECT_TRUE(std::equal(codes.begin(), codes.end(),
                             cold->column(c).codes().begin()));
    }
  }
  // A scan of the grown store counts what the older snapshot counts.
  ChunkedScanStats stats;
  auto scanned = (*table)->ScanRange({0, 1}, 0, 16, {}, &stats);
  auto from_second = ScanCounts(TableView(second), {0, 1});
  ASSERT_TRUE(scanned.ok() && from_second.ok());
  ExpectSameCounts(*scanned, Rekeyed(*from_second, scanned->codec));
}

// ---- snapshots share the store's dictionaries --------------------------

TEST(ChunkedTableTest, SnapshotsShareDictionariesAndKeepTheirPrefix) {
  // "n" is numeric until the append brings "late"; "k" gains labels too.
  Rows seed = {{"0", "k0"}, {"1", "k1"}, {"0", "k2"}};
  Rows batch = {{"2", "k3"}, {"late", "k0"}, {"1", "k4"}};
  auto table = ChunkedTable::FromTable(TableFromRows({"n", "k"}, seed));
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
      TableFromRows({"key", "num", "mix"}, {{"k0", "0", "0"}}));
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
  std::atomic<int> rounds{0};
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
      ChunkedTable::FromTable(TableFromRows({"x", "y"}, first));
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
  // Sweep append batch sizes x kernel threading x SIMD on/off. A 20-row
  // seed leaves room for 40 rows, and every sweep appends enough batches
  // (a quarter of them empty) to cross at least two capacity doublings.
  // At every step, counts from the store (full, prefix + delta, and a
  // range with both ends anywhere) must be bit-identical to a cold scan
  // of the same rows of the grown table; the dictionaries grow
  // mid-stream (card 2 -> 7). A random IN selection, counted by the
  // registry's chain of successor shards and by a view of each snapshot
  // under the swept kernel, must match a cold filter of the grown table
  // the same way; its labels include ones that arrive only in later
  // batches.
  const std::vector<int64_t> kBatchRows = {1, 3, 7, 64, 128};
  const std::vector<int> kThreads = {1, 4};
  const std::vector<std::vector<int>> kColSets = {{0}, {1, 2}, {0, 1, 2}};
  const std::vector<std::string> kNames = {"a", "b", "c"};

  for (int64_t batch_rows : kBatchRows) {
    for (int threads : kThreads) {
      for (bool simd : {true, false}) {
        SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) +
                     " threads=" + std::to_string(threads) +
                     " simd=" + std::to_string(simd));
        Rng rng(100 * batch_rows + threads);
        GroupByKernelOptions kernel;
        kernel.num_threads = threads;
        kernel.parallel_min_rows = 16;  // exercise the threaded path
        kernel.use_simd = simd;

        Rows all = RandomRows(20, 3, 2, &rng);
        DatasetRegistryOptions options;
        options.engine.scan_threads = threads;
        options.engine.scan_simd = simd;
        DatasetRegistry registry(options);
        const int64_t epoch =
            registry.Register("t", TableFromRows(kNames, all));
        auto store = registry.Store("t");
        ASSERT_TRUE(store.ok());
        const std::shared_ptr<const ChunkedTable> table = *store;

        // a IN (random labels of v0..v7), and now and then c IN (...).
        Where where;
        for (const std::string& attr : {"a", "c"}) {
          if (attr == "c" && rng.NextBounded(2) == 0) continue;
          std::vector<std::string> values;
          for (int v = 0; v < 8; ++v) {
            if (rng.NextBounded(2) == 0) {
              values.push_back("v" + std::to_string(v));
            }
          }
          where.emplace_back(attr, std::move(values));
        }
        const std::string signature = SignatureOf(where);

        const int steps = static_cast<int>(240 / batch_rows) + 6;
        int64_t last = table->Watermark();
        for (int step = 0; step < steps; ++step) {
          const int card = 2 + 6 * step / steps;  // dictionary growth
          Rows batch = RandomRows(
              rng.NextBounded(4) == 0 ? 0 : batch_rows, 3, card, &rng);
          all.insert(all.end(), batch.begin(), batch.end());
          ASSERT_TRUE(registry.AppendRows("t", batch).ok());
          const int64_t w = table->Watermark();
          ASSERT_EQ(w, static_cast<int64_t>(all.size()));

          TablePtr cold_table = TableFromRows(kNames, all);
          auto pred = Predicate::FromInLists(*cold_table, where);
          ASSERT_TRUE(pred.ok());
          const TableView cold_selected = TableView(cold_table).Filter(*pred);
          TablePtr snapshot = *registry.Get("t");
          auto shard = registry.ShardEngine("t", epoch, signature, snapshot);
          ASSERT_TRUE(shard.ok()) << shard.status();
          EXPECT_EQ((*shard)->NumRows(), cold_selected.NumRows());
          auto snapshot_pred = Predicate::FromInLists(*snapshot, where);
          ASSERT_TRUE(snapshot_pred.ok());
          ViewCountProvider selected(TableView(snapshot).Filter(*snapshot_pred),
                                     kernel);

          // [from, to) with both ends anywhere, and the selected rows in it.
          const int64_t from = static_cast<int64_t>(rng.NextBounded(w + 1));
          const int64_t to =
              from + static_cast<int64_t>(rng.NextBounded(w - from + 1));
          std::vector<int64_t> range_ids;
          for (int64_t r = from; r < to; ++r) range_ids.push_back(r);
          std::vector<int64_t> picked;
          for (int64_t r : *cold_selected.row_ids()) {
            if (r >= from && r < to) picked.push_back(r);
          }
          const int64_t num_picked = static_cast<int64_t>(picked.size());

          for (const auto& cols : kColSets) {
            auto cold = ScanCounts(TableView(cold_table), cols, kernel);
            ChunkedScanStats stats;
            auto warm = table->ScanRange(cols, 0, w, kernel, &stats);
            ASSERT_TRUE(cold.ok() && warm.ok());
            ExpectSameCounts(*warm, *cold);
            EXPECT_EQ(stats.rows_scanned, w);

            // Delta + prefix == full, under the grown codec.
            ChunkedScanStats delta_stats;
            auto prefix = table->ScanRange(cols, 0, last, kernel, &delta_stats);
            auto delta = table->ScanRange(cols, last, w, kernel, &delta_stats);
            ASSERT_TRUE(prefix.ok() && delta.ok());
            ExpectSameCounts(MergeGroupCounts(*prefix, *delta, cold->codec),
                             *cold);
            EXPECT_EQ(delta_stats.rows_scanned, w);

            auto cold_range = ScanCounts(
                TableView(cold_table).WithRows(range_ids), cols, kernel);
            ChunkedScanStats range_stats;
            auto range = table->ScanRange(cols, from, to, kernel, &range_stats);
            ASSERT_TRUE(cold_range.ok() && range.ok());
            ExpectSameCounts(*range, *cold_range);
            EXPECT_EQ(range_stats.rows_scanned, to - from);

            // The selection: all of it, and [from, to) alone, through the
            // shard and through the snapshot view under the swept kernel.
            auto cold_all = ScanCounts(cold_selected, cols, kernel);
            auto cold_picked = ScanCounts(
                TableView(cold_table).WithRows(picked), cols, kernel);
            ASSERT_TRUE(cold_all.ok() && cold_picked.ok());
            for (CountEngine* engine :
                 {static_cast<CountEngine*>(shard->get()),
                  static_cast<CountEngine*>(&selected)}) {
              auto all_selected = engine->Counts(cols);
              ASSERT_TRUE(all_selected.ok()) << all_selected.status();
              ExpectSameCounts(*all_selected, *cold_all);
              const CountEngineStats before = engine->stats();
              auto delta_selected = engine->CountsDelta(cols, from, to);
              ASSERT_TRUE(delta_selected.ok()) << delta_selected.status();
              ExpectSameCounts(*delta_selected, *cold_picked);
              EXPECT_EQ(engine->stats().rows_scanned - before.rows_scanned,
                        num_picked);
            }
            const CountEngineStats before = selected.stats();
            ASSERT_TRUE(selected.Counts(cols).ok());
            EXPECT_EQ(selected.stats().rows_scanned - before.rows_scanned,
                      cold_selected.NumRows());
          }
          // Neither reaches past the snapshot.
          EXPECT_EQ(selected.CountsDelta({0}, 0, w + 1).status().code(),
                    StatusCode::kOutOfRange);
          last = w;
        }
        // The sweep crossed at least two doublings of the 40-row arrays.
        EXPECT_GT(table->Watermark(), 160);
      }
    }
  }
}

TEST(StoragePropertyTest, CachingEngineDeltaPatchMatchesColdRebuild) {
  // The end-to-end engine property: after each append, the next
  // generation of a CachingCountEngine over a view of the new snapshot,
  // seeded from the previous one's cache, answers by patching the cached
  // summaries; results must equal a cold rebuild and the work must be a
  // delta, not a rescan.
  Rng rng(42);
  Rows all = RandomRows(200, 3, 3, &rng);
  auto table = ChunkedTable::FromTable(TableFromRows({"a", "b", "c"}, all));
  ASSERT_TRUE(table.ok());

  auto cache = std::make_shared<CachingCountEngine>(
      std::make_shared<ViewCountProvider>(TableView((*table)->Materialized())));
  const std::vector<int> cols = {0, 1};
  ASSERT_TRUE(cache->Counts(cols).ok());  // warm the cache
  CountEngineStats stats = cache->stats();

  for (int step = 0; step < 4; ++step) {
    Rows batch = RandomRows(125, 3, 3 + step, &rng);
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_TRUE((*table)->Append(batch).ok());

    cache = std::make_shared<CachingCountEngine>(
        std::make_shared<ViewCountProvider>(
            TableView((*table)->Materialized())),
        *cache);
    auto patched = cache->Counts(cols);
    auto cold =
        ScanCounts(TableView(TableFromRows({"a", "b", "c"}, all)), cols);
    ASSERT_TRUE(patched.ok() && cold.ok());
    ExpectSameCounts(*patched, *cold);
    stats += cache->stats();
  }

  // One scan of the seed, then each patch read its batch alone, across
  // two doublings of the arrays.
  EXPECT_EQ(stats.delta_patches, 4);
  EXPECT_EQ(stats.scans, 5);
  EXPECT_EQ(stats.rows_scanned, 200 + 4 * 125);
}

// ---- the registry's growing filtered shards -----------------------------

TEST(FilteredPopulationTest, GrowsWithAppendsAndMatchesColdFilter) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}, {"x", "v1"}, {"y", "v0"}};
  DatasetRegistry registry;
  const int64_t epoch = registry.Register("t", TableFromRows({"g", "o"}, seed));
  const std::string signature = SignatureOf({{"g", {"x"}}});

  TablePtr before_append = *registry.Get("t");
  auto shard = registry.ShardEngine("t", epoch, signature, before_append);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 2);

  auto before = (*shard)->Counts({1});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->total, 2);

  // Appended matching rows join the successor's population; others
  // don't, and the shard itself keeps counting its watermark.
  ASSERT_TRUE(
      registry.AppendRows("t", {{"x", "v2"}, {"y", "v2"}, {"x", "v0"}}).ok());
  EXPECT_EQ((*shard)->NumRows(), 2);
  TablePtr after_append = *registry.Get("t");
  auto grown = registry.ShardEngine("t", epoch, signature, after_append);
  ASSERT_TRUE(grown.ok());
  EXPECT_NE(grown->get(), shard->get());
  EXPECT_EQ((*grown)->NumRows(), 4);
  auto after = (*grown)->Counts({1});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->total, 4);

  // Delta over the appended range covers exactly the two new matches.
  auto delta = (*grown)->CountsDelta({1}, 4, 7);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->total, 2);
  // Neither a delta nor a shard reaches past the watermark.
  EXPECT_EQ((*shard)->CountsDelta({1}, 4, 7).status().code(),
            StatusCode::kOutOfRange);
  Rows longer = seed;
  for (int i = 0; i < 4; ++i) longer.push_back({"x", "v0"});
  EXPECT_EQ(registry
                .ShardEngine("t", epoch, signature,
                             TableFromRows({"g", "o"}, longer))
                .status()
                .code(),
            StatusCode::kOutOfRange);

  // Unknown column is a build-time error.
  EXPECT_EQ(registry
                .ShardEngine("t", epoch, SignatureOf({{"nope", {"x"}}}),
                             after_append)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FilteredPopulationTest, LabelArrivingInLaterAppendStartsMatching) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}};
  DatasetRegistry registry;
  const int64_t epoch = registry.Register("t", TableFromRows({"g", "o"}, seed));
  const std::string signature = SignatureOf({{"g", {"z"}}});

  // "z" doesn't exist yet; the shard is just empty, not an error.
  auto shard = registry.ShardEngine("t", epoch, signature, *registry.Get("t"));
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 0);

  ASSERT_TRUE(registry.AppendRows("t", {{"z", "v0"}, {"x", "v1"}}).ok());
  auto grown = registry.ShardEngine("t", epoch, signature, *registry.Get("t"));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->NumRows(), 1);
  auto counts = (*grown)->Counts({1});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->total, 1);
}

// ---- concurrency: counts during growth ---------------------------------

TEST(StorageConcurrencyTest, CountsDuringGrowthMatchColdScans) {
  // One thread appends batches that cross three doublings of the arrays
  // (64 seed rows, room for 128; 640 rows appended) and bring new labels;
  // two threads meanwhile take snapshots and count each through
  // ScanRange and through a filtered and the full shard. Before each
  // batch the writer waits until some reader has run a whole round since
  // the last one, so every watermark is counted, and readers keep
  // counting while the next batch lands. Every result must equal a cold
  // scan of the rows below its watermark. Meant for the thread sanitizer
  // as much as for the assertions.
  const std::vector<std::string> names = {"a", "b", "c"};
  const std::vector<int> cols = {0, 2};
  constexpr int kBatches = 40;
  constexpr int kBatchRows = 16;
  constexpr int kReaders = 2;
  Rng rng(23);
  Rows all = RandomRows(64, 3, 3, &rng);
  std::vector<Rows> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(RandomRows(kBatchRows, 3, 3 + b / 8, &rng));
  }
  Rows everything = all;
  for (const Rows& batch : batches) {
    everything.insert(everything.end(), batch.begin(), batch.end());
  }
  DatasetRegistry registry;
  const int64_t epoch = registry.Register("t", TableFromRows(names, all));
  const std::shared_ptr<const ChunkedTable> store = *registry.Store("t");
  const Where where = {{"a", {"v0", "v3"}}};
  const std::vector<std::string> signatures = {"", SignatureOf(where)};

  // Cold counts of rows [0, w), and of those matching `where`.
  auto cold = [&](int64_t w, bool filtered) {
    TablePtr t = TableFromRows(
        names, Rows(everything.begin(), everything.begin() + w));
    TableView view(t);
    if (filtered) view = view.Filter(*Predicate::FromInLists(*t, where));
    return *ScanCounts(view, cols);
  };

  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::vector<int> mismatches(kReaders, 0);
  std::vector<int> counted(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        auto snapshot = registry.GetSnapshot("t");
        if (!snapshot.ok()) {
          ++mismatches[t];
          continue;
        }
        const int64_t w = snapshot->watermark;
        ChunkedScanStats stats;
        auto scanned = store->ScanRange(cols, 0, w, {}, &stats);
        mismatches[t] += !scanned.ok() ||
                         !SameCounts(*scanned, Rekeyed(cold(w, false),
                                                       scanned->codec));
        for (size_t i = 0; i < signatures.size(); ++i) {
          auto shard = registry.ShardEngine("t", epoch, signatures[i],
                                            snapshot->table);
          // Both kept generations may already count past `w`.
          if (!shard.ok()) {
            mismatches[t] +=
                shard.status().code() != StatusCode::kFailedPrecondition;
            continue;
          }
          auto counts = (*shard)->Counts(cols);
          mismatches[t] +=
              !counts.ok() || !SameCounts(*counts, cold(w, i == 1));
          ++counted[t];
        }
        rounds.fetch_add(1);
      }
    });
  }
  for (const Rows& batch : batches) {
    // Two rounds per reader: at least one starts after the last append.
    const int target = rounds.load() + 2 * kReaders;
    while (rounds.load() < target) std::this_thread::yield();
    EXPECT_TRUE(registry.AppendRows("t", batch).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
    EXPECT_GT(counted[t], 0) << "reader " << t;
  }
  EXPECT_EQ(store->Watermark(), static_cast<int64_t>(everything.size()));
}

}  // namespace
}  // namespace hypdb
