// Packed-tuple group-by counting kernel.
//
// The hot loop of every HypDB statistic is count(*) GROUP BY over a column
// subset (paper Sec. 6). This kernel does that one job fast:
//  * multi-column keys are bit-packed: per-column codes are fused into one
//    machine word with shifts/ors (TupleCodec::shifts()) instead of
//    per-column multiply-adds, and specialized kernels are dispatched by
//    (arity, domain class, row indirection);
//  * the dense-radix path (small padded domains) and the key-packing step
//    of the hash path run as SIMD inner loops (AVX2, detected at compile
//    time AND at runtime) with scalar twins that are always compiled —
//    builds without SIMD run the same algorithm and produce bit-identical
//    results;
//  * small domains aggregate into a dense array (radix counting), large
//    domains into an open-addressing hash table probed in prefetched
//    batches — both avoid the node-per-group cost of std::unordered_map;
//  * parallel scans are morsel-driven: an atomic cursor hands small
//    contiguous row ranges to a worker pool, so skewed filtered views
//    (row_ids indirection) parallelize as well as full scans; per-worker
//    partial accumulators merge range-parallel for dense domains.
//
// The non-negotiable invariant: GroupCounts are bit-identical for every
// (kernel mode, SIMD on/off, thread count, morsel size) combination —
// counts are exact integers, and tests/kernel_property_test.cpp sweeps
// the whole configuration space against a naive reference.

#ifndef HYPDB_ENGINE_GROUPBY_KERNEL_H_
#define HYPDB_ENGINE_GROUPBY_KERNEL_H_

#include "dataframe/group_by.h"
#include "dataframe/view.h"
#include "util/statusor.h"

namespace hypdb {

/// Kernel implementation selector. kAuto dispatches the specialized
/// bit-packed kernels; kReference forces the pre-vectorization scalar
/// kernel (mixed-radix key loop, fixed-partition threading) kept as the
/// comparison baseline for benchmarks and property tests.
enum class GroupByKernelMode {
  kAuto = 0,
  kReference = 1,
};

struct GroupByKernelOptions {
  /// Worker threads for the scan; 1 scans sequentially, 0 resolves to
  /// std::thread::hardware_concurrency() (the production default — see
  /// MiEngineOptions::scan_threads).
  int num_threads = 1;
  /// Minimum rows per worker — below num_threads * this, scan sequentially
  /// (thread startup would dominate).
  int64_t parallel_min_rows = 1 << 16;
  /// Rows per morsel: the contiguous range an atomic cursor hands a
  /// worker at a time. Small enough to even out skew, large enough to
  /// amortize the cursor bump; values < 1 fall back to the default.
  int64_t morsel_rows = 1 << 14;
  /// Use the SIMD (AVX2) inner loops when compiled in and supported by
  /// the CPU; the scalar fallback is bit-identical either way.
  bool use_simd = true;
  GroupByKernelMode mode = GroupByKernelMode::kAuto;
};

/// count(*) GROUP BY `cols` over `view`. Key/count arrays come back sorted
/// by key; the codec columns are exactly `cols` in the given order.
/// Identical results for every options combination.
StatusOr<GroupCounts> ScanCounts(const TableView& view,
                                 const std::vector<int>& cols,
                                 const GroupByKernelOptions& options = {});

/// count(*) GROUP BY over raw code spans (a range of the column store's
/// arrays, or a view's columns from a row offset): `codes[j]` points at
/// the codes of codec column j, each below that column's cardinality in
/// `codec`, read at the `num_rows` offsets `row_ids` or, when it is
/// null, at [0, num_rows).
/// Results are keyed under `codec`, so spans scanned under one codec
/// merge without re-keying. The same bit-packed kernels ScanCounts
/// dispatches; `options.mode` is ignored.
GroupCounts ScanCodeSpans(const std::vector<const int32_t*>& codes,
                          const int64_t* row_ids, int64_t num_rows,
                          const TupleCodec& codec,
                          const GroupByKernelOptions& options = {});

/// True when the AVX2 kernels are compiled in AND the running CPU
/// supports them — i.e. `use_simd = true` actually changes the inner
/// loop. Benchmarks gate SIMD speedup assertions on this.
bool GroupByKernelSimdActive();

/// Process-wide count of morsels dispatched by parallel scans since
/// startup (monotone; serial scans dispatch none). Observability only —
/// surfaced as hypdb_engine_morsels_total.
int64_t GroupByMorselsDispatched();

}  // namespace hypdb

#endif  // HYPDB_ENGINE_GROUPBY_KERNEL_H_
