#include "engine/groupby_kernel.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "engine/groupby_simd.h"
#include "util/trace.h"

namespace hypdb {
namespace {

// splitmix64 finalizer — enough mixing for packed keys, cheap enough for
// the per-row hot loop.
inline uint64_t HashKey(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Open-addressing (linear probe) key -> count map. Keys are tuple codes,
// always < 2^62, so ~0 serves as the empty sentinel.
class OpenHashCounter {
 public:
  explicit OpenHashCounter(size_t expected) {
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, kEmpty);
    counts_.assign(cap, 0);
  }

  void Add(uint64_t key, int64_t count) {
    AddHashed(key, HashKey(key), count);
  }

  void AddHashed(uint64_t key, uint64_t hash, int64_t count) {
    size_t mask = keys_.size() - 1;
    size_t i = hash & mask;
    for (;;) {
      if (keys_[i] == key) {
        counts_[i] += count;
        return;
      }
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        counts_[i] = count;
        if (++size_ * 10 > keys_.size() * 7) Grow();
        return;
      }
      i = (i + 1) & mask;
    }
  }

  /// Inserts a batch of (key, precomputed hash) with +1 each, prefetching
  /// the probe window a few entries ahead — hash aggregation over large
  /// domains is bound by the random bucket access, not the arithmetic.
  void AddBatch(const uint64_t* keys, const uint64_t* hashes, int64_t n) {
    constexpr int64_t kAhead = 16;
    for (int64_t i = 0; i < n; ++i) {
      if (i + kAhead < n) {
        const size_t j = hashes[i + kAhead] & (keys_.size() - 1);
        __builtin_prefetch(&keys_[j], 0, 1);
        __builtin_prefetch(&counts_[j], 1, 1);
      }
      AddHashed(keys[i], hashes[i], 1);
    }
  }

  /// Grows capacity up front so `expected` entries insert without any
  /// intermediate rehash (merge targets are sized from the sum of the
  /// partial counters' sizes — an upper bound on distinct keys).
  void Reserve(size_t expected) {
    size_t cap = keys_.size();
    while (expected * 10 > cap * 7) cap <<= 1;
    if (cap != keys_.size()) Rehash(cap);
  }

  size_t size() const { return size_; }

  /// Appends the occupied (key, count) pairs, unsorted.
  void Drain(std::vector<uint64_t>* keys, std::vector<int64_t>* counts) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) {
        keys->push_back(keys_[i]);
        counts->push_back(counts_[i]);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], counts_[i]);
    }
  }

  void MergeInto(OpenHashCounter* other) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) other->Add(keys_[i], counts_[i]);
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~0ull;

  void Grow() { Rehash(keys_.size() * 2); }

  void Rehash(size_t cap) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int64_t> old_counts = std::move(counts_);
    keys_.assign(cap, kEmpty);
    counts_.assign(cap, 0);
    size_t mask = keys_.size() - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      size_t j = HashKey(old_keys[i]) & mask;
      while (keys_[j] != kEmpty) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      counts_[j] = old_counts[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<int64_t> counts_;
  size_t size_ = 0;
};

// Resolves options.num_threads against the machine and the row count
// (shared by the reference and vectorized paths so their parallel
// cut-over points agree).
int ResolveThreads(const GroupByKernelOptions& options, int64_t n) {
  int threads = options.num_threads;
  if (threads == 0) {
    // 0 = "use the machine": hardware_concurrency, floored at 1 because
    // the standard allows it to return 0 when undetectable.
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  if (threads > 1 && n < threads * options.parallel_min_rows) {
    threads = static_cast<int>(std::max<int64_t>(
        1, n / std::max<int64_t>(options.parallel_min_rows, 1)));
  }
  return std::max(threads, 1);
}

// ---- reference kernel ------------------------------------------------------
//
// The pre-vectorization implementation, kept verbatim: a mixed-radix
// multiply-add key loop over fixed-partition threads. It is the baseline
// the kernel benchmark measures speedups against and the cross-check the
// property test sweeps the new kernels over.

// Pre-resolved scan state: raw code pointers + codec strides, so the inner
// loop never touches Column or TableView.
struct RowEncoder {
  std::vector<const int32_t*> codes;
  std::vector<uint64_t> strides;
  const int64_t* ids = nullptr;  // null = contiguous physical rows

  uint64_t Key(int64_t i) const {
    const int64_t r = ids != nullptr ? ids[i] : i;
    uint64_t key = 0;
    for (size_t j = 0; j < codes.size(); ++j) {
      key += static_cast<uint64_t>(codes[j][r]) * strides[j];
    }
    return key;
  }
};

// Splits [0, n) into `parts` contiguous chunks; returns boundaries.
std::vector<int64_t> ChunkBounds(int64_t n, int parts) {
  std::vector<int64_t> bounds(parts + 1, 0);
  for (int p = 0; p <= parts; ++p) bounds[p] = n * p / parts;
  return bounds;
}

StatusOr<GroupCounts> ReferenceScanCounts(const TableView& view,
                                          const std::vector<int>& cols,
                                          const GroupByKernelOptions& options) {
  GroupCounts out;
  HYPDB_ASSIGN_OR_RETURN(out.codec, TupleCodec::Create(view.table(), cols));
  const int64_t n = view.NumRows();
  out.total = n;

  RowEncoder enc;
  enc.codes.reserve(cols.size());
  for (int c : cols) enc.codes.push_back(view.table().column(c).codes().data());
  enc.strides = out.codec.strides();
  enc.ids = view.row_ids() != nullptr ? view.row_ids()->data() : nullptr;

  const int threads = ResolveThreads(options, n);

  const uint64_t domain = out.codec.Domain();
  const bool dense =
      domain <= 1u << 20 &&
      domain <= static_cast<uint64_t>(std::max<int64_t>(n * 4, 1024));

  if (dense) {
    std::vector<int64_t> totals(domain, 0);
    if (threads <= 1) {
      for (int64_t i = 0; i < n; ++i) ++totals[enc.Key(i)];
    } else {
      std::vector<int64_t> bounds = ChunkBounds(n, threads);
      std::vector<std::vector<int64_t>> partial(
          threads, std::vector<int64_t>(domain, 0));
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          std::vector<int64_t>& local = partial[t];
          for (int64_t i = bounds[t]; i < bounds[t + 1]; ++i) {
            ++local[enc.Key(i)];
          }
        });
      }
      for (auto& w : workers) w.join();
      for (int t = 0; t < threads; ++t) {
        for (uint64_t k = 0; k < domain; ++k) totals[k] += partial[t][k];
      }
    }
    for (uint64_t k = 0; k < domain; ++k) {
      if (totals[k] > 0) {
        out.keys.push_back(k);
        out.counts.push_back(totals[k]);
      }
    }
    return out;
  }

  const size_t expected =
      static_cast<size_t>(std::min<int64_t>(n, 1 << 16));
  OpenHashCounter agg(expected);
  if (threads <= 1) {
    for (int64_t i = 0; i < n; ++i) agg.Add(enc.Key(i), 1);
  } else {
    std::vector<int64_t> bounds = ChunkBounds(n, threads);
    std::vector<OpenHashCounter> partial(
        threads, OpenHashCounter(expected / threads + 64));
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        OpenHashCounter& local = partial[t];
        for (int64_t i = bounds[t]; i < bounds[t + 1]; ++i) {
          local.Add(enc.Key(i), 1);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const OpenHashCounter& p : partial) p.MergeInto(&agg);
  }
  out.keys.reserve(agg.size());
  out.counts.reserve(agg.size());
  agg.Drain(&out.keys, &out.counts);
  SortCountsByKey(&out.keys, &out.counts);
  return out;
}

// ---- vectorized kernel -----------------------------------------------------

// Per-call scan state for the bit-packed kernels: the first
// kMaxSpecializedArity columns land in PackedColumns (the layout the
// specialized/SIMD kernels consume); the full vectors serve generic
// arities and the mixed-radix fallback.
struct ScanShape {
  PackedColumns packed;
  std::vector<const int32_t*> codes;
  std::vector<int> shifts;
  std::vector<uint64_t> strides;
  const int64_t* ids = nullptr;
  int arity = 0;
  // Packed-key domain when bit-packing applies, UINT64_MAX otherwise —
  // the tiny-domain kernel test reads this.
  uint64_t packed_domain = ~uint64_t{0};
};

ScanShape ResolveShape(std::vector<const int32_t*> codes, const int64_t* ids,
                       const TupleCodec& codec) {
  ScanShape s;
  s.arity = static_cast<int>(codes.size());
  s.codes = std::move(codes);
  s.shifts = codec.shifts();
  s.strides = codec.strides();
  s.ids = ids;
  if (codec.CanBitPack()) s.packed_domain = codec.PackedDomain();
  for (int j = 0; j < std::min(s.arity, kMaxSpecializedArity); ++j) {
    s.packed.codes[j] = s.codes[j];
    s.packed.shifts[j] = s.shifts[j];
  }
  return s;
}

// Scalar twins of the SIMD kernels (same signatures, same table layout):
// the always-compiled fallback for SIMD-less builds and CPUs.

template <int A>
void DenseAccumulateScalar(const PackedColumns& cols, int64_t begin,
                           int64_t end, uint32_t* counts) {
  for (int64_t i = begin; i < end; ++i) {
    uint64_t key = static_cast<uint32_t>(cols.codes[0][i]);
    if constexpr (A >= 2) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[1][i]))
             << cols.shifts[1];
    }
    if constexpr (A >= 3) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[2][i]))
             << cols.shifts[2];
    }
    if constexpr (A >= 4) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[3][i]))
             << cols.shifts[3];
    }
    ++counts[key];
  }
}

template <int A>
void PackKeysScalar(const PackedColumns& cols, int64_t begin, int64_t end,
                    uint64_t* out) {
  for (int64_t i = begin; i < end; ++i, ++out) {
    uint64_t key = static_cast<uint32_t>(cols.codes[0][i]);
    if constexpr (A >= 2) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[1][i]))
             << cols.shifts[1];
    }
    if constexpr (A >= 3) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[2][i]))
             << cols.shifts[2];
    }
    if constexpr (A >= 4) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[3][i]))
             << cols.shifts[3];
    }
    *out = key;
  }
}

constexpr GroupBySimdKernels kScalarKernels = {
    {nullptr, &DenseAccumulateScalar<1>, &DenseAccumulateScalar<2>,
     &DenseAccumulateScalar<3>, &DenseAccumulateScalar<4>},
    {nullptr, &PackKeysScalar<1>, &PackKeysScalar<2>, &PackKeysScalar<3>,
     &PackKeysScalar<4>},
};

// The AVX2 table when compiled in AND supported by this CPU, else null.
const GroupBySimdKernels* RuntimeSimdTable() {
  static const GroupBySimdKernels* table = [] {
    const GroupBySimdKernels* t = nullptr;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) t = Avx2KernelTable();
#endif
    return t;
  }();
  return table;
}

// Specialized scalar kernels for row_ids indirection (filtered views):
// the gather dominates, so these stay scalar — morsel parallelism is the
// lever there — but the arity unrolls and packed shifts still apply.
template <int A>
void DenseAccumulateIds(const PackedColumns& cols, const int64_t* ids,
                        int64_t begin, int64_t end, uint32_t* counts) {
  for (int64_t i = begin; i < end; ++i) {
    const int64_t r = ids[i];
    uint64_t key = static_cast<uint32_t>(cols.codes[0][r]);
    if constexpr (A >= 2) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[1][r]))
             << cols.shifts[1];
    }
    if constexpr (A >= 3) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[2][r]))
             << cols.shifts[2];
    }
    if constexpr (A >= 4) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[3][r]))
             << cols.shifts[3];
    }
    ++counts[key];
  }
}

template <int A>
void PackKeysIds(const PackedColumns& cols, const int64_t* ids,
                 int64_t begin, int64_t end, uint64_t* out) {
  for (int64_t i = begin; i < end; ++i, ++out) {
    const int64_t r = ids[i];
    uint64_t key = static_cast<uint32_t>(cols.codes[0][r]);
    if constexpr (A >= 2) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[1][r]))
             << cols.shifts[1];
    }
    if constexpr (A >= 3) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[2][r]))
             << cols.shifts[2];
    }
    if constexpr (A >= 4) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(cols.codes[3][r]))
             << cols.shifts[3];
    }
    *out = key;
  }
}

// Generic (arity > kMaxSpecializedArity) packed-key loops.
void DenseAccumulateGeneric(const ScanShape& s, int64_t begin, int64_t end,
                            uint32_t* counts) {
  for (int64_t i = begin; i < end; ++i) {
    const int64_t r = s.ids != nullptr ? s.ids[i] : i;
    uint64_t key = 0;
    for (int j = 0; j < s.arity; ++j) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(s.codes[j][r]))
             << s.shifts[j];
    }
    ++counts[key];
  }
}

void PackKeysGeneric(const ScanShape& s, int64_t begin, int64_t end,
                     uint64_t* out) {
  for (int64_t i = begin; i < end; ++i, ++out) {
    const int64_t r = s.ids != nullptr ? s.ids[i] : i;
    uint64_t key = 0;
    for (int j = 0; j < s.arity; ++j) {
      key |= static_cast<uint64_t>(static_cast<uint32_t>(s.codes[j][r]))
             << s.shifts[j];
    }
    *out = key;
  }
}

// Mixed-radix keys for domains whose packed width exceeds 62 bits (the
// bit-pack fast path does not apply; keys must stay canonical).
void MixedRadixKeys(const ScanShape& s, int64_t begin, int64_t end,
                    uint64_t* out) {
  for (int64_t i = begin; i < end; ++i, ++out) {
    const int64_t r = s.ids != nullptr ? s.ids[i] : i;
    uint64_t key = 0;
    for (int j = 0; j < s.arity; ++j) {
      key += static_cast<uint64_t>(s.codes[j][r]) * s.strides[j];
    }
    *out = key;
  }
}

// Dense accumulation over one morsel, dispatched by (indirection, arity,
// SIMD availability).
void AccumulateDenseMorsel(const ScanShape& s, const GroupBySimdKernels* simd,
                           int64_t begin, int64_t end, uint32_t* counts) {
  if (s.arity > kMaxSpecializedArity) {
    DenseAccumulateGeneric(s, begin, end, counts);
    return;
  }
  if (s.ids != nullptr) {
    switch (s.arity) {
      case 1: DenseAccumulateIds<1>(s.packed, s.ids, begin, end, counts); break;
      case 2: DenseAccumulateIds<2>(s.packed, s.ids, begin, end, counts); break;
      case 3: DenseAccumulateIds<3>(s.packed, s.ids, begin, end, counts); break;
      default: DenseAccumulateIds<4>(s.packed, s.ids, begin, end, counts);
    }
    return;
  }
  const GroupBySimdKernels& table = simd != nullptr ? *simd : kScalarKernels;
  if (s.packed_domain <= kTinyDomainMax &&
      table.dense_accumulate_tiny[s.arity] != nullptr) {
    table.dense_accumulate_tiny[s.arity](s.packed, begin, end, counts);
    return;
  }
  table.dense_accumulate[s.arity](s.packed, begin, end, counts);
}

// Packed keys for one batch, dispatched the same way.
void PackKeysBatch(const ScanShape& s, const GroupBySimdKernels* simd,
                   bool packable, int64_t begin, int64_t end, uint64_t* out) {
  if (!packable) {
    MixedRadixKeys(s, begin, end, out);
    return;
  }
  if (s.arity > kMaxSpecializedArity) {
    PackKeysGeneric(s, begin, end, out);
    return;
  }
  if (s.ids != nullptr) {
    switch (s.arity) {
      case 1: PackKeysIds<1>(s.packed, s.ids, begin, end, out); break;
      case 2: PackKeysIds<2>(s.packed, s.ids, begin, end, out); break;
      case 3: PackKeysIds<3>(s.packed, s.ids, begin, end, out); break;
      default: PackKeysIds<4>(s.packed, s.ids, begin, end, out);
    }
    return;
  }
  const GroupBySimdKernels& table = simd != nullptr ? *simd : kScalarKernels;
  table.pack_keys[s.arity](s.packed, begin, end, out);
}

// Hash aggregation over one morsel: keys are packed in vectorized batches,
// hashed, then probed with the bucket for key i+16 prefetched — the
// "vectorized linear-probe batch" shape.
void HashAccumulateMorsel(const ScanShape& s, const GroupBySimdKernels* simd,
                          bool packable, int64_t begin, int64_t end,
                          OpenHashCounter* counter) {
  constexpr int64_t kBatch = 1024;
  uint64_t keys[kBatch];
  uint64_t hashes[kBatch];
  for (int64_t b = begin; b < end; b += kBatch) {
    const int64_t m = std::min(kBatch, end - b);
    PackKeysBatch(s, simd, packable, b, b + m, keys);
    for (int64_t i = 0; i < m; ++i) hashes[i] = HashKey(keys[i]);
    counter->AddBatch(keys, hashes, m);
  }
}

// Process-wide morsel dispatch count, surfaced as
// hypdb_engine_morsels_total. Per-morsel relaxed add: the cursor
// fetch_add on the same cache-line cadence already dominates.
std::atomic<int64_t> g_morsels_dispatched{0};

// Morsel-driven scheduling: an atomic cursor hands out contiguous row
// ranges; `work(worker, begin, end)` runs on `threads` workers (worker 0
// is the calling thread). Skewed per-row costs (filtered views, cold
// pages) balance automatically — no fixed partition to get stuck behind.
template <typename Work>
void RunMorsels(int64_t n, int64_t morsel, int threads, Work&& work) {
  std::atomic<int64_t> cursor{0};
  // Captured by value into the spawned workers: trace attribution (and
  // the per-morsel deep-level instants) follows the request across the
  // thread boundary. Worker 0 runs on the calling thread, which already
  // carries the context; re-installing the same one is harmless.
  const TraceContext trace_ctx = CurrentTraceContext();
  auto loop = [&, trace_ctx](int t) {
    TraceContextScope trace_scope(trace_ctx);
    for (;;) {
      const int64_t begin = cursor.fetch_add(morsel,
                                             std::memory_order_relaxed);
      if (begin >= n) break;
      g_morsels_dispatched.fetch_add(1, std::memory_order_relaxed);
      TraceInstant(TraceEventKind::kMorselBatch, 2,
                   static_cast<uint64_t>(begin),
                   static_cast<uint64_t>(std::min(begin + morsel, n) -
                                         begin));
      work(t, begin, std::min(begin + morsel, n));
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (int t = 1; t < threads; ++t) workers.emplace_back(loop, t);
  loop(0);
  for (auto& w : workers) w.join();
}

// Sums per-worker dense partials into one int64 array, range-parallel:
// each merge worker owns a contiguous key range and sums every partial
// over it (partials in fixed index order, so each cell's addition
// sequence is deterministic — and integer addition is exact regardless).
// This replaces the serial O(threads x domain) merge. Partials are the
// accumulate kernels' uint32 arrays; the merge widens to int64.
std::vector<int64_t> MergeDensePartials(
    const std::vector<std::vector<uint32_t>>& partials, uint64_t pdomain,
    int threads) {
  std::vector<const std::vector<uint32_t>*> used;
  for (const auto& p : partials) {
    if (!p.empty()) used.push_back(&p);
  }
  std::vector<int64_t> totals(pdomain, 0);
  if (used.empty()) return totals;
  const int mergers = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(threads), pdomain / 4096 + 1));
  auto merge_range = [&](uint64_t lo, uint64_t hi) {
    for (const std::vector<uint32_t>* p : used) {
      const uint32_t* src = p->data();
      for (uint64_t k = lo; k < hi; ++k) totals[k] += src[k];
    }
  };
  if (mergers <= 1) {
    merge_range(0, pdomain);
    return totals;
  }
  std::vector<std::thread> workers;
  workers.reserve(mergers - 1);
  for (int t = 1; t < mergers; ++t) {
    workers.emplace_back(merge_range, pdomain * t / mergers,
                         pdomain * (t + 1) / mergers);
  }
  merge_range(0, pdomain / mergers);
  for (auto& w : workers) w.join();
  return totals;
}

// Emits the non-empty cells of a packed dense accumulator (uint32 from a
// single worker, int64 after a merge). Packed keys enumerate tuples in
// the same lexicographic order as mixed-radix keys, so the output is
// sorted by construction.
template <typename CountVec>
void DrainDense(const TupleCodec& codec, const CountVec& totals,
                GroupCounts* out) {
  for (uint64_t p = 0; p < totals.size(); ++p) {
    if (totals[p] > 0) {
      out->keys.push_back(codec.PackedToKey(p));
      out->counts.push_back(totals[p]);
    }
  }
}

// The bit-packed kernel behind both entry points: count(*) GROUP BY over
// `n` rows of the per-codec-column code arrays `codes`, read at row ids
// `ids[i]` or, when `ids` is null, at rows [0, n).
GroupCounts PackedScan(std::vector<const int32_t*> codes, const int64_t* ids,
                       int64_t n, TupleCodec codec,
                       const GroupByKernelOptions& options) {
  GroupCounts out;
  out.codec = std::move(codec);
  out.total = n;

  if (codes.empty()) {
    if (n > 0) {
      out.keys.push_back(0);
      out.counts.push_back(n);
    }
    return out;
  }

  const ScanShape shape = ResolveShape(std::move(codes), ids, out.codec);
  const GroupBySimdKernels* simd =
      options.use_simd ? RuntimeSimdTable() : nullptr;
  // One span per scan, tagged with the tier that actually ran (arg0) and
  // the rows aggregated (arg1); deep-level morsel instants nest inside.
  TraceSpanScope scan_span(
      TraceEventKind::kKernelScan, 1,
      static_cast<uint64_t>(simd != nullptr ? TraceKernelTier::kSimd
                                            : TraceKernelTier::kScalar),
      static_cast<uint64_t>(n));
  const int threads = ResolveThreads(options, n);
  const int64_t morsel = options.morsel_rows > 0
                             ? std::max<int64_t>(64, options.morsel_rows)
                             : int64_t{1} << 14;

  const bool packable = out.codec.CanBitPack();
  const uint64_t pdomain = packable ? out.codec.PackedDomain() : 0;
  // Dense radix counting when the padded key space is small in absolute
  // terms and relative to the scan (the drain walks all of it). The row
  // bound keeps the kernels' uint32 accumulator cells (at most one
  // increment per row) from overflowing; scans past it — beyond any
  // in-memory table this engine holds — use the int64 hash path.
  const bool dense =
      packable && pdomain <= uint64_t{1} << 21 &&
      pdomain <= static_cast<uint64_t>(std::max<int64_t>(8 * n, 2048)) &&
      n < int64_t{1} << 31;

  if (dense) {
    if (threads <= 1) {
      std::vector<uint32_t> totals(pdomain, 0);
      AccumulateDenseMorsel(shape, simd, 0, n, totals.data());
      DrainDense(out.codec, totals, &out);
      return out;
    }
    // Per-worker dense accumulators only while their combined footprint
    // stays proportionate to the scan; a large domain touched by few rows
    // aggregates per-worker into hash counters instead (same dense merge
    // target, none of the threads x domain memory blow-up).
    const bool worker_dense =
        static_cast<uint64_t>(threads) * pdomain <=
        static_cast<uint64_t>(std::max<int64_t>(
            std::min<int64_t>(8 * n, int64_t{1} << 24), 1 << 16));
    std::vector<int64_t> totals;
    if (worker_dense) {
      std::vector<std::vector<uint32_t>> partial(threads);
      RunMorsels(n, morsel, threads, [&](int t, int64_t b, int64_t e) {
        // Allocated lazily on the worker's first morsel: workers that
        // never get work never pay for (or zero) a domain-sized array.
        if (partial[t].empty()) partial[t].assign(pdomain, 0);
        AccumulateDenseMorsel(shape, simd, b, e, partial[t].data());
      });
      totals = MergeDensePartials(partial, pdomain, threads);
    } else {
      std::vector<OpenHashCounter> partial;
      partial.reserve(threads);
      const size_t per_worker =
          static_cast<size_t>(std::min<int64_t>(n / threads + 64, 1 << 16));
      for (int t = 0; t < threads; ++t) partial.emplace_back(per_worker);
      RunMorsels(n, morsel, threads, [&](int t, int64_t b, int64_t e) {
        HashAccumulateMorsel(shape, simd, /*packable=*/true, b, e,
                             &partial[t]);
      });
      totals.assign(pdomain, 0);
      for (const OpenHashCounter& p : partial) {
        p.ForEach([&](uint64_t key, int64_t count) { totals[key] += count; });
      }
    }
    DrainDense(out.codec, totals, &out);
    return out;
  }

  // Hash path: packed keys when they fit 62 bits, canonical mixed-radix
  // keys otherwise.
  const size_t expected =
      static_cast<size_t>(std::min<int64_t>(n, 1 << 16));
  OpenHashCounter agg(expected);
  if (threads <= 1) {
    HashAccumulateMorsel(shape, simd, packable, 0, n, &agg);
  } else {
    std::vector<OpenHashCounter> partial;
    partial.reserve(threads);
    const size_t per_worker =
        static_cast<size_t>(std::min<int64_t>(n / threads + 64, 1 << 16));
    for (int t = 0; t < threads; ++t) partial.emplace_back(per_worker);
    RunMorsels(n, morsel, threads, [&](int t, int64_t b, int64_t e) {
      HashAccumulateMorsel(shape, simd, packable, b, e, &partial[t]);
    });
    // Pre-size the merge target from the partials' combined size — an
    // upper bound on distinct keys — so the merge never rehashes (the
    // old expected/threads sizing forced repeated Grow() storms on
    // high-cardinality scans).
    size_t combined = 0;
    for (const OpenHashCounter& p : partial) combined += p.size();
    agg.Reserve(combined);
    for (const OpenHashCounter& p : partial) p.MergeInto(&agg);
  }
  out.keys.reserve(agg.size());
  out.counts.reserve(agg.size());
  agg.Drain(&out.keys, &out.counts);
  if (packable) {
    for (uint64_t& key : out.keys) key = out.codec.PackedToKey(key);
  }
  SortCountsByKey(&out.keys, &out.counts);
  return out;
}

}  // namespace

bool GroupByKernelSimdActive() { return RuntimeSimdTable() != nullptr; }

int64_t GroupByMorselsDispatched() {
  return g_morsels_dispatched.load(std::memory_order_relaxed);
}

GroupCounts ScanCodeSpans(const std::vector<const int32_t*>& codes,
                          const int64_t* row_ids, int64_t num_rows,
                          const TupleCodec& codec,
                          const GroupByKernelOptions& options) {
  return PackedScan(codes, row_ids, num_rows, codec, options);
}

StatusOr<GroupCounts> ScanCounts(const TableView& view,
                                 const std::vector<int>& cols,
                                 const GroupByKernelOptions& options) {
  if (options.mode == GroupByKernelMode::kReference) {
    TraceSpanScope span(
        TraceEventKind::kKernelScan, 1,
        static_cast<uint64_t>(TraceKernelTier::kReference),
        static_cast<uint64_t>(view.NumRows()));
    return ReferenceScanCounts(view, cols, options);
  }
  HYPDB_ASSIGN_OR_RETURN(TupleCodec codec,
                         TupleCodec::Create(view.table(), cols));
  std::vector<const int32_t*> codes;
  codes.reserve(cols.size());
  for (int c : cols) codes.push_back(view.table().column(c).codes().data());
  return PackedScan(
      std::move(codes),
      view.row_ids() != nullptr ? view.row_ids()->data() : nullptr,
      view.NumRows(), std::move(codec), options);
}

}  // namespace hypdb
