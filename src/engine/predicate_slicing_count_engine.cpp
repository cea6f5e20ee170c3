#include "engine/predicate_slicing_count_engine.h"

#include <algorithm>

#include "util/trace.h"

namespace hypdb {

PredicateSlicingCountEngine::PredicateSlicingCountEngine(
    std::shared_ptr<CountEngine> parent,
    std::vector<SlicePredicate> predicates,
    std::shared_ptr<CountEngine> population, const Table& schema,
    int64_t parent_cache_budget)
    : parent_(std::move(parent)),
      predicates_(std::move(predicates)),
      population_(std::move(population)),
      parent_cache_budget_(parent_cache_budget) {
  cardinalities_.reserve(schema.NumColumns());
  for (int c = 0; c < schema.NumColumns(); ++c) {
    cardinalities_.push_back(schema.column(c).Cardinality());
  }
  std::sort(predicates_.begin(), predicates_.end(),
            [](const SlicePredicate& a, const SlicePredicate& b) {
              return a.col < b.col;
            });
}

std::vector<int> PredicateSlicingCountEngine::SupersetFor(
    const std::vector<int>& sorted) const {
  std::vector<int> superset = sorted;
  for (const SlicePredicate& p : predicates_) superset.push_back(p.col);
  return SortedUniqueColumns(std::move(superset));
}

GroupCounts PredicateSlicingCountEngine::Slice(
    const GroupCounts& parent_counts, const std::vector<int>& cols) const {
  const std::vector<int>& have = parent_counts.codec.cols();
  auto position_of = [&have](int col) {
    return static_cast<int>(std::find(have.begin(), have.end(), col) -
                            have.begin());
  };
  std::vector<std::pair<int, int32_t>> slots;  // (position, required code)
  slots.reserve(predicates_.size());
  for (const SlicePredicate& p : predicates_) {
    slots.emplace_back(position_of(p.col), p.code);
  }
  std::vector<int> keep;  // positions of the requested cols, their order
  keep.reserve(cols.size());
  for (int c : cols) keep.push_back(position_of(c));

  GroupCounts out;
  // Project the *parent's* codec (cols ⊆ superset, so this cannot
  // overflow): its cardinalities are current as of the parent's
  // population version, which keeps sliced keys bit-identical to a cold
  // scan even after appends grow the dictionaries.
  out.codec = parent_counts.codec.Project(keep);
  std::vector<int32_t> codes(keep.size());
  for (size_t g = 0; g < parent_counts.keys.size(); ++g) {
    const uint64_t key = parent_counts.keys[g];
    bool match = true;
    for (const auto& [pos, code] : slots) {
      if (parent_counts.codec.DecodeAt(key, pos) != code) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    for (size_t j = 0; j < keep.size(); ++j) {
      codes[j] = parent_counts.codec.DecodeAt(key, keep[j]);
    }
    out.keys.push_back(out.codec.EncodeCodes(codes));
    out.counts.push_back(parent_counts.counts[g]);
    // Every population row lands in exactly one matching group, so the
    // direct-scan convention (total = rows aggregated) is the sum.
    out.total += parent_counts.counts[g];
  }
  // Distinct matching groups agree on every predicate column and the
  // superset is cols ∪ pred-cols, so re-encoding over cols is injective —
  // sorting (never summing) restores the GroupCounts key invariant.
  SortCountsByKey(&out.keys, &out.counts);
  return out;
}

bool PredicateSlicingCountEngine::OverParentBudget(
    const std::vector<int>& superset) const {
  if (parent_cache_budget_ <= 0) return false;
  // min(domain, full-table rows) is an upper bound on the summary's
  // group count — a heuristic, not a proof: it cannot see sparsity. What
  // refusal prevents is the pathological inverse: a summary certain to
  // blow the parent's budget is evicted on insert and re-scanned from
  // the full table per query, strictly worse than scanning the filtered
  // view.
  StatusOr<TupleCodec> codec = TupleCodec::Create(cardinalities_, superset);
  if (!codec.ok()) return true;
  const uint64_t bound = std::min<uint64_t>(
      codec->Domain(), static_cast<uint64_t>(parent_->NumRows()));
  return bound > static_cast<uint64_t>(parent_cache_budget_);
}

StatusOr<GroupCounts> PredicateSlicingCountEngine::Counts(
    const std::vector<int>& cols) {
  // Every path below answers exactly one external query; attribution
  // order relative to the work does not matter for the totals.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
  }
  std::vector<int> sorted = SortedUniqueColumns(cols);
  if (sorted.size() != cols.size()) {
    // Duplicate columns — never issued by the stats layer; scan the
    // population rather than reason about repeated digits.
    TraceInstant(TraceEventKind::kSliceFallback, 1, cols.size());
    return population_->Counts(cols);
  }
  const std::vector<int> superset = SupersetFor(sorted);
  if (OverParentBudget(superset)) {
    TraceInstant(TraceEventKind::kSliceFallback, 1, cols.size(),
                 superset.size());
    return population_->Counts(cols);
  }
  StatusOr<GroupCounts> parent_counts = parent_->Counts(superset);
  if (!parent_counts.ok()) {
    // Typically domain overflow on S ∪ P over the full table; the plain
    // S scan of the population may still fit (or report its own
    // error, exactly as the isolated stack would).
    TraceInstant(TraceEventKind::kSliceFallback, 1, cols.size(),
                 superset.size());
    return population_->Counts(cols);
  }
  GroupCounts sliced = Slice(*parent_counts, cols);
  TraceInstant(TraceEventKind::kSliceServe, 1, cols.size(),
               sliced.NumGroups());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.predicate_slices;
  return sliced;
}

Status PredicateSlicingCountEngine::Prefetch(const std::vector<int>& cols) {
  const std::vector<int> superset =
      SupersetFor(SortedUniqueColumns(cols));
  // Mirror the Counts() budget guard: materializing (and pinning!) a
  // summary in the shared parent that Counts() will then refuse to use
  // would be pure dead weight — and would repoint the parent's single
  // pinned focus away from whatever a sibling shard pinned.
  if (OverParentBudget(superset)) return Status::Ok();
  return parent_->Prefetch(superset);
}

CountEngineStats PredicateSlicingCountEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CountEngineStats total = stats_;
  total += population_->stats();
  // Fallback calls were issued on behalf of the same external queries.
  total.queries = stats_.queries;
  return total;
}

void PredicateSlicingCountEngine::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = {};
  population_->ResetStats();
  // The shared parent is deliberately left alone — it serves other
  // shards whose accounting must survive this one's reset.
}

}  // namespace hypdb
