#include "engine/caching_count_engine.h"

#include <algorithm>
#include <functional>

#include "util/trace.h"

namespace hypdb {
namespace {

// True iff `sub` ⊆ `super`, both sorted ascending.
bool IsSubset(const std::vector<int>& sub, const std::vector<int>& super) {
  size_t j = 0;
  for (int c : sub) {
    while (j < super.size() && super[j] < c) ++j;
    if (j == super.size() || super[j] != c) return false;
    ++j;
  }
  return true;
}

}  // namespace

std::shared_ptr<const CachePolicy> MakeCachePolicy(MaterializationMode) {
  static const std::shared_ptr<const CachePolicy> kPolicy =
      std::make_shared<const CachePolicy>();
  return kPolicy;
}

CachingCountEngine::CachingCountEngine(std::shared_ptr<CountEngine> base,
                                       CachingCountEngineOptions options)
    : base_(std::move(base)), options_(std::move(options)) {}

CachingCountEngine::CachingCountEngine(std::shared_ptr<CountEngine> base,
                                       const CachingCountEngine& predecessor)
    : base_(std::move(base)), options_(predecessor.options_) {
  // The copy shares every (immutable) summary.
  std::lock_guard<std::mutex> lock(predecessor.mu_);
  cache_ = predecessor.cache_;
  pinned_key_ = predecessor.pinned_key_;
  cached_cells_ = predecessor.cached_cells_;
  pinned_cells_ = predecessor.pinned_cells_;
  next_sequence_ = predecessor.next_sequence_;
}

StatusOr<GroupCounts> CachingCountEngine::Counts(
    const std::vector<int>& cols) {
  std::vector<int> sorted = SortedUniqueColumns(cols);
  if (sorted.size() != cols.size()) {
    // Duplicate columns — rare and never issued by the stats layer; bypass
    // the cache rather than reason about repeated digits. The delegated
    // scan runs outside the lock like any other miss.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.queries;
    }
    return base_->Counts(cols);
  }
  std::shared_ptr<const GroupCounts> payload;
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<const GroupCounts> counts,
                         Serve(cols, std::move(sorted), &payload));
  return *counts;
}

StatusOr<SetEntropy> CachingCountEngine::Entropy(
    const std::vector<int>& sorted) {
  if (std::adjacent_find(sorted.begin(), sorted.end(),
                         std::greater_equal<int>()) != sorted.end()) {
    return Status::InvalidArgument("Entropy() takes a sorted column set");
  }
  const int64_t version_now = base_->PopulationVersion();
  std::optional<SetEntropy> memo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(sorted);
    if (it != cache_.end() && it->second.version == version_now &&
        it->second.entropy.has_value()) {
      ++stats_.queries;
      ++stats_.cache_hits;
      memo = it->second.entropy;
    }
  }
  if (memo.has_value()) {
    TraceInstant(TraceEventKind::kCacheHit, 1, sorted.size(),
                 static_cast<uint64_t>(memo->support));
    return *memo;
  }
  std::shared_ptr<const GroupCounts> payload;
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<const GroupCounts> counts,
                         Serve(sorted, sorted, &payload));
  const SetEntropy entropy = SetEntropyOf(*counts);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(sorted);
  // Kept only on the payload it was computed from: a patch or
  // replacement meanwhile installed another.
  if (it != cache_.end() && it->second.counts == payload) {
    it->second.entropy = entropy;
  }
  return entropy;
}

StatusOr<std::shared_ptr<const GroupCounts>> CachingCountEngine::Serve(
    const std::vector<int>& cols, std::vector<int> sorted,
    std::shared_ptr<const GroupCounts>* payload) {
  // A summary is reusable only at the population version it was computed
  // at; entries behind `version_now` are patched (never served stale).
  const int64_t version_now = base_->PopulationVersion();

  // Under the lock: bookkeeping and a pointer grab only. Projection,
  // marginalization, patching and scans all run outside it (entries are
  // immutable, so a grabbed shared_ptr stays valid past eviction).
  std::shared_ptr<const GroupCounts> source;
  bool derive = false;
  bool stale = false;
  int64_t source_version = 0;
  std::vector<int> source_key;
  std::shared_ptr<const GroupCounts> kept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;

    auto exact = cache_.find(sorted);
    if (exact != cache_.end()) {
      source = exact->second.counts;
      source_key = sorted;
      source_version = exact->second.version;
      stale = source_version != version_now;
      if (!stale) {
        ++stats_.cache_hits;
        kept = OrderOf(exact->second, cols);
      }
    } else if (auto best = BestSupersetLocked(sorted);
               best != cache_.end()) {
      source = best->second.counts;
      source_key = best->first;
      source_version = best->second.version;
      derive = true;
      stale = source_version != version_now;
      if (!stale) ++stats_.marginalizations;
    }
  }

  if (kept != nullptr) {
    // The hot path of a warm request: the entry already holds the order.
    TraceInstant(TraceEventKind::kCacheHit, 1, cols.size(),
                 kept->NumGroups());
    *payload = std::move(source);
    return kept;
  }

  if (source != nullptr && stale) {
    source = PatchEntry(source_key, std::move(source), source_version,
                        version_now);
    if (source != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      if (derive) {
        ++stats_.marginalizations;
      } else {
        ++stats_.cache_hits;
      }
    } else {
      derive = false;  // patch impossible — recompute cold below
    }
  }

  if (source != nullptr) {
    // Outside the lock: the ring write is lock-free but there is no
    // reason to hold mu_ across it. arg0 = columns, arg1 = source cells.
    TraceInstant(derive ? TraceEventKind::kCacheMarginalize
                        : TraceEventKind::kCacheHit,
                 1, cols.size(), source->NumGroups());
    if (!derive) {
      *payload = source;
      return InOrder(cols, sorted, std::move(source));
    }
    auto result =
        std::make_shared<const GroupCounts>(ProjectOnto(*source, cols));
    std::lock_guard<std::mutex> lock(mu_);
    Insert(std::move(sorted), result, /*pinned=*/false, version_now);
    *payload = result;
    return result;
  }

  // Miss: delegate outside the lock so concurrent misses scan in
  // parallel. A racing thread may insert the same key meanwhile; Insert
  // reconciles the duplicate (counts are identical either way).
  TraceInstant(TraceEventKind::kCacheMiss, 1, cols.size());
  HYPDB_ASSIGN_OR_RETURN(GroupCounts fresh, base_->Counts(cols));
  // A scan's vectors may hold spare capacity (the kernel reserves by
  // domain); a cached summary keeps only its cells.
  fresh.keys.shrink_to_fit();
  fresh.counts.shrink_to_fit();
  auto result = std::make_shared<const GroupCounts>(std::move(fresh));
  std::lock_guard<std::mutex> lock(mu_);
  Insert(std::move(sorted), result, /*pinned=*/false, version_now);
  *payload = result;
  return result;
}

std::shared_ptr<const GroupCounts> CachingCountEngine::OrderOf(
    const Entry& entry, const std::vector<int>& cols) {
  if (entry.counts->codec.cols() == cols) return entry.counts;
  for (const auto& order : entry.orders) {
    if (order->codec.cols() == cols) return order;
  }
  return nullptr;
}

std::shared_ptr<const GroupCounts> CachingCountEngine::InOrder(
    const std::vector<int>& cols, const std::vector<int>& sorted,
    std::shared_ptr<const GroupCounts> payload) {
  if (payload->codec.cols() == cols) return payload;
  // Built outside the lock, like every other derivation. Two readers
  // racing for the same order both build it; the first one kept wins.
  auto projected =
      std::make_shared<const GroupCounts>(ProjectOnto(*payload, cols));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(sorted);
  // The entry was patched, replaced or evicted meanwhile: serve the
  // projection without keeping it.
  if (it == cache_.end() || it->second.counts != payload) return projected;
  std::shared_ptr<const GroupCounts> kept = OrderOf(it->second, cols);
  if (kept != nullptr) return kept;
  it->second.orders.push_back(projected);
  cached_cells_ += projected->NumGroups();
  if (it->second.pinned) pinned_cells_ += projected->NumGroups();
  EvictToBudget();
  return projected;
}

std::shared_ptr<const GroupCounts> CachingCountEngine::PatchEntry(
    const std::vector<int>& key,
    std::shared_ptr<const GroupCounts> stale_counts, int64_t entry_version,
    int64_t version_now) {
  TraceSpanScope span(TraceEventKind::kDeltaPatch, 1,
                      static_cast<uint64_t>(version_now - entry_version),
                      key.size());
  // The delta is grouped in the stale payload's own column order (which
  // need not be the sorted key), because the merge pairs digits by
  // position.
  StatusOr<GroupCounts> delta = base_->CountsDelta(
      stale_counts->codec.cols(), entry_version, version_now);
  if (!delta.ok()) {
    // No delta source (static base — Unimplemented) or the suffix scan
    // failed: the stale summary is useless, drop it so the recompute's
    // insert starts clean. Not an eviction — nothing was under pressure.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.version == entry_version) {
      cached_cells_ -= it->second.Cells();
      if (it->second.pinned) pinned_cells_ -= it->second.Cells();
      cache_.erase(it);
    }
    return nullptr;
  }
  // The delta's codec carries the current dictionary cardinalities, so
  // merging onto it re-keys the older summary exactly — bit-identical to
  // a cold scan of the grown population. The patched entry starts with
  // no other orders and no entropy.
  auto patched = std::make_shared<const GroupCounts>(
      MergeGroupCounts(*stale_counts, *delta, delta->codec));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.delta_patches;
  Insert(key, patched, /*pinned=*/false, version_now);
  return patched;
}

Status CachingCountEngine::Prefetch(const std::vector<int>& cols) {
  std::vector<int> sorted = SortedUniqueColumns(cols);
  const int64_t version_now = base_->PopulationVersion();
  std::shared_ptr<const GroupCounts> stale_counts;
  int64_t stale_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One pinned focus at a time: release the previous one so repeated
    // Focus() hints (one per discovery phase) cannot accumulate unbounded
    // pinned summaries that defeat the cell budget.
    if (!pinned_key_.empty() && pinned_key_ != sorted) {
      auto prev = cache_.find(pinned_key_);
      if (prev != cache_.end() && prev->second.pinned) {
        prev->second.pinned = false;
        pinned_cells_ -= prev->second.Cells();
      }
    }
    pinned_key_ = sorted;
    auto it = cache_.find(sorted);
    if (it != cache_.end()) {
      if (it->second.version == version_now) {
        if (!it->second.pinned) {
          it->second.pinned = true;
          pinned_cells_ += it->second.Cells();
        }
        EvictToBudget();  // the focus just left the budgeted set
        return Status::Ok();
      }
      // Stale focus: patch it outside the lock rather than rescanning —
      // the focus superset is the largest summary in the cache, exactly
      // the one delta maintenance is for.
      stale_counts = it->second.counts;
      stale_version = it->second.version;
    }
  }
  if (stale_counts != nullptr) {
    std::shared_ptr<const GroupCounts> patched =
        PatchEntry(sorted, std::move(stale_counts), stale_version,
                   version_now);
    if (patched != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(sorted);
      if (it != cache_.end() && pinned_key_ == sorted &&
          !it->second.pinned) {
        it->second.pinned = true;
        pinned_cells_ += it->second.Cells();
      }
      EvictToBudget();
      return Status::Ok();
    }
    // Patch impossible — fall through to the cold path.
  }
  HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, base_->Counts(sorted));
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent Prefetch may have repointed the focus while we scanned;
  // only pin if this key is still the focus.
  const bool still_focus = pinned_key_ == sorted;
  TraceInstant(TraceEventKind::kCachePrefetch, 1, counts.NumGroups(),
               still_focus ? 1 : 0);
  Insert(std::move(sorted),
         std::make_shared<const GroupCounts>(std::move(counts)),
         /*pinned=*/still_focus, version_now);
  return Status::Ok();
}

std::map<std::vector<int>, CachingCountEngine::Entry>::const_iterator
CachingCountEngine::BestSupersetLocked(
    const std::vector<int>& sorted) const {
  // Deterministic total order so stats and digest trails reproduce
  // run-to-run given equal cache contents: fewest groups (cheapest sum),
  // then fewest columns (cheapest decode), then the lexicographically
  // smallest column set. The map iterates keys ascending, so strict
  // comparisons make the lexicographic tie-break implicit.
  auto best = cache_.end();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    const std::vector<int>& key = it->first;
    if (key.size() <= sorted.size() || !IsSubset(sorted, key)) continue;
    if (best == cache_.end() ||
        it->second.counts->NumGroups() < best->second.counts->NumGroups() ||
        (it->second.counts->NumGroups() ==
             best->second.counts->NumGroups() &&
         key.size() < best->first.size())) {
      best = it;
    }
  }
  return best;
}

std::vector<int> CachingCountEngine::MarginalizationSource(
    const std::vector<int>& cols) const {
  std::vector<int> sorted = SortedUniqueColumns(cols);
  // Mirror Counts(): duplicate-column queries bypass the cache entirely,
  // so they never marginalize anything.
  if (sorted.size() != cols.size()) return {};
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.find(sorted) != cache_.end()) return {};
  auto best = BestSupersetLocked(sorted);
  return best == cache_.end() ? std::vector<int>{} : best->first;
}

CacheOccupancy CachingCountEngine::CacheUse() const {
  CacheOccupancy use;
  {
    std::lock_guard<std::mutex> lock(mu_);
    use.cached_cells = cached_cells_;
    use.pinned_cells = pinned_cells_;
    use.budget_cells = options_.max_cached_cells;
    use.entries = static_cast<int64_t>(cache_.size());
  }
  use += base_->CacheUse();
  return use;
}

void CachingCountEngine::Insert(std::vector<int> sorted,
                                std::shared_ptr<const GroupCounts> counts,
                                bool pinned, int64_t version) {
  uint64_t sequence = next_sequence_;
  auto existing = cache_.find(sorted);
  if (existing != cache_.end()) {
    // Concurrent double-miss (or Prefetch racing Counts, or a delta
    // patch): replace the payload, fix the accounting, and never drop an
    // existing pin. The entry keeps its admission sequence.
    cached_cells_ -= existing->second.Cells();
    if (existing->second.pinned) {
      pinned_cells_ -= existing->second.Cells();
      pinned = true;
    }
    sequence = existing->second.sequence;
  } else {
    ++next_sequence_;
  }
  cached_cells_ += counts->NumGroups();
  if (pinned) pinned_cells_ += counts->NumGroups();
  Entry entry;
  entry.counts = std::move(counts);
  entry.pinned = pinned;
  entry.version = version;
  entry.sequence = sequence;
  cache_.insert_or_assign(std::move(sorted), std::move(entry));
  EvictToBudget();
}

void CachingCountEngine::EvictToBudget() {
  // Pinned cells are exempt: the budget bounds the evictable set, so a
  // large pinned focus cannot starve every derived summary out of the
  // cache (it used to — see the eviction regression test).
  if (cached_cells_ - pinned_cells_ <= options_.max_cached_cells) return;
  // Oldest-first: walk the unpinned entries in admission order.
  std::vector<std::pair<uint64_t, const std::vector<int>*>> victims;
  victims.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    if (!entry.pinned) victims.emplace_back(entry.sequence, &key);
  }
  std::sort(victims.begin(), victims.end());
  int64_t evicted_entries = 0;
  int64_t evicted_cells = 0;
  for (const auto& [sequence, key] : victims) {
    if (cached_cells_ - pinned_cells_ <= options_.max_cached_cells) break;
    auto found = cache_.find(*key);
    cached_cells_ -= found->second.Cells();
    evicted_cells += found->second.Cells();
    ++evicted_entries;
    cache_.erase(found);
    ++stats_.evictions;
  }
  if (evicted_entries > 0) {
    TraceInstant(TraceEventKind::kCacheEvict, 1,
                 static_cast<uint64_t>(evicted_cells),
                 static_cast<uint64_t>(evicted_entries));
  }
}

CountEngineStats CachingCountEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CountEngineStats total = stats_;
  total += base_->stats();
  // Base-engine calls were all issued by this layer on behalf of the same
  // external queries; only count each external query once.
  total.queries = stats_.queries;
  return total;
}

void CachingCountEngine::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = {};
  base_->ResetStats();
}

int64_t CachingCountEngine::cached_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_cells_;
}

int64_t CachingCountEngine::pinned_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_cells_;
}

int CachingCountEngine::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cache_.size());
}

}  // namespace hypdb
