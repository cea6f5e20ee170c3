#include "service/discovery_cache.h"

#include <algorithm>

#include "util/trace.h"

namespace hypdb {

DiscoveryCache::DiscoveryCache(DiscoveryCacheOptions options)
    : options_(options) {}

bool DiscoveryCache::StaleLocked(int64_t entry_watermark,
                                 int64_t watermark) const {
  if (entry_watermark < 0 || watermark < 0) return false;
  if (options_.refresh_rows_fraction < 0) return false;  // refresh disabled
  const double grown = static_cast<double>(watermark - entry_watermark);
  return grown > options_.refresh_rows_fraction *
                     static_cast<double>(entry_watermark);
}

bool DiscoveryCache::Newer(int64_t entry_watermark, int64_t watermark) {
  return entry_watermark >= 0 && watermark >= 0 &&
         entry_watermark > watermark;
}

StatusOr<DiscoveryReport> DiscoveryCache::LookupOrCompute(
    const std::string& key,
    const std::function<StatusOr<DiscoveryReport>()>& compute, bool* reused,
    bool* coalesced, int64_t watermark) {
  if (reused != nullptr) *reused = false;
  if (coalesced != nullptr) *coalesced = false;

  std::unique_lock<std::mutex> lock(mu_);
  auto hit = cache_.find(key);
  // An entry computed over rows this lookup did not bind never serves it
  // (and is kept: it serves lookups at its own watermark).
  if (hit != cache_.end() && !Newer(hit->second.watermark, watermark)) {
    if (!StaleLocked(hit->second.watermark, watermark)) {
      ++stats_.hits;
      if (reused != nullptr) *reused = true;
      TraceInstant(TraceEventKind::kDiscoveryHit, 1);
      return hit->second.report;
    }
    // Past the staleness bound: drop the entry and recompute below (or
    // join a twin already recomputing). Appends never touch the cache —
    // this lazy refresh is the only way growth retires a discovery.
    ++stats_.stale_refreshes;
    cache_.erase(hit);
    age_.remove(key);
  }

  // Only a computation over the same rows is this discovery.
  const std::pair<std::string, int64_t> flight_key(key, watermark);
  auto flight = inflight_.find(flight_key);
  if (flight != inflight_.end()) {
    // Coalesce: another worker is computing this exact discovery right
    // now. Wait for it instead of duplicating the work — this is the
    // same-(table, treatment) request batching. The wait span makes
    // coalesced requests' "discovery time" legible in their trace: it
    // was a wait, not a computation.
    std::shared_ptr<InFlight> state = flight->second;
    ++stats_.coalesced;
    {
      TraceSpanScope wait_span(TraceEventKind::kDiscoveryWait, 1);
      state->cv.wait(lock, [&] { return state->done; });
    }
    if (!state->status.ok()) return state->status;
    if (reused != nullptr) *reused = true;
    if (coalesced != nullptr) *coalesced = true;
    return *state->report;
  }

  ++stats_.misses;
  TraceInstant(TraceEventKind::kDiscoveryCompute, 1);
  auto state = std::make_shared<InFlight>();
  inflight_.emplace(flight_key, state);
  lock.unlock();

  StatusOr<DiscoveryReport> result = compute();

  lock.lock();
  inflight_.erase(flight_key);
  state->done = true;
  if (result.ok()) {
    state->report = *result;
    // The newest discovery of a key is the one kept.
    auto [it, inserted] = cache_.try_emplace(key, Entry{*result, watermark});
    if (inserted) {
      age_.push_back(key);
    } else if (Newer(watermark, it->second.watermark)) {
      it->second = Entry{*result, watermark};
    }
    while (static_cast<int64_t>(cache_.size()) >
               std::max<int64_t>(1, options_.max_entries) &&
           !age_.empty()) {
      if (cache_.erase(age_.front()) > 0) ++stats_.evictions;
      age_.pop_front();
    }
  } else {
    state->status = result.status();
  }
  state->cv.notify_all();
  return result;
}

int64_t DiscoveryCache::InvalidatePrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  auto it = cache_.lower_bound(prefix);
  while (it != cache_.end() && it->first.rfind(prefix, 0) == 0) {
    it = cache_.erase(it);
    ++dropped;
  }
  if (dropped > 0) {
    age_.remove_if([&](const std::string& key) {
      return key.rfind(prefix, 0) == 0;
    });
    stats_.invalidations += dropped;
  }
  return dropped;
}

DiscoveryCacheStats DiscoveryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t DiscoveryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(cache_.size());
}

}  // namespace hypdb
