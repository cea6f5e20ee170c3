#include "service/session_manager.h"

#include <algorithm>

namespace hypdb {

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options) {}

void SessionManager::SweepLocked() {
  if (options_.ttl_seconds <= 0.0) return;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->touched.ElapsedSeconds() > options_.ttl_seconds) {
      metrics_.expired.Add();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<SessionManager::Entry> SessionManager::Insert(
    std::string dataset, int64_t epoch, std::string sql,
    std::unique_ptr<AnalysisSession> session,
    std::shared_ptr<DiscoveryFlags> discovery) {
  auto entry = std::make_shared<Entry>();
  entry->dataset = std::move(dataset);
  entry->epoch = epoch;
  entry->sql = std::move(sql);
  entry->session = std::move(session);
  entry->discovery = std::move(discovery);

  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  // LRU cap: make room by dropping the longest-idle session. An entry
  // mid-stage survives as long as the running job's shared_ptr does; its
  // id simply answers kGone afterwards.
  const int64_t cap = std::max<int64_t>(1, options_.max_sessions);
  while (static_cast<int64_t>(sessions_.size()) >= cap) {
    auto victim = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second->touched.ElapsedSeconds() >
          victim->second->touched.ElapsedSeconds()) {
        victim = it;
      }
    }
    metrics_.evicted.Add();
    sessions_.erase(victim);
  }
  entry->id = next_id_++;
  sessions_.emplace(entry->id, entry);
  metrics_.created.Add();
  return entry;
}

StatusOr<std::shared_ptr<SessionManager::Entry>> SessionManager::Get(
    uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (id > 0 && id < next_id_) {
      return Status::Gone("session " + std::to_string(id) +
                          " expired, was invalidated, or was closed");
    }
    return Status::NotFound("unknown session " + std::to_string(id));
  }
  it->second->touched.Restart();
  return it->second;
}

Status SessionManager::Erase(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  SweepLocked();
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (id > 0 && id < next_id_) {
      return Status::Gone("session " + std::to_string(id) +
                          " expired, was invalidated, or was closed");
    }
    return Status::NotFound("unknown session " + std::to_string(id));
  }
  sessions_.erase(it);
  metrics_.closed.Add();
  return Status::Ok();
}

int64_t SessionManager::InvalidateDataset(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->dataset == dataset) {
      it = sessions_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  metrics_.invalidated.Add(dropped);
  return dropped;
}

SessionInfo SessionManager::Info(
    const std::shared_ptr<Entry>& entry) const {
  SessionInfo info;
  info.id = entry->id;
  info.dataset = entry->dataset;
  info.epoch = entry->epoch;
  info.sql = entry->sql;
  info.age_seconds = entry->created.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    info.idle_seconds = entry->touched.ElapsedSeconds();
  }
  std::lock_guard<std::mutex> stage_lock(entry->mu);
  const AnalysisSession& session = *entry->session;
  info.complete = session.complete();
  info.contexts = session.SplitContextCount();
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    const AnalysisStage stage = static_cast<AnalysisStage>(s);
    const StageState& state = session.stage_state(stage);
    SessionStageInfo row;
    row.stage = AnalysisStageName(stage);
    row.done = state.done;
    row.runs = state.runs;
    row.reuses = state.reuses;
    row.seconds = state.seconds;
    info.stages.push_back(std::move(row));
  }
  return info;
}

std::vector<SessionInfo> SessionManager::List() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : sessions_) entries.push_back(entry);
  }
  std::vector<SessionInfo> out;
  out.reserve(entries.size());
  for (const auto& entry : entries) out.push_back(Info(entry));
  return out;
}

int64_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

}  // namespace hypdb
