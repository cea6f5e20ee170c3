// SessionManager: the service's registry of live AnalysisSessions.
//
// A session is the wire-addressable handle of the staged "think twice"
// loop (core/analysis_session.h): created once per (dataset, query),
// advanced stage by stage, inspected, and eventually deleted. The
// manager owns lifecycle only — stage execution happens through the
// QueryScheduler; each entry carries a mutex serializing stages so the
// (non-thread-safe) session object is touched by one worker at a time.
//
// Lifecycle rules:
//  * TTL — a session idle longer than ttl_seconds expires; expired
//    entries are dropped lazily on any manager operation.
//  * LRU cap — at most max_sessions live entries; creating beyond the
//    cap evicts the longest-idle session.
//  * Epoch invalidation — re-registering a dataset invalidates all of
//    its sessions (their engines and discoveries aggregate the old
//    table's rows).
// A lookup of an id that once existed but was expired / invalidated /
// closed fails kGone (wire 410); an id never issued fails kNotFound
// (wire 404) — clients can tell "recreate the session" from "you have
// the wrong id".

#ifndef HYPDB_SERVICE_SESSION_MANAGER_H_
#define HYPDB_SERVICE_SESSION_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "service/request.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace hypdb {

/// Session lifecycle counters (the SQLStats idiom): every way a session
/// can leave the table gets its own monotone counter, so
/// live = created - expired - evicted - invalidated - closed.
struct SessionManagerMetrics {
  Counter created;
  Counter expired;      // TTL sweep
  Counter evicted;      // LRU cap at Insert
  Counter invalidated;  // dataset re-registration
  Counter closed;       // explicit Erase
};

struct SessionManagerOptions {
  /// Live sessions kept; creating beyond this evicts the longest-idle.
  int64_t max_sessions = 64;
  /// Idle seconds before a session expires; <= 0 disables expiry.
  double ttl_seconds = 600.0;
};

/// One row of a session's stage table (wire + REPL rendering).
struct SessionStageInfo {
  std::string stage;
  bool done = false;
  int64_t runs = 0;
  int64_t reuses = 0;
  double seconds = 0.0;
};

/// Introspection snapshot of one session.
struct SessionInfo {
  uint64_t id = 0;
  std::string dataset;
  int64_t epoch = 0;
  std::string sql;
  bool complete = false;
  /// Contexts of the bound query; -1 until a stage split them.
  int contexts = -1;
  double age_seconds = 0.0;
  double idle_seconds = 0.0;
  std::vector<SessionStageInfo> stages;
};

/// Thread-safe (all methods); stage execution against an entry's session
/// additionally requires that entry's mu.
class SessionManager {
 public:
  struct Entry {
    uint64_t id = 0;
    std::string dataset;
    int64_t epoch = 0;
    std::string sql;
    /// Serializes stage execution (AnalysisSession is not thread-safe).
    std::mutex mu;
    std::unique_ptr<AnalysisSession> session;
    /// Set by the session's discovery interceptor (see DiscoveryFlags).
    std::shared_ptr<DiscoveryFlags> discovery;
    Stopwatch created;
    Stopwatch touched;  // guarded by the manager lock
  };

  explicit SessionManager(SessionManagerOptions options = {});

  /// Registers a new session and assigns its id; evicts expired entries
  /// and, beyond max_sessions, the longest-idle one.
  std::shared_ptr<Entry> Insert(std::string dataset, int64_t epoch,
                                std::string sql,
                                std::unique_ptr<AnalysisSession> session,
                                std::shared_ptr<DiscoveryFlags> discovery);

  /// Looks the session up and refreshes its idle clock. kNotFound for
  /// ids never issued, kGone for ids that existed but were expired,
  /// invalidated or closed.
  StatusOr<std::shared_ptr<Entry>> Get(uint64_t id);

  /// Closes a session. Same error contract as Get().
  Status Erase(uint64_t id);

  /// Drops every session of `dataset` (epoch invalidation). Returns the
  /// number dropped.
  int64_t InvalidateDataset(const std::string& dataset);

  /// Introspection snapshot of one entry. Takes the entry's stage lock —
  /// blocks while a stage of that session is running.
  SessionInfo Info(const std::shared_ptr<Entry>& entry) const;
  /// Snapshots of all live sessions, id-ascending.
  std::vector<SessionInfo> List() const;

  int64_t size() const;

  /// Live lifecycle counters (see SessionManagerMetrics).
  const SessionManagerMetrics& metrics() const { return metrics_; }

 private:
  /// Drops expired entries. Requires mu_.
  void SweepLocked();

  SessionManagerOptions options_;
  mutable SessionManagerMetrics metrics_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<Entry>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_SESSION_MANAGER_H_
