// Shared pieces of the perfbench program: arguments, result reporting,
// benchmark-side spans, statistics helpers and the input-file format.
//
// perfbench measures HypDB from the outside only: it times calls into
// public functions and reads the counters the program already returns.
// Nothing here reaches into src/ beyond its public headers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace perfbench {

struct Args {
  std::string mode;      // "gen" or "run"
  std::string workload;  // table1_oneshot | adult_warm_wire | staples_ingest_wire
  std::string dir;       // generated inputs live here
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for empty input.
double Quantile(std::vector<double> v, double q);
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// SplitMix64 step: derives independent generator seeds from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

hypdb::StatusOr<std::string> ReadFile(const std::string& path);
hypdb::Status WriteFile(const std::string& path, const std::string& text);

/// Names of the generated input files inside Args::dir.
inline const char kRequestsFile[] = "requests.jsonl";

/// One line of requests.jsonl. `kind` selects the operation; the other
/// members are filled per kind (see inputs.cpp for each workload).
struct InputOp {
  std::string kind{};  // oneshot|shape|pass_end|register|analyze|session|append
  std::string name{};  // dataset/table name
  std::string path{};  // CSV file name, relative to Args::dir
  std::string sql{};
  std::string body{};  // exact HTTP request body bytes
  int64_t shape = -1;
  int64_t client = 0;
};

/// Writes the workload's inputs (CSVs + requests.jsonl) into args.dir.
int Generate(const Args& args);
/// Reads requests.jsonl back.
hypdb::StatusOr<std::vector<InputOp>> ReadOps(const std::string& dir);
/// Parses the rows of an append body back into labels (for the plain
/// reference table of the ingest workload).
hypdb::StatusOr<std::vector<std::vector<std::string>>> AppendRows(
    const InputOp& op);

/// Accumulates metrics and prints them: human-readable lines first, the
/// result JSON object as the last line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Prints everything; returns the process exit code (0 iff correct).
  int Finish(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

/// Benchmark-side spans, kept in memory and written out at exit. Every
/// operation gets one root span; its child spans carry the same `op` id.
class SpanLog {
 public:
  struct Span {
    uint64_t op = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 for the root span of an operation
    std::string name;
    double start = 0.0;  // seconds on the Now() clock
    double seconds = 0.0;
    std::string attrs;  // preformatted JSON object members, may be empty
  };

  /// Ids start above `first_id`, so logs of concurrent clients can be
  /// merged without collisions.
  explicit SpanLog(uint64_t first_id = 0) : next_id_(first_id) {}

  /// Starts an operation and returns its id (== its root span id).
  uint64_t BeginOp() { return ++next_id_; }
  /// Records a finished span and returns its id.
  uint64_t Add(uint64_t op, uint64_t parent, std::string name, double start,
               double seconds, std::string attrs = "");
  void Merge(SpanLog&& other);
  /// One JSON object per line; times in microseconds from `origin`.
  bool Write(const std::string& path, double origin) const;
  size_t size() const { return spans_.size(); }

 private:
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// The workloads; each returns the process exit code.
int RunTable1Oneshot(const Args& args);
int RunAdultWarmWire(const Args& args);
int RunStaplesIngestWire(const Args& args);

/// Durations of one set-up; `seconds` < 0 marks a failed set-up.
struct SetupTimes {
  double seconds = -1.0;
  double register_seconds = 0.0;
};

/// Runs `setup` `repeats` times: first in forked child processes, so
/// their memory never counts toward this process's peak RSS, then once
/// here, leaving its state in place for the measured phase. setup_s is
/// the median. Must be called while this process has a single thread.
/// Returns every set-up's times, or an empty vector when one failed.
std::vector<SetupTimes> RepeatSetup(int repeats,
                                    const std::function<SetupTimes()>& setup);
/// Operations per traced/untraced block in a traced run: even blocks run
/// untraced, odd blocks traced, so drift hits both halves alike.
inline constexpr int kTraceBlockOps = 8;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
