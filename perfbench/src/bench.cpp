#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

hypdb::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return hypdb::Status::IoError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

hypdb::Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return hypdb::Status::IoError("cannot write " + path);
  return hypdb::Status::Ok();
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Finish(bool correct, int64_t attempted, int64_t failed) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Entry& m : metrics_) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6g (%lld failed of %lld attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<SetupTimes> RepeatSetup(int repeats,
                                    const std::function<SetupTimes()>& setup) {
  std::vector<SetupTimes> out;
  for (int rep = 0; rep + 1 < repeats; ++rep) {
    int fds[2];
    if (pipe(fds) != 0) return {};
    const pid_t child = fork();
    if (child < 0) return {};
    if (child == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the run
      close(fds[0]);
      const SetupTimes times = setup();
      const bool sent =
          write(fds[1], &times, sizeof(times)) == sizeof(times);
      // No destructors or atexit handlers: the set-up's threads die with
      // the process, and the parent's buffered output is not repeated.
      _exit(sent && times.seconds >= 0 ? 0 : 1);
    }
    close(fds[1]);
    SetupTimes times;
    const bool received = read(fds[0], &times, sizeof(times)) == sizeof(times);
    close(fds[0]);
    int status = 0;
    if (waitpid(child, &status, 0) != child || !received ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return {};
    }
    out.push_back(times);
  }
  const SetupTimes last = setup();
  if (last.seconds < 0) return {};
  out.push_back(last);
  return out;
}

uint64_t SpanLog::Add(uint64_t op, uint64_t parent, std::string name,
                      double start, double seconds, std::string attrs) {
  Span span;
  span.op = op;
  span.id = parent == 0 ? op : ++next_id_;
  span.parent = parent;
  span.name = std::move(name);
  span.start = start;
  span.seconds = seconds;
  span.attrs = std::move(attrs);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Merge(SpanLog&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

bool SpanLog::Write(const std::string& path, double origin) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"op\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"dur_us\":%.3f%s%s}\n",
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 (s.start - origin) * 1e6, s.seconds * 1e6,
                 s.attrs.empty() ? "" : ",", s.attrs.c_str());
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc < 2) return Usage();
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.seconds <= 0.0) return Usage();
  if (args.mode == "gen") return perfbench::Generate(args);
  if (args.mode != "run") return Usage();
  if (args.workload == "table1_oneshot") {
    return perfbench::RunTable1Oneshot(args);
  }
  if (args.workload == "adult_warm_wire") {
    return perfbench::RunAdultWarmWire(args);
  }
  if (args.workload == "staples_ingest_wire") {
    return perfbench::RunStaplesIngestWire(args);
  }
  return Usage();
}
