#ifndef MOST_BENCH_BENCH_OBS_H_
#define MOST_BENCH_BENCH_OBS_H_

// Shared plumbing for the BENCH_*.json emitters:
//
//  * every summary gains a "metrics" section — the global registry's JSON
//    snapshot, so a bench artifact carries the engine counters (atomic
//    solves, WAL syncs, retransmissions, ...) that explain its numbers;
//  * each run can be appended to the committed result-trajectory files
//    under bench/trajectories/, one JSON array per benchmark, so headline
//    numbers are tracked across commits. The append is opt-in via
//    MOST_BENCH_TRAJECTORY_DIR (CI and developers point it at the repo's
//    bench/trajectories; ad-hoc runs leave the files alone). Trajectory
//    entries omit the bulky metrics section.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/exporters.h"
#include "obs/metrics.h"

namespace most::benchio {

// The global registry's metric series as a JSON array (the "metrics"
// member's value). JsonSnapshot renders {"metrics": [...]}; splice out the
// array so it can sit under the bench summary's own "metrics" key.
inline std::string MetricsJsonArray(const std::string& indent = "  ") {
  std::string snap = obs::JsonSnapshot(obs::MetricsRegistry::Global(), indent);
  size_t lo = snap.find('[');
  size_t hi = snap.rfind(']');
  if (lo == std::string::npos || hi == std::string::npos || hi < lo) {
    return "[]";
  }
  return snap.substr(lo, hi - lo + 1);
}

// Appends one run summary (a complete JSON object) to the trajectory
// array <MOST_BENCH_TRAJECTORY_DIR>/<name>.json. No-op when the env var
// is unset. An empty / missing / "[]" file starts a fresh array.
inline void AppendTrajectory(const std::string& name,
                             const std::string& entry) {
  const char* dir = std::getenv("MOST_BENCH_TRAJECTORY_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".json";
  std::string existing;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    existing = ss.str();
  }
  std::string indented = "  ";
  for (char c : entry) {
    indented += c;
    if (c == '\n') indented += "  ";
  }
  while (!indented.empty() &&
         (indented.back() == ' ' || indented.back() == '\n')) {
    indented.pop_back();
  }
  size_t close = existing.rfind(']');
  std::ofstream out(path);
  if (close == std::string::npos) {
    out << "[\n" << indented << "\n]\n";
    return;
  }
  std::string head = existing.substr(0, close);
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
    head.pop_back();
  }
  if (head == "[") {
    out << "[\n" << indented << "\n]\n";
  } else {
    out << head << ",\n" << indented << "\n]\n";
  }
}

// Finishes a BENCH_*.json emission. `body` is the summary object WITHOUT
// its closing brace (trailing newline optional). Writes `path` with the
// metrics section appended as the last member, and records the plain
// summary (no metrics) on the benchmark's trajectory.
inline void FinishBenchJson(const std::string& path, const std::string& name,
                            std::string body) {
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  {
    std::ofstream out(path);
    out << body << ",\n  \"metrics\": " << MetricsJsonArray("  ") << "\n}\n";
  }
  AppendTrajectory(name, body + "\n}\n");
}

}  // namespace most::benchio

#endif  // MOST_BENCH_BENCH_OBS_H_
