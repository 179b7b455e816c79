// Shared plumbing for the rack-scale benchmark: host clocks, the span
// recorder used by traced runs, and small statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace rackbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Spans around the benchmark's calls into the program: name, start, end
// (seconds since the recorder was created) and the index of the enclosing
// span (-1 at the top). Kept in memory; written out once at the end of the
// run. Disabled recorders cost one branch per span.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), -1.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    current_ = s.parent;
  }

  // Writes the spans as a JSON array; returns false if the file could not
  // be written.
  bool write_json(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
  };
  double now() const { return seconds_since(t0_); }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in [0, 100]. The benchmark computes its
// figures itself rather than with the program's common/stats.h, so a change
// to the program's statistics cannot move the benchmark's yardstick.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// What one round of a workload produced. A round is one complete pass:
// set-up from topology construction to the first event, then the measured
// phase. Simulated figures are a pure function of the seed; host figures
// are what this round took.
struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t attempted = 0;  // flows (torus) or requests (Clos tenants)
  std::uint64_t failed = 0;     // unfinished, aborted or failing a check
  std::vector<double> short_fct_us;
  double goodput_gbps = 0.0;
  std::size_t peak_active = 0;  // most flows open at one simulated instant
  double span_us = 0.0;         // simulated first arrival to last completion
  // Exact fingerprint of the simulated outcome; every round of one run
  // must reproduce it.
  std::uint64_t outcome_digest = 0;
  // Per-layer figures; a run reports them from its traced rounds.
  std::map<std::string, double> layers;
  std::vector<std::string> errors;  // failed correctness checks
};

}  // namespace rackbench
