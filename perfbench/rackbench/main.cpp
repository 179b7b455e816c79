// rackbench: one run of one workload of the rack-scale benchmark.
//
//   rackbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// A run repeats whole rounds of the workload (set-up from scratch, then the
// measured phase) until S seconds have passed and at least kMinRounds
// rounds are done, and reports each host time as the lower quartile over
// rounds (see host_time). With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it alternates untraced and traced rounds and prints the
// per-layer metrics (medians over traced rounds) plus trace.overhead_s
// (traced run_s minus untraced run_s), writing the traced
// rounds' spans to FILE. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "workloads.h"

namespace rackbench {

namespace {

constexpr int kMinRounds = 3;

// A host time over rounds: the nearest-rank lower quartile, which is the
// minimum when a run has 3 or 4 rounds. Time the hypervisor takes from the
// host's virtual CPUs only ever lengthens a round, so a run's faster rounds
// estimate the program's own cost better than its median does; the quartile
// rather than the minimum keeps one unusually fast round from setting it.
double host_time(const std::vector<double>& rounds) { return percentile(rounds, 25); }

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) return std::atof(line.c_str() + len);
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them. A layer a
// workload does not exercise reads 0.
const char* const kLayerNames[] = {
    "topology.build_s", "routing.build_s", "sim.build_s", "broadcast.build_s",
    "broadcast.tree_mb", "broadcast.sent", "broadcast.copies", "engine.events",
    "engine.ns_per_event", "engine.windows", "engine.serial_phases", "engine.window_stalls",
    "engine.mailbox_posted", "net.data_mb", "net.control_mb", "net.max_queue_kb",
    "waterfill.recomputes", "waterfill.recompute_s", "waterfill.solve_us",
    "routesel.search_s", "routesel.evaluations", "routesel.solves", "routesel.memo_hits",
    "routesel.spec_children", "routesel.spec_aborts", "routesel.spec_useful",
    "routesel.utility_gbps", "pool.executed", "pool.stolen", "transport.retransmissions",
    "transport.flow_aborts", "recovery.detect_us", "recovery.reconverge_us",
    "recovery.rebuild_s", "service.rpc.p99_us", "service.incast.p99_us",
    "service.storage.p99_us", "snapshot.digest_s", "snapshot.digests", "snapshot.save_s",
    "snapshot.load_s", "snapshot.mb",
};

const char* layer_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_us")) return "us";
  if (ends("_mb")) return "MB";
  if (ends("_kb")) return "KB";
  if (ends("_gbps")) return "Gbps";
  if (ends("ns_per_event")) return "ns";
  if (ends("spec_useful")) return "ratio";
  if (ends(".mb")) return "MB";
  return "count";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]\n"
               "workloads:",
               argv0);
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, spans_path;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string opt = argv[i];
    const char* val = argv[i + 1];
    if (opt == "--workload") workload = val;
    else if (opt == "--seed") seed = std::atoll(val);
    else if (opt == "--seconds") seconds = std::atof(val);
    else if (opt == "--trace") trace = std::atoi(val);
    else if (opt == "--spans") spans_path = val;
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines survive a kill
  std::unique_ptr<Workload> wl = make_workload(workload, static_cast<std::uint64_t>(seed));
  if (wl == nullptr) return usage(argv[0]);

  std::printf("workload %s, seed %lld, %g s, trace %d\n", workload.c_str(), seed, seconds, trace);
  std::printf("inputs: %s\n", wl->describe().c_str());
  std::printf("host: %u hardware threads, %s build, %s\n", std::thread::hardware_concurrency(),
              RACKBENCH_BUILD_TYPE, RACKBENCH_COMPILER);

  std::vector<std::string> errors;
  if (self_test(errors)) std::printf("self-test: every checker rejects its broken input\n");

  Spans spans(trace == 1);
  Spans off(false);
  std::vector<RoundResult> plain, traced;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds || static_cast<int>(plain.size()) < kMinRounds) {
    plain.push_back(wl->round(off));
    if (trace == 1) traced.push_back(wl->round(spans));
    // Later rounds repeat the first one's trajectory (the outcome digest
    // checks that); dropping their samples keeps memory flat in the round
    // count, so peak RSS does not depend on how fast the host is.
    if (plain.size() > 1) plain.back().short_fct_us.clear();
    if (!traced.empty()) traced.back().short_fct_us.clear();
  }

  const RoundResult& first = plain.front();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, run_s, traced_run;
  for (const std::vector<RoundResult>* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) {
        if (std::find(errors.begin(), errors.end(), e) == errors.end()) errors.push_back(e);
      }
      if (r.outcome_digest != first.outcome_digest) {
        errors.push_back("a round's simulated outcome differs from the first round's");
      }
    }
  }
  for (const RoundResult& r : plain) {
    setup.push_back(r.setup_s);
    run_s.push_back(r.run_s);
  }
  for (const RoundResult& r : traced) traced_run.push_back(r.run_s);

  std::vector<Metric> metrics;
  if (trace == 0) {
    const double ops = static_cast<double>(first.attempted);
    metrics = {
        {"setup_s", host_time(setup), "s"},
        {"run_s", host_time(run_s), "s"},
        {"peak_rss_mb", status_kb("VmHWM:") / 1024.0, "MB"},
        {"short_fct_p50_us", percentile(first.short_fct_us, 50), "us"},
        {"short_fct_p99_us", percentile(first.short_fct_us, 99), "us"},
        {"goodput_gbps", first.goodput_gbps, "Gbps"},
        {"ops_per_s", ops / host_time(run_s), "1/s"},
    };
  } else {
    for (const char* name : kLayerNames) {
      std::vector<double> values;
      for (const RoundResult& r : traced) {
        const auto it = r.layers.find(name);
        values.push_back(it != r.layers.end() ? it->second : 0.0);
      }
      metrics.push_back({name, median(values), layer_unit(name)});
    }
    metrics.push_back({"trace.overhead_s", host_time(traced_run) - host_time(run_s), "s"});
    if (!spans_path.empty() && !spans.write_json(spans_path)) {
      errors.push_back("could not write spans to " + spans_path);
    }
  }

  std::printf("rounds: %zu untraced, %zu traced; per round %zu short flows, peak %zu open, "
              "simulated span %.1f us\n",
              plain.size(), traced.size(), first.short_fct_us.size(), first.peak_active,
              first.span_us);
  std::printf("round setup_s / run_s:");
  for (const RoundResult& r : plain) std::printf(" %.3f/%.3f", r.setup_s, r.run_s);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("correct: %s\n", errors.empty() ? "yes" : "no");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

}  // namespace rackbench

int main(int argc, char** argv) { return rackbench::run(argc, argv); }
