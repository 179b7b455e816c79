// Route-search benchmark: the parallel delta-fitness GA against its
// searcher siblings on the paper-scale workload (512-node 3D torus, 1000
// long flows, choices {RPS, VLB}).
//
// Three sections, all feeding one JSON report:
//   1. GA thread scaling (1/2/4/8 threads, each timed kReps times,
//      interleaved) — asserts every run returns the bit-identical result
//      (assignment, utility, evaluation count) as the serial run, and on
//      hosts with enough cores enforces hard speedup gates on the median
//      wall times (>= 1.5x at 2 threads, >= 3x at 8) plus a
//      per-evaluation CPU bound (parallel cost within 2x of the serial
//      delta path). Thread counts beyond the host's cores are reported
//      with an "oversub" warning and exempt from the timing gates —
//      oversubscribed speedups measure the scheduler, not the code.
//   2. Searcher parity — simulated annealing and the memetic hybrid get
//      the evaluation budget the GA actually spent and must reach at
//      least the GA's utility (gated at full scale only; reduced-scale
//      CI instances are reported but not gated).
//   3. Blended utility sweep — the GA run under kBlended at
//      w in {0, 0.25, 0.5}, reporting the aggregate and min throughput
//      of each resulting assignment (the EXPERIMENTS.md trade-off table).
//
// Emits machine-readable JSON to BENCH_ga.json (override with
// R2C2_BENCH_OUT); the committed baseline lives at
// bench/baselines/BENCH_ga.json and is referenced from EXPERIMENTS.md.
// The JSON records hardware_threads and the build type so baselines from
// different machines and builds compare fairly.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "control/route_selection.h"

namespace r2c2::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<FlowSpec> ga_flows(const Topology& topo, int n, Rng& rng) {
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    do {
      f.dst = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    } while (f.dst == f.src);
    f.alg = RouteAlg::kRps;
    f.weight = 1.0;
    f.priority = 0;
    f.demand = kUnlimitedDemand;
    flows.push_back(f);
  }
  return flows;
}

struct ThreadResult {
  int threads = 0;
  std::vector<double> wall_runs_ms;  // one per rep, in run order
  double wall_ms = 0.0;              // median of wall_runs_ms
  bool oversubscribed = false;
  SelectionResult result;  // from the first rep
};

struct SearcherResult {
  const char* name = "";
  double wall_ms = 0.0;
  SelectionResult result;
};

struct BlendResult {
  double weight = 0.0;
  double aggregate_gbps = 0.0;
  double min_mbps = 0.0;
  int evaluations = 0;
};

template <typename F>
SearcherResult timed(const char* name, F&& search) {
  SearcherResult r;
  r.name = name;
  const auto t0 = Clock::now();
  r.result = search();
  const auto t1 = Clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

int run() {
  const double scale = bench_scale();
  const Topology& topo = rack512();
  const Router& router = router512();
  const int n_flows = static_cast<int>(scaled(1000));

  Rng rng(0x6a61);
  const auto flows = ga_flows(topo, n_flows, rng);

  SelectionConfig cfg;
  cfg.choices = {RouteAlg::kRps, RouteAlg::kVlb};
  cfg.population = 40;
  cfg.max_generations = std::max(4, static_cast<int>(std::lround(12 * scale)));
  cfg.stall_generations = 6;
  cfg.seed = 99;

  // Warm the router's weight tables with a throwaway problem build: the
  // first-touch derivation is shared serial work every thread count would
  // pay identically, and it is not what this benchmark measures.
  {
    WaterfillProblem warm;
    warm.build_with_choices(router, flows, cfg.choices, cfg.alloc);
  }

  const int hardware = ThreadPool::hardware_workers() + 1;
  std::printf("== bench_ga: parallel delta-fitness route search, %zu nodes, %d flows ==\n",
              topo.num_nodes(), n_flows);
  std::printf("host hardware threads: %d\n\n", hardware);

  // --- 1. GA thread scaling -----------------------------------------------
  // A single timing per thread count swings by tens of percent on a shared
  // host, so each count runs kReps times, interleaved round by round (host
  // drift lands on every count alike), and the gates read the median.
  constexpr int kReps = 5;
  std::vector<ThreadResult> results;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadResult r;
    r.threads = threads;
    r.oversubscribed = threads > hardware;
    results.push_back(std::move(r));
  }
  bool identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    for (ThreadResult& r : results) {
      SelectionConfig run_cfg = cfg;
      run_cfg.threads = r.threads;
      const auto t0 = Clock::now();
      SelectionResult res = select_routes_ga(router, flows, run_cfg);
      const auto t1 = Clock::now();
      r.wall_runs_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (rep == 0) r.result = res;
      const SelectionResult& ref = results.front().result;
      if (res.assignment != ref.assignment || res.utility != ref.utility ||
          res.evaluations != ref.evaluations) {
        identical = false;
        std::fprintf(stderr, "DETERMINISM VIOLATION at threads=%d (rep %d)\n", r.threads, rep);
      }
    }
  }
  for (ThreadResult& r : results) {
    std::vector<double> sorted = r.wall_runs_ms;
    std::sort(sorted.begin(), sorted.end());
    r.wall_ms = sorted[sorted.size() / 2];
  }
  const ThreadResult& serial = results.front();

  // Timing gates, applied only where the host can actually run the lanes
  // in parallel. cpu_per_eval charges the whole wall time to every lane
  // (an upper bound on per-lane busy time), so the 2x bound also caps the
  // scheduling overhead of the parallel path.
  bool gates_ok = true;
  const double serial_per_eval = serial.wall_ms / std::max(1, serial.result.evaluations);
  std::printf("median of %d interleaved runs per thread count\n", kReps);
  std::printf("%8s %10s %9s %12s %12s %8s\n", "threads", "wall_ms", "speedup", "utility_gbps",
              "evaluations", "note");
  for (const ThreadResult& r : results) {
    const double speedup = serial.wall_ms / r.wall_ms;
    const char* note = r.oversubscribed ? "oversub" : "";
    std::printf("%8d %10.1f %8.2fx %12.2f %12d %8s\n", r.threads, r.wall_ms, speedup,
                r.result.utility / 1e9, r.result.evaluations, note);
    if (r.oversubscribed || r.threads == 1) continue;
    const double required = r.threads >= 8 ? 3.0 : r.threads >= 2 ? 1.5 : 1.0;
    if (speedup < required) {
      gates_ok = false;
      std::fprintf(stderr, "SPEEDUP GATE FAILED at threads=%d: %.2fx < %.2fx\n", r.threads,
                   speedup, required);
    }
    const double cpu_per_eval =
        r.wall_ms * r.threads / std::max(1, r.result.evaluations);
    if (cpu_per_eval > 2.0 * serial_per_eval) {
      gates_ok = false;
      std::fprintf(stderr, "PER-EVAL CPU GATE FAILED at threads=%d: %.2f ms > 2 x %.2f ms\n",
                   r.threads, cpu_per_eval, serial_per_eval);
    }
  }
  if (hardware < 2) {
    std::printf("TIMING GATES SKIPPED (1-core host): all multi-thread rows "
                "oversubscribed; speedup gates need a multi-core re-measure\n");
  }

  // --- 2. Searcher parity at the GA's evaluation budget -------------------
  const int budget = serial.result.evaluations;
  SelectionConfig sa_cfg = cfg;
  sa_cfg.eval_budget = budget;
  SelectionConfig hy_cfg = cfg;
  // The hybrid's budget check happens at generation boundaries, so a run
  // can overshoot by one generation's batch plus the final-population
  // accounting batch (each at most `population` evaluations). Reserve
  // both so total evaluations stay within the GA's spend.
  hy_cfg.eval_budget = std::max(1, budget - 2 * cfg.population);

  std::vector<SearcherResult> searchers;
  searchers.push_back(timed("ga", [&] { return serial.result; }));
  searchers.back().wall_ms = serial.wall_ms;
  searchers.push_back(
      timed("anneal", [&] { return select_routes_anneal(router, flows, sa_cfg); }));
  searchers.push_back(
      timed("hybrid", [&] { return select_routes_hybrid(router, flows, hy_cfg); }));

  std::printf("\n-- searcher parity (budget = %d evaluations) --\n", budget);
  std::printf("%8s %10s %12s %12s\n", "searcher", "wall_ms", "utility_gbps", "evaluations");
  for (const SearcherResult& s : searchers) {
    std::printf("%8s %10.1f %12.2f %12d\n", s.name, s.wall_ms, s.result.utility / 1e9,
                s.result.evaluations);
  }
  // Quality gates only at full scale: the tiny CI instances exist to
  // exercise the code paths, not to rank searchers.
  if (scale >= 1.0) {
    for (const SearcherResult& s : searchers) {
      if (s.result.utility < serial.result.utility * (1.0 - 1e-9)) {
        gates_ok = false;
        std::fprintf(stderr, "SEARCHER GATE FAILED: %s utility %.4f < ga %.4f Gbps\n", s.name,
                     s.result.utility / 1e9, serial.result.utility / 1e9);
      }
      if (s.result.evaluations > budget) {
        gates_ok = false;
        std::fprintf(stderr, "SEARCHER GATE FAILED: %s spent %d > %d evaluations\n", s.name,
                     s.result.evaluations, budget);
      }
    }
  }

  // --- 3. Blended utility sweep -------------------------------------------
  // w = 0 is bitwise the aggregate objective, so the serial GA run is
  // reused; the nonzero weights re-search under the scalarized utility.
  std::vector<BlendResult> blends;
  for (const double w : {0.0, 0.25, 0.5}) {
    SelectionResult r;
    if (w == 0.0) {
      r = serial.result;
    } else {
      SelectionConfig bcfg = cfg;
      bcfg.utility = UtilityKind::kBlended;
      bcfg.blend_min_weight = w;
      r = select_routes_ga(router, flows, bcfg);
    }
    BlendResult b;
    b.weight = w;
    b.aggregate_gbps = route_assignment_utility(router, flows, r.assignment,
                                                UtilityKind::kAggregateThroughput, cfg.alloc) /
                       1e9;
    b.min_mbps = route_assignment_utility(router, flows, r.assignment,
                                          UtilityKind::kMinThroughput, cfg.alloc) /
                 1e6;
    b.evaluations = r.evaluations;
    blends.push_back(b);
  }
  std::printf("\n-- blended utility (w = min-throughput weight) --\n");
  std::printf("%8s %15s %10s %12s\n", "w", "aggregate_gbps", "min_mbps", "evaluations");
  for (const BlendResult& b : blends) {
    std::printf("%8.2f %15.2f %10.2f %12d\n", b.weight, b.aggregate_gbps, b.min_mbps,
                b.evaluations);
  }

  std::printf("\nresults bit-identical across thread counts: %s\n", identical ? "yes" : "NO");

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_ga.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ga\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"nodes\": %zu,\n  \"flows\": %d,\n", topo.num_nodes(), n_flows);
  std::fprintf(f, "  \"population\": %d,\n  \"max_generations\": %d,\n", cfg.population,
               cfg.max_generations);
  std::fprintf(f, "  \"hardware_threads\": %d,\n  \"build_type\": \"%s\",\n", hardware,
               R2C2_BUILD_TYPE);
  std::fprintf(f, "  \"reps_per_thread_count\": %d,\n", kReps);
  std::fprintf(f, "  \"identical_across_threads\": %s,\n", identical ? "true" : "false");
  std::fprintf(f, "  \"timing_gates\": \"%s\",\n",
               hardware < 2 ? "SKIPPED (1-core host)" : gates_ok ? "pass" : "FAIL");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ThreadResult& r = results[i];
    std::string runs;
    for (const double ms : r.wall_runs_ms) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.2f", runs.empty() ? "" : ", ", ms);
      runs += buf;
    }
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_ms\": %.2f, \"wall_ms_runs\": [%s], "
                 "\"speedup\": %.2f, \"utility_gbps\": %.4f, \"evaluations\": %d, "
                 "\"solves\": %llu, \"memo_hits\": %llu, \"oversubscribed\": %s}%s\n",
                 r.threads, r.wall_ms, runs.c_str(), serial.wall_ms / r.wall_ms,
                 r.result.utility / 1e9, r.result.evaluations,
                 static_cast<unsigned long long>(r.result.stats.solves),
                 static_cast<unsigned long long>(r.result.stats.memo_hits),
                 r.oversubscribed ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"searchers\": [\n");
  for (std::size_t i = 0; i < searchers.size(); ++i) {
    const SearcherResult& s = searchers[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_ms\": %.2f, \"utility_gbps\": %.4f, "
                 "\"evaluations\": %d}%s\n",
                 s.name, s.wall_ms, s.result.utility / 1e9, s.result.evaluations,
                 i + 1 < searchers.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"blended\": [\n");
  for (std::size_t i = 0; i < blends.size(); ++i) {
    const BlendResult& b = blends[i];
    std::fprintf(f,
                 "    {\"min_weight\": %.2f, \"aggregate_gbps\": %.4f, \"min_mbps\": %.4f, "
                 "\"evaluations\": %d}%s\n",
                 b.weight, b.aggregate_gbps, b.min_mbps, b.evaluations,
                 i + 1 < blends.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return identical && gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
