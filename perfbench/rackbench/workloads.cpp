#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "broadcast/broadcast.h"
#include "checks.h"
#include "common/thread_pool.h"
#include "congestion/waterfill.h"
#include "control/route_selection.h"
#include "routing/routing.h"
#include "service/service.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "topology/topology.h"
#include "workload/generator.h"
#include "workload/patterns.h"

namespace rackbench {

using namespace r2c2;

namespace {

// The paper's rack: 10 Gbps links, 100 ns per hop (Section 5.2).
constexpr double kLinkBps = 10 * kGbps;
constexpr TimeNs kHopNs = 100;
// Step of the run_until slices a traced round drives the event loop in.
constexpr TimeNs kTraceSlice = 50 * kNsPerUs;
constexpr double kMiB = 1024.0 * 1024.0;

// Bytes the allocator has handed out (heap arena plus mmapped blocks).
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / kMiB;
}

double counter(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}
double gauge(const obs::MetricsRegistry& reg, const std::string& name) {
  const obs::Gauge* g = reg.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}
double histogram_sum(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h != nullptr ? h->sum() : 0.0;
}
// Sum of one per-lane engine gauge over every lane.
double lane_sum(const obs::MetricsRegistry& reg, const char* field) {
  double sum = 0.0;
  for (int lane = 0;; ++lane) {
    const obs::Gauge* g =
        reg.find_gauge("engine.lane" + std::to_string(lane) + "." + field);
    if (g == nullptr) return sum;
    sum += g->value();
  }
}

// Host time of one piece of a round: added to the round's set-up or run
// total (and to `out`, when given) and recorded as a span when traced.
class Phase {
 public:
  Phase(Spans& spans, const char* name, double& total, double* out = nullptr)
      : spans_(spans), total_(total), out_(out), id_(spans.open(name)), t0_(Clock::now()) {}
  ~Phase() {
    const double s = seconds_since(t0_);
    total_ += s;
    if (out_ != nullptr) *out_ += s;
    spans_.close(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Spans& spans_;
  double& total_;
  double* out_;
  int id_;
  Clock::time_point t0_;
};

// Runs the simulator to its end. Traced rounds step the clock in
// run_until slices (one span each); the trajectory is the same either way.
sim::RunMetrics drive(sim::R2c2Sim& s, Spans& spans) {
  if (!spans.enabled()) return s.run();
  {
    Scope loop(spans, "R2c2Sim::run");
    TimeNs t = s.now();
    while (!s.idle()) {
      t += kTraceSlice;
      Scope step(spans, "run_until");
      s.run_until(t);
    }
  }
  Scope collect(spans, "collect_metrics");
  return s.collect_metrics();
}

// Fingerprint of the simulated outcome (independent of how the clock was
// stepped, so traced and untraced rounds must agree).
std::uint64_t outcome_digest(const sim::RunMetrics& m) {
  snapshot::Digest d;
  d.mix(m.flows.size());
  for (const sim::FlowRecord& f : m.flows) {
    d.mix(f.src);
    d.mix(f.dst);
    d.mix(f.bytes);
    d.mix_i64(f.arrival);
    d.mix_i64(f.completed);
    d.mix(f.aborted ? 1 : 0);
  }
  d.mix(m.data_bytes_on_wire);
  d.mix(m.control_bytes_on_wire);
  d.mix(m.events);
  return d.value();
}

// Flow-level results and checks shared by every workload. Counts every
// flow as an operation when `flows_are_ops`.
void score_flows(RoundResult& r, const sim::RunMetrics& m, const PathModel& model,
                 bool flows_are_ops, const MinimalRoute& minimal = nullptr) {
  std::uint64_t unresolved = 0;
  TimeNs first = -1, last = -1;
  double bytes = 0.0;
  for (const sim::FlowRecord& f : m.flows) {
    if (!f.finished()) {
      ++unresolved;
      continue;
    }
    if (first < 0 || f.arrival < first) first = f.arrival;
    last = std::max(last, f.completed);
    bytes += static_cast<double>(f.bytes);
  }
  const std::size_t slow = check_fct_lower_bound(m.flows, model, kLinkBps, kHopNs, r.errors, minimal);
  check_wire_bytes(m, model, r.errors);
  if (flows_are_ops) {
    r.attempted = m.flows.size();
    r.failed = unresolved + slow;
  } else if (unresolved > 0) {
    r.errors.push_back(std::to_string(unresolved) + " flows did not finish");
  }
  r.short_fct_us = m.short_flow_fct_us();
  if (r.short_fct_us.size() < 1000) {
    r.errors.push_back("only " + std::to_string(r.short_fct_us.size()) +
                       " short flows completed; the p99 needs at least 1000");
  }
  r.goodput_gbps = last > first ? bytes * 8.0 / static_cast<double>(last - first) : 0.0;
  r.span_us = static_cast<double>(last - first) / 1e3;
  std::vector<std::pair<TimeNs, int>> edges;
  for (const sim::FlowRecord& f : m.flows) {
    edges.emplace_back(f.arrival, 1);
    if (f.finished()) edges.emplace_back(f.completed, -1);
  }
  std::sort(edges.begin(), edges.end());
  int active = 0;
  for (const auto& [t, delta] : edges) {
    active += delta;
    r.peak_active = std::max(r.peak_active, static_cast<std::size_t>(std::max(active, 0)));
  }
  r.outcome_digest = outcome_digest(m);
}

// Engine window gauges and wall-time histograms live only in the registry
// of the simulator that produced them (a snapshot restores counters, not
// these), so a resumed run adds both halves.
void engine_window_layers(RoundResult& r, const obs::MetricsRegistry& reg) {
  r.layers["engine.windows"] += gauge(reg, "engine.windows");
  r.layers["engine.serial_phases"] += gauge(reg, "engine.serial_phases");
  r.layers["engine.window_stalls"] += lane_sum(reg, "window_stalls");
  r.layers["engine.mailbox_posted"] += lane_sum(reg, "mailbox_posted");
}

void sim_layers(RoundResult& r, const obs::MetricsRegistry& reg, const sim::RunMetrics& m,
                double sim_run_s) {
  r.layers["engine.events"] = static_cast<double>(m.events);
  r.layers["engine.ns_per_event"] =
      m.events > 0 ? sim_run_s * 1e9 / static_cast<double>(m.events) : 0.0;
  engine_window_layers(r, reg);
  r.layers["net.data_mb"] = static_cast<double>(m.data_bytes_on_wire) / kMiB;
  r.layers["net.control_mb"] = static_cast<double>(m.control_bytes_on_wire) / kMiB;
  std::uint64_t max_queue = 0;
  for (const std::uint64_t q : m.max_queue_bytes) max_queue = std::max(max_queue, q);
  r.layers["net.max_queue_kb"] = static_cast<double>(max_queue) / 1024.0;
  r.layers["waterfill.recomputes"] = counter(reg, "r2c2.recomputations");
  r.layers["waterfill.recompute_s"] += histogram_sum(reg, "r2c2.recompute_wall_ns") / 1e9;
  r.layers["broadcast.sent"] = counter(reg, "r2c2.broadcasts_sent");
}

// Section 5.2's open-loop traffic: Poisson arrivals, uniform endpoints and
// Pareto sizes. The sizes are the distribution's quantiles at (i + 0.5) / n,
// clamped to [min_bytes, max_bytes] and shuffled by the seed, so every seed
// carries the same size mix and a run's figures do not hinge on how many
// heavy-tail draws it happened to get; the seed picks the order, the
// arrival gaps and the endpoints.
std::vector<FlowArrival> stratified_poisson(const WorkloadConfig& wl) {
  Rng rng(wl.seed);
  const double alpha = wl.pareto_shape;
  const double scale = wl.mean_bytes * (alpha - 1.0) / alpha;
  const std::size_t n = wl.num_flows;
  std::vector<std::uint64_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const double x = scale / std::pow(1.0 - u, 1.0 / alpha);
    sizes[i] = std::clamp(static_cast<std::uint64_t>(x), wl.min_bytes, wl.max_bytes);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(sizes[i - 1], sizes[rng.uniform_int(i)]);
  std::vector<FlowArrival> out(n);
  TimeNs t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<TimeNs>(rng.exponential(static_cast<double>(wl.mean_interarrival)));
    FlowArrival& a = out[i];
    a.start = t;
    a.src = static_cast<NodeId>(rng.uniform_int(wl.num_nodes));
    a.dst = static_cast<NodeId>(rng.uniform_int(wl.num_nodes - 1));
    if (a.dst >= a.src) ++a.dst;
    a.bytes = sizes[i];
  }
  return out;
}

// --- Torus workloads --------------------------------------------------------

struct Rack {
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Router> router;
};

// Traced rounds only: builds the broadcast trees on their own to isolate
// their time and memory (the simulator builds its copy inside its
// constructor). Not part of setup_s.
void measure_trees(RoundResult& r, Spans& spans, const Topology& topo, int trees) {
  double ignored = 0.0, trees_s = 0.0;
  const double before = heap_mb();
  std::unique_ptr<BroadcastTrees> built;
  {
    Phase p(spans, "BroadcastTrees", ignored, &trees_s);
    built = std::make_unique<BroadcastTrees>(topo, trees);
  }
  r.layers["broadcast.build_s"] = trees_s;
  r.layers["broadcast.tree_mb"] = heap_mb() - before;
}

// Topology and router, timed piece by piece into the round's set-up.
Rack build_torus(RoundResult& r, Spans& spans, const std::vector<int>& dims, int trees) {
  Rack rack;
  double topo_s = 0.0, router_s = 0.0;
  {
    Phase p(spans, "make_torus", r.setup_s, &topo_s);
    rack.topo = std::make_unique<Topology>(make_torus(dims, kLinkBps, kHopNs));
  }
  {
    Phase p(spans, "Router", r.setup_s, &router_s);
    rack.router = std::make_unique<Router>(*rack.topo);
  }
  r.layers["topology.build_s"] = topo_s;
  r.layers["routing.build_s"] = router_s;
  if (spans.enabled()) measure_trees(r, spans, *rack.topo, trees);
  return rack;
}

std::unique_ptr<sim::R2c2Sim> build_sim(RoundResult& r, Spans& spans, const Rack& rack,
                                        const sim::R2c2SimConfig& cfg,
                                        const std::vector<FlowArrival>& arrivals) {
  double sim_s = 0.0;
  std::unique_ptr<sim::R2c2Sim> s;
  {
    Phase p(spans, "R2c2Sim", r.setup_s, &sim_s);
    s = std::make_unique<sim::R2c2Sim>(*rack.topo, *rack.router, cfg);
  }
  {
    Phase p(spans, "add_flows", r.setup_s, &sim_s);
    s->add_flows(arrivals);
  }
  r.layers["sim.build_s"] = sim_s;
  return s;
}

// Torus checks on a finished run: flow bounds, wire bytes and Section 3.2's
// control-byte identity.
void score_torus(RoundResult& r, const sim::R2c2Sim& s, const sim::RunMetrics& m,
                 const std::vector<int>& dims, std::size_t nodes, double sim_run_s,
                 const MinimalRoute& minimal = nullptr) {
  score_flows(r, m, PathModel::torus(dims), true, minimal);
  const double broadcasts = counter(s.metrics(), "r2c2.broadcasts_sent");
  check_control_bytes(m.control_bytes_on_wire, static_cast<std::uint64_t>(broadcasts), nodes,
                      r.errors);
  sim_layers(r, s.metrics(), m, sim_run_s);
  r.layers["broadcast.copies"] = static_cast<double>(m.control_bytes_on_wire) /
                                 static_cast<double>(kBroadcastPacketBytes);
}

class TorusWorkload : public Workload {
 public:
  TorusWorkload(std::string what, std::vector<int> dims, sim::R2c2SimConfig cfg,
                std::vector<FlowArrival> arrivals)
      : what_(std::move(what)), dims_(std::move(dims)), cfg_(cfg), arrivals_(std::move(arrivals)) {}

  std::string describe() const override { return what_; }

  RoundResult round(Spans& spans) override {
    RoundResult r;
    const int top = spans.open("round");
    Rack rack = build_torus(r, spans, dims_, cfg_.broadcast_trees);
    std::unique_ptr<sim::R2c2Sim> s = build_sim(r, spans, rack, cfg_, arrivals_);
    sim::RunMetrics m;
    double sim_run_s = 0.0;
    {
      Phase p(spans, "run", r.run_s, &sim_run_s);
      m = drive(*s, spans);
    }
    spans.close(top);
    score_torus(r, *s, m, dims_, rack.topo->num_nodes(), sim_run_s);
    return r;
  }

 private:
  std::string what_;
  std::vector<int> dims_;
  sim::R2c2SimConfig cfg_;
  std::vector<FlowArrival> arrivals_;
};

std::size_t node_count(const std::vector<int>& dims) {
  std::size_t n = 1;
  for (const int k : dims) n *= static_cast<std::size_t>(k);
  return n;
}

std::unique_ptr<Workload> torus4096_bcast(std::uint64_t seed) {
  const std::vector<int> dims{16, 16, 16};
  WorkloadConfig wl;
  wl.num_nodes = node_count(dims);
  wl.num_flows = 1000;
  wl.mean_interarrival = 1 * kNsPerUs;
  wl.mean_bytes = 16 * 1024;
  wl.min_bytes = 1024;
  wl.max_bytes = 64 * 1024;
  wl.seed = seed;
  sim::R2c2SimConfig cfg;  // paper defaults: RPS, 4 trees, rho = 500 us
  cfg.engine_shards = 8;
  cfg.engine_workers = 2;
  cfg.seed = seed;
  return std::make_unique<TorusWorkload>(
      "16x16x16 torus (4096 nodes), RPS, 4 broadcast trees, rho 500 us, 8 shards / 2 workers; "
      "1000 Poisson flows (mean gap 1 us), Pareto(1.05) sizes (mean 16 KB, 1-64 KB, "
      "stratified quantiles), uniform endpoints",
      dims, cfg, stratified_poisson(wl));
}

std::unique_ptr<Workload> torus512_bulk(std::uint64_t seed) {
  const std::vector<int> dims{8, 8, 8};
  // Section 5.2: Pareto(1.05) sizes with a nominal mean of 100 KB. Most of
  // that mean lies in a tail 4000 flows never reach, so the sizes average
  // 27 KB here (39 KB under the generator's 30 MB cap). The cap of 1 MB
  // keeps the largest flow well inside the arrival window, so the simulated
  // span (and with it goodput) is set by the offered load rather than by
  // where the single biggest flow happens to land; 150 ns mean gaps keep a
  // few hundred flows open at once.
  WorkloadConfig wl;
  wl.num_nodes = node_count(dims);
  wl.num_flows = 4000;
  wl.mean_interarrival = 150;
  wl.max_bytes = 1 << 20;
  wl.seed = seed;
  sim::R2c2SimConfig cfg;
  cfg.seed = seed;
  return std::make_unique<TorusWorkload>(
      "8x8x8 torus (512 nodes), RPS, 4 broadcast trees, rho 500 us, serial engine; "
      "4000 Poisson flows (mean gap 150 ns), Pareto(1.05) sizes (nominal mean 100 KB, cap 1 MB, "
      "27 KB mean as drawn, stratified quantiles), uniform endpoints",
      dims, cfg, stratified_poisson(wl));
}

// --- Route selection -------------------------------------------------------

class RouteselWorkload : public Workload {
 public:
  explicit RouteselWorkload(std::uint64_t seed) : dims_{8, 8, 8} {
    // Fig. 18: one long flow from each of a `load` share of the nodes, to a
    // distinct partner.
    const Topology topo = make_torus(dims_, kLinkBps, kHopNs);
    Rng rng(seed);
    FlowId id = 1;
    for (const auto& [src, dst] : partial_permutation_pairs(topo, kLoad, rng)) {
      long_flows_.push_back({id++, src, dst, RouteAlg::kRps, 1.0, 0, kUnlimitedDemand});
    }
    WorkloadConfig wl;  // Section 5.2 short-flow background
    wl.num_nodes = topo.num_nodes();
    wl.num_flows = 1100;
    wl.mean_interarrival = 1 * kNsPerUs;
    wl.max_bytes = kShortFlowCutoffBytes - 1;
    wl.seed = seed ^ 0x5eed;
    background_ = stratified_poisson(wl);
    selection_.population = 100;
    selection_.mutation_prob = 0.01;
    selection_.choices = {RouteAlg::kRps, RouteAlg::kVlb};
    // A fixed generation count (no early stop on a stall) makes the search
    // do the same amount of work for every seed.
    selection_.max_generations = 15;
    selection_.stall_generations = 15;
    selection_.seed = seed;
    cfg_.seed = seed;
  }

  std::string describe() const override {
    return "8x8x8 torus (512 nodes), serial engine; GA (population 100, mutation 0.01, "
           "{RPS, VLB}, 15 generations, 2 threads) over " +
           std::to_string(long_flows_.size()) +
           " permutation long flows (load 0.25, 256 KB each, start at 0) + 1100 Poisson short "
           "flows (mean gap 1 us, Pareto(1.05) mean 100 KB, < 100 KB)";
  }

  RoundResult round(Spans& spans) override {
    RoundResult r;
    const int top = spans.open("round");
    Rack rack = build_torus(r, spans, dims_, cfg_.broadcast_trees);
    ThreadPool pool(1);  // the caller plus one worker: 2 fitness threads
    SelectionConfig sel = selection_;
    sel.pool = &pool;
    SelectionResult chosen;
    double search_s = 0.0;
    {
      Phase p(spans, "select_routes_ga", r.run_s, &search_s);
      chosen = select_routes_ga(*rack.router, long_flows_, sel);
    }
    std::vector<FlowArrival> arrivals = background_;
    for (std::size_t i = 0; i < long_flows_.size(); ++i) {
      FlowArrival a;
      a.src = long_flows_[i].src;
      a.dst = long_flows_[i].dst;
      a.bytes = kLongBytes;
      a.alg = static_cast<std::int8_t>(chosen.assignment[i]);
      arrivals.push_back(a);
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const FlowArrival& a, const FlowArrival& b) { return a.start < b.start; });
    std::unique_ptr<sim::R2c2Sim> s = build_sim(r, spans, rack, cfg_, arrivals);
    sim::RunMetrics m;
    double sim_run_s = 0.0;
    {
      Phase p(spans, "run", r.run_s, &sim_run_s);
      m = drive(*s, spans);
    }
    spans.close(top);

    // Long flows are the only ones of their size, and each source sends at
    // most one; those the selector moved to VLB may leave by any port.
    std::vector<char> vlb_source(rack.topo->num_nodes(), 0);
    for (std::size_t i = 0; i < long_flows_.size(); ++i) {
      if (chosen.assignment[i] == RouteAlg::kVlb) vlb_source[long_flows_[i].src] = 1;
    }
    score_torus(r, *s, m, dims_, rack.topo->num_nodes(), sim_run_s,
                [&](const sim::FlowRecord& f) {
                  return f.bytes != kLongBytes || vlb_source[f.src] == 0;
                });
    std::vector<FlowSpec> picked = long_flows_;
    for (std::size_t i = 0; i < picked.size(); ++i) picked[i].alg = chosen.assignment[i];
    check_selection(*rack.router, long_flows_, chosen, selection_.alloc, r.errors);
    const RateAllocation alloc = waterfill(*rack.router, picked, selection_.alloc);
    check_allocation(*rack.router, picked, alloc.rate, selection_.alloc.headroom, r.errors);

    const ThreadPool::Stats ps = pool.stats();
    r.layers["routesel.search_s"] = search_s;
    r.layers["routesel.evaluations"] = chosen.evaluations;
    r.layers["routesel.solves"] = static_cast<double>(chosen.stats.solves);
    r.layers["routesel.memo_hits"] = static_cast<double>(chosen.stats.memo_hits);
    r.layers["routesel.spec_children"] = static_cast<double>(chosen.stats.spec_children);
    r.layers["routesel.spec_aborts"] = static_cast<double>(chosen.stats.spec_aborts);
    r.layers["routesel.spec_useful"] =
        chosen.stats.spec_children > 0
            ? 1.0 - static_cast<double>(chosen.stats.spec_aborts) /
                        static_cast<double>(chosen.stats.spec_children)
            : 0.0;
    r.layers["routesel.utility_gbps"] = chosen.utility / 1e9;
    r.layers["pool.executed"] = static_cast<double>(ps.executed);
    r.layers["pool.stolen"] = static_cast<double>(ps.stolen);
    if (spans.enabled()) r.layers["waterfill.solve_us"] = solve_us(*rack.router, picked, spans);
    return r;
  }

 private:
  static constexpr double kLoad = 0.25;
  static constexpr std::uint64_t kLongBytes = 256 * 1024;

  // Median host time of one water-fill solve of the chosen assignment.
  double solve_us(const Router& router, const std::vector<FlowSpec>& flows, Spans& spans) {
    WaterfillProblem problem;
    problem.build(router, flows, selection_.alloc);
    WaterfillScratch scratch;
    RateAllocation out;
    waterfill(problem, scratch, out);  // warm the scratch arena
    std::vector<double> us;
    for (int i = 0; i < 21; ++i) {
      const int id = spans.open("waterfill");
      const Clock::time_point t0 = Clock::now();
      waterfill(problem, scratch, out);
      us.push_back(seconds_since(t0) * 1e6);
      spans.close(id);
    }
    return median(us);
  }

  std::vector<int> dims_;
  std::vector<FlowSpec> long_flows_;
  std::vector<FlowArrival> background_;
  SelectionConfig selection_;
  sim::R2c2SimConfig cfg_;
};

// --- Clos tenants with a fault, digests and a snapshot ----------------------

class ClosWorkload : public Workload {
 public:
  explicit ClosWorkload(std::uint64_t seed) {
    // The source-route header spends 3 bits per hop (Section 4.2), so no
    // switch may have more than 8 ports: 8 leaves of 6 servers and 2 spines
    // is the widest two-level Clos with a spare uplink per leaf.
    spec_.servers_per_leaf = 6;
    spec_.num_leaves = 8;
    spec_.num_spines = 2;
    spec_.bandwidth = kLinkBps;
    spec_.latency = kHopNs;
    const int servers = spec_.servers_per_leaf * spec_.num_leaves;

    // Tenants on disjoint server sets, dealt round-robin across the leaves
    // so every tenant spans the fabric. Placement and the failing cable are
    // fixed; the seed drives the request streams (arrival times, RPC
    // servers, storage keys) and the simulator's own randomness.
    std::vector<NodeId> pool;
    for (int i = 0; i < servers; ++i) {
      pool.push_back(static_cast<NodeId>((i % spec_.num_leaves) * spec_.servers_per_leaf +
                                         i / spec_.num_leaves));
    }
    std::size_t next = 0;
    const auto take = [&](std::size_t n) {
      std::vector<NodeId> out(pool.begin() + static_cast<std::ptrdiff_t>(next),
                              pool.begin() + static_cast<std::ptrdiff_t>(next + n));
      next += n;
      return out;
    };
    service_.seed = seed * 0x9e3779b97f4a7c15ULL + 7;

    service::TenantConfig rpc;
    rpc.name = "rpc";
    rpc.archetype = service::Archetype::kRpc;
    rpc.mode = service::ArrivalMode::kClosedLoop;
    rpc.clients = take(8);
    rpc.servers = take(8);
    rpc.outstanding = 8;
    rpc.max_requests = 600;
    rpc.request_bytes = 2 * 1024;
    rpc.response_bytes = 16 * 1024;
    rpc.slo_latency = 300 * kNsPerUs;
    service_.tenants.push_back(rpc);

    service::TenantConfig incast;
    incast.name = "incast";
    incast.archetype = service::Archetype::kIncast;
    incast.mode = service::ArrivalMode::kClosedLoop;
    incast.clients = take(4);
    incast.servers = take(12);
    incast.outstanding = 1;
    incast.max_requests = 80;
    incast.fanout = 8;
    incast.query_bytes = 1024;
    incast.leaf_response_bytes = 8 * 1024;
    incast.slo_latency = 400 * kNsPerUs;
    service_.tenants.push_back(incast);

    service::TenantConfig storage;
    storage.name = "storage";
    storage.archetype = service::Archetype::kStorage;
    storage.mode = service::ArrivalMode::kOpenLoop;
    storage.clients = take(8);
    storage.servers = take(8);
    storage.mean_interarrival = 2 * kNsPerUs;
    storage.max_requests = 600;
    storage.shift_at = 300 * kNsPerUs;
    storage.slo_latency = 350 * kNsPerUs;
    service_.tenants.push_back(storage);

    for (const auto& t : service_.tenants) requests_ += t.max_requests;

    // Every request moves one small and one large flow, so the tenants'
    // flows alone split exactly in half by size and their median would sit
    // on the boundary between the two classes. A background of open-loop
    // short flows among the servers, over the same span, moves it off.
    WorkloadConfig wl;
    wl.num_nodes = static_cast<std::size_t>(servers);
    wl.num_flows = 400;
    wl.mean_interarrival = 12 * kNsPerUs;
    wl.max_bytes = 16 * 1024;
    wl.seed = seed ^ 0xb6;
    background_ = stratified_poisson(wl);

    cfg_.reliable = true;
    cfg_.rto = 200 * kNsPerUs;
    cfg_.adaptive_rto = true;
    cfg_.keepalive_interval = 10 * kNsPerUs;
    // Leases heal the global view when a flow's finish broadcast is lost
    // on the failing cable; without them the ghost entry keeps the rate
    // ticks (and the run) alive forever.
    cfg_.lease_interval = 100 * kNsPerUs;
    cfg_.rebuild_delay = 20 * kNsPerUs;
    cfg_.congestion_aware = true;
    cfg_.engine_shards = 4;
    cfg_.engine_workers = 2;
    cfg_.seed = seed;
    // The first leaf's uplink to the first spine fails and comes back.
    leaf_ = static_cast<NodeId>(servers);
    spine_ = static_cast<NodeId>(servers + spec_.num_leaves);
  }

  std::string describe() const override {
    return "folded Clos 48 servers / 8 leaves / 2 spines, reliable transport, congestion-"
           "aware spraying, 4 shards / 2 workers; tenants rpc (600 closed-loop requests, 8 "
           "outstanding, 2 KB / 16 KB), incast (80 closed-loop requests, fan-out 8, 8 KB "
           "responses), storage (600 open-loop zipfian requests, mean gap 2 us, shift at 300 "
           "us), 400 background Poisson flows (mean gap 12 us, Pareto(1.05) mean 100 KB, "
           "capped at 16 KB); leaf0-spine0 cable fails at " + std::to_string(kFailAt / kNsPerUs) +
           " us, restored at " + std::to_string(kRestoreAt / kNsPerUs) +
           " us; state digest every 20 us; save/load/resume at " +
           std::to_string(kSnapshotAt / kNsPerUs) + " us";
  }

  RoundResult round(Spans& spans) override {
    RoundResult r;
    const int top = spans.open("round");
    std::unique_ptr<Topology> topo;
    std::unique_ptr<Router> router;
    double topo_s = 0.0, router_s = 0.0;
    {
      Phase p(spans, "make_folded_clos", r.setup_s, &topo_s);
      topo = std::make_unique<Topology>(make_folded_clos(spec_));
    }
    {
      Phase p(spans, "Router", r.setup_s, &router_s);
      router = std::make_unique<Router>(*topo);
    }
    r.layers["topology.build_s"] = topo_s;
    r.layers["routing.build_s"] = router_s;
    if (spans.enabled()) measure_trees(r, spans, *topo, cfg_.broadcast_trees);
    sim::R2c2SimConfig cfg = cfg_;
    const LinkId cable = topo->find_link(leaf_, spine_);
    cfg.faults.events.push_back(sim::FaultScript::fail_link(kFailAt, cable));
    cfg.faults.events.push_back(sim::FaultScript::restore_link(kRestoreAt, cable));

    // Simulator plus attached service layer, built the same way for the
    // first half and for the resumed second half.
    struct Stack {
      std::unique_ptr<sim::R2c2Sim> sim;
      std::unique_ptr<service::ServiceLayer> svc;
    };
    const auto build = [&](double& total, double* out) {
      Stack st;
      Phase p(spans, "R2c2Sim+ServiceLayer", total, out);
      st.sim = std::make_unique<sim::R2c2Sim>(*topo, *router, cfg);
      st.sim->add_flows(background_);
      st.svc = std::make_unique<service::ServiceLayer>(*st.sim, service_);
      st.svc->start();
      return st;
    };
    double sim_s = 0.0;
    Stack first = build(r.setup_s, &sim_s);
    r.layers["sim.build_s"] = sim_s;

    double digest_s = 0.0, save_s = 0.0, load_s = 0.0;
    std::uint64_t digests = 0;
    // Steps one simulator along the absolute digest grid, as tools/replay
    // does, until `stop` or until the event queue drains.
    const auto step_to = [&](sim::R2c2Sim& s, TimeNs stop) {
      TimeNs t = s.now();
      while (!s.idle() && t < stop) {
        t += kDigestEvery;
        {
          Scope step(spans, "run_until");
          s.run_until(t);
        }
        Phase p(spans, "state_digest", digest_s);
        s.state_digest();
        ++digests;
      }
    };

    std::vector<std::uint8_t> saved;
    std::uint64_t saved_digest = 0;
    Stack second;
    {
      Phase run(spans, "run", r.run_s);
      step_to(*first.sim, kSnapshotAt);
      if (first.sim->now() != kSnapshotAt) r.errors.push_back("run ended before the snapshot point");
      saved_digest = first.sim->state_digest();
      {
        Phase p(spans, "save", save_s);
        snapshot::ArchiveWriter w;
        first.sim->save(w);
        saved = w.finish();
      }
      double ignored = 0.0;
      second = build(ignored, nullptr);
      {
        Phase p(spans, "load", load_s);
        snapshot::ArchiveReader reader(saved);
        second.sim->load(reader);
      }
    }
    // save -> load -> save must reproduce the archive and the digest. The
    // re-save is a check, not part of the measured phase.
    {
      snapshot::ArchiveWriter again;
      second.sim->save(again);
      check_snapshot(saved, saved_digest, again.finish(), second.sim->state_digest(), r.errors);
    }
    sim::RunMetrics m;
    {
      Phase run(spans, "resume", r.run_s);
      step_to(*second.sim, std::numeric_limits<TimeNs>::max());
      m = second.sim->collect_metrics();
    }
    spans.close(top);

    first.sim->collect_metrics();  // publishes the first half's engine gauges
    score_flows(r, m, PathModel::clos(spec_.servers_per_leaf), false);
    const service::SloReport report = second.svc->report();
    std::uint64_t completed = 0;
    for (std::size_t t = 0; t < second.svc->tenants(); ++t) {
      completed += second.svc->completed(t);
      if (second.svc->issued(t) != service_.tenants[t].max_requests) {
        r.errors.push_back("tenant " + service_.tenants[t].name + " issued " +
                           std::to_string(second.svc->issued(t)) + " of " +
                           std::to_string(service_.tenants[t].max_requests) + " requests");
      }
    }
    r.attempted = requests_;
    r.failed = requests_ - std::min(requests_, completed);
    if (second.svc->requests_in_flight() != 0) r.errors.push_back("requests left in flight");
    if (m.failures_detected == 0 || m.restores_detected == 0) {
      r.errors.push_back("the cable failure or its restore went undetected");
    }

    engine_window_layers(r, first.sim->metrics());
    r.layers["waterfill.recompute_s"] =
        histogram_sum(first.sim->metrics(), "r2c2.recompute_wall_ns") / 1e9;
    sim_layers(r, second.sim->metrics(), m, r.run_s);
    r.layers["transport.retransmissions"] = static_cast<double>(second.sim->retransmissions());
    r.layers["transport.flow_aborts"] = static_cast<double>(m.flow_aborts);
    for (const sim::RecoveryRecord& rec : m.recoveries) {
      if (!rec.failure || rec.injected_at < 0) continue;
      r.layers["recovery.detect_us"] = static_cast<double>(rec.detection_ns()) / 1e3;
      r.layers["recovery.reconverge_us"] = static_cast<double>(rec.reconvergence_ns()) / 1e3;
      break;
    }
    r.layers["recovery.rebuild_s"] =
        (histogram_sum(first.sim->metrics(), "r2c2.rebuild_wall_ns") +
         histogram_sum(second.sim->metrics(), "r2c2.rebuild_wall_ns")) /
        1e9;
    for (const service::TenantReport& t : report.tenants) {
      r.layers["service." + t.name + ".p99_us"] = t.p99_us;
    }
    r.layers["snapshot.digest_s"] = digest_s;
    r.layers["snapshot.digests"] = static_cast<double>(digests);
    r.layers["snapshot.save_s"] = save_s;
    r.layers["snapshot.load_s"] = load_s;
    r.layers["snapshot.mb"] = static_cast<double>(saved.size()) / kMiB;
    return r;
  }

 private:
  static constexpr TimeNs kDigestEvery = 20 * kNsPerUs;
  // The tenants' traffic spans about 5.3 ms: the cable fails and returns
  // in the middle of it, and the snapshot lands on the digest grid just
  // after the restore has reconverged.
  static constexpr TimeNs kFailAt = 2000 * kNsPerUs;
  static constexpr TimeNs kRestoreAt = 2300 * kNsPerUs;
  static constexpr TimeNs kSnapshotAt = 2640 * kNsPerUs;

  ClosSpec spec_;
  std::vector<FlowArrival> background_;
  service::ServiceConfig service_;
  sim::R2c2SimConfig cfg_;
  std::uint64_t requests_ = 0;
  NodeId leaf_ = 0;
  NodeId spine_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"torus4096_bcast", "torus512_bulk", "torus512_routesel", "clos_tenants_replay"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "torus4096_bcast") return torus4096_bcast(seed);
  if (name == "torus512_bulk") return torus512_bulk(seed);
  if (name == "torus512_routesel") return std::make_unique<RouteselWorkload>(seed);
  if (name == "clos_tenants_replay") return std::make_unique<ClosWorkload>(seed);
  return nullptr;
}

}  // namespace rackbench
