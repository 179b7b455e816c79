#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace rackbench {

using namespace r2c2;

namespace {

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// Ring offset of b from a along a dimension of size k, in the shorter
// direction; sets `both` when the two directions tie.
int ring_offset(int a, int b, int k, bool& both) {
  const int d = ((b - a) % k + k) % k;
  both = d != 0 && 2 * d == k;
  return std::min(d, k - d);
}

}  // namespace

PathModel PathModel::torus(std::vector<int> dims) {
  PathModel m;
  m.dims_ = std::move(dims);
  return m;
}

PathModel PathModel::clos(int servers_per_leaf) {
  PathModel m;
  m.servers_per_leaf_ = servers_per_leaf;
  return m;
}

int PathModel::hops(NodeId a, NodeId b) const {
  if (a == b) return 0;
  if (dims_.empty()) {
    return a / static_cast<NodeId>(servers_per_leaf_) == b / static_cast<NodeId>(servers_per_leaf_)
               ? 2
               : 4;
  }
  int total = 0;
  std::uint32_t ra = a, rb = b;
  for (const int k : dims_) {
    bool both = false;
    total += ring_offset(static_cast<int>(ra % static_cast<std::uint32_t>(k)),
                         static_cast<int>(rb % static_cast<std::uint32_t>(k)), k, both);
    ra /= static_cast<std::uint32_t>(k);
    rb /= static_cast<std::uint32_t>(k);
  }
  return total;
}

int PathModel::ports(NodeId a, NodeId b, bool minimal) const {
  if (dims_.empty() || a == b) return 1;
  int ports = 0;
  if (!minimal) {
    for (const int k : dims_) ports += k > 2 ? 2 : (k == 2 ? 1 : 0);
    return std::max(ports, 1);
  }
  std::uint32_t ra = a, rb = b;
  for (const int k : dims_) {
    bool both = false;
    const int off = ring_offset(static_cast<int>(ra % static_cast<std::uint32_t>(k)),
                                static_cast<int>(rb % static_cast<std::uint32_t>(k)), k, both);
    if (off > 0) ports += both && k > 2 ? 2 : 1;
    ra /= static_cast<std::uint32_t>(k);
    rb /= static_cast<std::uint32_t>(k);
  }
  return std::max(ports, 1);
}

std::size_t check_fct_lower_bound(std::span<const sim::FlowRecord> flows, const PathModel& model,
                                  double link_bps, TimeNs hop_latency,
                                  std::vector<std::string>& errors, const MinimalRoute& minimal) {
  std::size_t bad = 0;
  for (const sim::FlowRecord& f : flows) {
    if (!f.finished()) continue;
    const int ports = model.ports(f.src, f.dst, minimal == nullptr || minimal(f));
    const double serialize_ns =
        static_cast<double>(f.bytes) * 8.0 * 1e9 / (link_bps * static_cast<double>(ports));
    const double bound_ns =
        serialize_ns + static_cast<double>(model.hops(f.src, f.dst)) * static_cast<double>(hop_latency);
    // One nanosecond of slack for the simulator's integer clock.
    if (static_cast<double>(f.fct()) + 1.0 < bound_ns) {
      if (bad < 3) {
        errors.push_back(format("flow fct %.0f ns below physical bound %.0f ns (bytes %.0f)",
                                static_cast<double>(f.fct()), bound_ns,
                                static_cast<double>(f.bytes)));
      }
      ++bad;
    }
  }
  return bad;
}

bool check_wire_bytes(const sim::RunMetrics& m, const PathModel& model,
                      std::vector<std::string>& errors) {
  double needed = 0.0;
  for (const sim::FlowRecord& f : m.flows) {
    if (f.finished()) needed += static_cast<double>(f.bytes) * model.hops(f.src, f.dst);
  }
  if (static_cast<double>(m.data_bytes_on_wire) < needed) {
    errors.push_back(format("data bytes on wire %.0f < bytes x minimal hops %.0f",
                            static_cast<double>(m.data_bytes_on_wire), needed));
    return false;
  }
  return true;
}

bool check_control_bytes(std::uint64_t control_bytes, std::uint64_t broadcasts,
                         std::size_t nodes, std::vector<std::string>& errors) {
  const std::uint64_t expected = broadcasts * (nodes - 1) * 16;
  if (control_bytes != expected) {
    errors.push_back(format("control bytes %.0f != broadcasts x (n-1) x 16 B = %.0f",
                            static_cast<double>(control_bytes), static_cast<double>(expected)));
    return false;
  }
  return true;
}

bool check_allocation(const Router& router, std::span<const FlowSpec> flows,
                      std::span<const double> rates, double headroom,
                      std::vector<std::string>& errors) {
  const Topology& topo = router.topology();
  const double tol = 1e-6;
  std::vector<double> load(topo.num_links(), 0.0);
  std::vector<double> top_level(topo.num_links(), 0.0);  // max rate/weight per link
  // Copies: a reference from link_weights may be recycled by the router's
  // weight cache on a later call.
  std::vector<LinkWeights> paths(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    paths[i] = router.link_weights(f.alg, f.src, f.dst, f.id);
    for (const LinkFraction& lf : paths[i]) {
      if (lf.fraction <= 0.0) continue;
      load[lf.link] += rates[i] * lf.fraction;
      top_level[lf.link] = std::max(top_level[lf.link], rates[i] / f.weight);
    }
  }
  bool ok = true;
  for (std::size_t l = 0; l < load.size(); ++l) {
    const double cap = topo.link(static_cast<LinkId>(l)).bandwidth * (1.0 - headroom);
    if (load[l] > cap * (1.0 + tol)) {
      errors.push_back(format("link %.0f carries %.6g bps over its %.6g bps share",
                              static_cast<double>(l), load[l], cap));
      ok = false;
      break;
    }
  }
  std::size_t unbottlenecked = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (f.src == f.dst || f.weight <= 0.0) continue;
    const double level = rates[i] / f.weight;
    bool bottleneck = false;
    for (const LinkFraction& lf : paths[i]) {
      if (lf.fraction <= 0.0) continue;
      const double cap = topo.link(lf.link).bandwidth * (1.0 - headroom);
      if (load[lf.link] >= cap * (1.0 - tol) && level >= top_level[lf.link] * (1.0 - tol)) {
        bottleneck = true;
        break;
      }
    }
    if (!bottleneck) ++unbottlenecked;
  }
  if (unbottlenecked > 0) {
    errors.push_back(format("%.0f flows have no saturated link on which they get the top rate",
                            static_cast<double>(unbottlenecked)));
    ok = false;
  }
  return ok;
}

bool check_selection(const Router& router, std::span<const FlowSpec> flows,
                     const SelectionResult& result, const AllocationConfig& alloc,
                     std::vector<std::string>& errors) {
  if (result.assignment.size() != flows.size()) {
    errors.push_back("selection assignment does not cover every flow");
    return false;
  }
  std::vector<FlowSpec> chosen(flows.begin(), flows.end());
  for (std::size_t i = 0; i < chosen.size(); ++i) chosen[i].alg = result.assignment[i];
  const auto sum = [](const RateAllocation& a) {
    double s = 0.0;
    for (const double r : a.rate) s += r;
    return s;
  };
  const double reference = sum(waterfill_reference(router, chosen, alloc));
  const double start = sum(waterfill_reference(router, flows, alloc));
  bool ok = true;
  if (std::fabs(reference - result.utility) > 1e-9 * std::max(1.0, reference)) {
    errors.push_back(format("selector utility %.9g != reference water-fill %.9g", result.utility,
                            reference));
    ok = false;
  }
  if (result.utility < start * (1.0 - 1e-12)) {
    errors.push_back(format("selector utility %.9g below its starting assignment's %.9g",
                            result.utility, start));
    ok = false;
  }
  return ok;
}

bool check_snapshot(const std::vector<std::uint8_t>& saved, std::uint64_t saved_digest,
                    const std::vector<std::uint8_t>& resaved, std::uint64_t restored_digest,
                    std::vector<std::string>& errors) {
  bool ok = true;
  if (resaved != saved) {
    errors.push_back("save -> load -> save is not byte-identical");
    ok = false;
  }
  if (restored_digest != saved_digest) {
    errors.push_back("restored state digest differs from the saved one");
    ok = false;
  }
  return ok;
}

namespace {

// Small fixtures the self-test runs the checkers on.
std::vector<FlowArrival> small_arrivals(std::size_t nodes, std::size_t flows, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_nodes = nodes;
  wl.num_flows = flows;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.mean_bytes = 8 * 1024;
  wl.max_bytes = 64 * 1024;
  wl.seed = seed;
  return generate_poisson_uniform(wl);
}

// Expects `check` to pass on the clean input and fail on the broken one.
bool expect(const char* name, bool clean_passes, bool broken_passes,
            std::vector<std::string>& errors) {
  if (!clean_passes) errors.push_back(std::string("self-test: ") + name + " rejects a valid input");
  if (broken_passes) errors.push_back(std::string("self-test: ") + name + " accepts a broken input");
  return clean_passes && !broken_passes;
}

}  // namespace

bool self_test(std::vector<std::string>& errors) {
  bool ok = true;
  std::vector<std::string> scratch;

  // 1. Truncated flow record: a completion earlier than light allows.
  {
    const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
    const Router router(topo);
    sim::R2c2Sim s(topo, router, {});
    s.add_flows(small_arrivals(topo.num_nodes(), 24, 5));
    const sim::RunMetrics m = s.run();
    const PathModel model = PathModel::torus({4, 4});
    const bool clean = check_fct_lower_bound(m.flows, model, 10 * kGbps, 100, scratch) == 0 &&
                       check_wire_bytes(m, model, scratch);
    std::vector<sim::FlowRecord> broken = m.flows;
    auto longest = std::max_element(broken.begin(), broken.end(),
                                    [](const auto& a, const auto& b) { return a.bytes < b.bytes; });
    longest->completed = longest->arrival + longest->fct() / 4;
    const bool broken_passes = check_fct_lower_bound(broken, model, 10 * kGbps, 100, scratch) == 0;
    ok &= expect("flow-completion bound", clean, broken_passes, errors);

    sim::RunMetrics short_wire = m;
    short_wire.data_bytes_on_wire /= 2;
    ok &= expect("wire bytes", clean, check_wire_bytes(short_wire, model, scratch), errors);

    const obs::Counter* sent = s.metrics().find_counter("r2c2.broadcasts_sent");
    const std::uint64_t broadcasts = sent != nullptr ? sent->value() : 0;
    ok &= expect("control bytes",
                 check_control_bytes(m.control_bytes_on_wire, broadcasts, 16, scratch),
                 check_control_bytes(m.control_bytes_on_wire + 16, broadcasts, 16, scratch),
                 errors);
  }

  // 2. A rate over capacity.
  {
    const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
    const Router router(topo);
    std::vector<FlowSpec> flows;
    FlowId id = 1;
    for (NodeId s = 0; s < 16; s += 3) {
      flows.push_back({id++, s, static_cast<NodeId>((s + 5) % 16), RouteAlg::kRps});
    }
    const AllocationConfig alloc;
    const RateAllocation a = waterfill(router, flows, alloc);
    const bool clean = check_allocation(router, flows, a.rate, alloc.headroom, scratch);
    std::vector<double> over = a.rate;
    over[0] = 2.0 * topo.link(0).bandwidth;
    const bool broken_passes = check_allocation(router, flows, over, alloc.headroom, scratch);
    ok &= expect("allocation feasibility", clean, broken_passes, errors);

    SelectionConfig sel;
    sel.population = 8;
    sel.max_generations = 3;
    SelectionResult chosen = select_routes_ga(router, flows, sel);
    const bool selection_clean = check_selection(router, flows, chosen, sel.alloc, scratch);
    chosen.utility *= 1.01;
    ok &= expect("selection utility", selection_clean,
                 check_selection(router, flows, chosen, sel.alloc, scratch), errors);
  }

  // 3. A flipped snapshot byte.
  {
    ClosSpec spec;
    spec.servers_per_leaf = 4;
    spec.num_leaves = 4;
    spec.num_spines = 2;
    const Topology topo = make_folded_clos(spec);
    const Router router(topo);
    sim::R2c2SimConfig cfg;
    cfg.reliable = true;
    const std::vector<FlowArrival> arrivals = small_arrivals(16, 24, 9);
    sim::R2c2Sim a(topo, router, cfg);
    a.add_flows(arrivals);
    a.run_until(20 * kNsPerUs);
    snapshot::ArchiveWriter w;
    a.save(w);
    const std::vector<std::uint8_t> saved = w.finish();
    // Loads `bytes` into a fresh simulator and checks its re-save; a load
    // that throws fails the round trip too.
    const auto round_trip = [&](const std::vector<std::uint8_t>& bytes) {
      sim::R2c2Sim b(topo, router, cfg);
      b.add_flows(arrivals);
      try {
        snapshot::ArchiveReader r(bytes);
        b.load(r);
      } catch (const std::exception&) {
        return false;
      }
      snapshot::ArchiveWriter again;
      b.save(again);
      return check_snapshot(bytes, a.state_digest(), again.finish(), b.state_digest(), scratch);
    };
    const bool clean = round_trip(saved);
    std::vector<std::uint8_t> flipped = saved;
    flipped[flipped.size() / 2] ^= 0x01;
    ok &= expect("snapshot round trip", clean, round_trip(flipped), errors);
    // The archive's own framing may reject the flipped byte before the
    // comparison runs, so the comparison is also fed a re-save with the
    // flipped byte and a restored digest that differs.
    const std::uint64_t digest = a.state_digest();
    ok &= expect("snapshot re-save", clean,
                 check_snapshot(saved, digest, flipped, digest, scratch), errors);
    ok &= expect("snapshot digest", clean,
                 check_snapshot(saved, digest, saved, digest ^ 1, scratch), errors);
  }
  return ok;
}

}  // namespace rackbench
