// Correctness checks the benchmark applies to every workload's output.
//
// Each check compares the program's output against a computation made
// here, from the benchmark's own model of the rack, or against a property
// the method must have. None compares against a stored copy of earlier
// output. Every failure appends a line to `errors`.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "congestion/waterfill.h"
#include "control/route_selection.h"
#include "routing/routing.h"
#include "sim/metrics.h"

namespace rackbench {

using r2c2::NodeId;
using r2c2::TimeNs;

// The benchmark's own hop model of a topology, derived from the shape it was
// constructed with rather than from the program's distance tables.
class PathModel {
 public:
  // k-ary n-cube with wraparound; node ids are mixed-radix coordinates,
  // first dimension fastest.
  static PathModel torus(std::vector<int> dims);
  // Two-level folded Clos: servers [0, servers_per_leaf * leaves), server
  // s hangs off leaf s / servers_per_leaf.
  static PathModel clos(int servers_per_leaf);

  // Minimal hop count between two servers.
  int hops(NodeId a, NodeId b) const;
  // Number of distinct links a route may leave `a` by (at least 1): a
  // single flow cannot be served faster than this many links at line rate.
  // A minimal route on the torus has one direction per dimension the two
  // nodes differ in, two when the ring offset is exactly half; a
  // non-minimal one (VLB) may use every port.
  int ports(NodeId a, NodeId b, bool minimal) const;

 private:
  std::vector<int> dims_;     // torus only
  int servers_per_leaf_ = 0;  // Clos only (a server has one port)
};

// Every finished flow's completion time is at least its bytes at line rate
// over its usable ports plus the propagation delay of its minimal hops.
// `minimal` tells whether a flow was routed minimally (null: all were).
// Returns the number of flows that break the bound.
using MinimalRoute = std::function<bool(const r2c2::sim::FlowRecord&)>;
std::size_t check_fct_lower_bound(std::span<const r2c2::sim::FlowRecord> flows,
                                  const PathModel& model, double link_bps, TimeNs hop_latency,
                                  std::vector<std::string>& errors,
                                  const MinimalRoute& minimal = nullptr);

// Data bytes on the wire cover every delivered byte times its minimal hop
// count.
bool check_wire_bytes(const r2c2::sim::RunMetrics& m, const PathModel& model,
                      std::vector<std::string>& errors);

// Section 3.2: one broadcast puts exactly one 16-byte packet on each of the
// n - 1 edges of its tree.
bool check_control_bytes(std::uint64_t control_bytes, std::uint64_t broadcasts,
                         std::size_t nodes, std::vector<std::string>& errors);

// A rate allocation is feasible on every link (load <= (1 - headroom) *
// capacity) and max-min fair: each flow crosses a saturated link on which
// no other flow gets a higher weighted rate.
bool check_allocation(const r2c2::Router& router, std::span<const r2c2::FlowSpec> flows,
                      std::span<const double> rates, double headroom,
                      std::vector<std::string>& errors);

// The selector's reported utility equals the reference water-filler's
// aggregate on the chosen assignment, and is no worse than the assignment
// it started from (`flows` as given, before selection).
bool check_selection(const r2c2::Router& router, std::span<const r2c2::FlowSpec> flows,
                     const r2c2::SelectionResult& result, const r2c2::AllocationConfig& alloc,
                     std::vector<std::string>& errors);

// Snapshot round trip: a simulator loaded from `saved` re-saves exactly
// `saved` (`resaved`) and has the saved state digest (`restored_digest`).
bool check_snapshot(const std::vector<std::uint8_t>& saved, std::uint64_t saved_digest,
                    const std::vector<std::uint8_t>& resaved, std::uint64_t restored_digest,
                    std::vector<std::string>& errors);

// Feeds each checker a deliberately wrong input (a truncated flow record,
// halved wire bytes, one control packet too many, a rate over capacity, an
// inflated utility, a flipped byte in a snapshot or its re-save, a restored
// digest that differs) and requires it to fail; also
// requires the untouched inputs to pass. Returns false, with reasons in
// `errors`, if any checker misses its fault.
bool self_test(std::vector<std::string>& errors);

}  // namespace rackbench
