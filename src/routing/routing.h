// Routing protocols for direct-connect rack topologies (Section 2.2.1).
//
// Every protocol has two duties:
//  1. Data plane: pick the path for one packet (pick_path). The sender
//     encodes this path into the packet header; intermediate nodes only
//     follow it (source routing, Section 3.5).
//  2. Control plane: report the flow-level split of traffic across links
//     (link_weights). R2C2's key insight (Section 3.3) is that the routing
//     protocol dictates a flow's relative rate across its paths, so rate
//     allocation can be done per-flow using these per-link fractions.
//
// Implemented protocols:
//  - kRps: randomized packet spraying [22] — per hop, uniformly pick one of
//    the shortest-path next hops.
//  - kDor: destination-tag / dimension-order routing [20] — deterministic
//    minimal path, dimensions corrected in a fixed order.
//  - kVlb: Valiant load balancing [45] — route minimally to a uniformly
//    random intermediate node, then minimally to the destination.
//  - kWlb: weighted load balancing [44] — per-dimension direction chosen
//    randomly, biased toward the shorter way in proportion to path length.
//  - kEcmp: single shortest path chosen by a hash of the flow id; used by
//    the TCP baseline (Section 5.2).
//
// Threading model: a Router is an immutable shared read structure. kRps
// and kDor weight entries live in dense per-algorithm slot tables indexed
// by (src, dst); each entry is computed once, heap-allocated, and published
// with a single compare-and-swap — after which it is never modified or
// replaced, so the hot read path is one atomic load and a dereference: no
// mutex, no allocation, safe from any number of threads (the GA's evaluator
// lanes and concurrent experiment sweeps read one Router simultaneously).
// Racing first-touch computations of the same pair are harmless: the
// computation is pure, both sides derive identical weights, and the CAS
// keeps exactly one. precompute() moves the entire first-touch cost of an
// algorithm out of measured regions, optionally spread across a ThreadPool.
//
// kVlb and kWlb are different: their entries touch O(n) links each, so a
// dense n^2 table is ~10 GB at 512 nodes and unthinkable at 4k. Those two
// algorithms use a factored/tiled representation instead (the ScaleStore
// caching idiom): entries are derived on demand from the dense RPS base,
// cached in fixed-shape (src, dst) tiles, and the tile working set is
// bounded by an LRU byte budget (TileConfig). Within a tile each entry is
// still CAS-published once; the tile directory and LRU list live behind a
// mutex, and readers pin tiles with shared ownership so eviction never
// invalidates an in-flight read. Because a tile can be evicted and later
// re-derived, tiled references are returned as thread-local copies: like
// kEcmp, a kVlb/kWlb reference is valid until the calling thread's next
// tiled query (every in-repo caller consumes the weights immediately).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "topology/topology.h"

namespace r2c2 {

class ThreadPool;

enum class RouteAlg : std::uint8_t {
  kRps = 0,
  kDor = 1,
  kVlb = 2,
  kWlb = 3,
  kEcmp = 4,
};
inline constexpr int kNumRouteAlgs = 5;

std::string_view to_string(RouteAlg alg);

// A path as a sequence of nodes, including source and destination.
using Path = std::vector<NodeId>;

// Fraction of a flow's total rate crossing a directed link. Fractions out
// of the source sum to 1 and are conserved at intermediate nodes; a
// fraction can exceed contributions of 1 only summed over multiple flows.
struct LinkFraction {
  LinkId link = kInvalidLink;
  double fraction = 0.0;
};
using LinkWeights = std::vector<LinkFraction>;

// Combined per-candidate spray bias for the congestion-aware data plane.
// Two additive components, owned by the caller (the Router never stores
// the spans, which keeps it an immutable shared read structure):
//  - penalty: the detection layer's gray-link demotion, indexed by the
//    *router's own* (decision-plane) LinkId — exactly the span the
//    penalty-only pick_path_into overload takes.
//  - congestion: the live ECN-style EWMA signal exported by the network
//    substrate, indexed by *substrate* LinkId. When the router routes a
//    degraded decision-plane topology whose link ids differ from the
//    substrate's, plane_to_substrate maps the router's ids into the
//    congestion span; empty means the ids already coincide.
// A candidate next hop over link l is drawn with weight
//   1 / (1 + penalty[l] + congestion_gain * congestion[sub(l)])
// and, exactly like the penalty-only walk, any hop where every candidate's
// combined bias is zero consumes the same single uniform RNG draw as the
// unbiased walk — a run with no suspects and no congestion marks is
// bit-identical to the base data plane.
struct SprayBias {
  std::span<const double> penalty;             // by decision-plane LinkId
  std::span<const double> congestion;          // by substrate LinkId
  std::span<const LinkId> plane_to_substrate;  // empty = identity mapping
  double congestion_gain = 0.0;

  bool empty() const {
    return penalty.empty() && (congestion.empty() || congestion_gain <= 0.0);
  }
};

class Router {
 public:
  // Budget for the tiled kVlb/kWlb weight cache. tile_shape is the tile
  // edge in nodes (a tile covers tile_shape x tile_shape (src, dst)
  // pairs); max_resident_bytes bounds the resident entries + slot arrays
  // across both tiled algorithms. The most recently touched tile is never
  // evicted, so the effective floor is one tile.
  struct TileConfig {
    std::size_t tile_shape = 64;
    std::uint64_t max_resident_bytes = std::uint64_t{64} << 20;  // 64 MiB
  };
  struct TileStats {
    std::uint64_t resident_bytes = 0;  // slot arrays + published entries
    std::uint64_t resident_tiles = 0;
    std::uint64_t evictions = 0;  // tiles dropped by the LRU budget
    std::uint64_t hits = 0;       // tiled reads served from a published slot
    std::uint64_t misses = 0;     // tiled reads that derived the entry
  };

  explicit Router(const Topology& topo);
  Router(const Topology& topo, TileConfig tiles);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const Topology& topology() const { return topo_; }

  // Picks the path for one packet. `flow` is only used by kEcmp (the path
  // is a pure function of the flow id). Thread-safe given a per-caller rng.
  Path pick_path(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, FlowId flow = 0) const;
  // Allocation-free variant: writes the path into `out` (reusing its
  // capacity); per-hop working state lives in thread-local scratch.
  void pick_path_into(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, Path& out,
                      FlowId flow = 0) const;

  // Penalty-aware variant: `link_penalty` (indexed by LinkId, values >= 0)
  // biases the randomized walks away from suspected-gray links. A candidate
  // next hop over link l is drawn with weight 1 / (1 + penalty[l]) instead
  // of uniformly — a penalized link still carries traffic (it is demoted,
  // not dead), just proportionally less. Hops where every candidate has
  // zero penalty consume exactly the same RNG draw as the unpenalized walk,
  // so runs with no demotions stay bit-identical to the base data plane.
  // Deterministic algorithms (kDor, kEcmp) ignore the penalty; kVlb applies
  // it to both spray phases. The Router never stores the span: the caller
  // (the simulator's detection layer) owns and mutates the penalties, which
  // keeps the Router an immutable shared read structure.
  void pick_path_into(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, Path& out,
                      std::span<const double> link_penalty, FlowId flow = 0) const;

  // Congestion-aware variant: combines the fault penalty with the live
  // congestion signal (see SprayBias). Superset of the penalty overload —
  // a bias with empty congestion degrades to it exactly, and an empty()
  // bias degrades to the unbiased walk, draw for draw.
  void pick_path_into(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, Path& out,
                      const SprayBias& bias, FlowId flow = 0) const;

  // Expected fraction of the flow's rate on each directed link it uses.
  // Lock-free for kRps/kDor: entries are immutable once published (see
  // header comment) and the returned reference stays valid for the
  // Router's lifetime. kVlb/kWlb entries live in the evictable tile cache
  // and kEcmp entries are keyed by flow as well, so those are derived into
  // a thread-local buffer instead: the reference is valid until the
  // calling thread's next kVlb/kWlb/kEcmp query (every in-repo caller
  // consumes the weights immediately).
  const LinkWeights& link_weights(RouteAlg alg, NodeId src, NodeId dst, FlowId flow = 0) const;

  // Expected path length in hops = sum of all link fractions.
  double expected_hops(RouteAlg alg, NodeId src, NodeId dst, FlowId flow = 0) const;

  // Eagerly derives every (src, dst) weight entry for `alg` — across `pool`
  // when given — so subsequent link_weights calls are pure table reads.
  // No-op for kEcmp (entries are per-flow; they are always derived per
  // call) and for already-computed entries. For the tiled algorithms the
  // warm proceeds tile-major (each tile fills completely before the next
  // is touched) and stays subject to the LRU budget: a full warm of a
  // table larger than the budget leaves only the most recent tiles
  // resident. Needed RPS base entries are derived on demand — precompute
  // no longer eagerly warms the full n^2 RPS table first.
  void precompute(RouteAlg alg, ThreadPool* pool = nullptr) const;

  // Warms exactly the tiles covering the given (src, dst) pairs of a tiled
  // algorithm (kVlb/kWlb) — the per-working-set alternative to a full
  // precompute. No-op for dense algorithms (use precompute).
  void warm_tiles(RouteAlg alg, std::span<const std::pair<NodeId, NodeId>> pairs) const;

  // Live occupancy of the tiled kVlb/kWlb cache (thread-safe).
  TileStats tile_stats() const;

 private:
  // Weights of a tabled (flow-independent) algorithm for one pair.
  LinkWeights compute_weights(RouteAlg alg, NodeId src, NodeId dst) const;
  LinkWeights rps_weights(NodeId src, NodeId dst) const;
  // Replaces `weights` with one full-weight entry per hop of `path`.
  void single_path_weights(const Path& path, LinkWeights& weights) const;
  LinkWeights vlb_weights(NodeId src, NodeId dst) const;
  LinkWeights wlb_weights(NodeId src, NodeId dst) const;

  // Path builders append the walk from the last node already in `path`.
  void rps_walk(Path& path, NodeId to, Rng& rng) const;
  // The RPS walk drawn from a generator seeded by (flow, src, dst) alone.
  void ecmp_walk(Path& path, NodeId to, FlowId flow) const;
  // Biased spray: weight 1/(1 + penalty + gain*congestion) per candidate
  // link; falls back to the uniform draw at hops where every candidate's
  // combined bias is zero. The penalty-only walk is the congestion-free
  // special case.
  void rps_walk_biased(Path& path, NodeId to, Rng& rng, const SprayBias& bias) const;
  void dor_walk(Path& path, NodeId to) const;
  void wlb_walk(Path& path, NodeId to, Rng& rng) const;

  // Appends the dimension-order walk from `at` to `dst` (grids only),
  // correcting dimensions in index order; `dir` gives the step direction
  // per dimension (+1/-1), pre-chosen by the caller.
  void walk_dims(Path& path, std::span<const int> from_coords, std::span<const int> to_coords,
                 std::span<const int> dir) const;
  // Direction of the shorter way around dimension `k` from a to b (+1/-1).
  // An exact tie (b is k/2 away) is broken by a deterministic hash of
  // (src, dst, dim): per-pair stable, balanced across pairs — matching the
  // balanced tie-breaking assumed by the classic throughput analyses [20].
  // For meshes the direction is forced.
  int minimal_direction(int a, int b, int k, bool wraps, NodeId src, NodeId dst, int dim) const;

  // Tiled kVlb/kWlb cache internals. A tile owns a fixed-shape slot array
  // (CAS-published entries, like the dense tables) plus its byte account.
  // Tiles are shared-owned: a reader holding a Tile pointer keeps it valid
  // even if the LRU drops it from the directory mid-read.
  struct Tile;
  std::shared_ptr<Tile> acquire_tile(std::uint64_t key) const;
  const LinkWeights& tiled_weights(RouteAlg alg, NodeId src, NodeId dst) const;
  void evict_over_budget_locked(std::uint64_t keep_key) const;

  const Topology& topo_;
  // Dense slot tables for the flow-id-independent algorithms whose entries
  // are small (kRps, kDor), indexed by src * num_nodes + dst. A null slot
  // means "not derived yet"; a non-null slot points at an immutable heap
  // entry owned by the Router. kVlb/kWlb (O(n)-sized entries) live in the
  // tile cache below instead.
  static constexpr int kTabledAlgs = 4;  // kRps, kDor dense; kVlb, kWlb tiled
  static constexpr int kDenseAlgs = 2;   // kRps, kDor
  mutable std::array<std::vector<std::atomic<const LinkWeights*>>, kDenseAlgs> table_;

  TileConfig tile_config_;
  mutable std::mutex tile_mu_;  // guards the directory, LRU list and byte accounts
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<Tile>> tiles_;
  mutable std::list<std::uint64_t> tile_lru_;  // front = most recently used
  mutable std::uint64_t tile_bytes_ = 0;       // resident slot arrays + entries
  mutable std::uint64_t tile_evictions_ = 0;
  mutable std::atomic<std::uint64_t> tile_hits_{0};
  mutable std::atomic<std::uint64_t> tile_misses_{0};
};

}  // namespace r2c2
