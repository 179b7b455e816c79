// Failure handling (Section 3.2): "To detect link and node failures, we
// rely on a topology discovery mechanism... Upon detecting a failure,
// nodes broadcast information about all their ongoing flows."
//
// These tests cover the recovery pipeline: degrade the topology, rebuild
// router + broadcast trees, re-point the stacks, re-announce flows, and
// verify the control plane reconverges and the data plane still delivers.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "broadcast/broadcast.h"
#include "r2c2/stack.h"
#include "sim/r2c2_sim.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

TEST(Degraded, RemovesBothDirections) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const LinkId failed = topo.find_link(0, 1);
  const Topology degraded = make_degraded(topo, std::span<const LinkId>(&failed, 1));
  EXPECT_EQ(degraded.num_links(), topo.num_links() - 2);
  EXPECT_EQ(degraded.find_link(0, 1), kInvalidLink);
  EXPECT_EQ(degraded.find_link(1, 0), kInvalidLink);
  EXPECT_EQ(degraded.num_nodes(), topo.num_nodes());
}

TEST(Degraded, DistancesRerouteAroundFailure) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const LinkId failed = topo.find_link(0, 1);
  const Topology degraded = make_degraded(topo, std::span<const LinkId>(&failed, 1));
  EXPECT_EQ(topo.distance(0, 1), 1);
  EXPECT_EQ(degraded.distance(0, 1), 3);  // around a corner (parity: no 2-hop detour on a grid)
  // Everything still reachable (finalize would have thrown otherwise).
  for (NodeId a = 0; a < degraded.num_nodes(); ++a) {
    for (NodeId b = 0; b < degraded.num_nodes(); ++b) {
      EXPECT_LT(degraded.distance(a, b), 0xffff);
    }
  }
}

TEST(Degraded, DisconnectionIsRejected) {
  // Cutting all four cables of a 1D ring node disconnects it.
  const Topology topo = make_torus({8}, kGbps, 100);
  std::vector<LinkId> cut{topo.find_link(0, 1), topo.find_link(0, 7)};
  EXPECT_THROW(make_degraded(topo, cut), std::logic_error);
}

TEST(FailNode, RemovesAllIncidentLinksOnTorus) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const NodeId victim = 5;
  const std::size_t degree = topo.out_links(victim).size();
  const Topology degraded = fail_node(topo, victim);
  // Every incident cable vanishes in both directions.
  EXPECT_EQ(degraded.num_links(), topo.num_links() - 2 * degree);
  EXPECT_TRUE(degraded.out_links(victim).empty());
  EXPECT_TRUE(degraded.node_failed(victim));
  ASSERT_EQ(degraded.failed_nodes().size(), 1u);
  EXPECT_EQ(degraded.failed_nodes()[0], victim);
  // Node numbering is preserved: survivors keep their ids, and routing
  // among them still works everywhere.
  EXPECT_EQ(degraded.num_nodes(), topo.num_nodes());
  for (NodeId a = 0; a < degraded.num_nodes(); ++a) {
    for (NodeId b = 0; b < degraded.num_nodes(); ++b) {
      if (a == victim || b == victim || a == b) continue;
      EXPECT_LT(degraded.distance(a, b), 0xffff) << a << "->" << b;
    }
  }
}

TEST(FailNode, SurvivorsRouteAroundFailedTorusNode) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Topology degraded = fail_node(topo, 21);
  const Router router(degraded);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    NodeId s, d;
    do {
      s = static_cast<NodeId>(rng.uniform_int(64));
    } while (s == 21);
    do {
      d = static_cast<NodeId>(rng.uniform_int(64));
    } while (d == s || d == 21);
    const Path p = router.pick_path(RouteAlg::kRps, s, d, rng);
    EXPECT_EQ(p.back(), d);
    for (const NodeId hop : p) EXPECT_NE(hop, 21);
  }
}

TEST(FailNode, WorksOnMeshBoundaryNode) {
  // A corner of a 2D mesh can fail without disconnecting anyone else.
  const Topology topo = make_mesh({3, 3}, 10 * kGbps, 100);
  const Topology degraded = fail_node(topo, 0);
  EXPECT_TRUE(degraded.node_failed(0));
  for (NodeId a = 1; a < degraded.num_nodes(); ++a) {
    for (NodeId b = 1; b < degraded.num_nodes(); ++b) {
      EXPECT_LT(degraded.distance(a, b), 0xffff);
    }
  }
}

TEST(FailNode, DisconnectingNodeFailureIsRejected) {
  // The interior node of a 1D mesh (a line) is a cut vertex: failing it
  // splits the survivors, which the rebuild must refuse.
  const Topology line = make_mesh({3}, kGbps, 100);
  EXPECT_THROW(fail_node(line, 1), std::logic_error);
  // Same for the articulation point of a 3x1x... style narrow mesh.
  const Topology strip = make_mesh({5}, kGbps, 100);
  EXPECT_THROW(fail_node(strip, 2), std::logic_error);
  // But a ring (1D torus) tolerates any single node failure.
  const Topology ring = make_torus({5}, kGbps, 100);
  EXPECT_NO_THROW(fail_node(ring, 2));
}

TEST(FailNode, CombinedLinkAndNodeFailures) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const std::vector<LinkId> cut{topo.find_link(0, 1)};
  const std::vector<NodeId> dead{static_cast<NodeId>(10)};
  const Topology degraded = make_degraded(topo, cut, dead);
  EXPECT_EQ(degraded.find_link(0, 1), kInvalidLink);
  EXPECT_EQ(degraded.find_link(1, 0), kInvalidLink);
  EXPECT_TRUE(degraded.out_links(10).empty());
  EXPECT_TRUE(degraded.node_failed(10));
  EXPECT_FALSE(degraded.node_failed(0));
}

TEST(Degraded, RoutingFallsBackAndStaysValid) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  std::vector<LinkId> failed{topo.find_link(0, 1), topo.find_link(5, 6)};
  const Topology degraded = make_degraded(topo, failed);
  const Router router(degraded);
  Rng rng(3);
  for (const RouteAlg alg : {RouteAlg::kRps, RouteAlg::kDor, RouteAlg::kVlb, RouteAlg::kWlb}) {
    for (int i = 0; i < 50; ++i) {
      const NodeId s = static_cast<NodeId>(rng.uniform_int(16));
      NodeId d;
      do {
        d = static_cast<NodeId>(rng.uniform_int(16));
      } while (d == s);
      const Path p = router.pick_path(alg, s, d, rng);
      EXPECT_EQ(p.back(), d);
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        EXPECT_NE(degraded.find_link(p[h], p[h + 1]), kInvalidLink) << to_string(alg);
      }
    }
  }
}

TEST(Degraded, BroadcastTreesAvoidFailedLinks) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const LinkId failed = topo.find_link(0, 1);
  const Topology degraded = make_degraded(topo, std::span<const LinkId>(&failed, 1));
  const BroadcastTrees trees(degraded, 2);
  for (NodeId src = 0; src < degraded.num_nodes(); ++src) {
    for (int t = 0; t < 2; ++t) {
      std::size_t covered = 1;
      std::vector<NodeId> stack{src};
      while (!stack.empty()) {
        const NodeId at = stack.back();
        stack.pop_back();
        for (const LinkId link : trees.children(at, src, t)) {
          EXPECT_EQ(degraded.link(link).from, at);
          const NodeId child = degraded.link(link).to;
          ++covered;
          stack.push_back(child);
        }
      }
      EXPECT_EQ(covered, degraded.num_nodes());
    }
  }
}

TEST(Degraded, SimulationDeliversOverDegradedRack) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  Rng rng(11);
  std::vector<LinkId> failed{random_link(topo, rng)};
  const Topology degraded = make_degraded(topo, failed);
  const Router router(degraded);
  sim::R2c2Sim sim(degraded, router, {});
  WorkloadConfig wl;
  wl.num_nodes = degraded.num_nodes();
  wl.num_flows = 80;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const sim::RunMetrics m = sim.run();
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
}

// Stack-level recovery: after a failure, hosts rebuild the shared context
// and stacks re-announce their flows over the new trees.
TEST(FailureRecovery, StacksReconvergeAfterRebuild) {
  Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  auto router = std::make_unique<Router>(topo);
  auto trees = std::make_unique<BroadcastTrees>(topo, 2);
  RackContext ctx;
  ctx.topo = &topo;
  ctx.router = router.get();
  ctx.trees = trees.get();

  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> wire;
  std::vector<std::unique_ptr<R2c2Stack>> stacks;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    R2c2Stack::Callbacks cb;
    cb.send_control = [&wire](NodeId next, std::vector<std::uint8_t> bytes) {
      wire.emplace_back(next, std::move(bytes));
    };
    stacks.push_back(std::make_unique<R2c2Stack>(n, ctx, std::move(cb)));
  }
  const auto pump = [&] {
    while (!wire.empty()) {
      auto [node, bytes] = std::move(wire.front());
      wire.pop_front();
      stacks[node]->on_control_packet(bytes);
    }
  };

  const FlowId f1 = stacks[0]->open_flow(10);
  const FlowId f2 = stacks[3]->open_flow(12);
  pump();
  for (const auto& s : stacks) ASSERT_EQ(s->view().size(), 2u);

  // A cable fails. The discovery mechanism rebuilds the shared structures;
  // stacks drop nothing (their tables persist) and re-announce their flows.
  const LinkId failed = topo.find_link(0, 1);
  const Topology degraded = make_degraded(topo, std::span<const LinkId>(&failed, 1));
  auto new_router = std::make_unique<Router>(degraded);
  auto new_trees = std::make_unique<BroadcastTrees>(degraded, 2);
  RackContext new_ctx;
  new_ctx.topo = &degraded;
  new_ctx.router = new_router.get();
  new_ctx.trees = new_trees.get();
  int announced = 0;
  for (auto& s : stacks) {
    s->update_context(new_ctx);
    announced += s->rebroadcast_local_flows();
  }
  EXPECT_EQ(announced, 2);
  pump();

  // Every node still sees both flows, and the views agree.
  const std::uint64_t h = stacks[0]->view().view_hash();
  for (const auto& s : stacks) {
    EXPECT_EQ(s->view().size(), 2u);
    EXPECT_EQ(s->view().view_hash(), h);
  }
  // Routes picked after the failure avoid the dead cable.
  for (int i = 0; i < 30; ++i) {
    const RouteCode route = stacks[0]->pick_route(f1);
    NodeId at = 0;
    for (int hop = 0; hop < route.length(); ++hop) {
      const LinkId l = degraded.out_link_by_port(at, route.port_at(hop));
      at = degraded.link(l).to;
    }
    EXPECT_EQ(at, 10);
  }
  (void)f2;
}

}  // namespace
}  // namespace r2c2
