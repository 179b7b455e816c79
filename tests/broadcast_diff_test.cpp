// Differential testing of the child-bitmap broadcast FIB against the
// reference BFS/CSR builder (tests/broadcast_reference.h), plus its memory
// bound and the allocation-free FIB lookup.
//
// The FIB must reproduce the reference entry for entry: for every
// (src, tree, node) the same children, in the same ascending-node order,
// each yielded as the link find_link(node, child) returns. Event order in
// the simulator follows that order, so any difference would change every
// digest downstream.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "broadcast/broadcast.h"
#include "broadcast_reference.h"
#include "topology/topology.h"

// --- Counting allocator ---------------------------------------------------
// Global operator new/delete overrides local to this test binary. They
// count allocations and track live and peak heap bytes (by usable size), so
// the memory test can weigh exactly what a BroadcastTrees holds.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* note_alloc(void* p) {
  if (p == nullptr) return nullptr;
  ++g_allocations;
  const std::int64_t live =
      g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

void* aligned(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = note_alloc(std::malloc(size ? size : 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = note_alloc(aligned(size, align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return note_alloc(std::malloc(size ? size : 1));
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return note_alloc(aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t& t) noexcept {
  return ::operator new(size, align, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete(void* p) noexcept { note_free(p); }
void operator delete[](void* p) noexcept { note_free(p); }
void operator delete(void* p, std::size_t) noexcept { note_free(p); }
void operator delete[](void* p, std::size_t) noexcept { note_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { note_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { note_free(p); }

namespace r2c2 {
namespace {

// Compares the FIB with the oracle at 1-4 trees per source over every
// (src, tree, node); reports the first mismatch per tree count.
void expect_matches_oracle(const Topology& topo) {
  const std::size_t n = topo.num_nodes();
  std::vector<LinkId> expected, actual;
  for (int trees_per_source = 1; trees_per_source <= 4; ++trees_per_source) {
    const BroadcastTrees fib(topo, trees_per_source);
    const oracle::BroadcastReference ref(topo, trees_per_source);
    std::size_t entries = 0, edges = 0;
    bool reported = false;
    for (NodeId src = 0; src < n; ++src) {
      for (int t = 0; t < trees_per_source; ++t) {
        for (NodeId at = 0; at < n; ++at) {
          expected.clear();
          for (const NodeId child : ref.children(at, src, t)) {
            expected.push_back(topo.find_link(at, child));
          }
          const BroadcastTrees::ChildLinks got = fib.children(at, src, t);
          actual.assign(got.begin(), got.end());
          ++entries;
          edges += actual.size();
          if (!reported && actual != expected) {
            reported = true;
            ADD_FAILURE() << topo.name() << ": FIB differs from the reference at trees="
                          << trees_per_source << " src=" << src << " tree=" << t
                          << " at=" << at << " (" << actual.size() << " vs "
                          << expected.size() << " children)";
          }
        }
      }
    }
    EXPECT_EQ(entries, n * n * static_cast<std::size_t>(trees_per_source));
    // Every reachable non-source node hangs off exactly one tree edge.
    const std::size_t live = n - topo.failed_nodes().size();
    std::size_t sources_live = 0;
    for (NodeId src = 0; src < n; ++src) sources_live += topo.node_failed(src) ? 0 : 1;
    EXPECT_EQ(edges, sources_live * (live - 1) * static_cast<std::size_t>(trees_per_source));
  }
}

Topology torus(std::initializer_list<int> dims) { return make_torus(dims, 10 * kGbps, 100); }

Topology clos48() {
  return make_folded_clos({.servers_per_leaf = 6, .num_leaves = 8, .num_spines = 2});
}

TEST(BroadcastDiff, Torus8x8x8MatchesReference) { expect_matches_oracle(torus({8, 8, 8})); }

TEST(BroadcastDiff, TorusWithRadix2DimensionMatchesReference) {
  expect_matches_oracle(torus({2, 3, 4}));
}

TEST(BroadcastDiff, MeshMatchesReference) {
  expect_matches_oracle(make_mesh({4, 5, 3}, 10 * kGbps, 100));
}

TEST(BroadcastDiff, FoldedClosMatchesReference) {
  const Topology topo = clos48();
  ASSERT_EQ(topo.max_degree(), 8);
  expect_matches_oracle(topo);
}

TEST(BroadcastDiff, DegradedClosMatchesReference) {
  const Topology topo = clos48();
  const NodeId leaf0 = 48, spine0 = 56;
  const LinkId cut = topo.find_link(leaf0, spine0);
  ASSERT_NE(cut, kInvalidLink);
  expect_matches_oracle(make_degraded(topo, std::span<const LinkId>(&cut, 1)));
}

TEST(BroadcastDiff, WideClosMultiByteRowsMatchReference) {
  // The default spec: 32-port leaves and spines, so every FIB row spans
  // four bytes.
  const Topology topo = make_folded_clos(ClosSpec{});
  ASSERT_EQ(topo.max_degree(), 32);
  expect_matches_oracle(topo);
}

TEST(BroadcastDiff, DegradedTorusMatchesReference) {
  const Topology topo = torus({8, 8, 8});
  const std::vector<LinkId> cut{topo.find_link(0, 1), topo.find_link(100, 164),
                                topo.find_link(511, 447)};
  for (const LinkId l : cut) ASSERT_NE(l, kInvalidLink);
  expect_matches_oracle(make_degraded(topo, cut));
}

TEST(BroadcastDiff, FailedNodeTorusMatchesReference) {
  expect_matches_oracle(fail_node(torus({4, 4, 4}), 21));
}

TEST(BroadcastDiff, ParallelLinksYieldTheFirstPort) {
  // Node 0 reaches node 1 over ports 0 and 2. Rotated BFS (tree 2 starts
  // at port 2) discovers node 1 over the second cable, but the FIB must
  // yield the first port's link, as find_link does.
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_node();
  topo.add_duplex_link(0, 1, 10 * kGbps, 100);
  topo.add_duplex_link(0, 2, 10 * kGbps, 100);
  topo.add_duplex_link(0, 1, 10 * kGbps, 100);
  topo.add_duplex_link(2, 3, 10 * kGbps, 100);
  topo.finalize();
  const LinkId first = topo.out_link_by_port(0, 0);
  ASSERT_EQ(topo.link(first).to, 1u);
  ASSERT_EQ(topo.link(topo.out_link_by_port(0, 2)).to, 1u);

  const BroadcastTrees fib(topo, 3);
  for (int t = 0; t < 3; ++t) {
    const auto got = fib.children(0, 0, t);
    const std::vector<LinkId> links(got.begin(), got.end());
    ASSERT_EQ(links.size(), 2u) << "tree " << t;
    EXPECT_EQ(links[0], first) << "tree " << t;
    EXPECT_EQ(topo.link(links[1]).to, 2u) << "tree " << t;
  }
  expect_matches_oracle(topo);
}

TEST(BroadcastDiff, HeldBytesWithinBitmapBound) {
  // An 8^3 torus with 4 trees: the FIB may hold at most one bitmap row per
  // (src, tree, node) plus O(n * max_degree) of per-node tables, both
  // after construction and at its peak during construction.
  const Topology topo = torus({8, 8, 8});
  const std::size_t n = topo.num_nodes();
  const std::size_t trees = 4;
  const std::size_t max_deg = static_cast<std::size_t>(topo.max_degree());
  const std::size_t row_bytes = (max_deg + 7) / 8;
  const auto bound =
      static_cast<std::int64_t>(n * n * trees * row_bytes + 64 * n * max_deg);

  const std::int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  auto fib = std::make_unique<BroadcastTrees>(topo, static_cast<int>(trees));
  const std::int64_t held = g_live_bytes.load() - before;
  const std::int64_t peak = g_peak_bytes.load() - before;
  EXPECT_LE(held, bound) << "FIB holds " << held << " B";
  EXPECT_LE(peak, bound) << "FIB build peaked at " << peak << " B";
  EXPECT_GE(held, static_cast<std::int64_t>(n * n * trees * row_bytes));
  fib.reset();
  EXPECT_EQ(g_live_bytes.load(), before) << "FIB leaked";
}

TEST(BroadcastDiff, ChildrenAllocatesNothing) {
  const Topology topo = torus({8, 8, 8});
  const BroadcastTrees fib(topo, 4);
  const std::uint64_t before = g_allocations.load();
  std::uint64_t sum = 0;
  for (NodeId src = 0; src < topo.num_nodes(); src += 7) {
    for (int t = 0; t < 4; ++t) {
      for (NodeId at = 0; at < topo.num_nodes(); ++at) {
        for (const LinkId l : fib.children(at, src, t)) sum += l + 1;
      }
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u) << "children() allocated";
  EXPECT_GT(sum, 0u);
}

}  // namespace
}  // namespace r2c2
