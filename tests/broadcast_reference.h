// Reference broadcast-tree builder, kept as a differential oracle for
// BroadcastTrees: one BFS per (src, tree) with the neighbor order rotated
// by the tree id, stored as a CSR of child *nodes* (ascending node id) plus
// per-node depth. This is the straightforward O(10 B per node per tree)
// layout that the child-bitmap FIB replaced; the FIB must reproduce it
// entry for entry, mapped through Topology::find_link.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.h"
#include "topology/topology.h"

namespace r2c2::oracle {

class BroadcastReference {
 public:
  BroadcastReference(const Topology& topo, int trees_per_source)
      : n_(topo.num_nodes()), trees_per_source_(trees_per_source) {
    if (!topo.finalized()) throw std::logic_error("topology must be finalized");
    if (trees_per_source < 1) throw std::invalid_argument("need at least one tree per source");
    trees_.resize(n_ * static_cast<std::size_t>(trees_per_source));
    std::vector<NodeId> parent(n_);
    std::deque<NodeId> queue;
    for (NodeId src = 0; src < n_; ++src) {
      for (int t = 0; t < trees_per_source; ++t) {
        Tree& tree = trees_[static_cast<std::size_t>(src) * trees_per_source_ + t];
        tree.depth.assign(n_, kUnreached);
        parent.assign(n_, kInvalidNode);
        queue.clear();
        queue.push_back(src);
        tree.depth[src] = 0;
        while (!queue.empty()) {
          const NodeId u = queue.front();
          queue.pop_front();
          const auto out = topo.out_links(u);
          const std::size_t deg = out.size();
          for (std::size_t i = 0; i < deg; ++i) {
            const std::size_t j = (i + static_cast<std::size_t>(t)) % deg;
            const NodeId v = topo.link(out[j]).to;
            if (tree.depth[v] == kUnreached) {
              tree.depth[v] = static_cast<std::uint16_t>(tree.depth[u] + 1);
              parent[v] = u;
              queue.push_back(v);
            }
          }
        }
        tree.child_offset.assign(n_ + 1, 0);
        for (NodeId v = 0; v < n_; ++v) {
          if (parent[v] != kInvalidNode) ++tree.child_offset[parent[v] + 1];
        }
        for (std::size_t i = 0; i < n_; ++i) tree.child_offset[i + 1] += tree.child_offset[i];
        tree.child_nodes.assign(tree.child_offset[n_], kInvalidNode);
        std::vector<std::uint32_t> cursor(tree.child_offset.begin(), tree.child_offset.end() - 1);
        for (NodeId v = 0; v < n_; ++v) {
          if (parent[v] != kInvalidNode) tree.child_nodes[cursor[parent[v]]++] = v;
        }
      }
    }
  }

  int trees_per_source() const { return trees_per_source_; }

  std::span<const NodeId> children(NodeId at, NodeId src, int t) const {
    const Tree& tr = tree(src, t);
    return {tr.child_nodes.data() + tr.child_offset[at],
            tr.child_offset[at + 1] - tr.child_offset[at]};
  }

  // BFS depth of `node` in tree <src, t>; -1 when unreachable.
  int depth_of(NodeId src, int t, NodeId node) const {
    const std::uint16_t d = tree(src, t).depth[node];
    return d == kUnreached ? -1 : d;
  }

 private:
  static constexpr std::uint16_t kUnreached = 0xffff;

  struct Tree {
    std::vector<NodeId> child_nodes;
    std::vector<std::uint32_t> child_offset;
    std::vector<std::uint16_t> depth;
  };

  const Tree& tree(NodeId src, int t) const {
    return trees_[static_cast<std::size_t>(src) * static_cast<std::size_t>(trees_per_source_) +
                  static_cast<std::size_t>(t)];
  }

  std::size_t n_;
  int trees_per_source_;
  std::vector<Tree> trees_;
};

}  // namespace r2c2::oracle
