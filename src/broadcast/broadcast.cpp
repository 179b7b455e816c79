#include "broadcast/broadcast.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace r2c2 {

BroadcastTrees::BroadcastTrees(const Topology& topo, int trees_per_source)
    : topo_(topo), trees_per_source_(trees_per_source) {
  if (!topo.finalized()) throw std::logic_error("topology must be finalized");
  if (trees_per_source < 1) throw std::invalid_argument("need at least one tree per source");
  const std::size_t n = topo.num_nodes();
  const std::size_t max_deg = static_cast<std::size_t>(topo.max_degree());
  row_bytes_ = (max_deg + 7) / 8;
  slots_per_node_ = row_bytes_ * 8;
  fib_.assign(n * n * static_cast<std::size_t>(trees_per_source) * row_bytes_, 0);

  // Per-node table, node x port: the neighbor behind each port and the
  // slot its bit lives in. Slots order a node's ports by neighbor id
  // (stable on port), and every port to the same neighbor maps to the slot
  // of the lowest such port, the one find_link picks.
  struct Port {
    NodeId to;
    std::uint32_t slot;
  };
  std::vector<std::uint32_t> degree(n);
  std::vector<Port> ports(n * max_deg);
  slot_links_.assign(n * slots_per_node_, kInvalidLink);
  std::vector<std::uint32_t> order;
  for (NodeId u = 0; u < n; ++u) {
    const auto out = topo.out_links(u);
    const std::size_t deg = out.size();
    degree[u] = static_cast<std::uint32_t>(deg);
    Port* p = ports.data() + u * max_deg;
    for (std::size_t j = 0; j < deg; ++j) p[j].to = topo.link(out[j]).to;
    order.resize(deg);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [p](std::uint32_t a, std::uint32_t b) { return p[a].to < p[b].to; });
    std::uint32_t first = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      if (k == 0 || p[order[k]].to != p[order[k - 1]].to) first = static_cast<std::uint32_t>(k);
      p[order[k]].slot = first;
      slot_links_[u * slots_per_node_ + k] = out[order[k]];
    }
  }

  // BFS per (src, tree) with the neighbor order rotated by the tree id:
  // different trees attach nodes through different parents, spreading
  // forwarding load. A node's bit is set in its parent's row. `seen` is
  // epoch-stamped so no per-tree reset is needed.
  std::vector<std::uint32_t> seen(n, 0);
  std::vector<NodeId> queue(n);
  std::uint32_t epoch = 0;
  for (NodeId src = 0; src < n; ++src) {
    for (int t = 0; t < trees_per_source; ++t) {
      std::uint8_t* rows =
          fib_.data() + (static_cast<std::size_t>(src) * trees_per_source_ + t) * n * row_bytes_;
      ++epoch;
      seen[src] = epoch;
      queue[0] = src;
      std::size_t head = 0, tail = 1;
      while (head < tail) {
        const NodeId u = queue[head++];
        const std::uint32_t deg = degree[u];
        if (deg == 0) continue;
        const Port* p = ports.data() + u * max_deg;
        std::uint8_t* row = rows + u * row_bytes_;
        std::uint32_t j = static_cast<std::uint32_t>(t) % deg;
        for (std::uint32_t i = 0; i < deg; ++i) {
          const NodeId v = p[j].to;
          if (seen[v] != epoch) {
            seen[v] = epoch;
            queue[tail++] = v;
            row[p[j].slot >> 3] |= static_cast<std::uint8_t>(1u << (p[j].slot & 7));
          }
          if (++j == deg) j = 0;
        }
      }
    }
  }
}

}  // namespace r2c2
