// Low-overhead rack broadcast (Section 3.2).
//
// R2C2 broadcasts flow start/finish events so every node learns the global
// traffic matrix. Broadcast packets travel along per-source shortest-path
// trees: a spanning tree rooted at the source in which every node sits at
// its BFS distance from the source, minimizing the maximum number of hops
// within which all nodes receive a copy (broadcast time).
//
// Multiple trees are built per source (neighbor order is rotated per tree
// id) so senders can load-balance broadcast traffic and route around
// failures. Forwarding state is a FIB indexed by <src-address, tree-id>
// that yields the set of next hops (the node's children in that tree).
//
// FIB layout: one child bitmap of ceil(max_degree / 8) bytes per
// (src, tree, node), so n^2 * trees * ceil(max_degree / 8) bytes in all
// (1 byte per entry on a torus). Bit k of a node's row stands for its k-th
// port in ascending neighbor order (stable on port number), and a node
// x slot table turns a set bit straight into the out-link it names. Depth
// is not stored: in a shortest-path tree it is topology().distance().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "topology/topology.h"

namespace r2c2 {

// Size of the fixed broadcast packet on the wire (Section 3.2 / Fig. 6).
inline constexpr std::size_t kBroadcastPacketBytes = 16;

class BroadcastTrees {
 public:
  // Builds `trees_per_source` shortest-path trees for every source.
  BroadcastTrees(const Topology& topo, int trees_per_source = 1);

  const Topology& topology() const { return topo_; }
  int trees_per_source() const { return trees_per_source_; }

  // The out-links of one node toward its children in one tree, in
  // ascending child-node order. Each is the link find_link(at, child)
  // returns (the lowest port to that neighbor); the child is link(l).to.
  class ChildLinks {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = LinkId;
      using difference_type = std::ptrdiff_t;
      using pointer = const LinkId*;
      using reference = LinkId;

      iterator() = default;
      LinkId operator*() const {
        return links_[byte_ * 8 + static_cast<std::size_t>(std::countr_zero(bits_))];
      }
      iterator& operator++() {
        bits_ &= static_cast<unsigned>(bits_ - 1);
        skip_empty();
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const { return byte_ == o.byte_ && bits_ == o.bits_; }

     private:
      friend class ChildLinks;
      iterator(const std::uint8_t* row, const LinkId* links, std::size_t bytes, std::size_t at)
          : row_(row), links_(links), bytes_(bytes), byte_(at), bits_(at < bytes ? row[at] : 0u) {
        skip_empty();
      }
      void skip_empty() {
        while (bits_ == 0 && byte_ < bytes_) {
          if (++byte_ < bytes_) bits_ = row_[byte_];
        }
      }

      const std::uint8_t* row_ = nullptr;
      const LinkId* links_ = nullptr;
      std::size_t bytes_ = 0;
      std::size_t byte_ = 0;
      unsigned bits_ = 0;
    };

    iterator begin() const { return {row_, links_, bytes_, 0}; }
    iterator end() const { return {row_, links_, bytes_, bytes_}; }

   private:
    friend class BroadcastTrees;
    ChildLinks(const std::uint8_t* row, const LinkId* links, std::size_t bytes)
        : row_(row), links_(links), bytes_(bytes) {}

    const std::uint8_t* row_;
    const LinkId* links_;
    std::size_t bytes_;
  };

  // FIB lookup: links toward the children of `at` in the tree <src, tree>.
  // A broadcast packet arriving at `at` is forwarded on each of them.
  // Allocation-free.
  ChildLinks children(NodeId at, NodeId src, int tree) const {
    const std::size_t n = topo_.num_nodes();
    const std::size_t entry =
        (static_cast<std::size_t>(src) * static_cast<std::size_t>(trees_per_source_) +
         static_cast<std::size_t>(tree)) * n + at;
    return {fib_.data() + entry * row_bytes_,
            slot_links_.data() + static_cast<std::size_t>(at) * slots_per_node_, row_bytes_};
  }

  // Total traffic of one broadcast: (n - 1) tree edges, each carrying one
  // 16-byte packet ("with a 512-node rack, each broadcast results in 8 KB
  // of total traffic, aggregated across all rack links").
  std::size_t bytes_per_broadcast() const {
    return (topo_.num_nodes() - 1) * kBroadcastPacketBytes;
  }

 private:
  const Topology& topo_;
  int trees_per_source_;
  std::size_t row_bytes_ = 0;       // ceil(max_degree / 8)
  std::size_t slots_per_node_ = 0;  // row_bytes_ * 8
  // Node x slot: out-links of each node in ascending neighbor order.
  std::vector<LinkId> slot_links_;
  // (src, tree, node) x row_bytes_ child bitmaps.
  std::vector<std::uint8_t> fib_;
};

}  // namespace r2c2
