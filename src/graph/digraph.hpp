// Compact directed graph with stable integer node/edge ids.
//
// The CPG model and the expanded (communication-inserted) graph both sit on
// top of this structure; algorithms (graph/dag_algo.hpp) work on it
// directly so they can be tested independently of scheduling concerns.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace cps {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

class Digraph {
 public:
  struct Edge {
    NodeId src = 0;
    NodeId dst = 0;
  };

  Digraph() = default;
  explicit Digraph(std::size_t node_count) { resize(node_count); }

  void resize(std::size_t node_count);
  /// Reserve storage for `node_count` nodes and `edge_count` edges in
  /// total, so building up to that size does not regrow.
  void reserve(std::size_t node_count, std::size_t edge_count);
  NodeId add_node();
  EdgeId add_edge(NodeId src, NodeId dst);

  std::size_t node_count() const { return out_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const Edge& edge(EdgeId e) const {
    CPS_REQUIRE(e < edges_.size(), "edge id out of range");
    return edges_[e];
  }

  /// Out-/in-edge ids of a node, in insertion order.
  const std::vector<EdgeId>& out_edges(NodeId n) const {
    CPS_REQUIRE(n < out_.size(), "node id out of range");
    return out_[n];
  }
  const std::vector<EdgeId>& in_edges(NodeId n) const {
    CPS_REQUIRE(n < in_.size(), "node id out of range");
    return in_[n];
  }

  std::size_t out_degree(NodeId n) const { return out_edges(n).size(); }
  std::size_t in_degree(NodeId n) const { return in_edges(n).size(); }

  /// True if an edge src->dst already exists (linear in out-degree).
  bool has_edge(NodeId src, NodeId dst) const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace cps
