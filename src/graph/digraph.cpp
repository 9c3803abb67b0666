#include "graph/digraph.hpp"

namespace cps {

void Digraph::resize(std::size_t node_count) {
  CPS_REQUIRE(node_count >= out_.size(), "Digraph::resize cannot shrink");
  out_.resize(node_count);
  in_.resize(node_count);
}

void Digraph::reserve(std::size_t node_count, std::size_t edge_count) {
  out_.reserve(node_count);
  in_.reserve(node_count);
  edges_.reserve(edge_count);
}

NodeId Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst) {
  CPS_REQUIRE(src < out_.size() && dst < out_.size(),
              "edge endpoint out of range");
  CPS_REQUIRE(src != dst, "self edges are not allowed");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst});
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  for (EdgeId e : out_edges(src)) {
    if (edges_[e].dst == dst) return true;
  }
  return false;
}

}  // namespace cps
