// DAG algorithms: topological order, cycle detection, longest paths,
// reachability. These back guard propagation, list-scheduling priorities
// and graph validation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace cps {

/// Topological order of all nodes, or nullopt if the graph has a cycle.
std::optional<std::vector<NodeId>> topological_order(const Digraph& g);

/// Longest path *to* each node from any source node, where a node
/// contributes `node_weight[n]` and edges contribute `edge_weight[e]`
/// (pass empty vector for zero edge weights). Entry-level nodes start at
/// their own weight. Requires an acyclic graph.
std::vector<std::int64_t> longest_path_into(
    const Digraph& g, const std::vector<std::int64_t>& node_weight,
    const std::vector<std::int64_t>& edge_weight);

/// Longest path *from* each node to any sink node (inclusive of the node's
/// own weight); the classic list-scheduling urgency metric.
std::vector<std::int64_t> longest_path_from(
    const Digraph& g, const std::vector<std::int64_t>& node_weight,
    const std::vector<std::int64_t>& edge_weight);

/// All nodes reachable from `start` (including it).
std::vector<bool> reachable_from(const Digraph& g, NodeId start);

/// All nodes that can reach `target` (including it).
std::vector<bool> reaching(const Digraph& g, NodeId target);

/// True if the graph is polar with the given source/sink: every node is
/// reachable from `source` and reaches `sink`, `source` has no in-edges and
/// `sink` no out-edges.
bool is_polar(const Digraph& g, NodeId source, NodeId sink);

}  // namespace cps
