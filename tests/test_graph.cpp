#include <gtest/gtest.h>

#include <sstream>

#include "graph/dag_algo.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "support/error.hpp"

namespace cps {
namespace {

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Digraph, AddNodesAndEdges) {
  Digraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
}

TEST(Digraph, RejectsSelfLoopsAndBadIds) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), InvalidArgument);
  EXPECT_THROW(g.add_edge(0, 5), InvalidArgument);
  EXPECT_THROW(g.edge(0), InvalidArgument);
}

TEST(Digraph, ResizeCannotShrink) {
  Digraph g(3);
  EXPECT_THROW(g.resize(1), InvalidArgument);
  g.resize(5);
  EXPECT_EQ(g.node_count(), 5u);
}

TEST(DagAlgo, TopologicalOrderOnDag) {
  const Digraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[0], position[2]);
  EXPECT_LT(position[1], position[3]);
  EXPECT_LT(position[2], position[3]);
}

TEST(DagAlgo, CycleDetected) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(topological_order(g).has_value());
}

TEST(DagAlgo, LongestPathInto) {
  const Digraph g = diamond();
  const std::vector<std::int64_t> nw{1, 5, 2, 1};
  const auto dist = longest_path_into(g, nw, {});
  EXPECT_EQ(dist[0], 1);
  EXPECT_EQ(dist[1], 6);
  EXPECT_EQ(dist[2], 3);
  EXPECT_EQ(dist[3], 7);
}

TEST(DagAlgo, LongestPathFromWithEdgeWeights) {
  Digraph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  std::vector<std::int64_t> nw{1, 1, 1};
  std::vector<std::int64_t> ew(g.edge_count(), 0);
  ew[e01] = 10;
  ew[e12] = 1;
  const auto dist = longest_path_from(g, nw, ew);
  EXPECT_EQ(dist[2], 1);
  EXPECT_EQ(dist[1], 3);
  EXPECT_EQ(dist[0], 14);
}

TEST(DagAlgo, LongestPathRequiresDag) {
  Digraph g(2);
  g.add_edge(0, 1);
  Digraph cyc(2);
  cyc.add_edge(0, 1);
  cyc.add_edge(1, 0);
  EXPECT_THROW(longest_path_into(cyc, {1, 1}, {}), InvalidArgument);
}

TEST(DagAlgo, Reachability) {
  const Digraph g = diamond();
  const auto fwd = reachable_from(g, 1);
  EXPECT_TRUE(fwd[1]);
  EXPECT_TRUE(fwd[3]);
  EXPECT_FALSE(fwd[0]);
  EXPECT_FALSE(fwd[2]);
  const auto bwd = reaching(g, 1);
  EXPECT_TRUE(bwd[0]);
  EXPECT_TRUE(bwd[1]);
  EXPECT_FALSE(bwd[2]);
}

TEST(DagAlgo, PolarCheck) {
  EXPECT_TRUE(is_polar(diamond(), 0, 3));
  EXPECT_FALSE(is_polar(diamond(), 0, 1));  // node 1 has out-edges
  Digraph g(3);
  g.add_edge(0, 2);
  EXPECT_FALSE(is_polar(g, 0, 2));  // node 1 disconnected
}

TEST(Dot, RendersNodesEdgesAndLabels) {
  const Digraph g = diamond();
  DotStyle style;
  style.node_label = [](NodeId n) { return "N" + std::to_string(n); };
  style.edge_label = [](EdgeId e) { return e == 0 ? "C" : ""; };
  std::ostringstream os;
  write_dot(os, g, style);
  const std::string s = os.str();
  EXPECT_NE(s.find("digraph g {"), std::string::npos);
  EXPECT_NE(s.find("n0 [label=\"N0\"]"), std::string::npos);
  EXPECT_NE(s.find("n0 -> n1 [label=\"C\"]"), std::string::npos);
  EXPECT_NE(s.find("n2 -> n3;"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  Digraph g(1);
  DotStyle style;
  style.node_label = [](NodeId) { return "a\"b"; };
  std::ostringstream os;
  write_dot(os, g, style);
  EXPECT_NE(os.str().find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace cps
