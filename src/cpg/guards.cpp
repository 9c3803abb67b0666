#include "cpg/guards.hpp"

#include "support/error.hpp"

namespace cps::detail {

void compute_guards(const Digraph& graph, const std::vector<CpgEdge>& edges,
                    const std::vector<NodeId>& order,
                    std::vector<Process>& processes, ProcessId source) {
  CPS_ASSERT(order.size() == graph.node_count(),
             "guard computation requires a topological order of every node");
  for (NodeId v : order) {
    Process& proc = processes[v];
    if (v == source) {
      proc.guard = Dnf::true_();
      continue;
    }
    CPS_ASSERT(graph.in_degree(v) > 0,
               "non-source process without inputs during guard computation");
    bool first = true;
    Dnf guard = proc.conjunction ? Dnf::false_() : Dnf::true_();
    for (EdgeId e : graph.in_edges(v)) {
      const CpgEdge& edge = edges[e];
      Dnf contribution = processes[edge.src].guard;
      if (edge.literal) {
        contribution = contribution.and_literal(*edge.literal);
      }
      if (proc.conjunction) {
        guard = guard.or_dnf(contribution);
      } else {
        guard = first ? contribution : guard.and_dnf(contribution);
      }
      first = false;
    }
    proc.guard = guard;
  }
}

}  // namespace cps::detail
