// Guard propagation (internal; used by CpgBuilder::build).
#pragma once

#include <vector>

#include "cpg/process.hpp"

namespace cps::detail {

/// Compute Process::guard for every process from the edge structure:
/// guard(source) = true; an ordinary node needs all of its inputs, so its
/// guard is the AND over the contributions guard(src) & literal of its
/// in-edges; a conjunction node (or the sink) needs one alternative, so
/// its guard is the OR over the contributions. `order` is a topological
/// order of every node of the (acyclic) graph, in which every non-source
/// node has at least one in-edge.
void compute_guards(const Digraph& graph, const std::vector<CpgEdge>& edges,
                    const std::vector<NodeId>& order,
                    std::vector<Process>& processes, ProcessId source);

}  // namespace cps::detail
