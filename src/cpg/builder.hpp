// CpgBuilder: fluent construction and validation of conditional process
// graphs.
//
// Usage:
//   CpgBuilder b(arch);
//   CondId c = b.add_condition("C");
//   ProcessId p1 = b.add_process("P1", pe1, 3);
//   ProcessId p2 = b.add_process("P2", pe1, 4);
//   b.add_edge(p1, p2, /*comm_time=*/1);            // simple edge
//   b.add_cond_edge(p2, p4, Literal{c, true}, 3);   // conditional edge
//   b.mark_conjunction(p17);
//   Cpg g = b.build();   // adds dummy source/sink, validates, computes
//                        // guards, assigns buses
//
// build() enforces the structural rules of paper §2:
//  * the graph is acyclic (and polar once source/sink are attached);
//  * all conditional out-edges of a node carry literals of one condition,
//    making the node the unique disjunction process of that condition;
//  * every guard is satisfiable (no process waits for a message from a
//    process that cannot be activated together with it — the X_Pj => X_Pi
//    edge rule);
//  * a condition is only used by processes that run strictly after the
//    disjunction process computing it.
//
// Building is linear in processes plus edges, apart from one reachability
// flood per condition that some guard mentions, and the guard algebra,
// which grows with the guards' cube counts: duplicate names are caught
// through a hashed index, and one topological order serves the cycle
// check and guard propagation.
#pragma once

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cpg/cpg.hpp"

namespace cps {

class CpgBuilder {
 public:
  /// The architecture is copied into the built Cpg.
  explicit CpgBuilder(Architecture arch);

  CondId add_condition(const std::string& name);

  /// Add an ordinary process. Names are unique, and `_source` and
  /// `_sink` are reserved for the dummy poles build() adds; any of these
  /// throws InvalidArgument.
  ProcessId add_process(const std::string& name, PeId mapping,
                        Time exec_time);

  /// Declare `p` to be the disjunction process computing `cond`.
  /// (Implied automatically by add_cond_edge; explicit form exists for
  /// disjunctions whose false branch has no successors.)
  void set_computes(ProcessId p, CondId cond);

  /// Mark a conjunction process (guard = OR over its input alternatives).
  void mark_conjunction(ProcessId p);

  /// Simple (unconditional) edge. comm_time applies only if the endpoints
  /// are mapped to different PEs. Returns the edge id.
  EdgeId add_edge(ProcessId src, ProcessId dst, Time comm_time = 0);

  /// Conditional edge carrying `literal`.
  EdgeId add_cond_edge(ProcessId src, ProcessId dst, Literal literal,
                       Time comm_time = 0);

  /// Pin the communication of an inter-PE edge to a specific bus.
  void set_bus(EdgeId e, PeId bus);

  /// Finalize: attach dummy source/sink, assign buses to unpinned
  /// inter-PE edges (round robin over the architecture's buses), compute
  /// guards and validate. Throws ValidationError on a malformed model.
  Cpg build();

 private:
  void validate_and_finalize(Cpg& g);

  Cpg g_;
  std::unordered_set<std::string> names_;  // of the processes added so far
  bool built_ = false;
};

}  // namespace cps
