#include "cpg/builder.hpp"

#include <limits>

#include "cpg/guards.hpp"
#include "graph/dag_algo.hpp"
#include "support/error.hpp"

namespace cps {

namespace {

/// Names of the dummy poles validate_and_finalize adds (paper §2).
constexpr const char* kSourceName = "_source";
constexpr const char* kSinkName = "_sink";

}  // namespace

CpgBuilder::CpgBuilder(Architecture arch) {
  g_.arch_ = std::move(arch);
  g_.arch_.validate(/*require_broadcast_bus=*/false);
}

CondId CpgBuilder::add_condition(const std::string& name) {
  CPS_REQUIRE(!built_, "builder already consumed");
  return g_.conds_.add(name);
}

ProcessId CpgBuilder::add_process(const std::string& name, PeId mapping,
                                  Time exec_time) {
  CPS_REQUIRE(!built_, "builder already consumed");
  CPS_REQUIRE(!name.empty(), "process name must not be empty");
  CPS_REQUIRE(name != kSourceName,
              "process name " + name + " is reserved for the source pole");
  CPS_REQUIRE(name != kSinkName,
              "process name " + name + " is reserved for the sink pole");
  CPS_REQUIRE(exec_time >= 0, "execution time must be non-negative");
  const ProcessingElement& pe = g_.arch_.pe(mapping);
  // Processes execute on processors, hardware or (for explicit
  // memory-access processes, ATM experiment) memory modules — not buses.
  CPS_REQUIRE(!pe.is_bus(),
              "process " + name + " mapped to bus " + pe.name);
  CPS_REQUIRE(names_.insert(name).second, "duplicate process name: " + name);
  Process proc;
  proc.id = static_cast<ProcessId>(g_.processes_.size());
  proc.name = name;
  proc.mapping = mapping;
  proc.exec_time = exec_time;
  g_.processes_.push_back(std::move(proc));
  const NodeId node = g_.graph_.add_node();
  CPS_ASSERT(node == g_.processes_.back().id, "graph/process id drift");
  return g_.processes_.back().id;
}

void CpgBuilder::set_computes(ProcessId p, CondId cond) {
  CPS_REQUIRE(!built_, "builder already consumed");
  CPS_REQUIRE(p < g_.processes_.size(), "process id out of range");
  CPS_REQUIRE(cond < g_.conds_.size(), "condition id out of range");
  Process& proc = g_.processes_[p];
  CPS_REQUIRE(!proc.computes || *proc.computes == cond,
              "process " + proc.name + " already computes another condition");
  proc.computes = cond;
}

void CpgBuilder::mark_conjunction(ProcessId p) {
  CPS_REQUIRE(!built_, "builder already consumed");
  CPS_REQUIRE(p < g_.processes_.size(), "process id out of range");
  g_.processes_[p].conjunction = true;
}

EdgeId CpgBuilder::add_edge(ProcessId src, ProcessId dst, Time comm_time) {
  CPS_REQUIRE(!built_, "builder already consumed");
  CPS_REQUIRE(src < g_.processes_.size() && dst < g_.processes_.size(),
              "edge endpoint out of range");
  CPS_REQUIRE(comm_time >= 0, "communication time must be non-negative");
  CpgEdge edge;
  edge.id = static_cast<EdgeId>(g_.edges_.size());
  edge.src = src;
  edge.dst = dst;
  edge.comm_time = comm_time;
  g_.edges_.push_back(edge);
  const EdgeId graph_edge = g_.graph_.add_edge(src, dst);
  CPS_ASSERT(graph_edge == edge.id, "graph/edge id drift");
  return edge.id;
}

EdgeId CpgBuilder::add_cond_edge(ProcessId src, ProcessId dst,
                                 Literal literal, Time comm_time) {
  CPS_REQUIRE(literal.cond < g_.conds_.size(),
              "conditional edge uses unregistered condition");
  const EdgeId e = add_edge(src, dst, comm_time);
  g_.edges_[e].literal = literal;
  set_computes(src, literal.cond);
  return e;
}

void CpgBuilder::set_bus(EdgeId e, PeId bus) {
  CPS_REQUIRE(!built_, "builder already consumed");
  CPS_REQUIRE(e < g_.edges_.size(), "edge id out of range");
  CPS_REQUIRE(g_.arch_.pe(bus).is_bus(), "set_bus target is not a bus");
  g_.edges_[e].bus = bus;
}

Cpg CpgBuilder::build() {
  CPS_REQUIRE(!built_, "builder already consumed");
  built_ = true;
  validate_and_finalize(g_);
  return std::move(g_);
}

void CpgBuilder::validate_and_finalize(Cpg& g) {
  if (g.processes_.empty()) {
    throw ValidationError("conditional process graph has no processes");
  }

  // --- Attach the dummy source and sink (paper: the graph is polar). ---
  PeId dummy_pe = 0;
  for (PeId id = 0; id < g.arch_.pe_count(); ++id) {
    if (g.arch_.pe(id).is_computation()) {
      dummy_pe = id;
      break;
    }
  }
  const std::size_t ordinary_count = g.processes_.size();
  auto add_dummy = [&g, dummy_pe](const std::string& name,
                                  ProcessKind kind) {
    Process proc;
    proc.id = static_cast<ProcessId>(g.processes_.size());
    proc.name = name;
    proc.kind = kind;
    proc.mapping = dummy_pe;
    proc.exec_time = 0;
    g.processes_.push_back(std::move(proc));
    const NodeId node = g.graph_.add_node();
    CPS_ASSERT(node == g.processes_.back().id, "graph/process id drift");
    return g.processes_.back().id;
  };
  g.source_ = add_dummy(kSourceName, ProcessKind::kSource);
  g.sink_ = add_dummy(kSinkName, ProcessKind::kSink);
  g.processes_[g.sink_].conjunction = true;  // activated by any alternative

  auto attach = [&g](ProcessId src, ProcessId dst) {
    CpgEdge edge;
    edge.id = static_cast<EdgeId>(g.edges_.size());
    edge.src = src;
    edge.dst = dst;
    edge.comm_time = 0;  // dummy edges carry no data
    g.edges_.push_back(edge);
    const EdgeId graph_edge = g.graph_.add_edge(src, dst);
    CPS_ASSERT(graph_edge == edge.id, "graph/edge id drift");
  };
  for (ProcessId p = 0; p < ordinary_count; ++p) {
    if (g.graph_.in_degree(p) == 0) attach(g.source_, p);
    if (g.graph_.out_degree(p) == 0) attach(p, g.sink_);
  }

  // --- Structural checks. ---
  // One topological order serves the cycle check and guard propagation.
  const auto order = topological_order(g.graph_);
  if (!order) {
    throw ValidationError("conditional process graph contains a cycle");
  }
  CPS_ASSERT(is_polar(g.graph_, g.source_, g.sink_),
             "graph not polar after dummy attachment");

  // --- Disjunction processes. ---
  for (ProcessId p = 0; p < g.processes_.size(); ++p) {
    const Process& proc = g.processes_[p];
    for (EdgeId e : g.graph_.out_edges(p)) {
      const CpgEdge& edge = g.edges_[e];
      if (!edge.literal) continue;
      if (!proc.computes || *proc.computes != edge.literal->cond) {
        throw ValidationError(
            "process " + proc.name +
            " has conditional out-edges over more than one condition");
      }
    }
  }
  g.disjunction_of_.assign(g.conds_.size(),
                           std::numeric_limits<ProcessId>::max());
  for (const Process& proc : g.processes_) {
    if (!proc.computes) continue;
    if (g.disjunction_of_[*proc.computes] !=
        std::numeric_limits<ProcessId>::max()) {
      throw ValidationError("condition " + g.conds_.name(*proc.computes) +
                            " is computed by more than one process");
    }
    g.disjunction_of_[*proc.computes] = proc.id;
  }
  for (CondId c = 0; c < g.conds_.size(); ++c) {
    if (g.disjunction_of_[c] == std::numeric_limits<ProcessId>::max()) {
      throw ValidationError("condition " + g.conds_.name(c) +
                            " is not computed by any process");
    }
  }

  // --- Bus assignment for inter-PE communications. ---
  const std::vector<PeId> buses = g.arch_.buses();
  std::size_t next_bus = 0;
  for (CpgEdge& edge : g.edges_) {
    const bool inter_pe =
        g.processes_[edge.src].mapping != g.processes_[edge.dst].mapping;
    if (!inter_pe || edge.comm_time == 0) {
      edge.bus.reset();
      continue;
    }
    if (edge.bus) continue;  // pinned by the caller
    if (buses.empty()) {
      throw ValidationError(
          "model has inter-PE communication but the architecture has no "
          "bus");
    }
    edge.bus = buses[next_bus % buses.size()];
    ++next_bus;
  }

  // --- Guards. ---
  detail::compute_guards(g.graph_, g.edges_, *order, g.processes_,
                         g.source_);
  // The sink marks system completion and fires on every path, even when a
  // path "dies" at a disjunction branch with no successors (its execution
  // semantics — wait for every active task — are added by
  // FlatGraph::expand).
  g.processes_[g.sink_].guard = Dnf::true_();
  for (const Process& proc : g.processes_) {
    if (proc.guard.is_false()) {
      throw ValidationError(
          "process " + proc.name +
          " can never be activated (contradictory input conditions); the "
          "X_Pj => X_Pi edge rule of paper section 2 is violated");
    }
    // Conditions used by a guard must be computed by a disjunction process
    // that is guaranteed to have run: every cube of the guard must imply
    // the guard of the disjunction process of every condition it mentions.
    for (const Cube& cube : proc.guard.cubes()) {
      for (const Literal& lit : cube.literals()) {
        const Process& disj = g.processes_[g.disjunction_of_[lit.cond]];
        if (!disj.guard.covered_by_context(cube)) {
          throw ValidationError(
              "process " + proc.name + " depends on condition " +
              g.conds_.name(lit.cond) +
              " in a context where the disjunction process " + disj.name +
              " is not guaranteed to run");
        }
      }
    }
  }

  // A disjunction process must precede every consumer of its condition:
  // the disjunction of every condition mentioned in a guard must reach the
  // guarded process. Guards come only from compute_guards, which takes
  // each condition from a conditional edge out of its disjunction process,
  // so this cannot fail through the builder's API; it stays as a cheap
  // backstop. Each condition's flood is computed on first use and serves
  // every process.
  std::vector<std::vector<bool>> reach(g.conds_.size());
  for (const Process& proc : g.processes_) {
    for (CondId c : proc.guard.mentioned_conditions()) {
      if (reach[c].empty()) {
        reach[c] = reachable_from(g.graph_, g.disjunction_of_[c]);
      }
      if (!reach[c][proc.id]) {
        throw ValidationError("process " + proc.name +
                              " is guarded by condition " + g.conds_.name(c) +
                              " but does not follow its disjunction process");
      }
    }
  }
}

}  // namespace cps
