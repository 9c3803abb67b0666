// FlatGraph: the scheduler's view of a CPG.
//
// Expanding a Cpg against its architecture yields one *task* per:
//  * process (ordinary + dummies), mapped to its processor;
//  * inter-PE communication (paper: "communication process", the black
//    dots of Fig. 1), mapped to the bus assigned to the edge, with
//    duration equal to the communication time;
//  * condition broadcast (paper §3): after a disjunction process ends, its
//    condition value is broadcast on the first available bus that connects
//    all processors, taking τ0 time units. Broadcast tasks exist when the
//    model has conditions and more than one resource hosts tasks.
//
// The dependency digraph runs over tasks: src-process -> comm -> dst-process
// for expanded edges, direct edges otherwise, and disjunction -> broadcast.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cond/cover_cache.hpp"
#include "cpg/cpg.hpp"
#include "cpg/paths.hpp"
#include "graph/digraph.hpp"
#include "support/error.hpp"

namespace cps {

using TaskId = std::uint32_t;

enum class TaskKind : std::uint8_t { kProcess, kComm, kBroadcast };

struct Task {
  TaskId id = 0;
  TaskKind kind = TaskKind::kProcess;
  std::string name;
  /// Resource executing the task. For broadcast tasks this is the
  /// *default* broadcast bus; when the architecture has several broadcast
  /// buses the scheduler may pick a different one per path.
  PeId resource = 0;
  Time duration = 0;
  /// Activation guard (process guard; for a communication, guard of the
  /// transmission = guard(src) & edge literal; for a broadcast, guard of
  /// the disjunction process).
  Dnf guard = Dnf::true_();
  /// Condition computed on completion (disjunction processes only).
  std::optional<CondId> computes;
  /// Condition broadcast by this task (broadcast tasks only).
  std::optional<CondId> broadcasts;
  /// Originating process (kProcess) or edge (kComm).
  std::optional<ProcessId> origin_process;
  std::optional<EdgeId> origin_edge;

  bool is_process() const { return kind == TaskKind::kProcess; }
  bool is_comm() const { return kind == TaskKind::kComm; }
  bool is_broadcast() const { return kind == TaskKind::kBroadcast; }
};

/// Bitmask view of one cube of a guard (valid when every condition id the
/// model uses is < Cube::kPackedBits = 64, which holds for all paper-scale
/// workloads). Cubes carry this representation inline, so the view is a
/// plain copy of their packed words.
struct GuardCubeMask {
  std::uint64_t pos = 0;  ///< conditions required true
  std::uint64_t neg = 0;  ///< conditions required false

  /// Bitmask encoding of a cube. The cube must be narrow (condition ids
  /// < 64); callers gate on FlatGraph::masks_enabled().
  static GuardCubeMask of_cube(const Cube& cube) {
    CPS_ASSERT(cube.narrow(),
               "guard masks require condition ids < 64 (Cube::kPackedBits); "
               "models beyond that take the masks_enabled()==false slow "
               "path");
    return GuardCubeMask{cube.pos_bits(), cube.neg_bits()};
  }

  std::uint64_t mention() const { return pos | neg; }

  /// Every literal of this cube holds under the known values: the cube is
  /// satisfied, so it covers the whole guard.
  bool covered_by(std::uint64_t known_pos, std::uint64_t known_neg) const {
    return (pos & ~known_pos) == 0 && (neg & ~known_neg) == 0;
  }

  /// Some literal of this cube contradicts a known value: conjoining the
  /// cube with the known context is unsatisfiable.
  bool conflicts(std::uint64_t known_pos, std::uint64_t known_neg) const {
    return (pos & known_neg) != 0 || (neg & known_pos) != 0;
  }
};

/// Precomputed per-task activation info: lets the scheduler decide guard
/// coverage with bit operations instead of re-running DNF Shannon
/// expansions at every scheduling step.
struct TaskGuardInfo {
  /// Guard is syntactically true (no knowledge needed unless conjunction).
  bool trivially_true = false;
  /// Originating process is a conjunction node (or the sink): starting it
  /// additionally requires the known conditions to *decide* the activity
  /// of every predecessor (paper §5.2, premise of Theorem 1).
  bool conjunction = false;
  /// Conditions mentioned by the guard (bitmask over CondId).
  std::uint64_t mention = 0;
  /// One mask per cube of the guard DNF.
  std::vector<GuardCubeMask> cubes;
  /// Predecessor tasks with non-trivial guards (conjunction check only).
  std::vector<TaskId> guarded_preds;
};

/// Contiguous run of task ids: a successor or predecessor list of the
/// flat per-task views (see FlatGraph::succs).
struct TaskRange {
  const TaskId* first = nullptr;
  const TaskId* last = nullptr;

  const TaskId* begin() const { return first; }
  const TaskId* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
};

class FlatGraph {
 public:
  /// Expand a CPG. The Cpg must outlive the FlatGraph, so a temporary is
  /// rejected at compile time.
  static FlatGraph expand(const Cpg& g);
  static FlatGraph expand(const Cpg&&) = delete;

  const Cpg& cpg() const { return *cpg_; }
  const Architecture& arch() const { return cpg_->arch(); }

  std::size_t task_count() const { return tasks_.size(); }
  const Task& task(TaskId t) const;
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Dependency DAG over tasks.
  const Digraph& deps() const { return deps_; }

  /// Topological order of deps(), computed once at expand time.
  const std::vector<TaskId>& topo_order() const { return topo_order_; }

  // Flat per-task views of deps() and task() for the engine's hot loops:
  // task ids instead of edge ids, and single fields instead of the wide
  // Task. Successors and predecessors keep deps()' edge insertion order.
  TaskRange succs(TaskId t) const {
    check_task(t);
    return {adj_.data() + succ_begin_[t], adj_.data() + succ_begin_[t + 1]};
  }
  TaskRange preds(TaskId t) const {
    check_task(t);
    return {adj_.data() + pred_begin_[t], adj_.data() + pred_begin_[t + 1]};
  }
  Time duration(TaskId t) const {
    check_task(t);
    return duration_[t];
  }
  PeId resource(TaskId t) const {
    check_task(t);
    return resource_[t];
  }
  bool is_broadcast(TaskId t) const {
    check_task(t);
    return broadcast_[t] != 0;
  }

  TaskId task_of_process(ProcessId p) const;
  /// Broadcast task of a condition; nullopt when broadcasts are disabled
  /// (single-resource models).
  std::optional<TaskId> broadcast_task(CondId c) const;
  bool broadcasts_enabled() const { return !bcast_tasks_.empty(); }

  /// Task of the disjunction process computing `c`.
  TaskId disjunction_task(CondId c) const;

  TaskId source_task() const { return task_of_process(cpg_->source()); }
  TaskId sink_task() const { return task_of_process(cpg_->sink()); }

  /// Tasks active on the path identified by `label` (a complete path
  /// label; every task guard is decided under it). An optional CoverCache
  /// memoizes the multi-cube guard checks across repeated calls.
  std::vector<bool> active_tasks(const Cube& label,
                                 CoverCache* cache = nullptr) const;

  /// True when guard masks are available (condition count <= 64).
  bool masks_enabled() const { return masks_enabled_; }

  /// Precomputed activation info for `t` (valid ids only).
  const TaskGuardInfo& guard_info(TaskId t) const;

  /// Does `context` imply the guard of `t`? Exact. With guard masks the
  /// cube masks decide it, except for a multi-cube guard no single cube
  /// of which the context implies: that one, and every guard past the
  /// masks, takes the Dnf's Shannon expansion.
  bool guard_implied_by(TaskId t, const Cube& context) const;

  /// Resources that host at least one task (sorted).
  const std::vector<PeId>& used_resources() const { return used_resources_; }

  /// Broadcast bus candidates (sorted by PE id); empty iff broadcasts are
  /// disabled.
  const std::vector<PeId>& broadcast_buses() const { return bcast_buses_; }

  /// Process-unique graph id (assigned at expand time, carried by moves;
  /// two expansions of one Cpg get different ids). Lets state that
  /// outlives a single engine run — EngineWorkspace's private cover
  /// cache, whose keys are Dnf pointers into this graph's tasks — detect
  /// that a different graph arrived even when heap addresses were
  /// reused. Strictly process-local.
  std::uint64_t uid() const { return uid_; }

 private:
  void compute_guard_info();
  void compute_flat_views();
  void check_task(TaskId t) const {
    CPS_REQUIRE(t < tasks_.size(), "task id out of range");
  }

  const Cpg* cpg_ = nullptr;
  std::vector<Task> tasks_;
  Digraph deps_;
  std::vector<TaskId> task_of_process_;   // by ProcessId
  std::vector<TaskId> bcast_tasks_;       // by CondId (empty if disabled)
  std::vector<PeId> used_resources_;
  std::vector<PeId> bcast_buses_;
  std::vector<TaskGuardInfo> guard_info_;  // by TaskId
  std::vector<TaskId> topo_order_;
  // Flat views: adj_ holds every task's successors, then every task's
  // predecessors; succ_begin_/pred_begin_ (task_count + 1 entries each)
  // index into it.
  std::vector<TaskId> adj_;
  std::vector<std::uint32_t> succ_begin_;
  std::vector<std::uint32_t> pred_begin_;
  std::vector<Time> duration_;    // by TaskId
  std::vector<PeId> resource_;    // by TaskId
  std::vector<char> broadcast_;   // by TaskId
  bool masks_enabled_ = false;
  std::uint64_t uid_ = 0;
};

}  // namespace cps
