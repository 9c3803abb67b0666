#include "cpg/flat_graph.hpp"

#include <algorithm>
#include <atomic>

#include "support/error.hpp"

namespace cps {

FlatGraph FlatGraph::expand(const Cpg& g) {
  static std::atomic<std::uint64_t> next_uid{1};
  FlatGraph fg;
  fg.cpg_ = &g;
  fg.uid_ = next_uid.fetch_add(1);

  // One task per process, same id order.
  fg.task_of_process_.resize(g.process_count());
  for (ProcessId p = 0; p < g.process_count(); ++p) {
    const Process& proc = g.process(p);
    Task t;
    t.id = static_cast<TaskId>(fg.tasks_.size());
    t.kind = TaskKind::kProcess;
    t.name = proc.name;
    t.resource = proc.mapping;
    t.duration = proc.exec_time;
    t.guard = proc.guard;
    t.computes = proc.computes;
    t.origin_process = p;
    fg.task_of_process_[p] = t.id;
    fg.tasks_.push_back(std::move(t));
    const NodeId node = fg.deps_.add_node();
    CPS_ASSERT(node == fg.task_of_process_[p], "task id drift");
  }

  // Communication tasks for inter-PE edges with a positive communication
  // time; plain dependency edges otherwise.
  for (const CpgEdge& edge : g.edges()) {
    const TaskId src_task = fg.task_of_process_[edge.src];
    const TaskId dst_task = fg.task_of_process_[edge.dst];
    const bool inter_pe =
        g.process(edge.src).mapping != g.process(edge.dst).mapping;
    if (!inter_pe || edge.comm_time == 0) {
      fg.deps_.add_edge(src_task, dst_task);
      continue;
    }
    CPS_ASSERT(edge.bus.has_value(), "inter-PE edge without bus assignment");
    Task t;
    t.id = static_cast<TaskId>(fg.tasks_.size());
    t.kind = TaskKind::kComm;
    t.name = g.process(edge.src).name + "->" + g.process(edge.dst).name;
    t.resource = *edge.bus;
    t.duration = edge.comm_time;
    t.guard = g.process(edge.src).guard;
    if (edge.literal) t.guard = t.guard.and_literal(*edge.literal);
    t.origin_edge = edge.id;
    fg.tasks_.push_back(std::move(t));
    const NodeId node = fg.deps_.add_node();
    const TaskId comm_task = fg.tasks_.back().id;
    CPS_ASSERT(node == comm_task, "task id drift");
    fg.deps_.add_edge(src_task, comm_task);
    fg.deps_.add_edge(comm_task, dst_task);
  }

  // The sink's activation is the system delay: it must wait for *every*
  // task that executes on the current path, including communications whose
  // consumer is inactive (dangling transmissions still occupy the bus)
  // and paths that end early at a disjunction branch without successors.
  const TaskId sink_task = fg.task_of_process_[g.sink()];
  for (TaskId t = 0; t < fg.tasks_.size(); ++t) {
    if (t == sink_task) continue;
    if (!fg.deps_.has_edge(t, sink_task)) {
      fg.deps_.add_edge(t, sink_task);
    }
  }

  // Which resources actually host tasks?
  for (const Task& t : fg.tasks_) fg.used_resources_.push_back(t.resource);
  std::sort(fg.used_resources_.begin(), fg.used_resources_.end());
  fg.used_resources_.erase(
      std::unique(fg.used_resources_.begin(), fg.used_resources_.end()),
      fg.used_resources_.end());

  // Broadcast tasks: needed as soon as condition values must be visible on
  // more than one resource.
  const bool multi_resource =
      g.conditions().size() > 0 &&
      (fg.used_resources_.size() > 1 || !g.arch().buses().empty());
  if (multi_resource) {
    fg.bcast_buses_ = g.arch().broadcast_buses();
    if (fg.bcast_buses_.empty()) {
      throw ValidationError(
          "conditional model with several resources but no bus connecting "
          "all processors: condition broadcasts are impossible (paper "
          "section 3)");
    }
    // τ0 must not exceed any communication time (paper §3: "the time τ0 is
    // smaller than (at most equal to) any other communication time").
    for (const Task& t : fg.tasks_) {
      if (t.is_comm() && t.duration < g.arch().cond_broadcast_time()) {
        throw ValidationError(
            "communication " + t.name +
            " is faster than the condition broadcast time tau0, which "
            "contradicts the broadcast model of paper section 3");
      }
    }
    fg.bcast_tasks_.resize(g.conditions().size());
    for (CondId c = 0; c < g.conditions().size(); ++c) {
      const ProcessId disj = g.disjunction_of(c);
      Task t;
      t.id = static_cast<TaskId>(fg.tasks_.size());
      t.kind = TaskKind::kBroadcast;
      t.name = g.conditions().name(c);
      t.resource = fg.bcast_buses_.front();
      t.duration = g.arch().cond_broadcast_time();
      t.guard = g.process(disj).guard;
      t.broadcasts = c;
      fg.bcast_tasks_[c] = t.id;
      fg.tasks_.push_back(std::move(t));
      const NodeId node = fg.deps_.add_node();
      CPS_ASSERT(node == fg.bcast_tasks_[c], "task id drift");
      fg.deps_.add_edge(fg.task_of_process_[disj], fg.bcast_tasks_[c]);
    }
  }

  fg.compute_guard_info();
  return fg;
}

void FlatGraph::compute_guard_info() {
  masks_enabled_ = cpg_->conditions().size() <= 64;
  guard_info_.resize(tasks_.size());
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const Task& task = tasks_[t];
    TaskGuardInfo& info = guard_info_[t];
    info.trivially_true = task.guard.is_true();
    info.conjunction = task.origin_process.has_value() &&
                       cpg_->process(*task.origin_process).conjunction;
    if (masks_enabled_) {
      for (const Cube& cube : task.guard.cubes()) {
        const GuardCubeMask mask = GuardCubeMask::of_cube(cube);
        info.mention |= mask.mention();
        info.cubes.push_back(mask);
      }
    }
    if (info.conjunction) {
      for (EdgeId e : deps_.in_edges(t)) {
        const TaskId pred = deps_.edge(e).src;
        if (!tasks_[pred].guard.is_true()) info.guarded_preds.push_back(pred);
      }
    }
  }
}

const Task& FlatGraph::task(TaskId t) const {
  CPS_REQUIRE(t < tasks_.size(), "task id out of range");
  return tasks_[t];
}

TaskId FlatGraph::task_of_process(ProcessId p) const {
  CPS_REQUIRE(p < task_of_process_.size(), "process id out of range");
  return task_of_process_[p];
}

std::optional<TaskId> FlatGraph::broadcast_task(CondId c) const {
  CPS_REQUIRE(c < cpg_->conditions().size(), "condition id out of range");
  if (bcast_tasks_.empty()) return std::nullopt;
  return bcast_tasks_[c];
}

TaskId FlatGraph::disjunction_task(CondId c) const {
  return task_of_process(cpg_->disjunction_of(c));
}

const TaskGuardInfo& FlatGraph::guard_info(TaskId t) const {
  CPS_REQUIRE(t < guard_info_.size(), "task id out of range");
  return guard_info_[t];
}

std::vector<bool> FlatGraph::active_tasks(const Cube& label,
                                          CoverCache* cache) const {
  const GuardCubeMask ctx =
      masks_enabled_ ? GuardCubeMask::of_cube(label) : GuardCubeMask{};
  std::vector<bool> active(tasks_.size(), false);
  for (const Task& t : tasks_) {
    const TaskGuardInfo& info = guard_info_[t.id];
    if (info.trivially_true) {
      active[t.id] = true;
      continue;
    }
    // Fast path: a cube all of whose literals the label satisfies makes
    // the guard covered; for single-cube guards this is exact.
    if (masks_enabled_) {
      bool covered = false;
      for (const GuardCubeMask& cube : info.cubes) {
        if (cube.covered_by(ctx.pos, ctx.neg)) {
          covered = true;
          break;
        }
      }
      if (covered || info.cubes.size() <= 1) {
        active[t.id] = covered;
        continue;
      }
    }
    active[t.id] = cache ? cache->covered(t.guard, label)
                         : t.guard.covered_by_context(label);
  }
  return active;
}

}  // namespace cps
