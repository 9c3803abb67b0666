// PathSchedule: a concrete non-preemptive schedule of the tasks of one
// alternative path (start/end times plus the resource actually used, which
// matters for condition broadcasts that pick a bus dynamically).
//
// A schedule the engine returns also carries the order in which the engine
// started its tasks. The engine's clock never runs backwards, so that order
// is already sorted by start, and tasks_by_start() only has to order each
// run of equal starts by id. A schedule placed any other way (by hand, by
// the table simulator, or by a place() after the engine returned) is
// sorted in full.
#pragma once

#include <utility>
#include <vector>

#include "cpg/flat_graph.hpp"

namespace cps {

struct Slot {
  Time start = -1;
  Time end = -1;
  PeId resource = 0;

  bool scheduled() const { return start >= 0; }
};

class PathSchedule {
 public:
  PathSchedule() = default;
  explicit PathSchedule(std::size_t task_count) : slots_(task_count) {}

  /// Re-initialize to `task_count` empty slots, reusing capacity (the
  /// allocation-free equivalent of `*this = PathSchedule(task_count)`).
  void reset(std::size_t task_count) {
    slots_.assign(task_count, Slot{});
    start_order_.clear();
  }

  std::size_t task_count() const { return slots_.size(); }

  const Slot& slot(TaskId t) const {
    CPS_REQUIRE(t < slots_.size(), "task id out of range");
    return slots_[t];
  }
  bool scheduled(TaskId t) const { return slot(t).scheduled(); }

  /// Place `t`. Drops a start order handed over by set_start_order().
  void place(TaskId t, Time start, Time end, PeId resource) {
    CPS_REQUIRE(t < slots_.size(), "task id out of range");
    CPS_REQUIRE(start >= 0 && end >= start, "malformed slot");
    slots_[t] = Slot{start, end, resource};
    start_order_.clear();
  }

  /// The engine's hand-off: `order` lists every scheduled task exactly
  /// once, by non-decreasing start. Kept until the next place() or
  /// reset().
  void set_start_order(std::vector<TaskId> order) {
    start_order_ = std::move(order);
  }
  /// The handed-over start order; empty when there is none.
  const std::vector<TaskId>& start_order() const { return start_order_; }

  /// Largest end time over all scheduled tasks (includes trailing
  /// broadcasts/communications).
  Time makespan() const;

  /// The system delay: activation time of the sink process (paper §2).
  /// Requires the sink task to be scheduled.
  Time delay(const FlatGraph& fg) const;

  /// Scheduled task ids sorted by (start, id) — the placement order used
  /// by the schedule-table generation walk. With a start order from the
  /// engine only the runs of equal starts are sorted; otherwise every
  /// scheduled task is.
  std::vector<TaskId> tasks_by_start() const;

 private:
  std::vector<Slot> slots_;
  /// The engine's start order (see set_start_order); empty when unknown.
  std::vector<TaskId> start_order_;
};

}  // namespace cps
