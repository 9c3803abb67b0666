// Worst-case delay metrics (paper §4 and §6).
//
// δ_M  = max over alternative paths of the individually scheduled delay
//        (the lower bound the merge aims at);
// δ_max = max over alternative paths of the delay induced by the schedule
//        table (the guaranteed worst case);
// the quality metric of Fig. 5 is the percentage increase of δ_max over
// δ_M.
#pragma once

#include <vector>

#include "sched/schedule_table.hpp"
#include "sched/schedule.hpp"

namespace cps {

struct DelayReport {
  Time delta_m = 0;
  Time delta_max = 0;
  /// 100 * (δ_max - δ_M) / δ_M.
  double increase_percent = 0.0;
  /// Per-path optimal delay δ_k (parallel to the paths vector).
  std::vector<Time> path_optimal;
  /// Per-path delay induced by the table.
  std::vector<Time> path_actual;
};

/// Compute the report. A path's table delay is read from the sink's row
/// alone (the sink is active on every path), so this checks only that
/// every path activates some sink entry and throws InternalError when one
/// does not. Any other incoherence goes unnoticed here: that is
/// validate_table's job, so validate first when in doubt.
DelayReport delay_report(const FlatGraph& fg,
                         const std::vector<AltPath>& paths,
                         const std::vector<PathSchedule>& schedules,
                         const ScheduleTable& table);

}  // namespace cps
