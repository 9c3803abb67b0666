#include "sched/delay.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cps {

DelayReport delay_report(const FlatGraph& fg,
                         const std::vector<AltPath>& paths,
                         const std::vector<PathSchedule>& schedules,
                         const ScheduleTable& table) {
  CPS_REQUIRE(paths.size() == schedules.size(),
              "paths/schedules size mismatch");
  DelayReport out;
  out.path_optimal.reserve(paths.size());
  out.path_actual.reserve(paths.size());
  // The table's delay on a path is the end of the sink's activation there
  // (execute_table's TableExecution::delay): the first sink entry whose
  // column the path label implies, plus the sink's duration. The sink is
  // active on every path, so its row alone decides the delay.
  const TaskId sink = fg.sink_task();
  const Time sink_duration = fg.task(sink).duration;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Time optimal = schedules[i].delay(fg);
    const TableEntry* entry = nullptr;
    const auto keep_first = [&entry](const TableEntry& e) {
      if (entry == nullptr) entry = &e;
    };
    table.for_each_matching(sink, paths[i].label, keep_first);
    CPS_ASSERT(entry != nullptr,
               "table does not activate the sink on path " +
                   paths[i].label.to_string());
    const Time actual = entry->start + sink_duration;
    out.path_optimal.push_back(optimal);
    out.path_actual.push_back(actual);
    out.delta_m = std::max(out.delta_m, optimal);
    out.delta_max = std::max(out.delta_max, actual);
  }
  if (out.delta_m > 0) {
    out.increase_percent = 100.0 *
                           static_cast<double>(out.delta_max - out.delta_m) /
                           static_cast<double>(out.delta_m);
  }
  return out;
}

}  // namespace cps
