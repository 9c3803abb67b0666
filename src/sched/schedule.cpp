#include "sched/schedule.hpp"

#include <algorithm>
#include <utility>

namespace cps {

Time PathSchedule::makespan() const {
  Time m = 0;
  for (const Slot& s : slots_) {
    if (s.scheduled()) m = std::max(m, s.end);
  }
  return m;
}

Time PathSchedule::delay(const FlatGraph& fg) const {
  const Slot& s = slot(fg.sink_task());
  CPS_REQUIRE(s.scheduled(), "sink task is not scheduled");
  return s.end;
}

std::vector<TaskId> PathSchedule::tasks_by_start() const {
  // Sorting the (start, id) keys by value keeps the comparisons off the
  // slot array.
  std::vector<std::pair<Time, TaskId>> keys;
  for (TaskId t = 0; t < slots_.size(); ++t) {
    if (slots_[t].scheduled()) keys.emplace_back(slots_[t].start, t);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<TaskId> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(key.second);
  return out;
}

}  // namespace cps
