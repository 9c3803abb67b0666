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
  if (!start_order_.empty()) {
    // Already ordered by start: order each run of equal starts by id (the
    // engine starts a run in its own step order).
    std::vector<TaskId> out = start_order_;
    auto first = out.begin();
    while (first != out.end()) {
      const Time start = slots_[*first].start;
      auto last = first + 1;
      while (last != out.end() && slots_[*last].start == start) ++last;
      CPS_ASSERT(last == out.end() || slots_[*last].start > start,
                 "start order is not sorted by start");
      if (last - first > 1) std::sort(first, last);
      first = last;
    }
    return out;
  }
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
