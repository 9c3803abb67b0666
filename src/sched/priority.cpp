#include "sched/priority.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace cps {

const char* to_string(PriorityPolicy p) {
  switch (p) {
    case PriorityPolicy::kCriticalPath: return "critical-path";
    case PriorityPolicy::kTaskOrder: return "task-order";
    case PriorityPolicy::kRandom: return "random";
  }
  return "?";
}

std::vector<std::int64_t> compute_priorities(const FlatGraph& fg,
                                             const std::vector<bool>& active,
                                             PriorityPolicy policy,
                                             Rng* rng) {
  const std::size_t n = fg.task_count();
  CPS_REQUIRE(active.size() == n, "active vector size mismatch");
  std::vector<std::int64_t> prio(n, 0);
  switch (policy) {
    case PriorityPolicy::kCriticalPath: {
      const std::vector<TaskId>& order = fg.topo_order();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const TaskId v = *it;
        if (!active[v]) continue;
        std::int64_t best = 0;
        for (TaskId w : fg.succs(v)) {
          if (active[w]) best = std::max(best, prio[w]);
        }
        prio[v] = best + fg.duration(v);
      }
      break;
    }
    case PriorityPolicy::kTaskOrder: {
      for (TaskId t = 0; t < n; ++t) {
        if (active[t]) prio[t] = static_cast<std::int64_t>(n - t);
      }
      break;
    }
    case PriorityPolicy::kRandom: {
      CPS_REQUIRE(rng != nullptr, "random priority policy needs an Rng");
      std::vector<std::int64_t> ranks(n);
      for (std::size_t i = 0; i < n; ++i) {
        ranks[i] = static_cast<std::int64_t>(i);
      }
      rng->shuffle(ranks);
      for (TaskId t = 0; t < n; ++t) {
        if (active[t]) prio[t] = ranks[t];
      }
      break;
    }
  }
  return prio;
}

}  // namespace cps
