#include "sched/engine_workspace.hpp"

namespace cps {

const char* to_string(EngineResume r) {
  switch (r) {
    case EngineResume::kFromScratch: return "from-scratch";
    case EngineResume::kCheckpoint: return "checkpoint";
  }
  return "?";
}

}  // namespace cps
