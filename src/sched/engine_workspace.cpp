#include "sched/engine_workspace.hpp"

namespace cps {

const char* to_string(ReadySelection s) {
  switch (s) {
    case ReadySelection::kHeap: return "heap";
    case ReadySelection::kLinearScan: return "linear-scan";
  }
  return "?";
}

const char* to_string(EngineResume r) {
  switch (r) {
    case EngineResume::kFromScratch: return "from-scratch";
    case EngineResume::kCheckpoint: return "checkpoint";
  }
  return "?";
}

}  // namespace cps
