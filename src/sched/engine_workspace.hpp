// EngineWorkspace: reusable storage for the list-scheduler engine.
//
// The engine deliberately runs its hot loops against engine-owned storage
// (borrowing the caller's vectors measured ~3x slower per-path run, see
// list_scheduler.hpp). Before this layer existed that snapshot was a fresh
// allocation per run; a workspace keeps every engine-side buffer — the
// request snapshot, the per-task bookkeeping vectors, the per-resource
// ready heaps and knowledge words, the private cover cache — alive across
// runs so repeated `run_list_scheduler` calls only re-`assign` into warm
// capacity. One workspace serves one thread: the driver's per-path walk
// and the merge walk each own one.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "cond/cover_cache.hpp"
#include "cpg/flat_graph.hpp"
#include "sched/schedule.hpp"

namespace cps {

/// A fixed reservation for a task (merge adjustment).
struct TaskLock {
  Time start = 0;
  PeId resource = 0;
};

/// Kept only because perfbench/src/workloads.cpp and
/// perfbench/src/layers.cpp compile against it (MergeOptions::ready and
/// make_path_request's parameter); nothing reads it. There is one engine.
enum class ReadySelection : std::uint8_t { kHeap };

/// Kept only because perfbench/src/layers.cpp compiles against it
/// (EngineRequest::resume); nothing reads it. Every run starts from
/// scratch.
enum class EngineResume : std::uint8_t { kCheckpoint };

/// Kept only because perfbench/src/layers.cpp declares one and hands it
/// to EngineRequest::history; nothing reads it.
struct EngineHistory {};

/// Max-heap entry of the per-resource ready list: highest priority first,
/// lowest task id on ties.
struct ReadyEntry {
  std::int64_t prio = 0;
  TaskId id = 0;
};

struct ReadyCompare {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return a.prio < b.prio || (a.prio == b.prio && a.id > b.id);
  }
};

struct ReadyHeap
    : std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyCompare> {
  /// Empty the heap, keeping its storage for the next run.
  void clear() { c.clear(); }
};

/// Counters of one workspace (accumulated across the runs it served).
struct WorkspaceStats {
  /// Engine runs served by this workspace.
  std::size_t runs = 0;
  /// Runs that found warm buffers from an earlier run (capacity reuse).
  std::size_t reuse_hits = 0;
  /// Always 0. Kept only because perfbench/src/layers.cpp reads it.
  std::size_t resumes = 0;

  WorkspaceStats& operator+=(const WorkspaceStats& o) {
    runs += o.runs;
    reuse_hits += o.reuse_hits;
    return *this;
  }

  /// Counter delta (`after - before` of the same monotonic workspace):
  /// isolates the runs of one scope when a workspace is shared.
  WorkspaceStats& operator-=(const WorkspaceStats& o) {
    runs -= o.runs;
    reuse_hits -= o.reuse_hits;
    return *this;
  }
};

/// Reusable engine-side storage. Default-constructed cold; the engine
/// warms it on first use and re-assigns (capacity-preserving) on every
/// subsequent run. All members below `stats` are engine-internal: callers
/// only construct the workspace, pass it to `run_list_scheduler` /
/// `schedule_path` / the merge, and read `stats`.
struct EngineWorkspace {
  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

  WorkspaceStats stats;

  // --- engine-internal state (documented in list_scheduler.cpp) ---

  /// Graph the private cover cache (and warm sizing) is bound to; the
  /// cache is cleared whenever a run arrives for a different graph.
  std::uint64_t bound_graph_uid = 0;
  bool warm = false;

  /// Private fallback cover cache (used when the request brings none).
  CoverCache private_cache;

  // Request snapshot (engine-owned copies; assignment reuses capacity).
  // The active set is held as byte flags plus the list of active tasks.
  Cube label;
  std::vector<char> active;
  std::vector<TaskId> active_list;
  std::vector<std::int64_t> priority;
  std::vector<std::optional<TaskLock>> locks;

  // Scheduling state.
  PathSchedule sched;
  /// Tasks in the order they started (non-decreasing start), moved into
  /// the returned schedule (PathSchedule::set_start_order); each run
  /// reserves it for its active tasks.
  std::vector<TaskId> start_order;
  std::vector<std::size_t> pending;
  std::vector<Time> dep_ready;
  std::vector<char> started;
  std::vector<char> finished;
  std::vector<Time> busy_until;
  std::vector<TaskId> running;
  /// Per resource, the label's literals known there (more than 64
  /// conditions only; the knowledge words cover the rest).
  std::vector<Cube> known;
  std::vector<char> seq;

  // Knowledge words, ready structures and lock events.
  std::vector<std::uint64_t> known_pos;
  std::vector<std::uint64_t> known_neg;
  std::vector<ReadyHeap> ready;
  /// Sequential resources to visit in the next step-3 pass, as a bitset
  /// over PeId (64 resources per word).
  std::vector<std::uint64_t> dirty;
  std::vector<TaskId> hw_ready;
  std::vector<TaskId> bcast_pending;
  /// Lock reservations as events: the active locked tasks sorted by
  /// (start, id), the same order split by lock resource, and per resource
  /// a cursor on its earliest unstarted lock (the run's cursor into
  /// lock_order is an engine scalar).
  std::vector<TaskId> lock_order;
  std::vector<std::vector<TaskId>> locks_on_res;
  std::vector<std::size_t> lock_res_next;

  // Step-local scratch (swap targets so the per-step rebuild of the
  // pending/running lists stops allocating).
  std::vector<TaskId> scratch_tasks;
  std::vector<TaskId> scratch_running;
  std::vector<ReadyEntry> scratch_deferred;
};

}  // namespace cps
