// EngineWorkspace: reusable storage for the list-scheduler engine, plus
// the checkpoint machinery behind incremental prefix rescheduling.
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
//
// On top of the workspace, EngineHistory records a *checkpoint stream*
// during a lock-free run: the request-independent engine state at (a
// thinned subset of) the committed time steps. A later run on the same
// graph with a different *guard assignment* (different path label, and
// with it different active sets and priorities) can then resume from the
// latest checkpoint that provably precedes any influence of that
// difference, instead of rescheduling from t=0 — the guard-trie win for
// per-path scheduling, where sibling alternative paths replay identically
// until the first divergent condition value becomes known on some
// resource (knowledge rule), so a leaf resumes from the previous leaf's
// checkpoint at their shared trie prefix.
//
// A checkpoint deliberately stores no engine state at all — just a
// position into the run's append-only *start-event log* (schedule slots
// are write-once, so the whole request-independent state at a committed
// step is a pure function of the log prefix). Restoring replays that
// prefix into freshly initialized state and rebuilds everything
// request-dependent — pending counts, ready heaps, act times, knowledge
// words — from the *new* request, which is what makes one stream
// servable to requests with different active sets and keeps recording
// cost near zero. Resumed runs are byte-identical to from-scratch runs
// (equivalence-tested); the knob is EngineResume with kFromScratch
// retained as the reference.
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

/// Ready-task selection strategy.
///
/// kHeap is the production engine: per-resource lazy max-heaps keyed by
/// (priority, task id), precomputed guard masks and a memoized DNF cover
/// cache. kLinearScan preserves the original O(V^2) engine byte-for-byte
/// (full task scans, per-step DNF re-evaluation); it exists as the
/// equivalence-test reference and performance baseline. Both produce
/// identical schedules on identical requests.
enum class ReadySelection : std::uint8_t { kHeap, kLinearScan };

const char* to_string(ReadySelection s);

/// Whether an engine run may resume from a recorded checkpoint stream.
///
/// kCheckpoint (production) resumes a lock-free request when its guard
/// assignment provably cannot influence a recorded prefix; otherwise it
/// falls back to a full run (and re-records). kFromScratch ignores any
/// history entirely — the reference behavior, retained for equivalence
/// tests and ablation.
enum class EngineResume : std::uint8_t { kFromScratch, kCheckpoint };

const char* to_string(EngineResume r);

/// Max-heap entry of the per-resource ready list: highest priority first,
/// lowest task id on ties (matching the reference linear scan exactly).
struct ReadyEntry {
  std::int64_t prio = 0;
  TaskId id = 0;
};

struct ReadyCompare {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return a.prio < b.prio || (a.prio == b.prio && a.id > b.id);
  }
};

using ReadyHeap =
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, ReadyCompare>;

/// Counters of one workspace (accumulated across the runs it served).
struct WorkspaceStats {
  /// Engine runs served by this workspace.
  std::size_t runs = 0;
  /// Runs that found warm buffers from an earlier run (capacity reuse).
  std::size_t reuse_hits = 0;
  /// Checkpoint-mode runs resumed from a recorded checkpoint.
  std::size_t resumes = 0;
  /// Checkpoint-mode runs that found no usable checkpoint.
  std::size_t from_scratch = 0;
  /// Committed time steps skipped by resuming (vs rescheduling from t=0).
  std::size_t resumed_steps = 0;
  /// Checkpoints recorded into histories by runs on this workspace.
  std::size_t checkpoints = 0;

  WorkspaceStats& operator+=(const WorkspaceStats& o) {
    runs += o.runs;
    reuse_hits += o.reuse_hits;
    resumes += o.resumes;
    from_scratch += o.from_scratch;
    resumed_steps += o.resumed_steps;
    checkpoints += o.checkpoints;
    return *this;
  }

  /// Counter delta (`after - before` of the same monotonic workspace):
  /// isolates the runs of one scope when a workspace is shared.
  WorkspaceStats& operator-=(const WorkspaceStats& o) {
    runs -= o.runs;
    reuse_hits -= o.reuse_hits;
    resumes -= o.resumes;
    from_scratch -= o.from_scratch;
    resumed_steps -= o.resumed_steps;
    checkpoints -= o.checkpoints;
    return *this;
  }
};

/// One committed task start of a recorded run. Schedule slots are
/// write-once (placed at start, never modified), so the whole
/// request-independent engine state at any committed step is a pure
/// function of the *prefix* of the start-event log: started/finished
/// flags, schedule slots, resource occupancy, the knowledge words (a
/// condition is known where its disjunction/broadcast completions put
/// it), and — together with the resuming request — every derived
/// structure (pending counts, ready heaps, act times, lock lists).
struct StartEvent {
  TaskId task = 0;
  Time start = 0;
  Time end = 0;
  PeId resource = 0;
};

/// A checkpoint is just a position in the start-event log plus the clock:
/// recording one costs three scalar stores, and restore replays the log
/// prefix into freshly initialized engine state. The replay is what lets
/// one checkpoint stream serve requests that differ in their whole guard
/// assignment (active sets and priorities included) — nothing
/// request-dependent is ever stored.
struct EngineCheckpoint {
  Time now = 0;
  std::size_t steps = 0;    ///< committed steps up to and incl. this one
  std::size_t log_pos = 0;  ///< EngineHistory::log entries committed
};

/// Recorded lock-free run of one (graph, label, active, priority) request:
/// the outcome, per-task first-startable times, per-condition first-known
/// times, and a thinned stream of checkpoints. Owned by the caller and
/// handed to the engine via EngineRequest::history; the engine validates
/// before trusting it and re-records on every lock-free run. A later
/// lock-free run may resume when only its guard assignment diverged (the
/// tree driver chains one history across the leaves of the guard trie).
/// Not thread-safe: one history belongs to one thread at a time.
struct EngineHistory {
  /// Upper bound on live checkpoints; when reached, every second one is
  /// dropped and the recording stride doubles (log-structured thinning),
  /// so long runs keep coarse early coverage plus dense recent coverage.
  /// Checkpoints are log positions (three scalars each), so the bound is
  /// about keeping the restore search short, not about memory.
  static constexpr std::size_t kMaxCheckpoints = 64;

  bool valid = false;

  // Identity of the recorded request. The graph is identified by
  // FlatGraph::uid(), like EngineWorkspace's cover cache: the driver's
  // resume chain lives for one schedule_cpg call, so "same graph" means
  // "same expansion". A second expansion of the same Cpg gets a new uid,
  // and a history handed to it runs from scratch. The engine verifies the
  // uid and task count before resuming.
  std::uint64_t graph_uid = 0;
  std::size_t task_count = 0;
  Cube label;
  std::vector<char> active;
  std::vector<std::int64_t> priority;
  bool enforce_knowledge = true;

  // The recorded run.
  /// Per task: time its last active predecessor completed (the first
  /// moment it could possibly start); Time max when it never happened.
  std::vector<Time> act;
  /// Per condition: earliest time its value became known on *any*
  /// resource during the recorded run (Time max when it never did).
  /// Drives the guard-divergence analysis: a task whose activity differs
  /// between two guard assignments cannot start before some divergent
  /// condition is known on its resource.
  std::vector<Time> cond_known;
  bool feasible = false;

  // Start-event log of the recorded run (committed task starts in start
  // order) and the checkpoint stream of positions into it. A resume
  // truncates both to the restored prefix; the continuation re-appends.
  std::vector<StartEvent> log;
  std::vector<EngineCheckpoint> ckpts;
  std::size_t ckpt_count = 0;
  std::size_t stride = 1;
  std::size_t since_record = 0;

  void invalidate() {
    valid = false;
    log.clear();
    ckpt_count = 0;
    stride = 1;
    since_record = 0;
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
  std::vector<std::size_t> pending;
  std::vector<Time> dep_ready;
  std::vector<char> started;
  std::vector<char> finished;
  std::vector<Time> busy_until;
  std::vector<TaskId> running;
  std::vector<std::vector<Time>> known;
  std::vector<char> seq;

  // Heap-mode state.
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

  // Checkpoint support.
  std::vector<Time> act;
  std::vector<Time> cond_known;

  // Step-local scratch (swap targets so the per-step rebuild of the
  // pending/running lists stops allocating).
  std::vector<TaskId> scratch_tasks;
  std::vector<TaskId> scratch_running;
  std::vector<ReadyEntry> scratch_deferred;
};

}  // namespace cps
