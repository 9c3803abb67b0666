// Thread-safe pool of warm EngineWorkspaces.
//
// An EngineWorkspace amortizes every engine-side buffer across runs, but
// it is single-threaded: one workspace serves one run at a time, and a
// co-synthesis call without one constructs a fresh workspace — wasteful
// for a long-lived service where the same connection co-synthesizes
// thousands of graphs: every request would re-pay the cold-buffer
// allocations.
//
// WorkspacePool closes that gap: each co-synthesis walk acquire()s a
// workspace (popping a warm one when available, creating one only when
// the pool is empty) and the RAII lease returns it on scope exit.
// Concurrent requests of one session lease different workspaces. The
// co-synthesis daemon keys one pool per connection ("session"), so a
// session's steady-state requests run entirely on warm buffers while
// sessions stay isolated from each other.
//
// Determinism: workspace identity never influences results — every run
// re-initializes the workspace it is handed, and
// BatchDriver.SharedWorkspacePoolKeepsResultsByteIdentical pins that.
// What DOES change with a warm workspace is
// the WorkspaceStats reuse counters (a leased warm workspace reports
// reuse_hits where a cold one reports an initial allocation), which is
// why the service's response payloads exclude the reuse-counter block
// (BatchJsonOptions::include_reuse_counters) when comparing against a
// cold-start oracle.
//
// Lifetime: the pool must outlive every lease and every co-synthesis
// call it was handed to (CoSynthesisOptions::workspace_pool is
// non-owning). The server keeps each session pool alive via shared_ptr
// until its in-flight requests completed.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/engine_workspace.hpp"

namespace cps {

class WorkspacePool;

/// RAII lease of one workspace (move-only; returns it on destruction).
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  WorkspaceLease(WorkspacePool* pool, std::unique_ptr<EngineWorkspace> ws)
      : pool_(pool), ws_(std::move(ws)) {}
  ~WorkspaceLease();

  WorkspaceLease(WorkspaceLease&& other) noexcept
      : pool_(other.pool_), ws_(std::move(other.ws_)) {
    other.pool_ = nullptr;
  }
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  EngineWorkspace& operator*() { return *ws_; }
  EngineWorkspace* get() { return ws_.get(); }

 private:
  WorkspacePool* pool_ = nullptr;
  std::unique_ptr<EngineWorkspace> ws_;
};

class WorkspacePool {
 public:
  /// Counters (monotonic; snapshot under the pool mutex).
  struct Stats {
    std::size_t created = 0;    ///< workspaces constructed cold
    std::size_t leases = 0;     ///< acquire() calls
    std::size_t warm_hits = 0;  ///< leases served from the free list
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Lease a workspace: a warm one when the free list is non-empty, a
  /// fresh one otherwise (the pool never blocks — concurrent demand just
  /// grows it to the concurrency high-water mark).
  WorkspaceLease acquire();

  /// Workspaces currently parked on the free list.
  std::size_t idle() const;

  Stats stats() const;

 private:
  friend class WorkspaceLease;
  void give_back(std::unique_ptr<EngineWorkspace> ws);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<EngineWorkspace>> free_;
  Stats stats_;
};

}  // namespace cps
