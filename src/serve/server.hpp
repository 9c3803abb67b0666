// Long-lived co-synthesis daemon core.
//
// One Server owns a listening AF_UNIX socket, a poll() event loop, and a
// ThreadPool. The event loop does only cheap work — accepting, framing,
// parsing, admission control, response flushing — and never runs the
// pipeline itself: admitted requests queue in FIFO order and dispatch
// onto the pool's FIFO queue, one task per request and at most
// thread_count() at a time (try_dispatch), where each one
// runs the same run_batch_item the offline batch driver runs (on the
// worker's thread: a request's walk is serial). Workers hand finished
// response frames back through a lock-free-enough completion queue plus a
// wakeup pipe.
//
// Robustness machinery (the point of this subsystem):
//  - Admission control: a bounded request queue (max_queue_depth counts
//    queued + running) and an in-flight-bytes watermark. Requests beyond
//    either bound get a typed rejected_overload response — never a
//    silent drop, never an unbounded queue.
//  - Load shedding: under sustained overload the kShedOldest policy
//    sheds the *oldest queued* requests (they have waited longest and
//    are most likely already expired client-side) in favor of new
//    arrivals; kRejectNewest refuses the new arrival instead. Running
//    requests are never cancelled by shedding.
//  - Deadlines: each request carries (or inherits) a wall-clock budget.
//    Expiry is checked at admission, while queued (the poll timeout
//    tracks the earliest queued deadline), at dispatch, and inside the
//    run via RunBudget — each layer answers with a typed
//    deadline_exceeded response instead of hanging.
//  - Graceful drain: SIGTERM (via an external SignalDrain fd), a
//    "shutdown" request, or request_drain() stop the listener, refuse
//    new work with typed responses, let queued + running requests finish
//    (deadlines still apply), flush every outbuf, and return from run().
//
// Determinism: a response's payload is a pure function of the workload
// definition and the request's index — not of arrival order, connection
// count, thread count, or warm-workspace state (reuse counters are
// excluded from the serialization; see protocol.hpp). Collecting any
// request set's responses and sorting by id yields byte-identical output
// to the run_batch oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/batch_driver.hpp"
#include "sched/workspace_pool.hpp"
#include "serve/protocol.hpp"
#include "support/frame.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

namespace cps {

/// What to do when admission control finds the server over its bounds.
enum class OverloadPolicy : std::uint8_t {
  /// Refuse the arriving request (oldest work wins).
  kRejectNewest,
  /// Shed the oldest *queued* request(s) — typed responses, never silent
  /// — and admit the arrival; refuse the arrival only when everything
  /// admitted is already running. Production default: the oldest queued
  /// request has the least remaining client patience.
  kShedOldest,
};

struct ServerOptions {
  /// Path of the AF_UNIX listening socket (created, later unlinked).
  std::string socket_path;
  /// Pool workers running requests; 0 = hardware concurrency. Also the
  /// dispatch width: at most this many requests run concurrently.
  std::size_t threads = 0;
  /// Admission bound on queued + running requests.
  std::size_t max_queue_depth = 64;
  /// Admission watermark on summed frame bytes of admitted-but-unfinished
  /// requests.
  std::size_t max_inflight_bytes = std::size_t{4} << 20;
  /// Deadline for requests that do not carry their own; 0 = none.
  double default_deadline_ms = 0.0;
  OverloadPolicy overload = OverloadPolicy::kShedOldest;
  /// Readable fd that signals "drain now" (e.g. SignalDrain::fd() wired
  /// to SIGTERM). -1 = none; shutdown requests and request_drain() still
  /// work.
  int signal_fd = -1;
  int listen_backlog = 64;
  /// The workload definition: request index i co-synthesizes exactly
  /// run_batch_item(workload, i) (count is ignored; per-request budgets
  /// override deadline_ms/synthesis.budget per request). Shared with the
  /// offline oracle and the bench load generator. workload.cache is
  /// overwritten by the server with its own per-daemon cache (below).
  BatchConfig workload;
  /// Per-daemon content-addressed schedule cache, shared across every
  /// connection and request (thread-safe; see sched/schedule_cache.hpp).
  /// Responses stay byte-identical with or without it — only latency and
  /// the "stats" op's counters change. cache.store_dir persists the exact
  /// tier across daemon restarts.
  bool enable_cache = true;
  ScheduleCacheOptions cache;
};

/// Monotonic counters (every value only grows). Snapshot via stats().
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_parsed = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed_ok = 0;      ///< item ran and reported ok
  std::uint64_t completed_failed = 0;  ///< item ran, typed failure code
  std::uint64_t shed_overload = 0;     ///< typed rejected_overload sent
  std::uint64_t rejected_draining = 0; ///< run refused during drain
  std::uint64_t expired_queued = 0;    ///< deadline fired before running
  std::uint64_t injected_failures = 0; ///< serve.* fault sites fired
  std::uint64_t responses_sent = 0;    ///< frames queued toward peers
  std::uint64_t orphaned_responses = 0;///< connection gone before reply
  std::uint64_t peak_queue_depth = 0;  ///< high-water queued + running
  std::uint64_t peak_inflight_bytes = 0;
};

class Server {
 public:
  /// Binds and listens immediately (clients may connect before run()).
  /// Throws Error when the socket cannot be bound.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Event loop: serves until a drain trigger fires AND all admitted
  /// work finished and flushed. Call from one thread only.
  void run();

  /// Thread-safe drain trigger (equivalent to receiving SIGTERM).
  void request_drain();

  const std::string& socket_path() const { return listener_.path(); }
  std::size_t dispatch_width() const { return pool_.thread_count(); }
  ServerCounters stats() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    UnixFd fd;
    FrameDecoder decoder;
    std::string out;               ///< pending response bytes
    std::size_t out_offset = 0;    ///< prefix already written
    bool dead = false;
    /// Per-session pool of warm engine workspaces: requests of one
    /// connection share buffers, sessions stay isolated. shared_ptr so
    /// in-flight requests keep it alive after the connection dies.
    std::shared_ptr<WorkspacePool> session;
  };

  /// One admitted request waiting for (or holding) a worker.
  struct Pending {
    std::uint64_t conn_id = 0;
    std::uint64_t id = 0;
    std::uint64_t index = 0;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    bool has_max_steps = false;
    std::uint64_t max_steps = 0;
    bool has_max_paths = false;
    std::uint64_t max_paths = 0;
    bool csv = false;
    std::size_t frame_bytes = 0;
    std::shared_ptr<WorkspacePool> session;
  };

  /// A worker-produced response traveling back to the event loop.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t id = 0;
    std::string payload;
    std::size_t frame_bytes = 0;
    bool item_ok = false;
  };

  void begin_drain();
  bool drained() const;
  void accept_pending();
  void read_conn(Conn& conn);
  void write_conn(Conn& conn);
  void handle_frame(Conn& conn, const std::string& payload);
  void admit(Conn& conn, const ServeRequest& request,
             std::size_t frame_bytes);
  void release_request(const Pending& p);
  void sweep_expired();
  void try_dispatch();
  std::string run_request(const Pending& p, bool* item_ok);
  void drain_completions();
  void send_response(Conn& conn, std::optional<std::uint64_t> id,
                     const std::string& payload);
  void send_to_conn_id(std::uint64_t conn_id, std::optional<std::uint64_t> id,
                       const std::string& payload);
  std::string make_pong_response(std::uint64_t id);
  std::string make_stats_response(std::uint64_t id);
  int poll_timeout_ms() const;
  void reap_dead_conns();

  ServerOptions options_;
  /// Daemon-wide schedule cache (null when disabled). Owned here, wired
  /// into every request's BatchConfig by run_request; outlives the pool
  /// (declaration order), so in-flight workers may touch it freely.
  std::unique_ptr<ScheduleCache> cache_;
  UnixListener listener_;
  ThreadPool pool_;
  UnixFd wake_read_;
  UnixFd wake_write_;

  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::deque<Pending> queue_;
  std::size_t running_ = 0;
  std::size_t inflight_bytes_ = 0;
  bool draining_ = false;
  std::atomic<bool> drain_requested_{false};

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  mutable std::mutex counters_mutex_;
  ServerCounters counters_;
};

}  // namespace cps
