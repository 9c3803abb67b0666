#include "serve/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "support/fault.hpp"
#include "support/json.hpp"

namespace cps {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_until(clock_type::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline -
                                                   clock_type::now())
      .count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.enable_cache
                 ? std::make_unique<ScheduleCache>(options_.cache)
                 : nullptr),
      listener_(options_.socket_path, options_.listen_backlog),
      pool_(ThreadPool::resolve_threads(options_.threads)) {
  CPS_REQUIRE(options_.max_queue_depth > 0,
              "max_queue_depth must be at least 1");
  auto pipe = make_wakeup_pipe();
  wake_read_ = std::move(pipe.first);
  wake_write_ = std::move(pipe.second);
}

Server::~Server() {
  // Workers may still be running requests if run() exited through an
  // exception; they only touch the completion queue and the wakeup pipe,
  // both of which outlive them (pool_ joins before the members above it
  // are destroyed — declaration order is load-bearing here).
  pool_.wait_idle();
}

ServerCounters Server::stats() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void Server::request_drain() {
  drain_requested_.store(true);
  signal_wakeup_pipe(wake_write_.get());
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  // Adopt the backlog, then stop accepting: a peer whose connect()
  // completed before the drain trigger is an established session and
  // deserves typed responses, not a vanished socket. Closing the
  // listener also unlinks the path, so later connect()s fail fast.
  accept_pending();
  listener_.close();
  // Final read sweep: requests a peer sent before the drain trigger are
  // already buffered in their sockets. Answer them (typed refusals now
  // that draining_ is set) instead of letting the shutdown race eat
  // them silently — drained() would otherwise see an idle server and
  // close over unread frames.
  for (auto& entry : conns_) {
    if (!entry.second.dead) read_conn(entry.second);
  }
}

bool Server::drained() const {
  if (!draining_ || !queue_.empty() || running_ != 0) return false;
  for (const auto& entry : conns_) {
    const Conn& conn = entry.second;
    if (!conn.dead && conn.out_offset < conn.out.size()) return false;
  }
  return true;
}

void Server::accept_pending() {
  while (true) {
    UnixFd fd = listener_.accept();
    if (!fd.valid()) return;
    try {
      CPS_FAULT_POINT("serve.accept");
    } catch (const InjectedFault&) {
      // Injected accept failure: the connection is dropped before any
      // request exists — the peer sees EOF and may reconnect. Existing
      // connections and admitted work are untouched.
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.injected_failures;
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.id = id;
    conn.fd = std::move(fd);
    conn.session = std::make_shared<WorkspacePool>();
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.connections_accepted;
  }
}

void Server::read_conn(Conn& conn) {
  char buffer[4096];
  bool peer_gone = false;
  while (!conn.dead) {
    std::size_t n = 0;
    const IoStatus status =
        socket_read(conn.fd.get(), buffer, sizeof(buffer), &n);
    if (status == IoStatus::kOk) {
      if (!conn.decoder.feed(buffer, n)) {
        // Corrupt framing (oversized length prefix): nothing downstream
        // can be trusted, so the connection dies. Admitted requests of
        // this connection still run; their responses orphan.
        conn.dead = true;
        return;
      }
      continue;
    }
    if (status == IoStatus::kWouldBlock) break;
    peer_gone = true;  // kClosed or kError
    break;
  }
  while (!conn.dead) {
    std::optional<std::string> frame = conn.decoder.next();
    if (!frame.has_value()) break;
    handle_frame(conn, *frame);
  }
  if (peer_gone) conn.dead = true;
}

void Server::handle_frame(Conn& conn, const std::string& payload) {
  ServeRequest request;
  std::string error;
  if (!parse_serve_request(payload, &request, &error)) {
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.parse_failures;
    }
    send_response(conn, std::nullopt,
                  make_error_response(std::nullopt, ErrorCode::kParseFailed,
                                      error));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.requests_parsed;
  }
  try {
    // Request-level ingress fault: the id is known, so the failure is a
    // typed response to exactly this request; the connection (and every
    // other request) keeps working.
    CPS_FAULT_POINT("serve.read");
  } catch (const InjectedFault& e) {
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.injected_failures;
    }
    send_response(conn, request.id,
                  make_error_response(request.id, ErrorCode::kInjectedFault,
                                      e.what()));
    return;
  }

  switch (request.op) {
    case RequestOp::kPing:
      send_response(conn, request.id, make_pong_response(request.id));
      return;
    case RequestOp::kShutdown:
      send_response(conn, request.id, make_drain_response(request.id));
      begin_drain();
      return;
    case RequestOp::kStats:
      send_response(conn, request.id, make_stats_response(request.id));
      return;
    case RequestOp::kRun: break;
  }

  if (draining_) {
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.rejected_draining;
    }
    send_response(conn, request.id,
                  make_error_response(request.id, ErrorCode::kRejectedOverload,
                                      "server is draining"));
    return;
  }
  // Budget edge cases answered at admission, before any queue slot or
  // worker is spent: a zero step budget can never complete (RunBudget
  // reserves 0 for "unlimited", so it cannot even express the request),
  // and a non-positive deadline is already expired.
  if (request.has_max_steps && request.max_steps == 0) {
    send_response(
        conn, request.id,
        make_error_response(request.id, ErrorCode::kStepBudgetExceeded,
                            "max_steps of 0 cannot complete any run"));
    return;
  }
  if (request.has_deadline &&
      (request.deadline_ms <= 0.0 || !std::isfinite(request.deadline_ms))) {
    send_response(
        conn, request.id,
        make_error_response(request.id, ErrorCode::kDeadlineExceeded,
                            "deadline already expired at admission"));
    return;
  }
  admit(conn, request, kFrameHeaderSize + payload.size());
}

void Server::admit(Conn& conn, const ServeRequest& request,
                   std::size_t frame_bytes) {
  // Admission control: bounded depth (queued + running) and bounded
  // in-flight bytes. Overload never silently drops — every refused or
  // shed request gets a typed rejected_overload response.
  const auto over = [&] {
    return queue_.size() + running_ >= options_.max_queue_depth ||
           inflight_bytes_ + frame_bytes > options_.max_inflight_bytes;
  };
  if (over() && options_.overload == OverloadPolicy::kShedOldest) {
    while (over() && !queue_.empty()) {
      const Pending oldest = std::move(queue_.front());
      queue_.pop_front();
      inflight_bytes_ -= oldest.frame_bytes;
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.shed_overload;
      }
      send_to_conn_id(
          oldest.conn_id, oldest.id,
          make_error_response(oldest.id, ErrorCode::kRejectedOverload,
                              "shed by newer arrival under overload"));
    }
  }
  if (over()) {
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.shed_overload;
    }
    send_response(
        conn, request.id,
        make_error_response(request.id, ErrorCode::kRejectedOverload,
                            queue_.size() + running_ >=
                                    options_.max_queue_depth
                                ? "request queue is full"
                                : "in-flight byte watermark exceeded"));
    return;
  }

  Pending p;
  p.conn_id = conn.id;
  p.id = request.id;
  p.index = request.index;
  p.has_max_steps = request.has_max_steps;
  p.max_steps = request.max_steps;
  p.has_max_paths = request.has_max_paths;
  p.max_paths = request.max_paths;
  p.csv = request.csv;
  p.frame_bytes = frame_bytes;
  p.session = conn.session;
  const double deadline_ms = request.has_deadline
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    p.has_deadline = true;
    p.deadline = clock_type::now() +
                 std::chrono::duration_cast<clock_type::duration>(
                     std::chrono::duration<double, std::milli>(deadline_ms));
  }
  inflight_bytes_ += p.frame_bytes;
  queue_.push_back(std::move(p));
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.admitted;
    counters_.peak_queue_depth = std::max<std::uint64_t>(
        counters_.peak_queue_depth, queue_.size() + running_);
    counters_.peak_inflight_bytes =
        std::max<std::uint64_t>(counters_.peak_inflight_bytes,
                                inflight_bytes_);
  }
}

void Server::release_request(const Pending& p) {
  inflight_bytes_ -= p.frame_bytes;
}

/// Answer queued requests whose deadline passed while waiting for a
/// worker — the "deadline fires between admission and dispatch" window.
/// The poll timeout tracks the earliest queued deadline, so this runs
/// promptly even on an otherwise idle loop.
void Server::sweep_expired() {
  const auto now = clock_type::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (!it->has_deadline || it->deadline > now) {
      ++it;
      continue;
    }
    const Pending p = std::move(*it);
    it = queue_.erase(it);
    release_request(p);
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.expired_queued;
    }
    send_to_conn_id(p.conn_id, p.id,
                    make_error_response(p.id, ErrorCode::kDeadlineExceeded,
                                        "deadline expired while queued"));
  }
}

void Server::try_dispatch() {
  while (running_ < pool_.thread_count() && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    if (p.has_deadline && clock_type::now() >= p.deadline) {
      release_request(p);
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.expired_queued;
      }
      send_to_conn_id(p.conn_id, p.id,
                      make_error_response(p.id, ErrorCode::kDeadlineExceeded,
                                          "deadline expired while queued"));
      continue;
    }
    if (conns_.find(p.conn_id) == conns_.end()) {
      // The connection died while this request waited; running it would
      // only produce an orphan. Counted, never silent.
      release_request(p);
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.orphaned_responses;
      continue;
    }
    try {
      CPS_FAULT_POINT("serve.dispatch");
    } catch (const InjectedFault& e) {
      release_request(p);
      {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.injected_failures;
      }
      send_to_conn_id(p.conn_id, p.id,
                      make_error_response(p.id, ErrorCode::kInjectedFault,
                                          e.what()));
      continue;
    }
    ++running_;
    // The worker thread touches only immutable server state
    // (options_.workload), the thread-safe cache_, its own Pending copy,
    // and the completion queue + wakeup pipe.
    auto task = std::make_shared<Pending>(std::move(p));
    pool_.submit([this, task] {
      Completion done;
      done.conn_id = task->conn_id;
      done.id = task->id;
      done.frame_bytes = task->frame_bytes;
      done.payload = run_request(*task, &done.item_ok);
      {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_.push_back(std::move(done));
      }
      signal_wakeup_pipe(wake_write_.get());
    });
  }
}

std::string Server::run_request(const Pending& p, bool* item_ok) {
  *item_ok = false;
  try {
    BatchConfig config = options_.workload;
    config.cancel = nullptr;
    RunBudget limits;
    if (p.has_max_steps) limits.max_steps = p.max_steps;
    if (p.has_max_paths) {
      limits.max_paths = p.max_paths;
      // A client-bounded path budget asks for graceful degradation: a
      // bounded-coverage result instead of a refusal.
      config.synthesis.on_budget = BudgetAction::kBound;
    }
    config.synthesis.budget =
        (p.has_max_steps || p.has_max_paths) ? &limits : nullptr;
    if (p.has_deadline) {
      const double remaining = ms_until(p.deadline);
      if (remaining <= 0.0) {
        return make_error_response(p.id, ErrorCode::kDeadlineExceeded,
                                   "deadline expired before dispatch");
      }
      config.deadline_ms = remaining;
    } else {
      config.deadline_ms = 0.0;
    }
    // Warm per-session workspaces; the shared_ptr in `p` keeps the pool
    // alive even if the connection died mid-run.
    config.synthesis.workspace_pool = p.session.get();
    // Daemon-wide schedule cache: exact hits replay recorded bytes
    // (including the CSV, which is why the csv out-param overload is used
    // instead of an observer — the engine never runs on a hit).
    config.cache = cache_.get();
    std::string csv;
    const BatchItem item = run_batch_item(config, p.index, nullptr, nullptr,
                                          p.csv ? &csv : nullptr);
    *item_ok = item.ok;
    return make_item_response(p.id, item,
                              p.csv && item.ok ? &csv : nullptr);
  } catch (const std::exception& e) {
    // run_batch_item captures pipeline errors itself; this is the belt
    // for serialization/CSV failures — the request still gets a typed
    // response.
    return make_error_response(p.id, error_code_of(e), e.what());
  }
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    --running_;
    inflight_bytes_ -= done.frame_bytes;
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      if (done.item_ok) {
        ++counters_.completed_ok;
      } else {
        ++counters_.completed_failed;
      }
    }
    send_to_conn_id(done.conn_id, done.id, done.payload);
  }
}

void Server::send_to_conn_id(std::uint64_t conn_id,
                             std::optional<std::uint64_t> id,
                             const std::string& payload) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.orphaned_responses;
    return;
  }
  send_response(it->second, id, payload);
}

void Server::send_response(Conn& conn, std::optional<std::uint64_t> id,
                           const std::string& payload) {
  try {
    CPS_FAULT_POINT("serve.write");
    append_frame(conn.out, payload);
  } catch (const InjectedFault& e) {
    // Egress fault: the response we meant to send is replaced by a typed
    // error frame for the same request id — the client still gets
    // exactly one response and the stream stays framed.
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.injected_failures;
    }
    append_frame(conn.out,
                 make_error_response(id, ErrorCode::kInjectedFault, e.what()));
  }
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.responses_sent;
  }
  write_conn(conn);  // opportunistic flush; POLLOUT handles the rest
}

void Server::write_conn(Conn& conn) {
  while (!conn.dead && conn.out_offset < conn.out.size()) {
    std::size_t n = 0;
    const IoStatus status =
        socket_write(conn.fd.get(), conn.out.data() + conn.out_offset,
                     conn.out.size() - conn.out_offset, &n);
    if (status == IoStatus::kOk) {
      conn.out_offset += n;
      continue;
    }
    if (status == IoStatus::kWouldBlock) return;
    conn.dead = true;  // kClosed / kError: peer is gone
    return;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

std::string Server::make_pong_response(std::uint64_t id) {
  const ServerCounters c = stats();
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("status", "ok");
  w.field("pong", true);
  w.field("draining", draining_);
  w.key("stats").begin_object();
  w.field("admitted", c.admitted);
  w.field("completed_ok", c.completed_ok);
  w.field("completed_failed", c.completed_failed);
  w.field("shed_overload", c.shed_overload);
  w.field("expired_queued", c.expired_queued);
  w.field("peak_queue_depth", c.peak_queue_depth);
  w.field("peak_inflight_bytes", c.peak_inflight_bytes);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Server::make_stats_response(std::uint64_t id) {
  // Built on the event-loop thread (like make_pong_response), so conns_
  // is safe to walk for the per-session workspace-pool aggregate.
  const ServerCounters c = stats();
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("status", "ok");
  w.field("draining", draining_);
  w.key("server").begin_object();
  w.field("connections_accepted", c.connections_accepted);
  w.field("requests_parsed", c.requests_parsed);
  w.field("parse_failures", c.parse_failures);
  w.field("admitted", c.admitted);
  w.field("completed_ok", c.completed_ok);
  w.field("completed_failed", c.completed_failed);
  w.field("shed_overload", c.shed_overload);
  w.field("rejected_draining", c.rejected_draining);
  w.field("expired_queued", c.expired_queued);
  w.field("injected_failures", c.injected_failures);
  w.field("responses_sent", c.responses_sent);
  w.field("orphaned_responses", c.orphaned_responses);
  w.field("peak_queue_depth", c.peak_queue_depth);
  w.field("peak_inflight_bytes", c.peak_inflight_bytes);
  w.end_object();
  w.field("cache_enabled", cache_ != nullptr);
  w.key("cache").begin_object();
  write_cache_stats_json(w, cache_ ? cache_->stats() : ScheduleCacheStats{});
  w.end_object();
  // Aggregate over the *live* sessions (dead connections drop their pool
  // with their last in-flight request; history is not retained).
  WorkspacePool::Stats ws;
  for (const auto& entry : conns_) {
    if (entry.second.session == nullptr) continue;
    const WorkspacePool::Stats s = entry.second.session->stats();
    ws.created += s.created;
    ws.leases += s.leases;
    ws.warm_hits += s.warm_hits;
  }
  w.key("workspace_pool").begin_object();
  w.field("created", static_cast<std::uint64_t>(ws.created));
  w.field("leases", static_cast<std::uint64_t>(ws.leases));
  w.field("warm_hits", static_cast<std::uint64_t>(ws.warm_hits));
  w.end_object();
  const PoolStats rt = pool_.stats();
  w.key("runtime").begin_object();
  w.field("submitted", rt.submitted);
  w.field("executed", rt.executed);
  w.field("local_hits", rt.local_hits);
  w.field("steals", rt.steals);
  w.field("injected", rt.injected);
  w.field("help_runs", rt.help_runs);
  w.end_object();
  w.end_object();
  return w.str();
}

int Server::poll_timeout_ms() const {
  // Sleep until the earliest queued deadline (so expiry answers arrive
  // on time even with every worker busy); otherwise block — wakeups come
  // through the pipe.
  bool any = false;
  double earliest = 0.0;
  for (const Pending& p : queue_) {
    if (!p.has_deadline) continue;
    const double remaining = ms_until(p.deadline);
    if (!any || remaining < earliest) {
      earliest = remaining;
      any = true;
    }
  }
  if (!any) return -1;
  return std::max(0, static_cast<int>(std::ceil(earliest)));
}

void Server::reap_dead_conns() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second.dead) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = none)
  while (true) {
    if (drain_requested_.exchange(false)) begin_drain();
    drain_completions();
    sweep_expired();
    try_dispatch();
    reap_dead_conns();
    if (drained()) break;

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_.get(), POLLIN, 0});
    fd_conn.push_back(0);
    if (options_.signal_fd >= 0) {
      fds.push_back({options_.signal_fd, POLLIN, 0});
      fd_conn.push_back(0);
    }
    if (listener_.valid()) {
      fds.push_back({listener_.fd(), POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& entry : conns_) {
      Conn& conn = entry.second;
      short events = POLLIN;
      if (conn.out_offset < conn.out.size()) events |= POLLOUT;
      fds.push_back({conn.fd.get(), events, 0});
      fd_conn.push_back(conn.id);
    }

    const int ready = ::poll(fds.data(), fds.size(), poll_timeout_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;  // e.g. SIGTERM; the self-pipe wakes us
      throw Error(ErrorCode::kInternal, "poll failed in server loop");
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == wake_read_.get()) {
        drain_wakeup_pipe(wake_read_.get());
        continue;
      }
      if (options_.signal_fd >= 0 && fds[i].fd == options_.signal_fd) {
        drain_wakeup_pipe(options_.signal_fd);
        begin_drain();
        continue;
      }
      if (listener_.valid() && fds[i].fd == listener_.fd()) {
        accept_pending();
        continue;
      }
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        conn.dead = true;
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) write_conn(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) read_conn(conn);
    }
  }
  // Drained: every response flushed; close everything in an orderly way.
  conns_.clear();
  listener_.close();
}

}  // namespace cps
