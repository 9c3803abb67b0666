// condsched_served — the long-lived co-synthesis daemon.
//
// Binds an AF_UNIX socket, serves length-prefixed JSON requests (see
// src/serve/protocol.hpp for the schema), and exits 0 after a graceful
// drain: SIGTERM/SIGINT or a "shutdown" request stops the listener,
// finishes (or deadlines out) the admitted work, flushes every response,
// and returns. The workload flags mirror bench_batch_throughput so the
// daemon, the offline oracle, and the load generator share one workload
// definition: request index i answers exactly run_batch_item(workload, i).
#include <iostream>

#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/signals.hpp"

int main(int argc, char** argv) try {
  using namespace cps;
  CliParser cli("long-lived co-synthesis service daemon");
  cli.add_flag("socket", "", "AF_UNIX socket path to bind (required)");
  cli.add_flag("threads", "0", "request workers (0 = hardware)");
  cli.add_flag("max-queue-depth", "64",
               "admission bound on queued + running requests");
  cli.add_flag("max-inflight-bytes", "4194304",
               "admission watermark on summed request-frame bytes");
  cli.add_flag("default-deadline-ms", "0",
               "deadline for requests without their own (0 = none)");
  cli.add_flag("overload", "shed-oldest",
               "overload policy: shed-oldest | reject-newest");
  cli.add_flag("no-cache", "false",
               "disable the daemon-wide schedule cache");
  cli.add_flag("cache-dir", "",
               "persistent schedule-cache directory (empty = memory only)");
  cli.add_flag("cache-entries", "4096",
               "in-memory exact-tier entry bound (whole-tier reset)");
  cli.add_flag("cache-store-entries", "4096",
               "persistent-tier entry bound (deterministic eviction)");
  // Workload definition (same knobs as bench_batch_throughput).
  cli.add_flag("nodes", "60", "processes per generated graph");
  cli.add_flag("paths", "10", "alternative paths per generated graph");
  cli.add_flag("seed", "1", "base random seed (request index offsets it)");
  if (!cli.parse(argc, argv)) return 0;

  ServerOptions options;
  options.socket_path = cli.get_string("socket");
  if (options.socket_path.empty()) {
    std::cerr << "error: --socket PATH is required\n";
    return 1;
  }
  options.threads = cli.get_count("threads", 0);
  options.max_queue_depth = cli.get_count("max-queue-depth", 1);
  options.max_inflight_bytes = cli.get_count("max-inflight-bytes", 1);
  options.default_deadline_ms =
      static_cast<double>(cli.get_count("default-deadline-ms", 0));
  const std::string overload = cli.get_string("overload");
  if (overload == "shed-oldest") {
    options.overload = OverloadPolicy::kShedOldest;
  } else if (overload == "reject-newest") {
    options.overload = OverloadPolicy::kRejectNewest;
  } else {
    std::cerr << "unknown --overload value: " << overload << '\n';
    return 1;
  }

  options.enable_cache = !cli.get_bool("no-cache");
  options.cache.store_dir = cli.get_string("cache-dir");
  options.cache.max_entries = cli.get_count("cache-entries", 1);
  options.cache.store_max_entries = cli.get_count("cache-store-entries", 1);

  options.workload.base_seed =
      static_cast<std::uint64_t>(cli.get_count("seed", 0));
  options.workload.cpg.process_count = cli.get_count("nodes", 1);
  options.workload.cpg.path_count = cli.get_count("paths", 1);

  // SIGTERM/SIGINT become a readable fd the event loop polls; the drain
  // path is the same one a "shutdown" request takes.
  SignalDrain drain{SIGTERM, SIGINT};
  options.signal_fd = drain.fd();

  Server server(std::move(options));
  std::cerr << "condsched_served: listening on " << server.socket_path()
            << " (dispatch width " << server.dispatch_width() << ")\n";
  server.run();

  const ServerCounters c = server.stats();
  std::cerr << "condsched_served: drained; admitted=" << c.admitted
            << " ok=" << c.completed_ok << " failed=" << c.completed_failed
            << " shed=" << c.shed_overload
            << " expired_queued=" << c.expired_queued
            << " rejected_draining=" << c.rejected_draining
            << " orphaned=" << c.orphaned_responses << '\n';
  return 0;
} catch (const cps::ParseError& e) {
  std::cerr << e.what() << '\n';
  return 1;
} catch (const std::exception& e) {
  std::cerr << "condsched_served: fatal: " << e.what() << '\n';
  return 1;
}
