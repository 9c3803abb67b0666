// Blocking client for the co-synthesis service — the counterpart the
// tests, the load generator, and the --server bench mode all share. One
// ServeClient is one connection; it is deliberately synchronous (send a
// frame, read a frame) because callers that want concurrency run one
// client per thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/protocol.hpp"
#include "support/frame.hpp"
#include "support/socket.hpp"

namespace cps {

class ServeClient {
 public:
  /// Connect to the daemon at `path`. `recv_timeout_s` bounds every
  /// recv() wait (0 = wait forever). Throws Error when the socket does
  /// not exist or refuses the connection.
  explicit ServeClient(const std::string& path, double recv_timeout_s = 60.0);

  ServeClient(ServeClient&&) noexcept = default;
  ServeClient& operator=(ServeClient&&) noexcept = default;

  /// Frame and send one request payload. Returns false when the peer
  /// closed the connection (a draining daemon does this after the last
  /// flushed response).
  bool send(const std::string& payload);

  /// Block for the next response frame. nullopt on orderly EOF or
  /// receive timeout; throws Error on a corrupt stream.
  std::optional<std::string> recv();

  /// send() a "run" request built from the parts. Convenience for tests
  /// and the load generator; callers needing max_steps build their own
  /// JSON.
  bool send_run(std::uint64_t id, std::optional<std::uint64_t> index =
                                      std::nullopt,
                double deadline_ms = 0.0, bool csv = false);

  bool connected() const { return fd_.valid(); }

 private:
  UnixFd fd_;
  FrameDecoder decoder_;
};

/// Build the JSON payload of a "run" request (shared by send_run and the
/// load generator's open-loop writer).
std::string make_run_request(std::uint64_t id,
                             std::optional<std::uint64_t> index,
                             double deadline_ms, bool csv = false);

}  // namespace cps
