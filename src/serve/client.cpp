#include "serve/client.hpp"

#include "support/error.hpp"
#include "support/json.hpp"

namespace cps {

ServeClient::ServeClient(const std::string& path, double recv_timeout_s)
    : fd_(unix_connect(path)) {
  if (recv_timeout_s > 0.0) set_recv_timeout(fd_.get(), recv_timeout_s);
}

bool ServeClient::send(const std::string& payload) {
  if (!fd_.valid()) return false;
  std::string frame;
  append_frame(frame, payload);
  if (!write_all(fd_.get(), frame.data(), frame.size())) {
    fd_.reset();
    return false;
  }
  return true;
}

std::optional<std::string> ServeClient::recv() {
  if (!fd_.valid()) return std::nullopt;
  while (true) {
    if (std::optional<std::string> frame = decoder_.next()) return frame;
    if (decoder_.corrupt()) {
      throw Error(ErrorCode::kParseFailed,
                  "corrupt frame stream from server");
    }
    char buffer[4096];
    std::size_t n = 0;
    const IoStatus status = socket_read(fd_.get(), buffer, sizeof(buffer), &n);
    if (status == IoStatus::kOk) {
      if (!decoder_.feed(buffer, n)) {
        throw Error(ErrorCode::kParseFailed,
                    "corrupt frame stream from server");
      }
      continue;
    }
    if (status == IoStatus::kWouldBlock) return std::nullopt;  // SO_RCVTIMEO
    fd_.reset();  // kClosed / kError
    return std::nullopt;
  }
}

bool ServeClient::send_run(std::uint64_t id,
                           std::optional<std::uint64_t> index,
                           double deadline_ms, bool csv) {
  return send(make_run_request(id, index, deadline_ms, csv));
}

std::string make_run_request(std::uint64_t id,
                             std::optional<std::uint64_t> index,
                             double deadline_ms, bool csv) {
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("op", "run");
  if (index.has_value()) w.field("index", *index);
  if (deadline_ms > 0.0) w.field("deadline_ms", deadline_ms);
  if (csv) w.field("csv", true);
  w.end_object();
  return w.str();
}

}  // namespace cps
