// Wire protocol of the co-synthesis service.
//
// Transport: length-prefixed frames (support/frame.hpp) over an AF_UNIX
// stream socket; every frame payload is one JSON document (support/json).
//
// Request:
//   {"id": 7,                // required; client-assigned, echoed back
//    "op": "run",    // "run" (default) | "ping" | "shutdown" | "stats"
//    "index": 7,             // workload item index; defaults to id
//    "deadline_ms": 250.0,   // optional per-request deadline
//    "max_steps": 100000,    // optional engine step budget
//    "max_paths": 64,        // optional path budget -> bounded coverage
//    "csv": true}            // attach the schedule table as CSV
//
// Response (compact, one frame each; exactly one per request):
//   {"id": 7, "status": "ok", "item": {...}}            // run success
//   {"id": 7, "status": "rejected_overload", "error"..} // typed refusal
//   {"id": null, "status": "parse_failed", "error"..}   // unparseable
//   {"id": 3, "status": "ok", "draining": true}         // shutdown ack
//   {"id": 9, "status": "ok", "pong": true, "stats"..}  // ping
//   {"id": 4, "status": "ok", "server".., "cache"..,    // stats: cache +
//    "workspace_pool".., "runtime"..}                   //  pool counters
//
// "item" is byte-for-byte the element run_batch's JSON would contain for
// the same index (timing and the reuse-counter blocks omitted — see
// BatchJsonOptions), which is what makes server responses comparable to
// an offline oracle. A "run" item that failed in the pipeline still gets
// status "ok" at the envelope level only when the item ran; pipeline
// failures surface as status = the item's error code with the item body
// attached, so clients switch on one field either way.
//
// Determinism contract: for a fixed workload definition, the response
// payload for request index i is a pure function of i. Ids are chosen by
// the client; re-sending a request after a reconnect yields the same
// bytes, which is what makes retry-after-disconnect idempotent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sched/batch_driver.hpp"
#include "support/error.hpp"

namespace cps {

enum class RequestOp : std::uint8_t { kRun, kPing, kShutdown, kStats };

/// One parsed request frame. Optional fields keep a has_* flag so the
/// server can distinguish "absent" from "explicit zero" (an explicit
/// zero step budget is a typed refusal, absence means unlimited).
struct ServeRequest {
  std::uint64_t id = 0;
  RequestOp op = RequestOp::kRun;
  std::uint64_t index = 0;
  double deadline_ms = 0.0;
  bool has_deadline = false;
  std::uint64_t max_steps = 0;
  bool has_max_steps = false;
  std::uint64_t max_paths = 0;
  bool has_max_paths = false;
  bool csv = false;
};

/// Parse one request payload. Returns false (with *error filled) on
/// malformed JSON, a missing/invalid id, or an unknown op — the caller
/// answers with a parse_failed response and keeps the connection.
bool parse_serve_request(const std::string& payload, ServeRequest* out,
                         std::string* error);

/// Typed failure/refusal envelope: {"id", "status", "error"}. `id` is
/// omitted as null when the request never yielded one (parse failures).
std::string make_error_response(std::optional<std::uint64_t> id,
                                ErrorCode code, const std::string& message);

/// Envelope around a completed run item. `status` mirrors the item:
/// "ok" (including bounded coverage, which stays ok + item.status) for
/// items that ran to a result, the item's typed error code otherwise.
/// `csv` (optional) attaches the rendered schedule table.
std::string make_item_response(std::uint64_t id, const BatchItem& item,
                               const std::string* csv);

/// Shutdown acknowledgement: {"id", "status": "ok", "draining": true}.
std::string make_drain_response(std::uint64_t id);

/// Serialization options every run response uses (compact; no timing, no
/// reuse-counter blocks — the fields a warm per-session workspace pool or
/// wall clock would perturb). The oracle comparison must use the
/// same options on the run_batch side.
BatchJsonOptions serve_item_json_options();

}  // namespace cps
