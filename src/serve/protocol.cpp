#include "serve/protocol.hpp"

#include <cmath>

#include "support/json.hpp"

namespace cps {

namespace {

/// Read a JSON number member as a non-negative integer; false when it is
/// negative, fractional, or not a number at all.
bool read_uint(const JsonValue& v, std::uint64_t* out, std::string* error,
               const char* name) {
  if (v.kind() != JsonValue::Kind::kNumber) {
    *error = std::string(name) + " must be a number";
    return false;
  }
  const double d = v.as_number();
  if (d < 0.0 || d != std::floor(d)) {
    *error = std::string(name) + " must be a non-negative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(d);
  return true;
}

}  // namespace

bool parse_serve_request(const std::string& payload, ServeRequest* out,
                         std::string* error) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(payload);
  } catch (const ParseError& e) {
    *error = e.what();
    return false;
  }
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  const JsonValue* id = doc.find("id");
  if (id == nullptr) {
    *error = "request is missing \"id\"";
    return false;
  }
  if (!read_uint(*id, &out->id, error, "id")) return false;

  out->index = out->id;  // default: item index == request id
  if (const JsonValue* op = doc.find("op")) {
    if (op->kind() != JsonValue::Kind::kString) {
      *error = "op must be a string";
      return false;
    }
    const std::string& name = op->as_string();
    if (name == "run") {
      out->op = RequestOp::kRun;
    } else if (name == "ping") {
      out->op = RequestOp::kPing;
    } else if (name == "shutdown") {
      out->op = RequestOp::kShutdown;
    } else if (name == "stats") {
      out->op = RequestOp::kStats;
    } else {
      *error = "unknown op \"" + name + "\"";
      return false;
    }
  }
  if (const JsonValue* index = doc.find("index")) {
    if (!read_uint(*index, &out->index, error, "index")) return false;
  }
  if (const JsonValue* deadline = doc.find("deadline_ms")) {
    if (deadline->kind() != JsonValue::Kind::kNumber) {
      *error = "deadline_ms must be a number";
      return false;
    }
    out->deadline_ms = deadline->as_number();
    out->has_deadline = true;
  }
  if (const JsonValue* steps = doc.find("max_steps")) {
    if (!read_uint(*steps, &out->max_steps, error, "max_steps")) return false;
    out->has_max_steps = true;
  }
  if (const JsonValue* paths = doc.find("max_paths")) {
    if (!read_uint(*paths, &out->max_paths, error, "max_paths")) return false;
    out->has_max_paths = true;
  }
  if (const JsonValue* csv = doc.find("csv")) {
    if (csv->kind() != JsonValue::Kind::kBool) {
      *error = "csv must be a boolean";
      return false;
    }
    out->csv = csv->as_bool();
  }
  return true;
}

std::string make_error_response(std::optional<std::uint64_t> id,
                                ErrorCode code, const std::string& message) {
  JsonWriter w(0);
  w.begin_object();
  if (id.has_value()) {
    w.field("id", *id);
  } else {
    w.key("id").null();
  }
  w.field("status", to_string(code));
  w.field("error", message);
  w.end_object();
  return w.str();
}

std::string make_item_response(std::uint64_t id, const BatchItem& item,
                               const std::string* csv) {
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  // Envelope status: "ok" whenever the item produced a result (bounded
  // coverage included — the item body carries its own status field);
  // otherwise the item's typed failure code, so a client never has to
  // open the item to learn the outcome.
  w.field("status", item.ok ? "ok" : to_string(item.code));
  w.key("item").raw(batch_item_to_json(item, serve_item_json_options()));
  if (csv != nullptr) w.field("table_csv", *csv);
  w.end_object();
  return w.str();
}

std::string make_drain_response(std::uint64_t id) {
  JsonWriter w(0);
  w.begin_object();
  w.field("id", id);
  w.field("status", "ok");
  w.field("draining", true);
  w.end_object();
  return w.str();
}

BatchJsonOptions serve_item_json_options() {
  BatchJsonOptions options;
  options.include_timing = false;
  options.include_reuse_counters = false;
  options.include_items = true;
  options.indent = 0;
  return options;
}

}  // namespace cps
