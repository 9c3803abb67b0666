// Minimal deterministic JSON writer and a small recursive-descent reader.
//
// The batch experiment driver emits machine-readable results consumed by
// the benchmark harness and external tooling; determinism ("same seed,
// byte-identical output") is part of the contract, so numbers are
// formatted with fixed rules (no locale, fixed precision for doubles) and
// keys appear exactly in emission order. JsonValue parses those files back
// (e.g. the committed BENCH_baseline.json the perf benches compare
// against) — it accepts any standard JSON, not just our own output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cps {

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 renders compact single-line.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or container.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  /// Any integer type (dispatches on signedness; covers std::size_t on
  /// every platform without overload ambiguity).
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& value(T v) {
    if constexpr (std::is_signed_v<T>) {
      return write_int(static_cast<std::int64_t>(v));
    } else {
      return write_uint(static_cast<std::uint64_t>(v));
    }
  }
  /// Fixed "%.6f" rendering (deterministic); non-finite values render as
  /// null per JSON rules.
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a pre-serialized JSON value verbatim in value position (after
  /// a key, or as an array element) — for embedding a document rendered
  /// by another writer (e.g. a batch item inside a service response). The
  /// caller vouches that `json` is valid and matches this writer's indent
  /// style; nothing is re-validated.
  JsonWriter& raw(const std::string& json);

  /// key(k) + value(v) in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

  /// JSON string escaping (quotes not included).
  static std::string escape(const std::string& s);

  /// Write `payload` to `path`, with "-" meaning stdout. Returns false
  /// (after printing to stderr) when the file cannot be written.
  static bool write_output(const std::string& path,
                           const std::string& payload);

 private:
  JsonWriter& string_value(std::string_view v);
  JsonWriter& write_int(std::int64_t v);
  JsonWriter& write_uint(std::uint64_t v);
  void comma_and_newline();
  void open(char c);
  void close(char c);

  std::string out_;
  int indent_ = 2;
  int depth_ = 0;
  // Whether the current container already holds a member (one flag per
  // nesting level).
  std::vector<bool> has_member_{false};
  bool after_key_ = false;
};

/// Parsed JSON document. Throws cps::ParseError on malformed input or on
/// accessing a value as the wrong kind. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a complete JSON document (trailing garbage is an error).
  static JsonValue parse(const std::string& text);

  /// parse() over the contents of `path`; ParseError if unreadable.
  static JsonValue parse_file(const std::string& path);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array elements (ParseError unless an array).
  const std::vector<JsonValue>& items() const;

  /// Object members in document order (ParseError unless an object).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// Object member lookup; ParseError when absent.
  const JsonValue& at(const std::string& key) const;

 private:
  struct Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace cps
