#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string_view>
#include <system_error>

#include "support/error.hpp"

namespace cps {

bool JsonWriter::write_output(const std::string& path,
                              const std::string& payload) {
  if (path == "-") {
    std::cout << payload;
    return true;
  }
  std::ofstream out(path);
  out << payload;
  out.close();
  if (!out) {
    std::cerr << "error: could not write " << path << '\n';
    return false;
  }
  std::cerr << "wrote " << path << '\n';
  return true;
}

namespace {

/// Append `s` to `out` with JSON string escaping (quotes not included).
/// Runs of bytes that need no escape are copied in bulk.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(code, sizeof(code));
      }
    }
  }
  out.append(run, static_cast<std::size_t>(end - run));
}

}  // namespace

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void JsonWriter::comma_and_newline() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_member_.back()) out_ += ',';
  has_member_.back() = true;
  if (indent_ > 0 && depth_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
  }
}

void JsonWriter::open(char c) {
  comma_and_newline();
  CPS_REQUIRE(depth_ < 128, "JsonWriter: nesting too deep");
  out_ += c;
  ++depth_;
  has_member_.push_back(false);
}

void JsonWriter::close(char c) {
  CPS_REQUIRE(depth_ > 0, "JsonWriter: unbalanced close");
  const bool had_members = has_member_.back();
  has_member_.pop_back();
  --depth_;
  if (indent_ > 0 && had_members) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
  }
  out_ += c;
}

JsonWriter& JsonWriter::begin_object() {
  open('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma_and_newline();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  comma_and_newline();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  return string_value(v);
}

JsonWriter& JsonWriter::value(const char* v) { return string_value(v); }

JsonWriter& JsonWriter::string_value(std::string_view v) {
  comma_and_newline();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::write_int(std::int64_t v) {
  comma_and_newline();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::write_uint(std::uint64_t v) {
  comma_and_newline();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  comma_and_newline();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_newline();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_and_newline();
  out_ += "null";
  return *this;
}

// ----------------------------------------------------------- JsonValue --

struct JsonValue::Parser {
  /// Containers nest by recursion; bound the depth so corrupt input (a
  /// truncated file of '[' bytes, say) raises ParseError instead of
  /// overflowing the stack.
  static constexpr int kMaxDepth = 256;

  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos) +
                     ": " + message);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + text[pos] + "'");
    }
    ++pos;
  }

  bool consume_keyword(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text.compare(pos, len, word) != 0) return false;
    pos += len;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (the writer only emits
          // \u00xx control escapes; surrogate pairs are out of scope).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue out;
    if (c == '{') {
      if (++depth > kMaxDepth) fail("nesting too deep");
      ++pos;
      out.kind_ = Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos;
        --depth;
        return out;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        out.members_.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        --depth;
        return out;
      }
    }
    if (c == '[') {
      if (++depth > kMaxDepth) fail("nesting too deep");
      ++pos;
      out.kind_ = Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos;
        --depth;
        return out;
      }
      while (true) {
        out.items_.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        --depth;
        return out;
      }
    }
    if (c == '"') {
      out.kind_ = Kind::kString;
      out.string_ = parse_string();
      return out;
    }
    if (consume_keyword("true")) {
      out.kind_ = Kind::kBool;
      out.bool_ = true;
      return out;
    }
    if (consume_keyword("false")) {
      out.kind_ = Kind::kBool;
      out.bool_ = false;
      return out;
    }
    if (consume_keyword("null")) return out;
    // Number.
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
            text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) fail("unexpected character");
    const std::string token = text.substr(start, pos - start);
#if defined(__cpp_lib_to_chars)
    // Locale-independent: '.' is the decimal separator regardless of the
    // process locale (std::stod would reject "1.5" under e.g. de_DE).
    const char* token_end = token.data() + token.size();
    const auto [parse_end, ec] =
        std::from_chars(token.data(), token_end, out.number_);
    if (ec != std::errc() || parse_end != token_end) {
      fail("malformed number '" + token + "'");
    }
#else
    std::size_t used = 0;
    try {
      out.number_ = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("malformed number '" + token + "'");
    }
    if (used != token.size()) fail("malformed number '" + token + "'");
#endif
    out.kind_ = Kind::kNumber;
    return out;
  }
};

JsonValue JsonValue::parse(const std::string& text) {
  Parser parser{text};
  JsonValue out = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) parser.fail("trailing content");
  return out;
}

JsonValue JsonValue::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot read JSON file: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse(text);
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw ParseError("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw ParseError("JSON value is not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw ParseError("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw ParseError("JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) {
    throw ParseError("JSON value is not an object");
  }
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* found = find(key);
  if (found == nullptr) {
    throw ParseError("missing JSON object member: " + key);
  }
  return *found;
}

}  // namespace cps
