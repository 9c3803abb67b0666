#include "support/csv.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace cps {

bool csv_needs_quotes(std::string_view field) {
  return std::any_of(field.begin(), field.end(), [](char c) {
    return c == ',' || c == '"' || c == '\n' || c == '\r';
  });
}

void append_csv_doubled(std::string& out, std::string_view field) {
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
}

void append_csv_field(std::string& out, std::string_view field) {
  if (!csv_needs_quotes(field)) {
    out += field;
    return;
  }
  out += '"';
  append_csv_doubled(out, field);
  out += '"';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    append_csv_field(line, fields[i]);
  }
  line += '\n';
  os_ << line;
}

CsvWriter& CsvWriter::cell(const std::string& value) {
  pending_.push_back(value);
  return *this;
}

CsvWriter& CsvWriter::cell(std::int64_t value) {
  pending_.push_back(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::cell(double value, int decimals) {
  pending_.push_back(format_double(value, decimals));
  return *this;
}

void CsvWriter::end_row() {
  row(pending_);
  pending_.clear();
}

}  // namespace cps
