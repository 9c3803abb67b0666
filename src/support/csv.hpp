// Minimal CSV writer for experiment output (RFC 4180 quoting).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cps {

// RFC 4180 quoting, the rule CsvWriter applies to every field: a field is
// quoted iff it holds a comma, quote, CR or LF, and quotes inside a quoted
// field are doubled.
bool csv_needs_quotes(std::string_view field);
/// Append `field` with its quotes doubled (the inside of a quoted field).
void append_csv_doubled(std::string& out, std::string_view field);
/// Append `field` to `out` as one cell, quoted iff csv_needs_quotes.
void append_csv_field(std::string& out, std::string_view field);

/// Streams rows of a CSV file, quoting fields only when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Write a header or data row from pre-rendered fields.
  void row(const std::vector<std::string>& fields);

  /// Fluent per-cell interface: writer.cell(a).cell(b).end_row();
  CsvWriter& cell(const std::string& value);
  CsvWriter& cell(std::int64_t value);
  CsvWriter& cell(double value, int decimals = 6);
  void end_row();

 private:
  std::ostream& os_;
  std::vector<std::string> pending_;
};

}  // namespace cps
