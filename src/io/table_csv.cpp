#include "io/table_csv.hpp"

#include <charconv>

#include "support/csv.hpp"

namespace cps {

namespace {

/// Condition names as they appear inside a column cell. Cube::append_to
/// renders the column ("true", or literals joined by " & " with "!" for
/// negation), which needs quotes iff one of its names does, so each name
/// is escaped once.
class ColumnWriter {
 public:
  explicit ColumnWriter(const ConditionSet& conds)
      : text_(conds.size()), quoted_(conds.size()) {
    for (CondId c = 0; c < conds.size(); ++c) {
      quoted_[c] = csv_needs_quotes(conds.name(c)) ? 1 : 0;
      if (quoted_[c]) {
        append_csv_doubled(text_[c], conds.name(c));
      } else {
        text_[c] = conds.name(c);
      }
    }
  }

  /// Append `column` as one cell, the bytes of
  /// append_csv_field(out, conds.render(column)).
  void append(std::string& out, const Cube& column) const {
    bool quote = false;
    column.for_each([&](Literal l) { quote = quote || quoted_[l.cond]; });
    if (quote) out += '"';
    column.append_to(out, [this](CondId c) -> const std::string& {
      return text_[c];
    });
    if (quote) out += '"';
  }

 private:
  std::vector<std::string> text_;
  std::vector<char> quoted_;
};

}  // namespace

void write_table_csv(std::ostream& os, const ScheduleTable& table) {
  os << table_csv_string(table);
}

std::string table_csv_string(const ScheduleTable& table) {
  const FlatGraph& fg = table.flat_graph();
  const ColumnWriter columns(fg.cpg().conditions());
  // "<resource>," per PE, escaped once.
  std::vector<std::string> resources(fg.arch().pe_count());
  for (PeId r = 0; r < resources.size(); ++r) {
    append_csv_field(resources[r], fg.arch().pe(r).name);
    resources[r] += ',';
  }

  std::string out = "task,kind,resource,column,start\n";
  std::string prefix;  // "<task>,<kind>," of the current row
  char start[24];
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    const std::vector<TableEntry>& row = table.row(t);
    if (row.empty()) continue;
    const Task& task = fg.task(t);
    prefix.clear();
    append_csv_field(prefix, task.name);
    prefix += task.is_comm()        ? ",comm,"
              : task.is_broadcast() ? ",broadcast,"
                                    : ",process,";
    for (const TableEntry& e : row) {
      out += prefix;
      out += resources[e.resource];
      columns.append(out, e.column);
      out += ',';
      const std::to_chars_result end =
          std::to_chars(start, start + sizeof(start), e.start);
      out.append(start, end.ptr);
      out += '\n';
    }
  }
  out.shrink_to_fit();
  return out;
}

void write_delay_csv(std::ostream& os, const FlatGraph& fg,
                     const std::vector<AltPath>& paths,
                     const DelayReport& report) {
  CPS_REQUIRE(paths.size() == report.path_optimal.size() &&
                  paths.size() == report.path_actual.size(),
              "paths/report size mismatch");
  const ConditionSet& conds = fg.cpg().conditions();
  CsvWriter csv(os);
  csv.row({"path", "optimal_delay", "table_delay"});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    csv.cell(conds.render(paths[i].label))
        .cell(report.path_optimal[i])
        .cell(report.path_actual[i]);
    csv.end_row();
  }
}

}  // namespace cps
