#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cpg/canonical.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "io/cpg_format.hpp"
#include "io/gantt.hpp"
#include "io/table_csv.hpp"
#include "models/fig1.hpp"
#include "sched/driver.hpp"
#include "support/csv.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

constexpr const char* kModel = R"(
@arch
processor p1 1.0
processor p2 2.0
hardware hw
bus b
memory m
tau0 2
@conditions
C
@processes
A p1 4
B p2 6
M m 3
@conjunctions
@edges
A B C 2
A M !C 2
)";

TEST(CpgFormat, ParsesArchitecture) {
  const Cpg g = parse_cpg_string(kModel);
  const Architecture& arch = g.arch();
  EXPECT_EQ(arch.pe_count(), 5u);
  EXPECT_DOUBLE_EQ(arch.pe(arch.id_of("p2")).speed, 2.0);
  EXPECT_EQ(arch.pe(arch.id_of("hw")).kind, PeKind::kHardware);
  EXPECT_EQ(arch.pe(arch.id_of("m")).kind, PeKind::kMemory);
  EXPECT_EQ(arch.cond_broadcast_time(), 2);
}

TEST(CpgFormat, ParsesProcessesAndEdges) {
  const Cpg g = parse_cpg_string(kModel);
  EXPECT_EQ(g.ordinary_process_count(), 3u);
  const Process& a = g.process(g.process_by_name("A"));
  EXPECT_TRUE(a.is_disjunction());
  const Process& b = g.process(g.process_by_name("B"));
  EXPECT_EQ(g.conditions().render(b.guard), "C");
  const Process& m = g.process(g.process_by_name("M"));
  EXPECT_EQ(g.conditions().render(m.guard), "!C");
}

TEST(CpgFormat, CommentsAndBlankLinesIgnored) {
  const Cpg g = parse_cpg_string(
      "# leading comment\n@arch\nprocessor p  # trailing\n\n@processes\n"
      "A p 1\n");
  EXPECT_EQ(g.ordinary_process_count(), 1u);
}

TEST(CpgFormat, RoundTripPreservesTheModel) {
  const Cpg original = build_fig1_cpg();
  const std::string text = write_cpg_string(original);
  const Cpg parsed = parse_cpg_string(text);

  EXPECT_EQ(parsed.ordinary_process_count(),
            original.ordinary_process_count());
  EXPECT_EQ(parsed.conditions().size(), original.conditions().size());
  EXPECT_EQ(parsed.arch().pe_count(), original.arch().pe_count());
  // Guards survive the round trip.
  for (const Process& p : original.processes()) {
    if (p.is_dummy()) continue;
    const Process& q = parsed.process(parsed.process_by_name(p.name));
    EXPECT_TRUE(p.guard.equivalent(q.guard)) << p.name;
    EXPECT_EQ(p.exec_time, q.exec_time);
  }
  // And the schedule of the round-tripped model is identical.
  const CoSynthesisResult a = schedule_cpg(original);
  const CoSynthesisResult b = schedule_cpg(parsed);
  EXPECT_EQ(a.delays.delta_max, b.delays.delta_max);
  EXPECT_EQ(a.delays.delta_m, b.delays.delta_m);
}

TEST(CpgFormat, RoundTripsABenchmarkSizedGraph) {
  // A generated 2,400-process graph survives write + parse: the canonical
  // encoding covers everything that determines a schedule (architecture,
  // processes, edges, buses, guards; not names).
  Rng rng(5);
  const Architecture arch = generate_random_architecture(rng);
  RandomCpgParams params;
  params.process_count = 2400;
  params.path_count = 4;
  const Cpg original = generate_random_cpg(arch, params, rng);
  const Cpg parsed = parse_cpg_string(write_cpg_string(original));
  EXPECT_EQ(parsed.ordinary_process_count(), 2400u);
  EXPECT_EQ(canonical_encoding(parsed), canonical_encoding(original));
}

TEST(CpgFormat, ErrorsAreReportedWithLineNumbers) {
  EXPECT_THROW(parse_cpg_string("processor p\n"), ParseError);  // no section
  EXPECT_THROW(parse_cpg_string("@arch\nrocket p\n"), ParseError);
  EXPECT_THROW(parse_cpg_string("@arch\nprocessor p\n@processes\nA p -3\n"),
               ParseError);
  EXPECT_THROW(parse_cpg_string("@arch\nprocessor p\n@processes\nA p 1\n"
                                "@edges\nA Zed 1\n"),
               ParseError);
  EXPECT_THROW(parse_cpg_string("@bogus\n"), ParseError);
  EXPECT_THROW(parse_cpg_string("@arch\nprocessor p\n@processes\nA p 1\n"
                                "A p 2\n"),
               ParseError);
  EXPECT_THROW(parse_cpg_file("/nonexistent/file.cpg"), ParseError);
}

TEST(CpgFormat, ReservedPoleNamesAreRejected) {
  for (const std::string pole : {"_source", "_sink"}) {
    SCOPED_TRACE(pole);
    try {
      parse_cpg_string("@arch\nprocessor p\n@processes\nA p 1\n" + pole +
                       " p 5\n@edges\nA " + pole + "\n");
      ADD_FAILURE() << "reserved name accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(pole + " is reserved"),
                std::string::npos)
          << e.what();
    }
  }
  // The writer leaves the poles out, so a written graph parses back with
  // them in place.
  const Cpg g = build_fig1_cpg();
  const Cpg parsed = parse_cpg_string(write_cpg_string(g));
  EXPECT_EQ(parsed.process_by_name("_source"), parsed.source());
  EXPECT_EQ(parsed.process_by_name("_sink"), parsed.sink());
  EXPECT_EQ(parsed.ordinary_process_count(), g.ordinary_process_count());
}

TEST(CpgFormat, UnknownConditionInEdge) {
  EXPECT_THROW(
      parse_cpg_string("@arch\nprocessor p\n@processes\nA p 1\nB p 1\n"
                       "@edges\nA B X 1\n"),
      ParseError);
}

TEST(Gantt, RendersResourceRows) {
  const Cpg g = build_fig1_cpg();
  const CoSynthesisResult r = schedule_cpg(g);
  std::ostringstream os;
  GanttOptions opt;
  opt.title = "demo";
  render_gantt(os, r.flat_graph(), r.path_schedules.front(), opt);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("pe1"), std::string::npos);
  EXPECT_NE(s.find("pe2"), std::string::npos);
  EXPECT_NE(s.find("pe4"), std::string::npos);  // the bus carries comms
  EXPECT_NE(s.find("P1"), std::string::npos);
}


TEST(TableCsv, ExportsCellsAndDelays) {
  const Cpg g = build_fig1_cpg();
  const CoSynthesisResult r = schedule_cpg(g);

  std::ostringstream table_os;
  write_table_csv(table_os, r.table);
  const std::string t = table_os.str();
  EXPECT_NE(t.find("task,kind,resource,column,start"), std::string::npos);
  EXPECT_NE(t.find("P1,process,pe1,true,0"), std::string::npos);
  EXPECT_NE(t.find("D,broadcast,pe4,true,6"), std::string::npos);
  // One CSV row per table cell plus the header.
  const auto lines = static_cast<std::size_t>(
      std::count(t.begin(), t.end(), '\n'));
  EXPECT_EQ(lines, r.table.entry_count() + 1);

  std::ostringstream delay_os;
  write_delay_csv(delay_os, r.flat_graph(), r.paths, r.delays);
  const std::string d = delay_os.str();
  EXPECT_NE(d.find("path,optimal_delay,table_delay"), std::string::npos);
  EXPECT_NE(d.find("C & D & K,39,39"), std::string::npos);
}

/// The table rendered cell by cell through CsvWriter, as write_table_csv
/// once did: the oracle of the direct writer.
std::string csv_writer_table(const ScheduleTable& table) {
  const FlatGraph& fg = table.flat_graph();
  const ConditionSet& conds = fg.cpg().conditions();
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"task", "kind", "resource", "column", "start"});
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    const Task& task = fg.task(t);
    const char* kind = task.is_comm()        ? "comm"
                       : task.is_broadcast() ? "broadcast"
                                             : "process";
    for (const TableEntry& e : table.row(t)) {
      csv.cell(task.name)
          .cell(kind)
          .cell(fg.arch().pe(e.resource).name)
          .cell(conds.render(e.column))
          .cell(e.start);
      csv.end_row();
    }
  }
  return os.str();
}

/// Every data row of `csv` splits into exactly 5 RFC-4180 cells.
void expect_five_cells_per_row(const std::string& csv) {
  std::size_t line_start = csv.find('\n') + 1;
  while (line_start < csv.size()) {
    const std::size_t line_end = csv.find('\n', line_start);
    const std::string line = csv.substr(line_start, line_end - line_start);
    std::size_t cells = 1;
    bool quoted = false;
    for (char ch : line) {
      if (ch == '"') quoted = !quoted;
      if (ch == ',' && !quoted) ++cells;
    }
    EXPECT_FALSE(quoted) << line;
    EXPECT_EQ(cells, 5u) << line;
    line_start = line_end + 1;
  }
}

TEST(TableCsv, QuotesTaskAndConditionNamesPerRfc4180) {
  // Task names, PE names and rendered condition columns may contain
  // commas and quotes; cells must come out RFC-4180 quoted so the row
  // structure survives any downstream CSV reader.
  CpgBuilder b(testing::small_arch());
  const CondId c = b.add_condition("C,\"v1\"");
  const ProcessId p1 = b.add_process("prod,main", 0, 2);
  const ProcessId p2 = b.add_process("cons \"fast\"", 1, 6);
  const ProcessId p3 = b.add_process("cons,slow", 1, 2);
  const ProcessId p4 = b.add_process("join", 1, 1);
  b.add_cond_edge(p1, p2, Literal{c, true}, 2);
  b.add_cond_edge(p1, p3, Literal{c, false}, 2);
  b.add_edge(p2, p4);
  b.add_edge(p3, p4);
  b.mark_conjunction(p4);
  const Cpg g = b.build();
  const CoSynthesisResult r = schedule_cpg(g);

  std::ostringstream os;
  write_table_csv(os, r.table);
  const std::string t = os.str();
  EXPECT_EQ(t, csv_writer_table(r.table));
  EXPECT_EQ(table_csv_string(r.table), t);
  // Comma-carrying task name: quoted verbatim.
  EXPECT_NE(t.find("\"prod,main\",process"), std::string::npos);
  // Quote-carrying task name: quotes doubled inside a quoted cell.
  EXPECT_NE(t.find("\"cons \"\"fast\"\"\",process"), std::string::npos);
  // Rendered condition column embeds the condition's comma+quote name.
  EXPECT_NE(t.find("\"C,\"\"v1\"\"\""), std::string::npos);
  expect_five_cells_per_row(t);

  std::ostringstream delay_os;
  write_delay_csv(delay_os, r.flat_graph(), r.paths, r.delays);
  EXPECT_NE(delay_os.str().find("\"C,\"\"v1\"\"\""), std::string::npos);

  // A PE name that needs quotes, and a second condition whose name does
  // not: columns mentioning only K stay bare, columns with C get quoted.
  Architecture arch;
  const PeId cpu1 = arch.add_processor("cpu1");
  const PeId cpu2 = arch.add_processor("cpu,\"2\"");
  arch.add_bus("bus");
  arch.set_cond_broadcast_time(1);
  CpgBuilder b2(arch);
  const CondId c2 = b2.add_condition("C,\"v1\"");
  const CondId k = b2.add_condition("K");
  const ProcessId q1 = b2.add_process("Q1", cpu1, 2);
  const ProcessId q2 = b2.add_process("Q2", cpu2, 3);
  const ProcessId q3 = b2.add_process("Q3", cpu2, 1);
  const ProcessId q4 = b2.add_process("Q4", cpu1, 4);
  const ProcessId q5 = b2.add_process("Q5", cpu2, 2);
  const ProcessId q6 = b2.add_process("Q6", cpu1, 1);
  const ProcessId q7 = b2.add_process("Q7", cpu2, 2);
  b2.add_cond_edge(q1, q2, Literal{k, true}, 2);
  b2.add_cond_edge(q1, q3, Literal{k, false}, 2);
  b2.add_cond_edge(q2, q4, Literal{c2, true}, 2);
  b2.add_cond_edge(q2, q5, Literal{c2, false});
  b2.add_edge(q3, q6, 2);
  b2.add_edge(q4, q7, 3);
  b2.add_edge(q5, q7);
  b2.add_edge(q6, q7, 2);
  b2.mark_conjunction(q7);
  const Cpg g2 = b2.build();
  const CoSynthesisResult r2 = schedule_cpg(g2);
  const std::string t2 = table_csv_string(r2.table);
  EXPECT_EQ(t2, csv_writer_table(r2.table));
  EXPECT_NE(t2.find(",\"cpu,\"\"2\"\"\","), std::string::npos);
  EXPECT_NE(t2.find(",K,"), std::string::npos);
  EXPECT_NE(t2.find(",!K,"), std::string::npos);
  EXPECT_NE(t2.find("\"C,\"\"v1\"\" & K\""), std::string::npos);
  expect_five_cells_per_row(t2);
}

}  // namespace
}  // namespace cps
