#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atm/oam.hpp"
#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "reference_table_sim.hpp"
#include "reference_table_validate.hpp"
#include "sched/delay.hpp"
#include "sched/driver.hpp"
#include "sched/table_sim.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::reference_execute_table;
using testing::reference_validate_table;
using testing::small_arch;

class TableSimTest : public ::testing::Test {
 protected:
  TableSimTest() : g_(build_fig1_cpg()), result_(schedule_cpg(g_)) {}

  Cpg g_;
  CoSynthesisResult result_;
};

TEST_F(TableSimTest, ValidTableExecutesCleanlyOnEveryPath) {
  for (const AltPath& path : result_.paths) {
    const TableExecution exec =
        execute_table(result_.flat_graph(), result_.table, path);
    EXPECT_TRUE(exec.ok) << (exec.violations.empty()
                                 ? ""
                                 : exec.violations.front());
    EXPECT_GT(exec.delay, 0);
  }
}

TEST_F(TableSimTest, DelayReportThrowsWhenAPathActivatesNoSinkEntry) {
  // Drop every sink cell the last path's label selects: delay_report reads
  // the sink's row alone and must refuse the table rather than guess.
  const FlatGraph& fg = result_.flat_graph();
  const TaskId sink = fg.sink_task();
  const Cube& victim = result_.paths.back().label;
  ScheduleTable broken(fg);
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    for (const TableEntry& e : result_.table.row(t)) {
      if (t == sink && victim.implies(e.column)) continue;
      broken.add_entry(t, e.column, e.start, e.resource);
    }
  }
  EXPECT_THROW(
      delay_report(fg, result_.paths, result_.path_schedules, broken),
      InternalError);
}

TEST_F(TableSimTest, DelayReportReadsTheFirstMatchingSinkEntry) {
  // On an incoherent sink row (two applicable cells, different times) the
  // report still agrees with the simulator, whose first match decides.
  const FlatGraph& fg = result_.flat_graph();
  const TaskId sink = fg.sink_task();
  ScheduleTable ambiguous(fg);
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    for (const TableEntry& e : result_.table.row(t)) {
      ambiguous.add_entry(t, e.column, e.start, e.resource);
    }
  }
  const CondId c = g_.conditions().id_of("C");
  for (const Cube& column : {Cube::top(), Cube(Literal{c, true})}) {
    ambiguous.add_entry(sink, column, 1000, fg.task(sink).resource);
  }
  ASSERT_GT(ambiguous.row(sink).size(), result_.table.row(sink).size());
  const DelayReport report =
      delay_report(fg, result_.paths, result_.path_schedules, ambiguous);
  for (std::size_t i = 0; i < result_.paths.size(); ++i) {
    EXPECT_EQ(report.path_actual[i],
              execute_table(fg, ambiguous, result_.paths[i]).delay);
  }
}

TEST_F(TableSimTest, MissingActivationIsReported) {
  // Erase one row of a copy of the table: requirement 3 violation.
  ScheduleTable broken(result_.flat_graph());
  const TaskId victim =
      result_.flat_graph().task_of_process(g_.process_by_name("P1"));
  for (TaskId t = 0; t < result_.flat_graph().task_count(); ++t) {
    if (t == victim) continue;
    for (const TableEntry& e : result_.table.row(t)) {
      broken.add_entry(t, e.column, e.start, e.resource);
    }
  }
  const TableExecution exec =
      execute_table(result_.flat_graph(), broken, result_.paths.front());
  EXPECT_FALSE(exec.ok);
  bool mentions_p1 = false;
  for (const auto& v : exec.violations) {
    if (v.find("P1") != std::string::npos) mentions_p1 = true;
  }
  EXPECT_TRUE(mentions_p1);
}

TEST_F(TableSimTest, DependencyViolationIsDetected) {
  // Move a process before its predecessor finishes.
  ScheduleTable broken(result_.flat_graph());
  const TaskId p3 =
      result_.flat_graph().task_of_process(g_.process_by_name("P3"));
  for (TaskId t = 0; t < result_.flat_graph().task_count(); ++t) {
    for (const TableEntry& e : result_.table.row(t)) {
      broken.add_entry(t, e.column, t == p3 ? 0 : e.start, e.resource);
    }
  }
  const TableExecution exec =
      execute_table(result_.flat_graph(), broken, result_.paths.front());
  EXPECT_FALSE(exec.ok);
}

TEST_F(TableSimTest, ValidatorFlagsRequirementViolations) {
  // A hand-built incoherent table: same process, compatible columns,
  // different times (req. 2) and a column that does not imply the guard
  // (req. 1).
  const FlatGraph& fg = result_.flat_graph();
  ScheduleTable broken(fg);
  const CondId c = g_.conditions().id_of("C");
  const TaskId p4 = fg.task_of_process(g_.process_by_name("P4"));
  // P4's guard is C; a 'true' column violates requirement 1 and clashes
  // with a C column at another time (requirement 2).
  broken.add_entry(p4, Cube::top(), 3, 0);
  broken.add_entry(p4, Cube(Literal{c, true}), 9, 0);
  const TableValidation v = validate_table(fg, broken, result_.paths);
  EXPECT_FALSE(v.ok);
  bool req1 = false;
  bool req2 = false;
  for (const auto& msg : v.violations) {
    if (msg.find("req1") != std::string::npos) req1 = true;
    if (msg.find("req2") != std::string::npos) req2 = true;
  }
  EXPECT_TRUE(req1);
  EXPECT_TRUE(req2);
}

TEST_F(TableSimTest, ValidatorAcceptsGeneratedTable) {
  const TableValidation v =
      validate_table(result_.flat_graph(), result_.table, result_.paths);
  EXPECT_TRUE(v.ok);
  EXPECT_TRUE(v.violations.empty());
}

TEST(TableSim, KnowledgeViolationDetected) {
  // A process guarded by C on a remote PE activated before the broadcast
  // can possibly arrive.
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const ProcessId p1 = b.add_process("P1", 0, 4);
  const ProcessId p2 = b.add_process("P2", 1, 2);
  b.add_cond_edge(p1, p2, Literal{c, true}, 2);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);

  // Build a deliberately premature table.
  ScheduleTable premature(fg);
  const CoSynthesisResult good = schedule_cpg(g);
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    for (const TableEntry& e : good.table.row(t)) {
      const bool is_p2 = t == fg.task_of_process(p2);
      premature.add_entry(t, e.column, is_p2 ? 4 : e.start, e.resource);
    }
  }
  bool violation_found = false;
  for (const AltPath& path : paths) {
    if (path.label.value_of(c) != true) continue;
    const TableExecution exec = execute_table(fg, premature, path);
    if (!exec.ok) violation_found = true;
  }
  EXPECT_TRUE(violation_found);
}

// --- Mutual exclusion on hand-built tables ---------------------------------

/// One independent process placed by hand: `name` on `pe` for `duration`,
/// activated unconditionally at `start`.
struct HandSlot {
  std::string name;
  PeId pe;
  Time duration;
  Time start;
};

/// Build a condition-free CPG of the given independent processes on
/// small_arch(), activate each at its start, and execute the table on the
/// single path. Returns the exclusion violations ("... overlap on ...")
/// after checking the whole violation list against the reference.
std::vector<std::string> overlap_violations(
    const std::vector<HandSlot>& slots) {
  CpgBuilder b(small_arch());
  for (const HandSlot& s : slots) b.add_process(s.name, s.pe, s.duration);
  const Cpg g = b.build();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  EXPECT_EQ(paths.size(), 1u);

  ScheduleTable table(fg);
  Time end = 0;
  for (const HandSlot& s : slots) {
    table.add_entry(fg.task_of_process(g.process_by_name(s.name)),
                    Cube::top(), s.start, s.pe);
    end = std::max(end, s.start + s.duration);
  }
  table.add_entry(fg.source_task(), Cube::top(), 0,
                  fg.task(fg.source_task()).resource);
  table.add_entry(fg.sink_task(), Cube::top(), end,
                  fg.task(fg.sink_task()).resource);

  const TableExecution exec = execute_table(fg, table, paths.front());
  EXPECT_EQ(exec.violations,
            reference_execute_table(fg, table, paths.front()).violations);
  std::vector<std::string> out;
  for (const std::string& v : exec.violations) {
    if (v.find(" overlap on ") != std::string::npos) out.push_back(v);
  }
  EXPECT_EQ(exec.ok, exec.violations.empty());
  return out;
}

constexpr PeId kCpu1 = 0;  // small_arch(): cpu1, cpu2, hw, bus
constexpr PeId kHw = 2;

TEST(TableSimExclusion, OverlapOnProcessorIsReportedOnce) {
  EXPECT_EQ(overlap_violations({{"P1", kCpu1, 3, 0}, {"P2", kCpu1, 4, 2}}),
            std::vector<std::string>{"tasks P1 and P2 overlap on cpu1"});
}

TEST(TableSimExclusion, TouchingSlotsDoNotOverlap) {
  EXPECT_TRUE(
      overlap_violations({{"P1", kCpu1, 3, 0}, {"P2", kCpu1, 2, 3}}).empty());
  // Listed the other way round, so the later slot has the lower id.
  EXPECT_TRUE(
      overlap_violations({{"P1", kCpu1, 2, 3}, {"P2", kCpu1, 3, 0}}).empty());
}

TEST(TableSimExclusion, ZeroDurationActivation) {
  // Strictly inside [2, 6): an overlap.
  EXPECT_EQ(overlap_violations({{"P1", kCpu1, 4, 2}, {"Z", kCpu1, 0, 4}}),
            std::vector<std::string>{"tasks P1 and Z overlap on cpu1"});
  EXPECT_EQ(overlap_violations({{"Z", kCpu1, 0, 4}, {"P1", kCpu1, 4, 2}}),
            std::vector<std::string>{"tasks Z and P1 overlap on cpu1"});
  // At the slot's start or end: none, whichever has the lower id.
  EXPECT_TRUE(
      overlap_violations({{"P1", kCpu1, 4, 2}, {"Z", kCpu1, 0, 2}}).empty());
  EXPECT_TRUE(
      overlap_violations({{"Z", kCpu1, 0, 2}, {"P1", kCpu1, 4, 2}}).empty());
  EXPECT_TRUE(
      overlap_violations({{"P1", kCpu1, 4, 2}, {"Z", kCpu1, 0, 6}}).empty());
}

TEST(TableSimExclusion, HardwareRunsInParallel) {
  ASSERT_FALSE(small_arch().pe(kHw).sequential());
  EXPECT_TRUE(
      overlap_violations({{"P1", kHw, 5, 0}, {"P2", kHw, 5, 1}}).empty());
}

TEST(TableSimExclusion, ThreeMutualOverlapsInIdOrder) {
  // Start order is the reverse of id order; the messages still come in
  // (lower id, higher id) order, naming the lower id first.
  EXPECT_EQ(overlap_violations({{"A", kCpu1, 6, 4},
                                {"B", kCpu1, 7, 2},
                                {"C", kCpu1, 8, 0},
                                {"D", kCpu1, 1, 20}}),
            (std::vector<std::string>{"tasks A and B overlap on cpu1",
                                      "tasks A and C overlap on cpu1",
                                      "tasks B and C overlap on cpu1"}));
}

// --- Seeded models: the reference oracle and the delay report -------------

/// Fig. 1, two ATM OAM modes and seeded random CPGs with 2-18 paths over
/// random architectures, all with condition broadcasts on. Each model is
/// co-synthesized and its result handed to `fn`.
void for_each_model(const std::function<void(const CoSynthesisResult&)>& fn) {
  std::vector<std::pair<std::string, std::unique_ptr<Cpg>>> models;
  models.emplace_back("fig1", std::make_unique<Cpg>(build_fig1_cpg()));
  const auto archs = oam_table2_architectures();
  for (const int mode : {1, 3}) {
    models.emplace_back(
        "atm mode " + std::to_string(mode) + " " + archs.back().label(),
        std::make_unique<Cpg>(
            build_oam_mode_cpg(mode, archs.back(), OamMapping{})));
  }
  const std::size_t path_counts[] = {2, 3, 4, 6, 9, 12, 18};
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    Rng rng(seed * 7919);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = 40;
    params.path_count = path_counts[seed - 1];
    models.emplace_back(
        "random seed " + std::to_string(seed),
        std::make_unique<Cpg>(generate_random_cpg(arch, params, rng)));
  }
  for (const auto& [name, g] : models) {
    SCOPED_TRACE(name);
    const CoSynthesisResult r = schedule_cpg(*g);
    EXPECT_TRUE(r.flat_graph().broadcasts_enabled());
    fn(r);
  }
}

TEST(TableSimModels, DelayMatchesDelayReport) {
  for_each_model([](const CoSynthesisResult& r) {
    ASSERT_EQ(r.delays.path_actual.size(), r.paths.size());
    Time delta_max = 0;
    for (std::size_t i = 0; i < r.paths.size(); ++i) {
      const TableExecution exec =
          execute_table(r.flat_graph(), r.table, r.paths[i]);
      EXPECT_TRUE(exec.ok);
      EXPECT_EQ(r.delays.path_actual[i], exec.delay);
      delta_max = std::max(delta_max, exec.delay);
    }
    EXPECT_EQ(r.delays.delta_max, delta_max);
  });
}

/// A structural edit of one seeded cell (see perturb).
enum class ColumnEdit {
  kNone,
  /// Drop one literal of the cell's column: the column may stop implying
  /// the guard (req. 1).
  kDropLiteral,
  /// Leave the cell out: the row may stop covering the guard (req. 3).
  kDropCell,
  /// Put a copy of the cell, its column strengthened by a literal the
  /// column lacks, ahead of the row: the cover is unchanged, but the copy
  /// decides the paths it matches, so its extra condition must be known
  /// by then (req. 4).
  kRedundantCell,
};

/// Copy of `table` with `count` distinct cells' start times shifted by a
/// seeded non-zero offset (clamped at 0). With `clash` set, one seeded row
/// also gains a cell at another time under `true`, `c0` or `!c0`,
/// whichever the row lacks: an ambiguous activation (req. 2) on the paths
/// both cells apply to. `edit` applies to one more seeded cell that it
/// can change; kNone draws nothing for it.
ScheduleTable perturb(const ScheduleTable& table, Rng& rng,
                      std::size_t count, bool clash,
                      ColumnEdit edit = ColumnEdit::kNone) {
  const FlatGraph& fg = table.flat_graph();
  std::vector<std::pair<TaskId, std::size_t>> cells;
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    for (std::size_t i = 0; i < table.row(t).size(); ++i) {
      cells.emplace_back(t, i);
    }
  }
  std::vector<std::pair<TaskId, std::size_t>> editable;
  const std::size_t conditions = fg.cpg().conditions().size();
  for (const auto& [t, i] : cells) {
    const Cube& column = table.row(t)[i].column;
    if (edit == ColumnEdit::kDropCell ||
        (edit == ColumnEdit::kDropLiteral && !column.is_true()) ||
        (edit == ColumnEdit::kRedundantCell && column.size() < conditions)) {
      editable.emplace_back(t, i);
    }
  }
  rng.shuffle(cells);
  cells.resize(std::min(count, cells.size()));
  // The edited cell, and the literal the edit drops or adds.
  std::optional<std::pair<TaskId, std::size_t>> target;
  Literal lit{0, true};
  if (!editable.empty()) {
    target = editable[rng.index(editable.size())];
    const Cube& column = table.row(target->first)[target->second].column;
    if (edit == ColumnEdit::kDropLiteral) {
      const std::vector<Literal> lits = column.literals();
      lit = lits[rng.index(lits.size())];
    } else if (edit == ColumnEdit::kRedundantCell) {
      std::vector<CondId> unmentioned;
      for (CondId c = 0; c < conditions; ++c) {
        if (!column.mentions(c)) unmentioned.push_back(c);
      }
      lit = Literal{unmentioned[rng.index(unmentioned.size())],
                    rng.index(2) == 0};
    }
  }
  ScheduleTable out(fg);
  for (TaskId t = 0; t < fg.task_count(); ++t) {
    const auto& row = table.row(t);
    if (edit == ColumnEdit::kRedundantCell && target && target->first == t) {
      const TableEntry& e = row[target->second];
      out.add_entry(t, *e.column.conjoin(lit), e.start, e.resource);
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      const bool edited = target == std::make_pair(t, i);
      if (edited && edit == ColumnEdit::kDropCell) continue;
      Time start = row[i].start;
      if (std::find(cells.begin(), cells.end(), std::make_pair(t, i)) !=
          cells.end()) {
        Time shift = rng.uniform_int(-20, 19);
        if (shift >= 0) ++shift;
        start = std::max<Time>(0, start + shift);
      }
      const Cube column = edited && edit == ColumnEdit::kDropLiteral
                              ? row[i].column.without(lit.cond)
                              : row[i].column;
      out.add_entry(t, column, start, row[i].resource);
    }
  }
  if (clash) {
    const TaskId t = static_cast<TaskId>(rng.index(fg.task_count()));
    const Time start = rng.uniform_int(0, 60);
    for (const Cube& column : {Cube::top(), Cube(Literal{0, true}),
                               Cube(Literal{0, false})}) {
      if (out.add_entry(t, column, start, fg.task(t).resource) ==
          AddEntryResult::kAdded) {
        break;
      }
    }
  }
  return out;
}

TEST(TableSimModels, PerturbedTablesMatchReference) {
  std::size_t executions = 0;
  std::size_t invalid = 0;
  std::size_t overlaps = 0;
  std::size_t ambiguous = 0;
  Rng rng(20240611);
  for_each_model([&](const CoSynthesisResult& r) {
    const FlatGraph& fg = r.flat_graph();
    for (int trial = 0; trial < 64; ++trial) {
      const ScheduleTable table =
          perturb(r.table, rng, 1 + static_cast<std::size_t>(trial % 2),
                  /*clash=*/trial % 4 == 3);
      for (const AltPath& path : r.paths) {
        const TableExecution got = execute_table(fg, table, path);
        const TableExecution want = reference_execute_table(fg, table, path);
        ASSERT_EQ(got.ok, want.ok);
        ASSERT_EQ(got.delay, want.delay);
        ASSERT_EQ(got.violations, want.violations);
        for (TaskId t = 0; t < fg.task_count(); ++t) {
          const Slot& a = got.schedule.slot(t);
          const Slot& b = want.schedule.slot(t);
          ASSERT_TRUE(a.start == b.start && a.end == b.end &&
                      a.resource == b.resource)
              << fg.task(t).name;
        }
        ++executions;
        if (!got.ok) ++invalid;
        for (const std::string& v : got.violations) {
          if (v.find(" overlap on ") != std::string::npos) ++overlaps;
          if (v.find(" ambiguous ") != std::string::npos) ++ambiguous;
        }
      }
    }
  });
  // The perturbations must exercise both outcomes, the exclusion check and
  // the ambiguity check.
  EXPECT_GT(invalid, 0u);
  EXPECT_LT(invalid, executions);
  EXPECT_GT(overlaps, 0u);
  EXPECT_GT(ambiguous, 0u);
}

/// Guards of several cubes: J joins the C & K arm of a nested condition
/// with the !C arm, so J and its successor A are guarded by C & K | !C.
Cpg multi_cube_guards() {
  CpgBuilder b(small_arch());
  const CondId c = b.add_condition("C");
  const CondId k = b.add_condition("K");
  const ProcessId d = b.add_process("D", 0, 2);
  const ProcessId t = b.add_process("T", 1, 3);
  const ProcessId f = b.add_process("F", 0, 4);
  const ProcessId tk = b.add_process("TK", 1, 2);
  const ProcessId tf = b.add_process("TF", kHw, 1);
  const ProcessId j = b.add_process("J", 0, 2);
  const ProcessId a = b.add_process("A", 1, 1);
  b.add_cond_edge(d, t, Literal{c, true}, 2);
  b.add_cond_edge(d, f, Literal{c, false});
  b.add_cond_edge(t, tk, Literal{k, true});
  b.add_cond_edge(t, tf, Literal{k, false}, 2);
  b.add_edge(tk, j, 2);
  b.add_edge(f, j);
  b.mark_conjunction(j);
  b.add_edge(j, a, 2);
  return b.build();
}

// validate_table decides requirements 1 and 3 on guard masks; the
// reference decides them on the Dnf alone. Their violation lists must be
// identical on tables with one column edit each, over the seeded models,
// a model with multi-cube guards and the 65-condition ladder (past the
// masks).
TEST(TableSimModels, ColumnEditsMatchReferenceValidation) {
  const ColumnEdit edits[] = {ColumnEdit::kDropLiteral, ColumnEdit::kDropCell,
                              ColumnEdit::kRedundantCell};
  std::size_t invalid[3] = {0, 0, 0};
  std::size_t req1 = 0;
  std::size_t req3 = 0;
  std::size_t multi_cube_tasks = 0;
  Rng rng(20261019);
  const auto check = [&](const CoSynthesisResult& r) {
    const FlatGraph& fg = r.flat_graph();
    for (TaskId t = 0; t < fg.task_count(); ++t) {
      if (fg.task(t).guard.cubes().size() > 1) ++multi_cube_tasks;
    }
    for (int trial = 0; trial < 24; ++trial) {
      const ColumnEdit edit = edits[trial % 3];
      const ScheduleTable table =
          perturb(r.table, rng, trial % 4 == 0 ? 1 : 0, false, edit);
      const TableValidation got = validate_table(fg, table, r.paths);
      const TableValidation want =
          reference_validate_table(fg, table, r.paths);
      ASSERT_EQ(got.ok, want.ok);
      ASSERT_EQ(got.violations, want.violations);
      if (!got.ok) ++invalid[trial % 3];
      for (const std::string& v : got.violations) {
        if (edit == ColumnEdit::kDropLiteral && v.rfind("req1:", 0) == 0) {
          ++req1;
        }
        if (edit == ColumnEdit::kDropCell && v.rfind("req3:", 0) == 0) {
          ++req3;
        }
      }
    }
  };
  for_each_model(check);
  const Cpg multi = multi_cube_guards();
  {
    SCOPED_TRACE("multi-cube guards");
    check(schedule_cpg(multi));
  }
  const Cpg ladder = testing::ladder_cpg(65);
  {
    SCOPED_TRACE("65-condition ladder");
    const CoSynthesisResult r = schedule_cpg(ladder);
    EXPECT_FALSE(r.flat_graph().masks_enabled());
    check(r);
  }
  EXPECT_GT(multi_cube_tasks, 0u);
  for (const std::size_t n : invalid) EXPECT_GT(n, 0u);
  EXPECT_GT(req1, 0u);
  EXPECT_GT(req3, 0u);
}

}  // namespace
}  // namespace cps
