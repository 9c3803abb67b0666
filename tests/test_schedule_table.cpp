#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "io/table_render.hpp"
#include "sched/schedule_table.hpp"
#include "support/random.hpp"
#include "test_util.hpp"

namespace cps {
namespace {

using testing::small_arch;

class ScheduleTableTest : public ::testing::Test {
 protected:
  ScheduleTableTest() {
    CpgBuilder b(small_arch());
    c_ = b.add_condition("C");
    p1_ = b.add_process("P1", 0, 2);
    p2_ = b.add_process("P2", 0, 3);
    b.add_cond_edge(p1_, p2_, Literal{c_, true});
    g_ = b.build();
    fg_ = FlatGraph::expand(*g_);
  }

  std::optional<Cpg> g_;
  std::optional<FlatGraph> fg_;
  CondId c_{};
  ProcessId p1_{}, p2_{};

  Cube cube_c(bool v) const { return Cube(Literal{c_, v}); }
};

// Work around optional members in the fixture.
#define G (*g_)
#define FG (*fg_)

TEST_F(ScheduleTableTest, AddAndLookup) {
  ScheduleTable t(FG);
  const TaskId t2 = FG.task_of_process(p2_);
  EXPECT_EQ(t.add_entry(t2, cube_c(true), 5, 0), AddEntryResult::kAdded);
  EXPECT_EQ(t.add_entry(t2, cube_c(true), 5, 0),
            AddEntryResult::kDuplicate);
  EXPECT_EQ(t.add_entry(t2, cube_c(true), 9, 0), AddEntryResult::kClash);
  ASSERT_EQ(t.row(t2).size(), 1u);
  EXPECT_EQ(t.row(t2)[0].start, 5);
}

TEST_F(ScheduleTableTest, ConflictingEntries) {
  ScheduleTable t(FG);
  const TaskId t1 = FG.task_of_process(p1_);
  t.add_entry(t1, Cube::top(), 0, 0);
  // Compatible column, different time -> conflict.
  const auto conflicts = t.conflicting_entries(t1, cube_c(true), 4, 0);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].start, 0);
  // Same decision -> no conflict.
  EXPECT_TRUE(t.conflicting_entries(t1, cube_c(true), 0, 0).empty());
}

TEST_F(ScheduleTableTest, IncompatibleColumnsDoNotConflict) {
  ScheduleTable t(FG);
  const TaskId t2 = FG.task_of_process(p2_);
  t.add_entry(t2, cube_c(true), 5, 0);
  EXPECT_TRUE(t.conflicting_entries(t2, cube_c(false), 9, 0).empty());
}

TEST_F(ScheduleTableTest, ActivationSelectsByLabel) {
  ScheduleTable t(FG);
  const TaskId t2 = FG.task_of_process(p2_);
  t.add_entry(t2, cube_c(true), 7, 0);
  const auto on = t.activation(t2, cube_c(true));
  ASSERT_TRUE(on.has_value());
  EXPECT_EQ(on->start, 7);
  EXPECT_FALSE(t.activation(t2, cube_c(false)).has_value());
}

TEST_F(ScheduleTableTest, AmbiguousActivationIsInternalError) {
  ScheduleTable t(FG);
  const TaskId t2 = FG.task_of_process(p2_);
  // Two compatible columns with different times (a requirement-2
  // violation built by hand).
  t.add_entry(t2, cube_c(true), 7, 0);
  t.add_entry(t2, Cube::top(), 9, 0);
  EXPECT_THROW(t.activation(t2, cube_c(true)), InternalError);
}

TEST_F(ScheduleTableTest, ColumnsSortedBySizeThenValue) {
  ScheduleTable t(FG);
  const TaskId t1 = FG.task_of_process(p1_);
  const TaskId t2 = FG.task_of_process(p2_);
  t.add_entry(t2, cube_c(true), 5, 0);
  t.add_entry(t1, Cube::top(), 0, 0);
  const auto cols = t.columns();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_TRUE(cols[0].is_true());
  EXPECT_EQ(cols[1], cube_c(true));
  EXPECT_EQ(t.entry_count(), 2u);
}

// ---- mask scans vs. cube-API references ------------------------------
//
// The table answers add_entry/matching/conflicting_entries/has_conflict
// by scanning each row's packed column masks; these tests re-derive every
// answer with plain scans over row() through the Cube API and require
// identical results (values *and* order).

using testing::random_cube;

std::vector<TableEntry> matching_scan(const ScheduleTable& t, TaskId task,
                                      const Cube& label) {
  std::vector<TableEntry> out;
  for (const TableEntry& e : t.row(task)) {
    if (label.implies(e.column)) out.push_back(e);
  }
  return out;
}

std::vector<TableEntry> conflicting_scan(const ScheduleTable& t, TaskId task,
                                         const Cube& column, Time start,
                                         PeId resource) {
  std::vector<TableEntry> out;
  for (const TableEntry& e : t.row(task)) {
    if (!e.column.compatible(column)) continue;
    if (e.start == start && e.resource == resource) continue;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const TableEntry& a, const TableEntry& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.resource < b.resource;
            });
  return out;
}

AddEntryResult add_entry_scan_verdict(const ScheduleTable& t, TaskId task,
                                      const Cube& column, Time start,
                                      PeId resource) {
  for (const TableEntry& e : t.row(task)) {
    if (e.column == column) {
      return e.start == start && e.resource == resource
                 ? AddEntryResult::kDuplicate
                 : AddEntryResult::kClash;
    }
  }
  return AddEntryResult::kAdded;
}

TEST_F(ScheduleTableTest, MaskScansMatchCubeReferences) {
  // `shift` 0 exercises the packed mask path; Cube::kPackedBits forces
  // wide columns through the exact fallback.
  for (const CondId shift : {CondId{0}, Cube::kPackedBits}) {
    SCOPED_TRACE("shift=" + std::to_string(shift));
    Rng rng(2024 + shift);
    ScheduleTable t(FG);
    const TaskId task = FG.task_of_process(p1_);
    for (int round = 0; round < 400; ++round) {
      const Cube column = random_cube(rng, 5, shift);
      const Time start = static_cast<Time>(rng.index(6));
      const PeId res = static_cast<PeId>(rng.index(2));
      const AddEntryResult expected =
          add_entry_scan_verdict(t, task, column, start, res);
      EXPECT_EQ(t.add_entry(task, column, start, res), expected);

      const Cube probe = random_cube(rng, 5, shift);
      EXPECT_EQ(t.matching(task, probe), matching_scan(t, task, probe));
      const auto conflicts = t.conflicting_entries(task, probe, start, res);
      EXPECT_EQ(conflicts, conflicting_scan(t, task, probe, start, res));
      EXPECT_EQ(t.has_conflict(task, probe, start, res), !conflicts.empty());
    }
    // A probe that decides nothing the row mentions matches only the
    // unconditional cell.
    EXPECT_EQ(t.matching(task, Cube::top()),
              matching_scan(t, task, Cube::top()));
  }
}

TEST_F(ScheduleTableTest, WideRowKeepsVerdictsAndInsertionOrder) {
  // 243 distinct columns over five conditions (every absent/true/false
  // combination) in one row — far beyond the one cell per merged
  // schedule the merge writes — added in a shuffled order.
  ScheduleTable t(FG);
  const TaskId task = FG.task_of_process(p1_);
  std::vector<Cube> cols;
  for (int code = 0; code < 243; ++code) {
    Cube c;
    for (CondId i = 0, rest = static_cast<CondId>(code); i < 5;
         ++i, rest /= 3) {
      if (rest % 3 != 0) c = *c.conjoin(Literal{i, rest % 3 == 1});
    }
    cols.push_back(c);
  }
  Rng rng(7);
  for (std::size_t i = cols.size(); i > 1; --i) {
    std::swap(cols[i - 1], cols[rng.index(i)]);
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(t.add_entry(task, cols[i], static_cast<Time>(i), 0),
              AddEntryResult::kAdded);
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Time start = static_cast<Time>(i);
    EXPECT_EQ(t.add_entry(task, cols[i], start, 0),
              AddEntryResult::kDuplicate);
    EXPECT_EQ(t.add_entry(task, cols[i], start + 1, 0),
              AddEntryResult::kClash);
    EXPECT_EQ(t.add_entry(task, cols[i], start, 1), AddEntryResult::kClash);
  }
  const auto& row = t.row(task);
  ASSERT_EQ(row.size(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(row[i], (TableEntry{cols[i], static_cast<Time>(i), 0}));
  }
}

TEST_F(ScheduleTableTest, RenderShowsRowsAndColumns) {
  ScheduleTable t(FG);
  t.add_entry(FG.task_of_process(p1_), Cube::top(), 0, 0);
  t.add_entry(FG.task_of_process(p2_), cube_c(true), 4, 0);
  std::ostringstream os;
  render_schedule_table(os, t);
  const std::string s = os.str();
  EXPECT_NE(s.find("P1"), std::string::npos);
  EXPECT_NE(s.find("P2"), std::string::npos);
  EXPECT_NE(s.find("C"), std::string::npos);
  EXPECT_NE(s.find("4"), std::string::npos);
}

#undef G
#undef FG

}  // namespace
}  // namespace cps
