// Structural validation of a schedule table against the four coherence
// requirements of paper §3:
//  1. an activation time in a column headed by E exists only if E implies
//     the guard of the process;
//  2. activation times are uniquely determined by the conditions: two
//     cells of one row with different times (or resources) must have
//     incompatible column expressions;
//  3. if the guard of a process becomes true, the process is activated:
//     the disjunction of the columns of its row is equivalent to its
//     guard;
//  4. activations depend only on condition values known, at that moment,
//     on the processing element executing the process (checked per path
//     by the run-time simulator, sched/table_sim.hpp).
//
// Up to 64 conditions, requirements 1 and 3 are decided on the guard's
// cube masks (FlatGraph::guard_info) and the packed column masks. A column
// implies the guard when it implies one of its cubes; only a multi-cube
// guard none of whose cubes the column implies takes the Dnf's Shannon
// expansion. When every cell of a row passes requirement 1, the columns'
// disjunction implies the guard, so requirement 3 reduces to the guard
// implying that disjunction, decided per guard cube by an
// allocation-free Shannon expansion over the column masks. A row that
// fails it, and every row past 64 conditions, is checked with the Dnf
// cover as before, so each violation message comes from one code path.
// tests/reference_table_validate.hpp is the Dnf-only oracle.
#pragma once

#include <string>
#include <vector>

#include "cpg/paths.hpp"
#include "sched/schedule_table.hpp"

namespace cps {

struct TableValidation {
  bool ok = false;
  std::vector<std::string> violations;
};

/// Check requirements 1-3 structurally and requirement 4 (plus physical
/// realizability) by executing the table on every alternative path.
///
/// `complete_coverage` (default) asserts requirement 3 in full: each
/// row's columns must cover the task guard *exactly*. Bounded-coverage
/// tables (BudgetAction::kBound — `paths` is a truncated prefix of the
/// enumeration) pass false: uncovered label combinations legitimately
/// have no entries, so only the containment direction (req1) and the
/// per-covered-path requirements are enforced.
TableValidation validate_table(const FlatGraph& fg,
                               const ScheduleTable& table,
                               const std::vector<AltPath>& paths,
                               bool complete_coverage = true);

}  // namespace cps
