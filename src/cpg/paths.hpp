// Alternative-path enumeration (paper §4).
//
// At every execution, the conditions select one subgraph G_k of the CPG.
// An AltPath records the label L_k (the cube of condition values actually
// encountered) and the set of processes active on the path. The number of
// AltPaths is N_alt.
//
// N_alt grows exponentially with the number of independent conditions, so
// the core enumerator is *streaming*: PathEnumerator walks the condition
// decision tree with an explicit stack (O(depth) live state) and produces
// one leaf per next() call. Nothing is materialized up front — a caller
// can count paths, take the first k, or abort at a budget without ever
// holding 2^n labels in memory. enumerate_paths() remains as the
// drain-everything convenience used when the full set is needed anyway
// (per-path scheduling + merging).
#pragma once

#include <optional>
#include <vector>

#include "cond/assignment.hpp"
#include "cpg/cpg.hpp"

namespace cps {

struct AltPath {
  /// Conjunction of the values of every condition whose disjunction
  /// process executes on this path (the label L_k).
  Cube label;
  /// Per-process activation flags (indexed by ProcessId).
  std::vector<bool> active;

  /// Any complete assignment consistent with the label (don't-care
  /// conditions are set to false).
  Assignment representative(std::size_t universe_size) const {
    return Assignment::from_cube(label, universe_size);
  }
};

/// Streaming depth-first walk of the condition decision tree. Emission
/// order is deterministic and identical to the historical recursive
/// enumeration: conditions expand smallest-id first, true branch before
/// false branch. The union of the emitted labels covers every assignment;
/// labels are pairwise incompatible. The Cpg must outlive the enumerator.
class PathEnumerator {
 public:
  explicit PathEnumerator(const Cpg& g);

  /// Next alternative path, or nullopt when the walk is exhausted. Each
  /// call does O(processes * conditions) work for the leaf it produces.
  std::optional<AltPath> next();

  /// Paths emitted so far.
  std::size_t produced() const { return produced_; }

 private:
  const Cpg* g_;
  /// Pending decision-tree contexts; the back is expanded next. Holds at
  /// most one untaken sibling per tree level, so the stack stays
  /// O(#conditions) even when the leaf count is exponential.
  std::vector<Cube> stack_;
  std::size_t produced_ = 0;
};

/// Packed per-path label masks, one (pos, neg) word pair per AltPath.
/// The merge's reachability and conflict-set walks test thousands of
/// label/context pairs; with the masks in two contiguous arrays each test
/// is two AND/CMP pairs over hot cache lines. `narrow` is false when some
/// label mentions a condition id >= Cube::kPackedBits — consumers must
/// then fall back to the exact Cube operations.
struct PathLabelMasks {
  std::vector<std::uint64_t> pos;
  std::vector<std::uint64_t> neg;
  bool narrow = true;

  std::size_t size() const { return pos.size(); }

  /// Mask test for `labels[i].compatible(context)` (valid when narrow and
  /// the context itself is narrow).
  bool compatible(std::size_t i, std::uint64_t ctx_pos,
                  std::uint64_t ctx_neg) const {
    return (pos[i] & ctx_neg) == 0 && (neg[i] & ctx_pos) == 0;
  }
};

/// Collect the packed label masks of a path set.
PathLabelMasks collect_label_masks(const std::vector<AltPath>& paths);

/// Enumerate every alternative path of the graph by draining a
/// PathEnumerator into a vector (see the class for the order guarantee).
std::vector<AltPath> enumerate_paths(const Cpg& g);

/// Count the alternative paths without materializing them. When `limit`
/// is non-zero the count stops early and returns nullopt as soon as it
/// would exceed the limit — the cheap way to ask "is this graph's path
/// set small enough to co-synthesize?" before committing to it.
std::optional<std::size_t> count_paths(const Cpg& g, std::size_t limit = 0);

/// The alternative path selected by a complete assignment.
AltPath path_for_assignment(const Cpg& g, const Assignment& a);

}  // namespace cps
