#include "cpg/paths.hpp"

#include "support/error.hpp"

namespace cps {

namespace {

// Activation status of each process given a partial context: a process is
// active iff its guard holds for *every* completion of the context. During
// enumeration the context always decides every condition whose disjunction
// is active, so the tri-state collapses to a bool for exactly those
// processes that matter.
std::vector<bool> active_under_context(const Cpg& g, const Cube& context) {
  std::vector<bool> active(g.process_count(), false);
  for (ProcessId p = 0; p < g.process_count(); ++p) {
    active[p] = g.process(p).guard.covered_by_context(context);
  }
  return active;
}

}  // namespace

PathEnumerator::PathEnumerator(const Cpg& g) : g_(&g) {
  stack_.push_back(Cube::top());
}

std::optional<AltPath> PathEnumerator::next() {
  while (!stack_.empty()) {
    const Cube context = std::move(stack_.back());
    stack_.pop_back();
    std::vector<bool> active = active_under_context(*g_, context);
    // Find an active disjunction process whose condition is undecided.
    // Deterministic choice: smallest condition id. (Any choice yields the
    // same leaf set because conditions are independent.)
    bool expanded = false;
    for (CondId c = 0; c < g_->conditions().size(); ++c) {
      if (context.mentions(c)) continue;
      if (!active[g_->disjunction_of(c)]) continue;
      auto pos = context.conjoin(Literal{c, true});
      auto neg = context.conjoin(Literal{c, false});
      CPS_ASSERT(pos && neg, "undecided condition must be conjoinable");
      // LIFO: push the false branch first so the true branch is expanded
      // next, reproducing the recursive true-first depth-first order.
      stack_.push_back(std::move(*neg));
      stack_.push_back(std::move(*pos));
      expanded = true;
      break;
    }
    if (expanded) continue;
    ++produced_;
    return AltPath{context, std::move(active)};
  }
  return std::nullopt;
}

PathLabelMasks collect_label_masks(const std::vector<AltPath>& paths) {
  PathLabelMasks out;
  out.pos.reserve(paths.size());
  out.neg.reserve(paths.size());
  for (const AltPath& p : paths) {
    out.pos.push_back(p.label.pos_bits());
    out.neg.push_back(p.label.neg_bits());
    out.narrow = out.narrow && p.label.narrow();
  }
  return out;
}

std::vector<AltPath> enumerate_paths(const Cpg& g) {
  std::vector<AltPath> out;
  PathEnumerator en(g);
  while (auto path = en.next()) out.push_back(std::move(*path));
  return out;
}

std::optional<std::size_t> count_paths(const Cpg& g, std::size_t limit) {
  PathEnumerator en(g);
  while (en.next()) {
    if (limit != 0 && en.produced() > limit) return std::nullopt;
  }
  return en.produced();
}

AltPath path_for_assignment(const Cpg& g, const Assignment& a) {
  CPS_REQUIRE(a.universe_size() == g.conditions().size(),
              "assignment universe does not match the graph");
  // Build the label: conditions whose disjunction process is active.
  std::vector<Literal> lits;
  for (CondId c = 0; c < g.conditions().size(); ++c) {
    if (g.active_under(g.disjunction_of(c), a)) {
      lits.push_back(Literal{c, a.value(c)});
    }
  }
  AltPath path;
  path.label = Cube(lits);
  path.active.resize(g.process_count());
  for (ProcessId p = 0; p < g.process_count(); ++p) {
    path.active[p] = g.active_under(p, a);
  }
  return path;
}

}  // namespace cps
