#include "gen/random_cpg.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "support/error.hpp"

namespace cps {

const char* to_string(TimeDistribution d) {
  switch (d) {
    case TimeDistribution::kUniform: return "uniform";
    case TimeDistribution::kExponential: return "exponential";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------
// Path-count plan.
// ---------------------------------------------------------------------

struct Plan {
  enum class Kind { kLeaf, kSeries, kBranch } kind = Kind::kLeaf;
  std::unique_ptr<Plan> left;
  std::unique_ptr<Plan> right;
};

std::unique_ptr<Plan> make_plan(std::size_t n, Rng& rng) {
  auto plan = std::make_unique<Plan>();
  if (n <= 1) return plan;  // leaf

  std::vector<std::size_t> divisors;
  for (std::size_t d = 2; d < n; ++d) {
    if (n % d == 0) divisors.push_back(d);
  }
  // Prefer multiplicative decomposition (keeps the condition count near
  // log2(N)); fall back on a branch split.
  if (!divisors.empty() && rng.bernoulli(0.7)) {
    const std::size_t d = divisors[rng.index(divisors.size())];
    plan->kind = Plan::Kind::kSeries;
    plan->left = make_plan(d, rng);
    plan->right = make_plan(n / d, rng);
    return plan;
  }
  // Balanced-ish additive split.
  const std::size_t lo = std::max<std::size_t>(1, n / 3);
  const std::size_t hi = std::max(lo, n - 1 - (n / 3));
  const std::size_t a = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(hi)));
  plan->kind = Plan::Kind::kBranch;
  plan->left = make_plan(a, rng);
  plan->right = make_plan(n - a, rng);
  return plan;
}

// ---------------------------------------------------------------------
// Graph construction.
// ---------------------------------------------------------------------

class Generator {
 public:
  Generator(const Architecture& arch, const RandomCpgParams& params,
            Rng& rng)
      : arch_(arch), params_(params), rng_(rng), builder_(arch) {}

  Cpg generate();

 private:
  struct Block {
    ProcessId entry;
    ProcessId exit;
  };

  Time sample_exec();
  Time sample_comm();
  PeId sample_mapping();
  ProcessId new_process(const Cube& guard);
  void connect(ProcessId src, ProcessId dst,
               std::optional<Literal> literal = std::nullopt);
  Block build_block(const Plan& plan, const Cube& guard);

  const Architecture& arch_;
  const RandomCpgParams& params_;
  Rng& rng_;
  CpgBuilder builder_;
  std::vector<PeId> processors_;
  std::vector<PeId> hardware_;
  std::vector<Cube> guard_of_;        // by ProcessId (creation order)
  std::vector<bool> is_conjunction_;  // by ProcessId
  std::size_t cond_counter_ = 0;
};

Time Generator::sample_exec() {
  switch (params_.distribution) {
    case TimeDistribution::kUniform:
      return rng_.uniform_int(params_.exec_min, params_.exec_max);
    case TimeDistribution::kExponential:
      return std::max<Time>(
          1, static_cast<Time>(rng_.exponential(params_.exec_mean) + 0.5));
  }
  return 1;
}

Time Generator::sample_comm() {
  Time t = params_.comm_min;
  switch (params_.distribution) {
    case TimeDistribution::kUniform:
      t = rng_.uniform_int(params_.comm_min, params_.comm_max);
      break;
    case TimeDistribution::kExponential:
      t = static_cast<Time>(rng_.exponential(params_.comm_mean) + 0.5);
      break;
  }
  // Communications must not undercut the condition broadcast time tau0
  // (paper §3: tau0 is at most any communication time).
  return std::max({t, params_.comm_min, arch_.cond_broadcast_time()});
}

PeId Generator::sample_mapping() {
  if (!hardware_.empty() && rng_.bernoulli(params_.hardware_fraction)) {
    return hardware_[rng_.index(hardware_.size())];
  }
  return processors_[rng_.index(processors_.size())];
}

ProcessId Generator::new_process(const Cube& guard) {
  const std::string name = "P" + std::to_string(guard_of_.size() + 1);
  const ProcessId p =
      builder_.add_process(name, sample_mapping(), sample_exec());
  CPS_ASSERT(p == guard_of_.size(), "process id drift in generator");
  guard_of_.push_back(guard);
  is_conjunction_.push_back(false);
  return p;
}

void Generator::connect(ProcessId src, ProcessId dst,
                        std::optional<Literal> literal) {
  if (literal) {
    builder_.add_cond_edge(src, dst, *literal, sample_comm());
  } else {
    builder_.add_edge(src, dst, sample_comm());
  }
}

Generator::Block Generator::build_block(const Plan& plan, const Cube& guard) {
  switch (plan.kind) {
    case Plan::Kind::kLeaf: {
      const ProcessId p = new_process(guard);
      return Block{p, p};
    }
    case Plan::Kind::kSeries: {
      const Block a = build_block(*plan.left, guard);
      const Block b = build_block(*plan.right, guard);
      connect(a.exit, b.entry);
      return Block{a.entry, b.exit};
    }
    case Plan::Kind::kBranch: {
      const ProcessId disj = new_process(guard);
      const CondId cond =
          builder_.add_condition("c" + std::to_string(++cond_counter_));
      const Literal pos{cond, true};
      const Literal neg{cond, false};
      auto guard_pos = guard.conjoin(pos);
      auto guard_neg = guard.conjoin(neg);
      CPS_ASSERT(guard_pos && guard_neg, "fresh condition cannot clash");
      const Block a = build_block(*plan.left, *guard_pos);
      const Block b = build_block(*plan.right, *guard_neg);
      connect(disj, a.entry, pos);
      connect(disj, b.entry, neg);
      const ProcessId conj = new_process(guard);
      builder_.mark_conjunction(conj);
      is_conjunction_[conj] = true;
      connect(a.exit, conj);
      connect(b.exit, conj);
      return Block{disj, conj};
    }
  }
  CPS_ASSERT(false, "unreachable plan kind");
}

Cpg Generator::generate() {
  CPS_REQUIRE(params_.path_count >= 1, "path_count must be >= 1");
  CPS_REQUIRE(params_.process_count >= 1, "process_count must be >= 1");
  processors_ = arch_.processors();
  for (PeId pe : arch_.of_kind(PeKind::kHardware)) hardware_.push_back(pe);
  CPS_REQUIRE(!processors_.empty() || !hardware_.empty(),
              "architecture has no computation PE");
  if (processors_.empty()) processors_ = hardware_;

  const auto plan = make_plan(params_.path_count, rng_);
  build_block(*plan, Cube::top());

  // Pad with extra processes hanging off random existing ones. The new
  // process inherits the guard cube of its predecessor, which keeps the
  // alternative-path count unchanged.
  while (guard_of_.size() < params_.process_count) {
    const ProcessId anchor =
        static_cast<ProcessId>(rng_.index(guard_of_.size()));
    const ProcessId p = new_process(guard_of_[anchor]);
    connect(anchor, p);
  }

  // Extra forward dependencies: src earlier than dst in creation order
  // (keeps the graph acyclic) and guard(dst) => guard(src) (keeps guards
  // unchanged); never into a conjunction process (its input set encodes
  // the alternatives).
  const auto extra_edges = static_cast<std::size_t>(
      params_.extra_edge_fraction *
      static_cast<double>(params_.process_count));
  std::size_t attempts = extra_edges * 8;
  std::size_t added = 0;
  std::unordered_set<std::uint64_t> seen;  // (src << 32) | dst
  while (added < extra_edges && attempts-- > 0) {
    const ProcessId a = static_cast<ProcessId>(rng_.index(guard_of_.size()));
    const ProcessId b = static_cast<ProcessId>(rng_.index(guard_of_.size()));
    if (a >= b) continue;
    if (is_conjunction_[b]) continue;
    if (!guard_of_[b].implies(guard_of_[a])) continue;
    if (!seen.insert((static_cast<std::uint64_t>(a) << 32) | b).second) {
      continue;
    }
    connect(a, b);
    ++added;
  }

  return builder_.build();
}

}  // namespace

Cpg generate_random_cpg(const Architecture& arch,
                        const RandomCpgParams& params, Rng& rng) {
  Generator gen(arch, params, rng);
  return gen.generate();
}

}  // namespace cps
