// Microbenchmarks (google-benchmark) of the hot primitives: cube algebra,
// DNF cover checks, guard evaluation, per-path list scheduling and the
// full merge on the Fig. 1 model and generated graphs, the merge walk and
// table validation alone on benchmark-shaped graphs, and random-graph
// construction.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "gen/arch_gen.hpp"
#include "gen/random_cpg.hpp"
#include "models/fig1.hpp"
#include "sched/driver.hpp"

namespace {

using namespace cps;

void BM_CubeConjoin(benchmark::State& state) {
  const Cube a({Literal{0, true}, Literal{2, false}, Literal{5, true}});
  const Cube b({Literal{1, true}, Literal{2, false}, Literal{7, false}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.conjoin(b));
  }
}
BENCHMARK(BM_CubeConjoin);

void BM_CubeCompatible(benchmark::State& state) {
  const Cube a({Literal{0, true}, Literal{2, false}, Literal{5, true}});
  const Cube b({Literal{2, true}, Literal{5, true}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compatible(b));
  }
}
BENCHMARK(BM_CubeCompatible);

void BM_CubeImplies(benchmark::State& state) {
  const Cube a({Literal{0, true}, Literal{2, false}, Literal{5, true},
                Literal{9, false}});
  const Cube b({Literal{2, false}, Literal{5, true}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.implies(b));
  }
}
BENCHMARK(BM_CubeImplies);

void BM_CubeHash(benchmark::State& state) {
  const Cube a({Literal{0, true}, Literal{2, false}, Literal{5, true},
                Literal{9, false}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hash());
  }
}
BENCHMARK(BM_CubeHash);

// Slow-path reference: the same conjoin with every condition shifted past
// Cube::kPackedBits, exercising the sorted-vector representation the
// packed fast path is equivalence-tested against.
void BM_CubeConjoinWide(benchmark::State& state) {
  const CondId w = Cube::kPackedBits;
  const Cube a({Literal{static_cast<CondId>(w + 0), true},
                Literal{static_cast<CondId>(w + 2), false},
                Literal{static_cast<CondId>(w + 5), true}});
  const Cube b({Literal{static_cast<CondId>(w + 1), true},
                Literal{static_cast<CondId>(w + 2), false},
                Literal{static_cast<CondId>(w + 7), false}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.conjoin(b));
  }
}
BENCHMARK(BM_CubeConjoinWide);

void BM_DnfOrCubeNormalize(benchmark::State& state) {
  // Subsumption + complementary-merge workload of guard construction.
  const Dnf base = Dnf(Cube({Literal{0, true}, Literal{1, true}}))
                       .or_cube(Cube({Literal{0, true}, Literal{2, false}}));
  const Cube extra({Literal{0, true}, Literal{1, false}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.or_cube(extra));
  }
}
BENCHMARK(BM_DnfOrCubeNormalize);

void BM_DnfAndDnf(benchmark::State& state) {
  const Dnf a = Dnf(Cube({Literal{0, true}, Literal{1, true}}))
                    .or_cube(Cube({Literal{0, false}, Literal{2, true}}));
  const Dnf b = Dnf(Cube(Literal{1, true})).or_cube(Cube(Literal{3, false}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.and_dnf(b));
  }
}
BENCHMARK(BM_DnfAndDnf);

void BM_CoverCacheLookup(benchmark::State& state) {
  const Dnf guard = Dnf(Cube({Literal{0, true}, Literal{1, true}}))
                        .or_cube(Cube({Literal{0, true}, Literal{1, false}}))
                        .or_cube(Cube(Literal{0, false}));
  const Cube context({Literal{0, true}, Literal{3, false}});
  CoverCache cache;
  cache.covered(guard, context);  // warm: the loop measures pure hits
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.covered(guard, context));
  }
}
BENCHMARK(BM_CoverCacheLookup);

void BM_DnfCoveredByContext(benchmark::State& state) {
  // The X_P17-style tautology check.
  const Dnf guard = Dnf(Cube({Literal{0, true}, Literal{1, true}}))
                        .or_cube(Cube({Literal{0, true}, Literal{1, false}}))
                        .or_cube(Cube(Literal{0, false}));
  const Cube context(Literal{2, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.covered_by_context(context));
  }
}
BENCHMARK(BM_DnfCoveredByContext);

void BM_EnumeratePathsFig1(benchmark::State& state) {
  const Cpg g = build_fig1_cpg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_paths(g));
  }
}
BENCHMARK(BM_EnumeratePathsFig1);

void BM_SchedulePathFig1(benchmark::State& state) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_path(fg, paths.front()));
  }
}
BENCHMARK(BM_SchedulePathFig1);

void BM_MergeFig1(benchmark::State& state) {
  const Cpg g = build_fig1_cpg();
  const FlatGraph fg = FlatGraph::expand(g);
  const auto paths = enumerate_paths(g);
  std::vector<PathSchedule> schedules;
  for (const AltPath& p : paths) schedules.push_back(schedule_path(fg, p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_schedules(fg, paths, schedules));
  }
}
BENCHMARK(BM_MergeFig1);

void BM_FullFlowRandom(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  const Architecture arch = generate_random_architecture(rng);
  RandomCpgParams params;
  params.process_count = nodes;
  params.path_count = 10;
  const Cpg g = generate_random_cpg(arch, params, rng);
  CoSynthesisOptions options;
  options.validate = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_cpg(g, options));
  }
  state.SetComplexityN(static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_FullFlowRandom)->Arg(30)->Arg(60)->Arg(120)->Complexity();

/// A generated graph with its paths and per-path schedules: the merge's
/// input, built outside the timed loops.
struct MergeInput {
  std::unique_ptr<Cpg> g;
  FlatGraph fg;
  std::vector<AltPath> paths;
  std::vector<PathSchedule> schedules;

  MergeInput(std::size_t processes, std::size_t path_count) {
    Rng rng(23);
    const Architecture arch = generate_random_architecture(rng);
    RandomCpgParams params;
    params.process_count = processes;
    params.path_count = path_count;
    g = std::make_unique<Cpg>(generate_random_cpg(arch, params, rng));
    fg = FlatGraph::expand(*g);
    paths = enumerate_paths(*g);
    for (const AltPath& p : paths) schedules.push_back(schedule_path(fg, p));
  }
};

// The merge walk alone (paper §5) at the wide-shallow benchmark's 600
// processes x 3 paths and the serve benchmark's 80 x 18.
void BM_MergeSchedules(benchmark::State& state) {
  const MergeInput in(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_schedules(in.fg, in.paths, in.schedules));
  }
}
BENCHMARK(BM_MergeSchedules)->Args({600, 3})->Args({80, 18});

// validate_table alone on the merged table of the same graphs:
// requirements 1-3 per row, then one simulated execution per path.
void BM_ValidateTable(benchmark::State& state) {
  const MergeInput in(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::size_t>(state.range(1)));
  const MergeResult merged = merge_schedules(in.fg, in.paths, in.schedules);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_table(in.fg, merged.table, in.paths));
  }
}
BENCHMARK(BM_ValidateTable)->Args({600, 3})->Args({80, 18});

// Architecture plus generate_random_cpg (which ends in CpgBuilder::build)
// at 4 paths; a flat processes_per_s across the sizes shows construction
// staying linear.
void BM_BuildRandomCpg(benchmark::State& state) {
  RandomCpgParams params;
  params.process_count = static_cast<std::size_t>(state.range(0));
  params.path_count = 4;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    const Architecture arch = generate_random_architecture(rng);
    benchmark::DoNotOptimize(generate_random_cpg(arch, params, rng));
  }
  state.counters["processes_per_s"] = benchmark::Counter(
      static_cast<double>(params.process_count),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BuildRandomCpg)->Arg(600)->Arg(4800);

}  // namespace

BENCHMARK_MAIN();
