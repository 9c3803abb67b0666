// Tests for the statistics the benchmark reports (src/bench_stats.hpp).
#include <gtest/gtest.h>

#include <thread>

#include "bench_stats.hpp"

namespace {

using perfbench::kMissed;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(NearestRank, SmallestSampleCoveringTheShare) {
  EXPECT_EQ(perfbench::nearest_rank(10, 50), 5u);
  EXPECT_EQ(perfbench::nearest_rank(11, 50), 6u);
  EXPECT_EQ(perfbench::nearest_rank(1000, 99), 990u);
  EXPECT_EQ(perfbench::nearest_rank(999, 99), 990u);
  EXPECT_EQ(perfbench::nearest_rank(1, 99), 1u);
  EXPECT_EQ(perfbench::nearest_rank(3, 1), 1u);
}

TEST(NearestRank, PercentileIsAnActualSample) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};  // unsorted input
  EXPECT_EQ(*perfbench::percentile(v, 50), 3.0);
  EXPECT_EQ(*perfbench::percentile(v, 90), 5.0);
  EXPECT_EQ(*perfbench::percentile(v, 20), 1.0);
  EXPECT_EQ(*perfbench::percentile(one_to(100), 90), 90.0);
  EXPECT_FALSE(perfbench::percentile({}, 50).has_value());
}

TEST(TailRule, TenSamplesBeyondThePercentile) {
  EXPECT_EQ(perfbench::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(999, 99), 9u);
  EXPECT_EQ(perfbench::samples_beyond(100, 90), 10u);
  EXPECT_EQ(perfbench::samples_beyond(99, 90), 9u);
  EXPECT_FALSE(perfbench::supported_percentile(one_to(99), 90).has_value());
  EXPECT_EQ(*perfbench::supported_percentile(one_to(100), 90), 90.0);
  EXPECT_FALSE(perfbench::supported_percentile(one_to(999), 99).has_value());
  EXPECT_EQ(*perfbench::supported_percentile(one_to(1000), 99), 990.0);
}

TEST(TailRule, FailuresCountAsMissingTheTail) {
  std::vector<double> v = one_to(1000);
  EXPECT_EQ(*perfbench::percentile(v, 99), 990.0);
  // Eleven failures push p99 past every measured latency; the median
  // moves by the failures' share only.
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] = kMissed;
  EXPECT_EQ(*perfbench::percentile(v, 99), kMissed);
  EXPECT_EQ(*perfbench::percentile(v, 50), 511.0);
}

TEST(Positions, FastestSampleUnlessOneFailed) {
  EXPECT_EQ(perfbench::position_value({3.0, 1.5, 2.0}), 1.5);
  EXPECT_EQ(perfbench::position_value({3.0, kMissed, 2.0}), kMissed);
  EXPECT_EQ(perfbench::position_value({}), kMissed);
  // samples[round][operation]
  const std::vector<std::vector<double>> rounds{{4.0, 1.0, 9.0},
                                                {3.0, 2.0, kMissed}};
  EXPECT_EQ(perfbench::position_values(rounds),
            (std::vector<double>{3.0, 1.0, kMissed}));
  EXPECT_TRUE(perfbench::position_values({}).empty());
}

TEST(Positions, MeanCarriesMisses) {
  EXPECT_EQ(perfbench::mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_EQ(perfbench::mean({1.0, kMissed}), kMissed);
  EXPECT_EQ(perfbench::mean({}), kMissed);
}

TEST(Positions, BestRound) {
  EXPECT_EQ(perfbench::best({80.0, 95.0, 90.0}, true), 95.0);
  EXPECT_EQ(perfbench::best({12.0, 10.5, 11.0}, false), 10.5);
  EXPECT_EQ(perfbench::best({}, true), 0.0);
  EXPECT_EQ(perfbench::best({}, false), kMissed);
}

TEST(ProcessCpu, CountsEveryThread) {
  // Each thread burns 50 ms of its own CPU time, however long the host
  // takes to grant it; the process total must include both.
  const auto burn = [] {
    const double start = perfbench::cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    while (perfbench::cpu_ms(CLOCK_THREAD_CPUTIME_ID) - start < 50.0) {
    }
  };
  const double before = perfbench::process_cpu_ms();
  std::thread a(burn);
  std::thread b(burn);
  a.join();
  b.join();
  EXPECT_GE(perfbench::process_cpu_ms() - before, 100.0);
}

TEST(RepeatPlan, FirstOccurrenceIsColdLaterOnesRepeat) {
  const std::vector<std::uint64_t> plan{0, 1, 0, 2, 1, 1, 3};
  const std::vector<bool> expected{false, false, true, false, true, true,
                                   false};
  EXPECT_EQ(perfbench::repeat_mask(plan), expected);
  EXPECT_TRUE(perfbench::repeat_mask({}).empty());
}

TEST(HostSpeed, KernelIsFixedWork) {
  const std::uint64_t first = perfbench::reference_kernel();
  EXPECT_EQ(perfbench::reference_kernel(), first);
  EXPECT_GT(perfbench::time_reference_kernel(), 0.0);
}

TEST(HostSpeed, FactorScalesToTheReferenceSpeed) {
  // A host at half the reference speed: its times are halved.
  EXPECT_EQ(perfbench::speed_factor({3.0, 4.0, 5.0}),
            perfbench::kReferenceKernelMs / 4.0);
  EXPECT_EQ(perfbench::speed_factor({2.0 * perfbench::kReferenceKernelMs}),
            0.5);
  EXPECT_EQ(perfbench::speed_factor({}), 1.0);
}

TEST(Digest, StableFnv1a) {
  EXPECT_EQ(perfbench::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(perfbench::fnv1a_hex("a"), "af63dc4c8601ec8c");
}

}  // namespace
