// The statistics the benchmark reports. Library-free so that
// tests/test_stats.cpp checks them in isolation.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Latency recorded for an operation that failed or was lost: it lies
/// beyond every percentile, so a failure always counts as missing the tail.
constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Samples a tail percentile must have beyond it before it is reported.
constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (1..100) among `n` samples:
/// the smallest rank r with r >= p * n / 100. Integer arithmetic, so
/// p = 99 of n = 1000 is exactly rank 990.
inline std::size_t nearest_rank(std::size_t n, unsigned p) {
  const std::size_t r = (static_cast<std::size_t>(p) * n + 99) / 100;
  return std::max<std::size_t>(r, 1);
}

/// Samples strictly beyond the nearest-rank percentile.
inline std::size_t samples_beyond(std::size_t n, unsigned p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// Nearest-rank percentile of `samples` (copied and sorted). Failed
/// operations enter as kMissed. Returns nullopt for an empty sample.
inline std::optional<double> percentile(std::vector<double> samples,
                                        unsigned p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

/// A tail percentile, reported only when at least `min_beyond` samples lie
/// beyond it; nullopt otherwise.
inline std::optional<double> supported_percentile(
    const std::vector<double>& samples, unsigned p,
    std::size_t min_beyond = kMinBeyond) {
  if (samples_beyond(samples.size(), p) < min_beyond) return std::nullopt;
  return percentile(samples, p);
}

/// Value of one operation measured once per pass or round: its fastest
/// sample, because interference from the host only ever adds time; or
/// kMissed when any sample failed, so one failure still counts as missing
/// the tail.
inline double position_value(const std::vector<double>& samples) {
  double best = kMissed;
  for (const double s : samples) {
    if (s == kMissed) return kMissed;
    best = std::min(best, s);
  }
  return best;
}

/// position_value of every operation, from `samples[round][operation]`.
inline std::vector<double> position_values(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  if (samples.empty()) return out;
  for (std::size_t k = 0; k < samples.front().size(); ++k) {
    std::vector<double> column;
    for (const std::vector<double>& round : samples) column.push_back(round[k]);
    out.push_back(position_value(column));
  }
  return out;
}

/// Arithmetic mean; kMissed when empty or when any value is missed.
inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? kMissed : sum / static_cast<double>(values.size());
}

/// The best of a run's per-round figures: the largest when higher is
/// better, the smallest otherwise. With no rounds: 0, or kMissed.
inline double best(const std::vector<double>& per_round, bool higher) {
  if (per_round.empty()) return higher ? 0.0 : kMissed;
  return higher ? *std::max_element(per_round.begin(), per_round.end())
                : *std::min_element(per_round.begin(), per_round.end());
}

/// For each ordinal of a request plan (the workload index each request
/// asks for), whether it re-issues an index an earlier ordinal asked for.
/// The first occurrence of an index is cold; every later one is a repeat.
inline std::vector<bool> repeat_mask(const std::vector<std::uint64_t>& plan) {
  std::vector<bool> repeat(plan.size(), false);
  std::set<std::uint64_t> seen;
  for (std::size_t o = 0; o < plan.size(); ++o) {
    repeat[o] = !seen.insert(plan[o]).second;
  }
  return repeat;
}

/// Wall time since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time of `clock` (CLOCK_PROCESS_CPUTIME_ID, CLOCK_THREAD_CPUTIME_ID).
inline double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time of the whole process (every thread, pool workers included).
inline double process_cpu_ms() { return cpu_ms(CLOCK_PROCESS_CPUTIME_ID); }

/// What one reference_kernel() call takes on the reference host. Every
/// timing is reported at that host's speed: a run multiplies the times it
/// measures by speed_factor() of its own kernel samples.
constexpr double kReferenceKernelMs = 2.0;

/// A fixed piece of work of the benchmark's own, shaped like the
/// library's: list scheduling of a random graph of 600 tasks on four
/// processors, once per variant of its execution times, as the library
/// schedules one path after another. The library never runs it, so no
/// change to the library moves it, while the host's speed, contention for
/// its cores and caches included, moves it much as it moves the library.
/// Returns a checksum.
inline std::uint64_t reference_kernel() {
  constexpr std::size_t kTasks = 600;
  constexpr std::size_t kProcessors = 4;
  constexpr int kVariants = 28;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Each task feeds up to three of the next 40; edges point forward, so
  // task order is a topological order.
  std::vector<std::vector<std::size_t>> succ(kTasks);
  std::vector<std::uint64_t> cost(kTasks);
  std::vector<std::size_t> processor(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    cost[t] = 1 + next() % 100;
    processor[t] = next() % kProcessors;
    const std::size_t window = std::min<std::size_t>(40, kTasks - 1 - t);
    for (int e = 0; e < 3 && window > 0; ++e) {
      succ[t].push_back(t + 1 + next() % window);
    }
  }
  std::uint64_t sum = 0;
  for (int variant = 0; variant < kVariants; ++variant) {
    std::vector<std::uint64_t> exec(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t) exec[t] = cost[t] + next() % 16;
    std::vector<std::uint64_t> priority(kTasks);  // longest path to a sink
    std::vector<std::size_t> waiting(kTasks, 0);
    for (std::size_t t = kTasks; t-- > 0;) {
      std::uint64_t tail = 0;
      for (const std::size_t s : succ[t]) {
        tail = std::max(tail, priority[s]);
        ++waiting[s];
      }
      priority[t] = exec[t] + tail;
    }
    std::vector<std::uint64_t> ready_at(kTasks, 0);
    std::vector<std::uint64_t> free_at(kProcessors, 0);
    std::priority_queue<std::pair<std::uint64_t, std::size_t>> ready;
    for (std::size_t t = 0; t < kTasks; ++t) {
      if (waiting[t] == 0) ready.emplace(priority[t], t);
    }
    std::uint64_t makespan = 0;
    while (!ready.empty()) {
      const std::size_t t = ready.top().second;
      ready.pop();
      const std::uint64_t finish =
          std::max(ready_at[t], free_at[processor[t]]) + exec[t];
      free_at[processor[t]] = finish;
      makespan = std::max(makespan, finish);
      for (const std::size_t s : succ[t]) {
        ready_at[s] = std::max(ready_at[s], finish);
        if (--waiting[s] == 0) ready.emplace(priority[s], s);
      }
    }
    sum += makespan;
  }
  return sum;
}

/// Where reference_kernel()'s checksum goes, so that the call is made.
inline volatile std::uint64_t reference_kernel_sink = 0;

/// One sample of the host's speed: the fastest of ten reference_kernel()
/// calls, in ms.
inline double time_reference_kernel() {
  double fastest = kMissed;
  for (int i = 0; i < 10; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    reference_kernel_sink = reference_kernel();
    fastest = std::min(fastest, ms_since(t0));
  }
  return fastest;
}

/// What a time measured in a run is multiplied by to express it at the
/// reference host's speed: kReferenceKernelMs / the median of the run's
/// kernel samples. 1 without samples.
inline double speed_factor(const std::vector<double>& kernel_ms) {
  const std::optional<double> median = percentile(kernel_ms, 50);
  return median ? kReferenceKernelMs / *median : 1.0;
}

/// Peak resident set size of the process so far.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// 64-bit FNV-1a as 16 hex digits: the digest of golden outputs. Kept in
/// the benchmark so the goldens do not depend on the library's hashing.
inline std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[i] = kHex[h & 0xf];
  return out;
}

}  // namespace perfbench
