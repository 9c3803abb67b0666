#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "serve/client.hpp"
#include "support/json.hpp"

namespace cps {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0,1]) of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Everything one connection thread accumulates; merged under a mutex at
/// the end (threads never share counters while driving load).
struct ThreadTally {
  std::vector<double> latencies_ms;
  std::vector<double> cold_ms;    ///< first occurrence of an index
  std::vector<double> repeat_ms;  ///< re-issued index (cache-hit candidate)
  LoadGenResult counts;  // only the std::size_t counters are used
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// Deterministic per-ordinal request plan: which workload index each
/// ordinal asks for and whether that is a repeat of an earlier ordinal's
/// index. Pure function of the config — every thread (and every rerun)
/// derives the identical plan, so the cold/repeat split never depends on
/// arrival order.
struct RequestPlan {
  std::vector<std::uint64_t> index;  ///< workload index per ordinal
  std::vector<char> repeat;          ///< 1 = re-issues an earlier index
  std::size_t unique = 0;
};

RequestPlan plan_requests(const LoadGenConfig& config) {
  RequestPlan plan;
  plan.index.resize(config.requests);
  plan.repeat.assign(config.requests, 0);
  std::uint64_t unique = 0;
  for (std::size_t o = 0; o < config.requests; ++o) {
    const std::uint64_t h =
        splitmix64(config.repeat_seed ^ (0x632be59bd9b4e019ull + o));
    if (unique > 0 && unit(h) < config.repeat_frac) {
      // Zipf-ish popularity: squaring the uniform draw piles repeats onto
      // the lowest (earliest-issued) ranks.
      const double v = unit(splitmix64(h));
      const auto rank = static_cast<std::uint64_t>(
          v * v * static_cast<double>(unique));
      plan.index[o] = config.first_id + std::min(rank, unique - 1);
      plan.repeat[o] = 1;
    } else {
      plan.index[o] = config.first_id + unique++;
    }
  }
  plan.unique = unique;
  return plan;
}

/// Classify one response payload into the tally (and optionally retain
/// it). Returns the parsed request id when available.
void classify(const std::string& payload, bool keep, ThreadTally& tally) {
  std::uint64_t id = 0;
  try {
    const JsonValue doc = JsonValue::parse(payload);
    const JsonValue* idv = doc.find("id");
    if (idv != nullptr && idv->kind() == JsonValue::Kind::kNumber) {
      id = static_cast<std::uint64_t>(idv->as_number());
    }
    const std::string& status = doc.at("status").as_string();
    if (status == "ok") {
      ++tally.counts.ok;
    } else if (status == "rejected_overload") {
      ++tally.counts.shed;
    } else if (status == "deadline_exceeded") {
      ++tally.counts.timed_out;
    } else {
      ++tally.counts.other_failed;
    }
  } catch (const std::exception&) {
    ++tally.counts.parse_failed;
    return;
  }
  ++tally.counts.responses;
  if (keep) tally.counts.payloads.emplace_back(id, payload);
}

}  // namespace

LoadGenResult run_loadgen(const LoadGenConfig& config) {
  const std::size_t connections =
      std::max<std::size_t>(1, std::min(config.connections, config.requests));
  std::vector<ThreadTally> tallies(connections);
  // With repeat_frac = 0 the plan is the identity (index i for ordinal i)
  // and the index stays implicit in the request, exactly as before.
  const bool planned = config.repeat_frac > 0.0;
  const RequestPlan plan = plan_requests(config);
  const auto index_of = [&](std::size_t ordinal) {
    return planned ? std::optional<std::uint64_t>(plan.index[ordinal])
                   : std::nullopt;
  };
  const auto wants_csv = [&](std::uint64_t id) {
    return config.keep_payloads && id % 2 == 1;
  };
  const auto record_latency = [&](ThreadTally& tally, std::size_t ordinal,
                                  double ms) {
    tally.latencies_ms.push_back(ms);
    if (!planned || ordinal >= plan.repeat.size()) return;
    (plan.repeat[ordinal] != 0 ? tally.repeat_ms : tally.cold_ms)
        .push_back(ms);
  };
  const auto t_begin = clock_type::now();

  // Closed loop pulls the next ordinal from a shared counter (whichever
  // connection is free takes the next request — maximal concurrency);
  // open loop pre-partitions ordinals so each thread can pace its own
  // sends against the global schedule without coordination.
  std::atomic<std::size_t> next_ordinal{0};

  const auto closed_loop = [&](std::size_t worker) {
    ThreadTally& tally = tallies[worker];
    try {
      ServeClient client(config.socket_path, config.recv_timeout_s);
      while (true) {
        const std::size_t ordinal = next_ordinal.fetch_add(1);
        if (ordinal >= config.requests) return;
        const std::uint64_t id = config.first_id + ordinal;
        if (!client.send_run(id, index_of(ordinal), config.deadline_ms,
                             wants_csv(id))) {
          ++tally.counts.disconnected;
          return;
        }
        ++tally.counts.sent;
        const auto t0 = clock_type::now();
        const std::optional<std::string> response = client.recv();
        if (!response.has_value()) {
          if (client.connected()) {
            ++tally.counts.recv_timeouts;
          } else {
            ++tally.counts.disconnected;
          }
          return;
        }
        record_latency(tally, ordinal, ms_between(t0, clock_type::now()));
        classify(*response, config.keep_payloads, tally);
      }
    } catch (const std::exception&) {
      // Connect refused (e.g. the daemon already drained): everything
      // this thread would have sent is accounted as disconnected.
      ++tally.counts.disconnected;
    }
  };

  const auto open_loop = [&](std::size_t worker) {
    ThreadTally& tally = tallies[worker];
    const double interval_ms =
        config.rate_per_sec > 0.0 ? 1000.0 / config.rate_per_sec : 0.0;
    std::unordered_map<std::uint64_t, clock_type::time_point> sent_at;
    try {
      // Short receive timeout: recv() doubles as the pacing sleep.
      ServeClient client(config.socket_path, 0.01);
      const auto drain_one = [&]() -> bool {
        const std::optional<std::string> response = client.recv();
        if (!response.has_value()) return false;
        std::uint64_t id = 0;
        try {
          const JsonValue doc = JsonValue::parse(*response);
          const JsonValue* idv = doc.find("id");
          if (idv != nullptr && idv->kind() == JsonValue::Kind::kNumber) {
            id = static_cast<std::uint64_t>(idv->as_number());
          }
        } catch (const std::exception&) {
        }
        const auto it = sent_at.find(id);
        if (it != sent_at.end()) {
          record_latency(tally,
                         static_cast<std::size_t>(id - config.first_id),
                         ms_between(it->second, clock_type::now()));
          sent_at.erase(it);
        }
        classify(*response, config.keep_payloads, tally);
        return true;
      };
      for (std::size_t ordinal = worker; ordinal < config.requests;
           ordinal += connections) {
        const auto due =
            t_begin + std::chrono::duration_cast<clock_type::duration>(
                          std::chrono::duration<double, std::milli>(
                              interval_ms * static_cast<double>(ordinal)));
        while (clock_type::now() < due) {
          if (!drain_one() && !client.connected()) break;
        }
        if (!client.connected()) break;
        const std::uint64_t id = config.first_id + ordinal;
        sent_at[id] = clock_type::now();
        if (!client.send_run(id, index_of(ordinal), config.deadline_ms,
                             wants_csv(id))) {
          break;
        }
        ++tally.counts.sent;
      }
      // Collect stragglers until everything sent is answered or the
      // receive budget runs dry.
      const auto give_up =
          clock_type::now() +
          std::chrono::duration_cast<clock_type::duration>(
              std::chrono::duration<double>(config.recv_timeout_s));
      while (!sent_at.empty() && client.connected() &&
             clock_type::now() < give_up) {
        drain_one();
      }
      tally.counts.disconnected += sent_at.size();
    } catch (const std::exception&) {
      tally.counts.disconnected += sent_at.size();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      if (config.open_loop) {
        open_loop(c);
      } else {
        closed_loop(c);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadGenResult result;
  result.unique_indices = plan.unique;
  result.repeats_planned = config.requests - plan.unique;
  std::vector<double> all_latencies;
  std::vector<double> cold_latencies;
  std::vector<double> repeat_latencies;
  for (ThreadTally& tally : tallies) {
    result.sent += tally.counts.sent;
    result.responses += tally.counts.responses;
    result.ok += tally.counts.ok;
    result.shed += tally.counts.shed;
    result.timed_out += tally.counts.timed_out;
    result.other_failed += tally.counts.other_failed;
    result.parse_failed += tally.counts.parse_failed;
    result.disconnected += tally.counts.disconnected;
    result.recv_timeouts += tally.counts.recv_timeouts;
    all_latencies.insert(all_latencies.end(), tally.latencies_ms.begin(),
                         tally.latencies_ms.end());
    cold_latencies.insert(cold_latencies.end(), tally.cold_ms.begin(),
                          tally.cold_ms.end());
    repeat_latencies.insert(repeat_latencies.end(), tally.repeat_ms.begin(),
                            tally.repeat_ms.end());
    for (auto& kv : tally.counts.payloads) {
      result.payloads.push_back(std::move(kv));
    }
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  std::sort(cold_latencies.begin(), cold_latencies.end());
  std::sort(repeat_latencies.begin(), repeat_latencies.end());
  result.p50_ms = percentile(all_latencies, 0.50);
  result.p99_ms = percentile(all_latencies, 0.99);
  result.p999_ms = percentile(all_latencies, 0.999);
  result.cold_p50_ms = percentile(cold_latencies, 0.50);
  result.cold_p99_ms = percentile(cold_latencies, 0.99);
  result.repeat_p50_ms = percentile(repeat_latencies, 0.50);
  result.repeat_p99_ms = percentile(repeat_latencies, 0.99);
  result.wall_ms = ms_between(t_begin, clock_type::now());
  return result;
}

std::vector<std::uint64_t> loadgen_plan_indices(const LoadGenConfig& config) {
  return plan_requests(config).index;
}

}  // namespace cps
