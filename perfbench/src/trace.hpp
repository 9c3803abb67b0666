// In-memory spans of the traced run. Each span is one timed call into a
// layer, made from the benchmark's own code; spans of one graph or request
// share its id. They are kept in memory and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

class SpanLog {
 public:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  void add(std::uint64_t id, const std::string& name, const char* parent,
           double start_ms, double end_ms) {
    spans_.push_back(Span{id, name, parent, start_ms, end_ms});
    auto& total = totals_[name];
    total.first += end_ms - start_ms;
    ++total.second;
  }

  /// Time `f()` as span `name` of `id` and return what it returns.
  template <class F>
  auto timed(std::uint64_t id, const std::string& name, const char* parent,
             F&& f) {
    const double t0 = now_ms();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(id, name, parent, t0, now_ms());
    } else {
      auto out = f();
      add(id, name, parent, t0, now_ms());
      return out;
    }
  }

  /// Mean span duration of `name`; 0 when no span has that name.
  double mean_ms(const std::string& name) const {
    const auto it = totals_.find(name);
    if (it == totals_.end() || it->second.second == 0) return 0.0;
    return it->second.first / static_cast<double>(it->second.second);
  }

  /// One JSON object per span and line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      cps::JsonWriter w(0);
      w.begin_object();
      w.field("id", s.id);
      w.field("name", s.name);
      w.field("parent", s.parent);
      w.field("start_ms", s.start_ms);
      w.field("end_ms", s.end_ms);
      w.end_object();
      out << w.str() << '\n';
    }
  }

 private:
  struct Span {
    std::uint64_t id;
    std::string name;
    const char* parent;  ///< "" for a root span; always a string literal
    double start_ms;
    double end_ms;
  };

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::map<std::string, std::pair<double, std::size_t>> totals_;
};

}  // namespace perfbench
