#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/frame.hpp"
#include "support/json.hpp"
#include "support/random.hpp"
#include "support/small_vector.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table_format.hpp"
#include "support/thread_pool.hpp"

namespace cps {
namespace {

// ----------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++seen[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRequestedMean) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(8.0);
  EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), InvalidArgument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(17);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

// ---------------------------------------------------------- stats -----

TEST(Stats, MeanStdMinMax) {
  StatAccumulator acc;
  acc.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1);
  EXPECT_DOUBLE_EQ(acc.max(), 4);
  EXPECT_NEAR(acc.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, PercentileInterpolates) {
  StatAccumulator acc;
  acc.add_all({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(acc.percentile(0), 10);
  EXPECT_DOUBLE_EQ(acc.percentile(100), 50);
  EXPECT_DOUBLE_EQ(acc.median(), 30);
  EXPECT_DOUBLE_EQ(acc.percentile(25), 20);
}

TEST(Stats, FractionCountsPredicate) {
  StatAccumulator acc;
  acc.add_all({0, 0, 1, 2});
  EXPECT_DOUBLE_EQ(acc.fraction([](double x) { return x == 0; }), 0.5);
}

TEST(Stats, EmptyAccumulatorThrows) {
  StatAccumulator acc;
  EXPECT_THROW(acc.mean(), InvalidArgument);
  EXPECT_THROW(acc.min(), InvalidArgument);
  EXPECT_THROW(acc.percentile(50), InvalidArgument);
}

// --------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, SplitWsDropsEmptyFields) {
  EXPECT_EQ(split_ws("  a \t b \n"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinConcatenates) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// ----------------------------------------------------------- csv ------

TEST(Csv, QuotesOnlyWhenNeeded) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, FluentCells) {
  std::ostringstream os;
  CsvWriter w(os);
  w.cell("a").cell(std::int64_t{7}).cell(1.5, 1).end_row();
  EXPECT_EQ(os.str(), "a,7,1.5\n");
}

// ------------------------------------------------------ ascii table ---

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t;
  t.header({"name", "value"});
  t.cell("x").cell(std::int64_t{10}).end_row();
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name | value |"), std::string::npos);
  EXPECT_NE(s.find("| x    |    10 |"), std::string::npos);
}

// ----------------------------------------------------------- cli ------

TEST(Cli, ParsesFlagsAndPositionals) {
  CliParser cli("test");
  cli.add_flag("nodes", "60", "node count");
  cli.add_bool("verbose", "chatty");
  const char* argv[] = {"prog", "--nodes", "80", "--verbose", "file.cpg"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("nodes"), 80);
  EXPECT_TRUE(cli.get_bool("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.cpg");
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  CliParser cli("test");
  cli.add_flag("paths", "10", "paths");
  const char* argv[] = {"prog", "--paths=32"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("paths"), 32);

  CliParser cli2("test");
  cli2.add_flag("paths", "10", "paths");
  const char* argv2[] = {"prog"};
  ASSERT_TRUE(cli2.parse(1, argv2));
  EXPECT_EQ(cli2.get_int("paths"), 10);
}

TEST(Cli, RejectsUnknownFlagAndBadValues) {
  CliParser cli("test");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), ParseError);

  CliParser cli2("test");
  cli2.add_flag("n", "1", "n");
  const char* argv2[] = {"prog", "--n", "xyz"};
  ASSERT_TRUE(cli2.parse(3, argv2));
  EXPECT_THROW(cli2.get_int("n"), ParseError);
}

TEST(Cli, MissingValueIsAnError) {
  CliParser cli("test");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), ParseError);
}

TEST(Cli, GetIntRejectsMalformedValuesWithNamedErrors) {
  // std::stoll's raw invalid_argument/out_of_range must never escape:
  // every failure is a ParseError naming the flag and the value.
  const auto parse_one = [](const char* value) {
    CliParser cli("test");
    cli.add_flag("n", "1", "n");
    const char* argv[] = {"prog", "--n", value};
    EXPECT_TRUE(cli.parse(3, argv));
    return cli;
  };
  for (const char* bad : {"", " ", "xyz", "12abc", "1.5", "--", "0x1g"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    try {
      parse_one(bad).get_int("n");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    }
  }
  // Out-of-range gets its own message (and is still a ParseError, not a
  // raw std::out_of_range).
  try {
    parse_one("99999999999999999999999").get_int("n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"),
              std::string::npos);
  }
  // Values std::stoll accepts in full remain fine.
  EXPECT_EQ(parse_one("-12").get_int("n"), -12);
  EXPECT_EQ(parse_one("+7").get_int("n"), 7);
}

TEST(Cli, GetDoubleRejectsMalformedValues) {
  const auto parse_one = [](const char* value) {
    CliParser cli("test");
    cli.add_flag("x", "1.0", "x");
    const char* argv[] = {"prog", "--x", value};
    EXPECT_TRUE(cli.parse(3, argv));
    return cli;
  };
  EXPECT_THROW(parse_one("").get_double("x"), ParseError);
  EXPECT_THROW(parse_one("abc").get_double("x"), ParseError);
  EXPECT_THROW(parse_one("1.5x").get_double("x"), ParseError);
  EXPECT_THROW(parse_one("1e999999").get_double("x"), ParseError);
  EXPECT_DOUBLE_EQ(parse_one("2.5").get_double("x"), 2.5);
}

// ----------------------------------------------------------- json -----

namespace {

/// Minimal structural JSON check: balanced containers outside strings,
/// and no bare non-finite tokens ("nan", "inf") anywhere — the failure
/// mode this guards against is printf-style "%f" rendering of NaN/inf.
void expect_valid_jsonish(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  std::string outside;  // everything not inside a string literal
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    outside += c;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(outside.find("nan"), std::string::npos);
  EXPECT_EQ(outside.find("inf"), std::string::npos);
}

}  // namespace

TEST(JsonValue, ParsesScalarsContainersAndEscapes) {
  const JsonValue v = JsonValue::parse(
      "{\"a\": 1, \"b\": [true, null, -2.5, \"x\\n\\u0041\"],"
      " \"nested\": {\"k\": \"v\"}, \"empty\": [] }");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  const auto& items = v.at("b").items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_TRUE(items[0].as_bool());
  EXPECT_TRUE(items[1].is_null());
  EXPECT_DOUBLE_EQ(items[2].as_number(), -2.5);
  EXPECT_EQ(items[3].as_string(), "x\nA");
  EXPECT_EQ(v.at("nested").at("k").as_string(), "v");
  EXPECT_TRUE(v.at("empty").items().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), ParseError);
  EXPECT_THROW(v.at("a").as_string(), ParseError);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), ParseError);
  EXPECT_THROW(JsonValue::parse("{"), ParseError);
  EXPECT_THROW(JsonValue::parse("[1,]"), ParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(JsonValue::parse("1 2"), ParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
  EXPECT_THROW(JsonValue::parse("1.2.3"), ParseError);
  EXPECT_THROW(JsonValue::parse_file("/nonexistent/path.json"), ParseError);
  // Corrupt deeply nested input raises ParseError, not a stack overflow.
  EXPECT_THROW(JsonValue::parse(std::string(200000, '[')), ParseError);
}

TEST(JsonValue, RoundTripsTheWritersOutput) {
  JsonWriter w(2);
  w.begin_object();
  w.field("name", "quote \" and \\ backslash");
  w.field("count", std::size_t{42});
  w.key("values").begin_array().value(1.5).value(false).null().end_array();
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("name").as_string(), "quote \" and \\ backslash");
  EXPECT_EQ(v.at("count").as_int(), 42);
  ASSERT_EQ(v.at("values").items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("values").items()[0].as_number(), 1.5);
  // Member order is preserved (the writer's emission order).
  EXPECT_EQ(v.members()[0].first, "name");
  EXPECT_EQ(v.members()[2].first, "values");
}

// ------------------------------------------------------- SmallVector --

TEST(SmallVector, PushBackOfOwnElementSurvivesGrowth) {
  // std::vector parity: v.push_back(v[0]) is safe even when it grows.
  SmallVector<std::string, 2> v{"a long enough string to heap-allocate",
                                "second"};
  v.push_back(v[0]);  // exactly full: this push triggers growth
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], "a long enough string to heap-allocate");
  v.push_back(v[1]);
  EXPECT_EQ(v[3], "second");
}

TEST(SmallVector, StaysInlineThenSpills) {
  SmallVector<int, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.capacity(), 2u);  // still inline
  v.push_back(3);
  EXPECT_GT(v.capacity(), 2u);  // spilled to the heap
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
}

TEST(SmallVector, CopyMoveAndComparison) {
  SmallVector<std::string, 2> a{"x", "y", "z"};
  SmallVector<std::string, 2> b = a;  // copy (heap)
  EXPECT_EQ(a, b);
  SmallVector<std::string, 2> c = std::move(b);
  EXPECT_EQ(a, c);
  SmallVector<std::string, 2> inline_small{"x"};
  SmallVector<std::string, 2> moved_inline = std::move(inline_small);
  EXPECT_EQ(moved_inline.size(), 1u);
  EXPECT_EQ(moved_inline[0], "x");
  EXPECT_TRUE(inline_small.empty());
  SmallVector<std::string, 2> smaller{"x", "y"};
  EXPECT_TRUE(smaller < a);
  EXPECT_NE(smaller, a);
  a = smaller;  // copy-assign shrinks
  EXPECT_EQ(a, smaller);
}

TEST(SmallVector, EraseInsertAndStdAlgorithms) {
  SmallVector<int, 2> v{5, 3, 1, 4, 2};
  std::sort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  v.erase(v.begin() + 1);  // drop 2
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[1], 3);
  v.erase(v.begin(), v.begin() + 2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 4);
  const SmallVector<int, 2> tail{7, 8};
  v.insert(v.end(), tail.begin(), tail.end());
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 8);
  v.insert(v.begin() + 1, tail.begin(), tail.end());
  EXPECT_EQ(v[1], 7);
  EXPECT_EQ(v[2], 8);
  EXPECT_EQ(v[3], 5);
  // Empty-range erase anywhere is a no-op (std::vector parity).
  const SmallVector<int, 2> before = v;
  v.erase(v.begin(), v.begin());
  v.erase(v.begin() + 1, v.begin() + 1);
  v.erase(v.end(), v.end());
  EXPECT_EQ(v, before);
}

TEST(Json, NonFiniteDoublesRenderAsNull) {
  JsonWriter w(0);
  w.begin_object();
  w.field("nan", std::nan(""));
  w.field("pos_inf", std::numeric_limits<double>::infinity());
  w.field("neg_inf", -std::numeric_limits<double>::infinity());
  w.field("finite", 1.25);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"nan\": null,\"pos_inf\": null,\"neg_inf\": null,"
            "\"finite\": 1.250000}");
  expect_valid_jsonish(w.str());
}

TEST(Json, SingletonAndNonFiniteStatsStayValid) {
  // A percentage over a zero baseline is the realistic inf/NaN source
  // (increase_percent when delta_m == 0); stddev of a singleton sample is
  // defined as 0 by StatAccumulator, so both corners must serialize to
  // valid JSON.
  StatAccumulator singleton;
  singleton.add(4.0);
  JsonWriter w(2);
  w.begin_object();
  w.field("stddev", singleton.stddev());
  w.field("ratio", std::numeric_limits<double>::infinity() * 100.0);
  w.field("undefined", std::nan(""));
  w.end_object();
  expect_valid_jsonish(w.str());
  EXPECT_NE(w.str().find("\"ratio\": null"), std::string::npos);
  EXPECT_NE(w.str().find("\"undefined\": null"), std::string::npos);
}

// ----------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  for (auto& h : hits) h = 0;
  pool.parallel_for(101, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForOnEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdleRunEveryJob) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A job running on the pool may itself fan out on the same pool: the
  // caller participates in its own loop, so progress never depends on a
  // free worker.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
}

TEST(ThreadPool, TaskGroupWaitsForAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 32; ++i) {
    group.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 32);
  // wait() is idempotent and the group is reusable afterwards.
  group.wait();
  group.submit([&] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 33);
}

TEST(ThreadPool, TaskGroupErrorsMustBeObservedNotSilentlyDropped) {
  // A task exception that nobody waits for is a lost failure; the group
  // no longer swallows it silently. wait_dismissing_errors() is the
  // explicit opt-out (used when the caller's own error takes precedence);
  // it observes the error, so the dropped-error counter stays at zero.
  ThreadPool pool(2);
  const PoolStats before = pool.stats();
  std::atomic<bool> ran{false};
  {
    TaskGroup group(pool);
    group.submit([&] {
      ran.store(true);
      throw std::runtime_error("dismissed explicitly");
    });
    group.wait_dismissing_errors();
    // The group is reusable after dismissal, and wait() no longer throws.
    group.submit([] {});
    group.wait();
  }
  EXPECT_TRUE(ran.load());
  pool.wait_idle();
  EXPECT_EQ(pool.stats().delta_since(before).dropped_errors, 0u);
}

TEST(ThreadPool, TaskGroupCancelSkipsQueuedTasks) {
  // cancel() is cooperative: already-running bodies finish, queued ones
  // are skipped by the wrapper (counted as cancelled_tasks) — so a
  // cancelled group drains in O(queue length) pops, not task work.
  ThreadPool pool(1);
  const PoolStats before = pool.stats();
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    group.cancel();  // cancel before submitting: every task must be skipped
    for (int i = 0; i < 64; ++i) {
      group.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
  }
  EXPECT_EQ(ran.load(), 0);
  pool.wait_idle();
  const PoolStats delta = pool.stats().delta_since(before);
  EXPECT_EQ(delta.cancelled_tasks, 64u);
  EXPECT_EQ(delta.submitted, delta.executed);
}

TEST(ThreadPool, StatsDeltaSinceIsolatesACallWindow) {
  ThreadPool pool(2);
  pool.parallel_for(8, [](std::size_t) {});
  pool.wait_idle();
  const PoolStats before = pool.stats();
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
  pool.wait_idle();
  const PoolStats delta = pool.stats().delta_since(before);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_GT(delta.submitted, 0u);
  EXPECT_EQ(delta.submitted, delta.executed);
  EXPECT_LT(delta.submitted, pool.stats().submitted);
}

// ---------------------------------------------------------- error -----

TEST(Frame, RoundTripsThroughArbitrarySplitPoints) {
  // The decoder must reassemble frames no matter how the stream is cut —
  // including splits inside the 4-byte header.
  const std::vector<std::string> payloads = {"", "a", std::string(300, 'x'),
                                             "{\"id\": 1}"};
  std::string stream;
  for (const std::string& p : payloads) append_frame(stream, p);
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder decoder;
    std::vector<std::string> out;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      ASSERT_TRUE(
          decoder.feed(stream.data() + i, std::min(chunk, stream.size() - i)));
      while (auto frame = decoder.next()) out.push_back(std::move(*frame));
    }
    EXPECT_EQ(out, payloads) << "chunk size " << chunk;
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_FALSE(decoder.corrupt());
  }
}

TEST(Frame, OverLimitLengthPoisonsTheDecoder) {
  FrameDecoder decoder(16);
  const std::string frame = encode_frame(std::string(17, 'y'));
  EXPECT_FALSE(decoder.feed(frame.data(), frame.size()));
  EXPECT_TRUE(decoder.corrupt());
  EXPECT_FALSE(decoder.next().has_value());
  // Permanently: even a well-formed follow-up frame is refused.
  const std::string ok = encode_frame("ok");
  EXPECT_FALSE(decoder.feed(ok.data(), ok.size()));
  EXPECT_THROW(encode_frame(std::string(17, 'y'), 16), InvalidArgument);
}

TEST(Frame, HeaderIsBigEndianAndExactlyFourBytes) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 3);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(Error, AssertMacroThrowsInternalError) {
  EXPECT_THROW(CPS_ASSERT(false, "boom"), InternalError);
  EXPECT_NO_THROW(CPS_ASSERT(true, "fine"));
}

TEST(Error, RequireMacroThrowsInvalidArgument) {
  EXPECT_THROW(CPS_REQUIRE(false, "bad arg"), InvalidArgument);
}

}  // namespace
}  // namespace cps
