#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <set>
#include <thread>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/geometry.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"

namespace dreamplace {
namespace {

/// A FlowContext with its own trace recorder, installed on the creating
/// thread for the object's lifetime: each registry test sees only its own
/// counters, timings and trace events.
struct LocalContext {
  static FlowContext::Config privateTrace() {
    FlowContext::Config config;
    config.privateTrace = true;
    return config;
  }

  FlowContext context{privateTrace()};
  FlowContextScope scope{context};
};

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a() == b());
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, UniformIntNoModuloBias) {
  Rng rng(11);
  // Histogram of uniformInt(3) should be flat within tolerance.
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.uniformInt(3)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 400);
  }
}

TEST(RngTest, UniformIntZeroReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.uniformInt(0), 0u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScaled) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(BoxTest, BasicQueries) {
  Box<double> box{0, 0, 10, 20};
  EXPECT_DOUBLE_EQ(box.width(), 10);
  EXPECT_DOUBLE_EQ(box.height(), 20);
  EXPECT_DOUBLE_EQ(box.area(), 200);
  EXPECT_DOUBLE_EQ(box.centerX(), 5);
  EXPECT_DOUBLE_EQ(box.centerY(), 10);
  EXPECT_TRUE(box.contains(0, 0));
  EXPECT_FALSE(box.contains(10, 0));  // [lo, hi) semantics
}

TEST(BoxTest, OverlapArea) {
  Box<double> a{0, 0, 10, 10};
  Box<double> b{5, 5, 15, 15};
  EXPECT_DOUBLE_EQ(a.overlapArea(b), 25);
  EXPECT_TRUE(a.overlaps(b));
  Box<double> c{10, 0, 20, 10};  // abutting, no overlap
  EXPECT_DOUBLE_EQ(a.overlapArea(c), 0);
  EXPECT_FALSE(a.overlaps(c));
  Box<double> d{20, 20, 30, 30};
  EXPECT_DOUBLE_EQ(a.overlapArea(d), 0);
}

TEST(BoxTest, ContainsBox) {
  Box<double> outer{0, 0, 100, 100};
  EXPECT_TRUE(outer.containsBox({10, 10, 20, 20}));
  EXPECT_FALSE(outer.containsBox({90, 90, 110, 110}));
}

TEST(GeometryTest, OverlapLength) {
  EXPECT_DOUBLE_EQ(overlapLength(0.0, 10.0, 5.0, 15.0), 5.0);
  EXPECT_DOUBLE_EQ(overlapLength(0.0, 10.0, 10.0, 15.0), 0.0);
  EXPECT_DOUBLE_EQ(overlapLength(0.0, 10.0, -5.0, 100.0), 10.0);
}

TEST(GeometryTest, ClampSafe) {
  EXPECT_DOUBLE_EQ(clampSafe(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(clampSafe(-5.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(clampSafe(15.0, 0.0, 10.0), 10.0);
  // Inverted bounds fall back to lo instead of UB.
  EXPECT_DOUBLE_EQ(clampSafe(5.0, 10.0, 0.0), 10.0);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.elapsed(), 0.0);
}

TEST(TimingRegistryTest, AccumulatesAndReports) {
  LocalContext local;
  auto& registry = local.context.timing();
  registry.clear();
  registry.addScope("stage_a", 1.0, 1.0);
  registry.addScope("stage_a", 0.5, 0.5);
  registry.addScope("stage_a/sub", 0.25, 0.25);
  registry.addScope("stage_b", 2.0, 2.0);
  EXPECT_DOUBLE_EQ(registry.total("stage_a"), 1.5);
  EXPECT_DOUBLE_EQ(registry.total("missing"), 0.0);
  EXPECT_DOUBLE_EQ(registry.totalPrefix("stage_a"), 1.75);
  registry.clear();
  EXPECT_DOUBLE_EQ(registry.total("stage_a"), 0.0);
}

TEST(TimingRegistryTest, TotalPrefixIsStringPrefix) {
  LocalContext local;
  auto& registry = local.context.timing();
  registry.clear();
  registry.addScope("gp", 1.0, 1.0);
  registry.addScope("gp/op/wirelength", 2.0, 2.0);
  registry.addScope("gp/op/density", 4.0, 4.0);
  registry.addScope("gq", 8.0, 8.0);  // sorts after every "gp*" key
  EXPECT_DOUBLE_EQ(registry.totalPrefix("gp/op"), 6.0);
  EXPECT_DOUBLE_EQ(registry.totalPrefix("gp"), 7.0);
  EXPECT_DOUBLE_EQ(registry.totalPrefix(""), 15.0);
  EXPECT_DOUBLE_EQ(registry.totalPrefix("nope"), 0.0);
  registry.clear();
}

TEST(TimingRegistryTest, ScopedTimerAdds) {
  LocalContext local;
  auto& registry = local.context.timing();
  registry.clear();
  {
    ScopedTimer scope("scoped_key");
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) {
      x = x + i;
    }
  }
  EXPECT_GT(registry.total("scoped_key"), 0.0);
  registry.clear();
}

TEST(CounterRegistryTest, AddValueAndPrefix) {
  LocalContext local;
  auto& registry = local.context.counters();
  registry.clear();
  registry.add("ops/a");
  registry.add("ops/a", 4);
  registry.add("ops/b", 2);
  registry.add("fft/forward", 3);
  EXPECT_EQ(registry.value("ops/a"), 5);
  EXPECT_EQ(registry.value("missing"), 0);
  EXPECT_EQ(registry.totalPrefix("ops"), 7);
  EXPECT_EQ(registry.totalPrefix("fft"), 3);
  const std::string report = registry.report();
  EXPECT_NE(report.find("ops/a"), std::string::npos);
  EXPECT_NE(report.find("fft/forward"), std::string::npos);
  registry.clear();
  EXPECT_EQ(registry.value("ops/a"), 0);
}

TEST(CounterRegistryTest, ClearKeepsAddressesValid) {
  // Counter handles cache the atomic's address; clear() must zero in
  // place rather than erase, or cached handles would dangle.
  LocalContext local;
  auto& registry = local.context.counters();
  std::atomic<CounterRegistry::Value>& cell = registry.counter("stable/key");
  cell.fetch_add(7);
  registry.clear();
  EXPECT_EQ(&registry.counter("stable/key"), &cell);
  EXPECT_EQ(cell.load(), 0);
  Counter handle("stable/key");
  handle.add(3);
  EXPECT_EQ(registry.value("stable/key"), 3);
  EXPECT_EQ(handle.value(), 3);
  registry.clear();
}

TEST(CounterRegistryTest, ConcurrentIncrementsAreLossless) {
  LocalContext local;
  auto& registry = local.context.counters();
  registry.clear();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&local] {
      FlowContextScope scope(local.context);
      Counter c("concurrent/key");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.value("concurrent/key"), kThreads * kPerThread);
  registry.clear();
}

TEST(TraceRecorderTest, DisabledPathRecordsNothing) {
  LocalContext local;
  auto& trace = local.context.trace();
  trace.setEnabled(false);
  trace.clear();
  trace.completeEvent("ignored", 0.5);
  trace.counterEvent("ignored", 1.0);
  { ScopedTimer timer("trace_test/ignored"); }
  EXPECT_EQ(trace.size(), 0u);
  local.context.timing().clear();
}

TEST(TraceRecorderTest, RecordsAllEventKinds) {
  LocalContext local;
  auto& trace = local.context.trace();
  trace.clear();
  trace.setEnabled(true);
  trace.completeEvent("span", 0.001);
  trace.counterEvent("gauge", 42.5);
  { ScopedTimer timer("trace_test/timed"); }
  trace.setEnabled(false);
  EXPECT_EQ(trace.size(), 3u);

  const std::string json = trace.toJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"span\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_test/timed\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  // Minimal structural validity: balanced braces/brackets outside strings.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      --braces;
    } else if (c == '[') {
      ++brackets;
    } else if (c == ']') {
      --brackets;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  trace.clear();
  local.context.timing().clear();
}

TEST(TraceRecorderTest, WriteJsonRoundTrips) {
  LocalContext local;
  auto& trace = local.context.trace();
  trace.clear();
  trace.setEnabled(true);
  trace.completeEvent("file_span", 0.002);
  trace.setEnabled(false);
  const std::string path =
      ::testing::TempDir() + "trace_recorder_test.json";
  ASSERT_TRUE(trace.writeJson(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, trace.toJson());
  EXPECT_FALSE(trace.writeJson("/nonexistent-dir/trace.json"));
  trace.clear();
}

TEST(TraceRecorderTest, BufferIsBoundedAndDropsAreCounted) {
  LocalContext local;
  auto& trace = local.context.trace();
  trace.clear();
  const std::size_t saved_capacity = trace.capacity();
  trace.setCapacity(4);
  trace.setEnabled(true);
  const auto dropped_before = local.context.counters().value("trace/dropped");
  for (int i = 0; i < 10; ++i) {
    trace.completeEvent("bounded", 0.001);
  }
  trace.setEnabled(false);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  // The counter is cumulative across clear()s; this test added exactly 6.
  EXPECT_EQ(local.context.counters().value("trace/dropped"),
            dropped_before + 6);
  // clear() resets the per-recording drop count and frees the buffer.
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
  trace.setCapacity(saved_capacity);
}

TEST(TraceRecorderTest, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}


TEST(LogTest, ParseLogLevelNamesAndAliases) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(parseLogLevel("debug", level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parseLogLevel("INFO", level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parseLogLevel("Warning", level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parseLogLevel("warn", level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parseLogLevel("error", level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(parseLogLevel("silent", level));
  EXPECT_EQ(level, LogLevel::kSilent);
  EXPECT_TRUE(parseLogLevel("off", level));
  EXPECT_EQ(level, LogLevel::kSilent);

  level = LogLevel::kInfo;
  EXPECT_FALSE(parseLogLevel("loud", level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure

  EXPECT_STREQ(logLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(logLevelName(LogLevel::kWarn), "warn");
  EXPECT_STREQ(logLevelName(LogLevel::kSilent), "silent");
}

TEST(LogTest, EnvDrivenLevelApplies) {
  const LogLevel saved = logLevel();
  ::setenv("DREAMPLACE_LOG_LEVEL", "error", 1);
  EXPECT_TRUE(initLogLevelFromEnv());
  EXPECT_EQ(logLevel(), LogLevel::kError);
  ::setenv("DREAMPLACE_LOG_LEVEL", "not-a-level", 1);
  EXPECT_FALSE(initLogLevelFromEnv());
  EXPECT_EQ(logLevel(), LogLevel::kError);  // invalid value ignored
  ::unsetenv("DREAMPLACE_LOG_LEVEL");
  EXPECT_FALSE(initLogLevelFromEnv());
  setLogLevel(saved);
}

TEST(LogTest, LogScopeStacksPerThread) {
  EXPECT_EQ(LogScope::currentText(), "");
  {
    LogScope job("job", "eng7");
    EXPECT_EQ(LogScope::currentText(), "job=eng7");
    {
      LogScope design("design", "adaptec1");
      EXPECT_EQ(LogScope::currentText(), "job=eng7 design=adaptec1");
      // Scopes are thread-local: a fresh thread starts clean.
      std::string other;
      std::thread t([&other] { other = LogScope::currentText(); });
      t.join();
      EXPECT_EQ(other, "");
    }
    EXPECT_EQ(LogScope::currentText(), "job=eng7");
  }
  EXPECT_EQ(LogScope::currentText(), "");
}

}  // namespace
}  // namespace dreamplace
