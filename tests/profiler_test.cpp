// Pins the profiler invariants documented in common/timer.h: per-key call
// counts, self vs inclusive time from the thread-local scope stack, the
// root-time percentage denominator, and thread-safe accumulation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/flow_context.h"
#include "common/timer.h"

namespace dreamplace {
namespace {


/// Burns wall-clock time without sleeping (sleep granularity is coarse
/// and flaky under load; a spin against steady_clock is exact enough).
void spinFor(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
  }
}

/// Every test records into the timing registry of its own FlowContext.
class ProfilerTest : public ::testing::Test {
 protected:
  TimingRegistry& registry() { return context_.timing(); }

  FlowContext context_;
  FlowContextScope scope_{context_};
};

TEST_F(ProfilerTest, CountsAccumulatePerKey) {
  registry().clear();
  for (int i = 0; i < 5; ++i) {
    ScopedTimer t("prof/count");
  }
  EXPECT_EQ(registry().count("prof/count"), 5);
  EXPECT_EQ(registry().count("prof/absent"), 0);
}

TEST_F(ProfilerTest, AddIsALeafRootScope) {
  registry().clear();
  registry().add("prof/manual", 1.5);
  registry().add("prof/manual", 0.5);
  const auto stats = registry().statsSnapshot().at("prof/manual");
  EXPECT_EQ(stats.count, 2);
  EXPECT_DOUBLE_EQ(stats.seconds, 2.0);
  EXPECT_DOUBLE_EQ(stats.selfSeconds, 2.0);  // leaf: self == inclusive
  EXPECT_DOUBLE_EQ(stats.rootSeconds, 2.0);
}

TEST_F(ProfilerTest, SelfExcludesNestedScopes) {
  registry().clear();
  {
    ScopedTimer outer("prof/outer");
    spinFor(0.01);
    {
      ScopedTimer inner("prof/outer/inner");
      spinFor(0.01);
    }
  }
  const auto stats = registry().statsSnapshot();
  const TimingStat& outer = stats.at("prof/outer");
  const TimingStat& inner = stats.at("prof/outer/inner");

  // self <= inclusive for every key.
  for (const auto& [key, s] : stats) {
    EXPECT_LE(s.selfSeconds, s.seconds + 1e-12) << key;
    EXPECT_GE(s.selfSeconds, 0.0) << key;
  }
  // The inner scope is a leaf: self == inclusive.
  EXPECT_DOUBLE_EQ(inner.selfSeconds, inner.seconds);
  // The outer scope's self time excludes the inner scope exactly.
  EXPECT_NEAR(outer.selfSeconds, outer.seconds - inner.seconds,
              1e-9 + 1e-6 * outer.seconds);
  // Both spun ~10ms, so the split is roughly half/half.
  EXPECT_GT(outer.selfSeconds, 0.25 * outer.seconds);
  EXPECT_LT(outer.selfSeconds, 0.75 * outer.seconds);
  // Only the outer scope was a root.
  EXPECT_DOUBLE_EQ(outer.rootSeconds, outer.seconds);
  EXPECT_DOUBLE_EQ(inner.rootSeconds, 0.0);
}

TEST_F(ProfilerTest, SubtreeSelfTimesSumToRootInclusive) {
  registry().clear();
  {
    ScopedTimer root("prof/root");
    spinFor(0.004);
    for (int i = 0; i < 3; ++i) {
      ScopedTimer child("prof/root/child");
      spinFor(0.002);
      ScopedTimer grandchild("prof/root/child/leaf");
      spinFor(0.002);
    }
  }
  const auto stats = registry().statsSnapshot();
  double self_sum = 0.0;
  double root_sum = 0.0;
  for (const auto& [key, s] : stats) {
    self_sum += s.selfSeconds;
    root_sum += s.rootSeconds;
  }
  const double root_incl = stats.at("prof/root").seconds;
  // Self times telescope: every observed second is attributed exactly once.
  EXPECT_NEAR(self_sum, root_incl, 1e-9 + 1e-6 * root_incl);
  EXPECT_NEAR(root_sum, root_incl, 1e-12);
}

TEST_F(ProfilerTest, SiblingScopesDoNotInflateEachOther) {
  registry().clear();
  {
    ScopedTimer outer("prof/seq");
    {
      ScopedTimer a("prof/seq/a");
      spinFor(0.003);
    }
    {
      ScopedTimer b("prof/seq/b");
      spinFor(0.003);
    }
  }
  const auto stats = registry().statsSnapshot();
  const double children =
      stats.at("prof/seq/a").seconds + stats.at("prof/seq/b").seconds;
  EXPECT_NEAR(stats.at("prof/seq").selfSeconds,
              stats.at("prof/seq").seconds - children,
              1e-9 + 1e-6 * stats.at("prof/seq").seconds);
}

TEST_F(ProfilerTest, ReportUsesRootTimeDenominator) {
  registry().clear();
  registry().add("alpha", 0.6);
  registry().add("beta", 0.4);
  {
    // A nested hierarchy: percentages must come from root time (1.0s +
    // the root scope below), not the sum of all inclusive times.
    ScopedTimer root("gamma");
    ScopedTimer nested("gamma/nested");
  }
  const std::string report = registry().report();
  // alpha is 0.6 of ~1.0s total root time => ~60%; a sum-of-inclusive
  // denominator bug (counting gamma/nested twice on top) would deflate it.
  EXPECT_NE(report.find("alpha"), std::string::npos);
  const bool about_sixty = report.find("59.") != std::string::npos ||
                           report.find("60.0") != std::string::npos;
  EXPECT_TRUE(about_sixty) << report;
}

TEST_F(ProfilerTest, ScopesOnOtherThreadsAreIndependentRoots) {
  registry().clear();
  {
    ScopedTimer outer("prof/mainroot");
    std::thread worker([this] {
      FlowContextScope scope(context_);
      ScopedTimer t("prof/threadroot");
      spinFor(0.002);
    });
    worker.join();
  }
  const auto stats = registry().statsSnapshot();
  // The worker's scope must not treat the main thread's active scope as
  // its parent: it is a root on its own thread...
  EXPECT_DOUBLE_EQ(stats.at("prof/threadroot").rootSeconds,
                   stats.at("prof/threadroot").seconds);
  // ...and must not be subtracted from the main scope's self time.
  EXPECT_NEAR(stats.at("prof/mainroot").selfSeconds,
              stats.at("prof/mainroot").seconds,
              1e-9 + 1e-6 * stats.at("prof/mainroot").seconds);
}

TEST_F(ProfilerTest, ConcurrentScopesAreLossless) {
  registry().clear();
  constexpr int kThreads = 4;
  constexpr int kScopes = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &go, t] {
      FlowContextScope scope(context_);
      while (!go.load()) {
      }
      const std::string key = "prof/stress/" + std::to_string(t % 2);
      for (int i = 0; i < kScopes; ++i) {
        ScopedTimer outer(key);
        ScopedTimer inner("prof/stress/inner");
      }
    });
  }
  go.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  // Two threads share each key: with the pre-mutex registry this loses
  // updates; with the fix every completed scope is counted.
  EXPECT_EQ(registry().count("prof/stress/0"), kThreads / 2 * kScopes);
  EXPECT_EQ(registry().count("prof/stress/1"), kThreads / 2 * kScopes);
  EXPECT_EQ(registry().count("prof/stress/inner"), kThreads * kScopes);
  const auto stats = registry().statsSnapshot();
  for (const auto& [key, s] : stats) {
    EXPECT_LE(s.selfSeconds, s.seconds + 1e-12) << key;
  }
}

TEST_F(ProfilerTest, LegacyAccessorsStaySourceCompatible) {
  registry().clear();
  registry().add("legacy/a", 1.0);
  registry().add("legacy/b", 2.0);
  EXPECT_DOUBLE_EQ(registry().total("legacy/a"), 1.0);
  EXPECT_DOUBLE_EQ(registry().totalPrefix("legacy/"), 3.0);
  const auto snapshot = registry().snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("legacy/b"), 2.0);
}

}  // namespace
}  // namespace dreamplace
