// Pins the profiler invariants documented in common/timer.h: per-key call
// counts, self vs inclusive time from the thread-local scope stack, and
// thread-safe accumulation.
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
  const auto stats = registry().statsSnapshot();
  EXPECT_EQ(stats.at("prof/count").count, 5);
  EXPECT_EQ(stats.count("prof/absent"), 0u);
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
  for (const auto& [key, s] : stats) {
    self_sum += s.selfSeconds;
  }
  const double root_incl = stats.at("prof/root").seconds;
  // Self times telescope: every observed second is attributed exactly once.
  EXPECT_NEAR(self_sum, root_incl, 1e-9 + 1e-6 * root_incl);
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
  // its parent, so it is not subtracted from the main scope's self time.
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
  const auto stats = registry().statsSnapshot();
  EXPECT_EQ(stats.at("prof/stress/0").count, kThreads / 2 * kScopes);
  EXPECT_EQ(stats.at("prof/stress/1").count, kThreads / 2 * kScopes);
  EXPECT_EQ(stats.at("prof/stress/inner").count, kThreads * kScopes);
  for (const auto& [key, s] : stats) {
    EXPECT_LE(s.selfSeconds, s.seconds + 1e-12) << key;
  }
}

}  // namespace
}  // namespace dreamplace
