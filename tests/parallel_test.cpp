// Unit tests for the deterministic parallel runtime (common/parallel.h):
// coverage/exactly-once execution, thread-count-independent block
// decomposition, bit-identical reductions, nested-job degradation, pool
// reconfiguration, job widths under busy engine lanes, and the
// observability counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/flow_context.h"
#include "common/counters.h"
#include "common/parallel.h"

namespace dreamplace {
namespace {

/// Forces a pool size for one test, restoring auto-resolution on exit so
/// later tests in the binary see the default configuration.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    ThreadPool::instance().setThreads(threads);
  }
  ~ScopedThreads() { ThreadPool::instance().setThreads(0); }
};

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ScopedThreads scope(threads);
    constexpr Index kN = 10007;  // prime: exercises a ragged tail block
    std::vector<std::atomic<int>> visits(kN);
    for (auto& v : visits) v.store(0);
    parallelFor("test/visit", kN, 64,
                [&](Index i) { visits[i].fetch_add(1); });
    for (Index i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelForTest, EmptyAndSingleRangesAreHandled) {
  ScopedThreads scope(4);
  int calls = 0;
  parallelFor("test/empty", 0, 16, [&](Index) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor("test/one", 1, 16, [&](Index i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForBlockedTest, BlockBoundariesIgnoreThreadCount) {
  // The determinism contract: block boundaries are a function of
  // (n, grain) only. Collect the (lo, hi) set at several thread counts
  // and require them identical.
  constexpr Index kN = 777;
  constexpr Index kGrain = 32;
  auto boundaries = [&](int threads) {
    ScopedThreads scope(threads);
    std::mutex m;
    std::vector<std::pair<Index, Index>> blocks;
    parallelForBlocked("test/blocks", kN, kGrain,
                       [&](Index lo, Index hi, int) {
                         std::lock_guard<std::mutex> lock(m);
                         blocks.emplace_back(lo, hi);
                       });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  const auto b1 = boundaries(1);
  const auto b2 = boundaries(2);
  const auto b4 = boundaries(4);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(b1, b4);
  ASSERT_EQ(b1.size(), static_cast<std::size_t>((kN + kGrain - 1) / kGrain));
  EXPECT_EQ(b1.front().first, 0);
  EXPECT_EQ(b1.back().second, kN);
}

TEST(ParallelForBlockedTest, WorkerIndexWithinPool) {
  ScopedThreads scope(3);
  std::atomic<bool> ok{true};
  parallelForBlocked("test/worker", 64, 1, [&](Index, Index, int worker) {
    if (worker < 0 || worker >= ThreadPool::instance().threads()) {
      ok.store(false);
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  // Float accumulation order is fixed by the block decomposition, so the
  // reduction must produce the same bits at any pool size.
  constexpr Index kN = 54321;
  std::vector<double> values(kN);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (double& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  }
  auto sum = [&](int threads) {
    ScopedThreads scope(threads);
    return parallelReduce(
        "test/sum", kN, 1024, 0.0,
        [&](Index lo, Index hi) {
          double s = 0.0;
          for (Index i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  const double s1 = sum(1);
  EXPECT_EQ(s1, sum(2));
  EXPECT_EQ(s1, sum(4));
}

TEST(ParallelReduceTest, MatchesSerialBlockOrder) {
  ScopedThreads scope(4);
  constexpr Index kN = 1000;
  constexpr Index kGrain = 64;
  const double parallel = parallelReduce(
      "test/ordered", kN, kGrain, 0.0,
      [](Index lo, Index hi) {
        double s = 0.0;
        for (Index i = lo; i < hi; ++i) s += 1.0 / (1.0 + i);
        return s;
      },
      [](double acc, double partial) { return acc + partial; });
  double serial = 0.0;
  for (Index lo = 0; lo < kN; lo += kGrain) {
    const Index hi = std::min<Index>(lo + kGrain, kN);
    double s = 0.0;
    for (Index i = lo; i < hi; ++i) s += 1.0 / (1.0 + i);
    serial += s;
  }
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolTest, NestedJobsRunSerialInsteadOfDeadlocking) {
  ScopedThreads scope(4);
  std::atomic<int> total{0};
  parallelFor("test/outer", 8, 1, [&](Index) {
    parallelFor("test/inner", 8, 1, [&](Index) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SetThreadsReconfigures) {
  ThreadPool& pool = ThreadPool::instance();
  pool.setThreads(3);
  EXPECT_EQ(pool.threads(), 3);
  pool.setThreads(1);
  EXPECT_EQ(pool.threads(), 1);
  pool.setThreads(0);  // back to auto
  EXPECT_GE(pool.threads(), 1);
}

TEST(ThreadPoolTest, CountersAndUtilizationAdvance) {
  ScopedThreads scope(2);
  FlowContext context;
  FlowContextScope flow_scope(context);
  auto& registry = context.counters();
  const auto jobs0 = registry.value("parallel/jobs");
  const auto tasks0 = registry.value("parallel/tasks");
  parallelFor("test/counted", 256, 16, [](Index) {});
  EXPECT_EQ(registry.value("parallel/jobs") - jobs0, 1);
  EXPECT_EQ(registry.value("parallel/tasks") - tasks0, 16);
  const double utilization = ThreadPool::instance().utilization();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

TEST(ThreadPoolTest, SerialModeCountsTasksToo) {
  // The `parallel/tasks >= 1` report invariant must hold on a one-thread
  // pool, where every job takes the serial inline path.
  ScopedThreads scope(1);
  FlowContext context;
  FlowContextScope flow_scope(context);
  auto& registry = context.counters();
  const auto tasks0 = registry.value("parallel/tasks");
  parallelFor("test/serial", 100, 10, [](Index) {});
  EXPECT_EQ(registry.value("parallel/tasks") - tasks0, 10);
}

TEST(ThreadPoolTest, CountsJobsAndInlineRunsPerLabel) {
  // One task, a nested job and a one-thread pool all run inline; the
  // per-label job count is the same whichever way a job ran.
  FlowContext context;
  FlowContextScope flow_scope(context);
  auto& registry = context.counters();
  {
    ScopedThreads scope(2);
    parallelFor("test/label_pooled", 64, 4, [](Index) {});
    parallelFor("test/label_one", 1, 4, [](Index) {});
    parallelFor("test/label_outer", 4, 1, [](Index) {
      parallelFor("test/label_inner", 8, 1, [](Index) {});
    });
  }
  EXPECT_EQ(registry.value("parallel/jobs/test/label_pooled"), 1);
  EXPECT_EQ(registry.value("parallel/inline/test/label_pooled"), 0);
  EXPECT_EQ(registry.value("parallel/jobs/test/label_one"), 1);
  EXPECT_EQ(registry.value("parallel/inline/test/label_one"), 1);
  EXPECT_EQ(registry.value("parallel/jobs/test/label_inner"), 4);
  EXPECT_EQ(registry.value("parallel/inline/test/label_inner"), 4);
  {
    ScopedThreads scope(1);
    parallelFor("test/label_pooled", 64, 4, [](Index) {});
  }
  EXPECT_EQ(registry.value("parallel/jobs/test/label_pooled"), 2);
  EXPECT_EQ(registry.value("parallel/inline/test/label_pooled"), 1);
  EXPECT_EQ(registry.value("parallel/jobs"), 8);
}

TEST(ThreadPoolTest, RecordsWallAndBusyTimePerLabel) {
  // Eight 1 ms tasks on two threads: the job's wall time covers at least
  // four of them, its busy time (summed over the participants) all eight
  // and at most two participants for the whole wall time. An inline job
  // is busy for exactly its wall time.
  FlowContext context;
  FlowContextScope flow_scope(context);
  auto& registry = context.counters();
  const auto sleepy = [](Index) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  {
    ScopedThreads scope(2);
    parallelFor("test/timed_pooled", 8, 1, sleepy);
  }
  const auto wall = registry.value("parallel/wall_us/test/timed_pooled");
  const auto busy = registry.value("parallel/busy_us/test/timed_pooled");
  EXPECT_GE(wall, 4000);
  EXPECT_GE(busy, 8000);
  EXPECT_LE(busy, 2 * wall + 2);
  {
    ScopedThreads scope(1);
    parallelFor("test/timed_inline", 3, 1, sleepy);
  }
  EXPECT_GE(registry.value("parallel/wall_us/test/timed_inline"), 3000);
  EXPECT_EQ(registry.value("parallel/busy_us/test/timed_inline"),
            registry.value("parallel/wall_us/test/timed_inline"));
  EXPECT_EQ(registry.value("parallel/jobs/test/timed_pooled"), 1);
}

/// Runs one 64-task job on the current flow's pool and returns the
/// distinct worker indices that executed its tasks. Each task sleeps
/// briefly so that every worker allowed to join has time to.
std::set<int> workersOfOneJob(const char* label) {
  std::mutex m;
  std::set<int> workers;
  parallelForBlocked(label, 64, 1, [&](Index, Index, int worker) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> lock(m);
    workers.insert(worker);
  });
  return workers;
}

/// A pool sized to the machine, installed as a fresh flow's pool.
struct MachinePool {
  MachinePool()
      : hw(std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {
    pool.setThreads(hw);
    FlowContext::Config config;
    config.pool = &pool;
    context = std::make_unique<FlowContext>(config);
  }
  int hw;
  ThreadPool pool;
  std::unique_ptr<FlowContext> context;
};

TEST(ThreadPoolTest, BusyLanesEveryCoreRunJobsInline) {
  MachinePool machine;
  if (machine.hw < 2) {
    GTEST_SKIP() << "needs at least two hardware threads";
  }
  FlowContextScope flow_scope(*machine.context);
  auto& registry = machine.context->counters();
  std::vector<std::unique_ptr<ThreadPool::LaneScope>> lanes;
  for (int lane = 0; lane < machine.hw; ++lane) {
    lanes.push_back(std::make_unique<ThreadPool::LaneScope>(machine.pool));
  }
  EXPECT_EQ(workersOfOneJob("test/all_lanes"), std::set<int>{0});
  EXPECT_EQ(registry.value("parallel/narrowed"), 1);
  EXPECT_EQ(registry.value("parallel/inline/test/all_lanes"), 1);
  // Narrowing changes who runs a block, never what a reduction returns.
  const auto sum = [] {
    return parallelReduce(
        "test/narrow_sum", 10007, 64, 0.0,
        [](Index lo, Index hi) {
          double s = 0.0;
          for (Index i = lo; i < hi; ++i) s += 1.0 / (3.0 + i);
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  const double narrowed = sum();
  lanes.clear();
  EXPECT_EQ(narrowed, sum());
}

TEST(ThreadPoolTest, TwoBusyLanesRunJobsInline) {
  MachinePool machine;
  if (machine.hw < 2) {
    GTEST_SKIP() << "needs at least two hardware threads";
  }
  FlowContextScope flow_scope(*machine.context);
  auto& registry = machine.context->counters();
  // Two busy lanes already keep two cores busy; on a machine with more
  // cores the job still runs inline rather than on part of the pool.
  ThreadPool::LaneScope self(machine.pool);
  ThreadPool::LaneScope sibling(machine.pool);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(workersOfOneJob("test/two_lanes"), std::set<int>{0});
  }
  EXPECT_EQ(registry.value("parallel/narrowed"), 5);
  EXPECT_EQ(registry.value("parallel/inline/test/two_lanes"), 5);
}

TEST(ThreadPoolTest, OneBusyLaneKeepsTheWholePool) {
  MachinePool machine;
  FlowContextScope flow_scope(*machine.context);
  auto& registry = machine.context->counters();
  const auto run = [&](const char* label) {
    for (const int worker : workersOfOneJob(label)) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, machine.hw);
    }
  };
  run("test/no_lane");
  {
    ThreadPool::LaneScope lane(machine.pool);
    run("test/one_lane");
  }
  EXPECT_EQ(registry.value("parallel/narrowed"), 0);
  EXPECT_EQ(registry.value("parallel/jobs"), 2);
  const CounterRegistry::Value pooled = machine.hw > 1 ? 0 : 1;
  EXPECT_EQ(registry.value("parallel/inline/test/no_lane"), pooled);
  EXPECT_EQ(registry.value("parallel/inline/test/one_lane"), pooled);
}

/// Sets an environment variable for one test, restoring its previous
/// value (or absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
      had_ = true;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string old_;
  bool had_ = false;
};

TEST(ThreadPoolTest, MalformedThreadsVariableThrows) {
  // A set DREAMPLACE_THREADS that is not a whole number >= 0 once meant
  // "auto" silently.
  for (const char* bad : {"abc", "4x", "", "-2"}) {
    ScopedEnv env("DREAMPLACE_THREADS", bad);
    ThreadPool pool;
    try {
      pool.setThreads(0);
      ADD_FAILURE() << "no throw for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DREAMPLACE_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  ScopedEnv env("DREAMPLACE_THREADS", "3");
  ThreadPool pool;
  pool.setThreads(0);
  EXPECT_EQ(pool.threads(), 3);
}

}  // namespace
}  // namespace dreamplace
