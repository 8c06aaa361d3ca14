// Determinism suite for the parallel runtime (docs/PARALLEL.md): the
// full flow and every wirelength kernel must produce bit-identical
// float64 results at any thread count. This is the contract that lets
// the count-based regression gate pin flow metrics exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "db/metrics.h"
#include "dp/detailed_placer.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"
#include "ops/wirelength.h"
#include "place/placer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> synthDesign(std::uint64_t seed, Index cells = 400) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numPads = 8;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

template <typename T>
std::vector<T> centerParams(const Database& db, Index numNodes) {
  std::vector<T> params(2 * static_cast<size_t>(numNodes), T(0));
  for (Index i = 0; i < db.numMovable(); ++i) {
    params[i] = static_cast<T>(db.cellX(i) + db.cellWidth(i) / 2);
    params[i + numNodes] =
        static_cast<T>(db.cellY(i) + db.cellHeight(i) / 2);
  }
  return params;
}

TEST(DeterminismTest, FlowIsBitIdenticalAcrossThreadCounts) {
  // Same seed, same options, three thread counts: the final HPWL and
  // overflow must match to the last bit (EXPECT_EQ on doubles, no
  // tolerance). On a 1-core machine the 2/4-thread runs execute
  // oversubscribed, which still exercises the block decomposition and
  // ordered combination the contract relies on.
  struct Outcome {
    double hpwlGp, hpwlLegal, hpwl, overflow;
    int iterations;
  };
  auto runFlow = [](int threads) {
    auto db = synthDesign(42);
    PlacerOptions options;
    options.precision = Precision::kFloat64;
    options.threads = threads;
    options.gp.maxIterations = 300;
    options.gp.binsMax = 64;
    options.dp.passes = 1;
    const FlowResult r = placeDesign(*db, options);
    return Outcome{r.hpwlGp, r.hpwlLegal, r.hpwl, r.overflow, r.gpIterations};
  };
  const Outcome t1 = runFlow(1);
  for (const int threads : {2, 4}) {
    const Outcome t = runFlow(threads);
    EXPECT_EQ(t1.hpwlGp, t.hpwlGp) << threads << " threads";
    EXPECT_EQ(t1.hpwlLegal, t.hpwlLegal) << threads << " threads";
    EXPECT_EQ(t1.hpwl, t.hpwl) << threads << " threads";
    EXPECT_EQ(t1.overflow, t.overflow) << threads << " threads";
    EXPECT_EQ(t1.iterations, t.iterations) << threads << " threads";
  }
  ThreadPool::instance().setThreads(0);
}

TEST(DeterminismTest, BackendBitIdenticalAcrossThreadCounts) {
  // LG + DP only: the serial back-end must give the same results at any
  // pool size — every final position, the HPWL and every lg/* and dp/*
  // work counter compare with EXPECT_EQ, no tolerance. The same jittered
  // start is rebuilt per run so each thread count legalizes identical
  // input, and each run counts into its own FlowContext.
  struct Outcome {
    double hpwl = 0;
    std::vector<double> xs, ys;
    std::map<std::string, CounterRegistry::Value> counters;
  };
  auto runBackend = [](int threads) {
    auto db = synthDesign(1234, 600);
    Rng rng(99);
    const Coord h = db->rowHeight();
    for (Index i = 0; i < db->numMovable(); ++i) {
      db->setCellPosition(i, db->cellX(i) + rng.uniform(-5 * h, 5 * h),
                          db->cellY(i) + rng.uniform(-5 * h, 5 * h));
    }
    ThreadPool::instance().setThreads(threads);
    FlowContext context;
    FlowContextScope scope(context);
    AbacusLegalizer().run(*db);
    DetailedPlacer::Options options;
    options.passes = 2;
    DetailedPlacer(options).run(*db);
    Outcome out;
    for (Index i = 0; i < db->numCells(); ++i) {
      out.xs.push_back(db->cellX(i));
      out.ys.push_back(db->cellY(i));
    }
    out.hpwl = hpwl(*db);
    for (const auto& [key, value] : context.counters().snapshot()) {
      if (key.rfind("lg/", 0) == 0 || key.rfind("dp/", 0) == 0) {
        out.counters.emplace(key, value);
      }
    }
    return out;
  };
  const Outcome t1 = runBackend(1);
  EXPECT_GT(t1.counters.count("lg/segments_tried"), 0u);
  EXPECT_GT(t1.counters.count("dp/bbox_delta"), 0u);
  for (const int threads : {2, 4}) {
    const Outcome t = runBackend(threads);
    EXPECT_EQ(t1.hpwl, t.hpwl) << threads << " threads";
    EXPECT_EQ(t1.counters, t.counters) << threads << " threads";
    ASSERT_EQ(t1.xs.size(), t.xs.size());
    for (std::size_t i = 0; i < t1.xs.size(); ++i) {
      ASSERT_EQ(t1.xs[i], t.xs[i]) << "cell " << i << " x at " << threads
                                   << " threads";
      ASSERT_EQ(t1.ys[i], t.ys[i]) << "cell " << i << " y at " << threads
                                   << " threads";
    }
  }
  ThreadPool::instance().setThreads(0);
}

class KernelDeterminismTest
    : public ::testing::TestWithParam<WirelengthKernel> {};

TEST_P(KernelDeterminismTest, GradientBitIdenticalAcrossThreadCounts) {
  auto db = synthDesign(77, 300);
  const Index n = db->numMovable();
  const auto params = centerParams<double>(*db, n);

  auto evaluate = [&](int threads, std::vector<double>& grad) {
    ThreadPool::instance().setThreads(threads);
    WaWirelengthOp<double>::Options opts;
    opts.kernel = GetParam();
    WaWirelengthOp<double> op(*db, n, opts);
    op.setGamma(4.0);
    grad.assign(params.size(), 0.0);
    return op.evaluate(params, grad);
  };

  std::vector<double> g1, g;
  const double v1 = evaluate(1, g1);
  for (const int threads : {2, 4}) {
    const double v = evaluate(threads, g);
    EXPECT_EQ(v1, v) << threads << " threads";
    for (size_t i = 0; i < g1.size(); ++i) {
      ASSERT_EQ(g1[i], g[i]) << "grad " << i << " at " << threads
                             << " threads";
    }
  }
  ThreadPool::instance().setThreads(0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelDeterminismTest,
                         ::testing::Values(WirelengthKernel::kNetByNet,
                                           WirelengthKernel::kAtomic,
                                           WirelengthKernel::kMerged),
                         [](const auto& info) {
                           switch (info.param) {
                             case WirelengthKernel::kNetByNet:
                               return "NetByNet";
                             case WirelengthKernel::kAtomic: return "Atomic";
                             case WirelengthKernel::kMerged: return "Merged";
                           }
                           return "?";
                         });

TEST(DeterminismTest, KernelsAgreeAtEveryThreadCount) {
  // Three-way agreement (the seed's MatchesMergedKernel property) must
  // hold at every pool size, not just the default.
  auto db = synthDesign(91, 250);
  const Index n = db->numMovable();
  const auto params = centerParams<double>(*db, n);

  for (const int threads : {1, 2, 4}) {
    ThreadPool::instance().setThreads(threads);
    std::vector<double> ref;
    double ref_value = 0.0;
    for (const WirelengthKernel kernel :
         {WirelengthKernel::kMerged, WirelengthKernel::kNetByNet,
          WirelengthKernel::kAtomic}) {
      WaWirelengthOp<double>::Options opts;
      opts.kernel = kernel;
      WaWirelengthOp<double> op(*db, n, opts);
      op.setGamma(4.0);
      std::vector<double> grad(params.size(), 0.0);
      const double value = op.evaluate(params, grad);
      if (ref.empty()) {
        ref = grad;
        ref_value = value;
        continue;
      }
      EXPECT_NEAR(value, ref_value, 1e-9 * std::abs(ref_value))
          << threads << " threads";
      for (size_t i = 0; i < grad.size(); ++i) {
        ASSERT_NEAR(grad[i], ref[i], 1e-9 * (1.0 + std::abs(ref[i])))
            << "grad " << i << " at " << threads << " threads";
      }
    }
  }
  ThreadPool::instance().setThreads(0);
}

}  // namespace
}  // namespace dreamplace
