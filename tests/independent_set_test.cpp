#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/metrics.h"
#include "dp/independent_set.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"

namespace dreamplace {
namespace {

TEST(HungarianTest, SolvesKnownInstances) {
  // Classic 3x3 with unique optimum: assignment (0->1, 1->0, 2->2), cost 5.
  const std::vector<double> cost{4, 1, 3, 2, 0, 5, 3, 2, 2};
  AssignmentSolver solver;
  const auto a = solver.solve(cost, 3);
  double total = 0;
  for (int i = 0; i < 3; ++i) {
    total += cost[i * 3 + a[i]];
  }
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(HungarianTest, IdentityWhenDiagonalDominant) {
  const std::vector<double> cost{0, 9, 9, 9, 0, 9, 9, 9, 0};
  AssignmentSolver solver;
  const auto a = solver.solve(cost, 3);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 2);
}

TEST(HungarianTest, OptimalOnRandomInstancesVsBruteForce) {
  // One solver across all trials: its reused scratch must not leak from
  // one size into the next.
  Rng rng(17);
  AssignmentSolver solver;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniformInt(4));  // 2..5
    std::vector<double> cost(n * n);
    for (double& c : cost) {
      c = rng.uniform(0, 10);
    }
    const auto a = solver.solve(cost, n);
    double hungarian = 0;
    std::vector<char> seen(n, 0);
    for (int i = 0; i < n; ++i) {
      ASSERT_GE(a[i], 0);
      ASSERT_LT(a[i], n);
      ASSERT_FALSE(seen[a[i]]) << "not a permutation";
      seen[a[i]] = 1;
      hungarian += cost[i * n + a[i]];
    }
    // Brute force.
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) {
      perm[i] = i;
    }
    double best = 1e18;
    do {
      double total = 0;
      for (int i = 0; i < n; ++i) {
        total += cost[i * n + perm[i]];
      }
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    ASSERT_NEAR(hungarian, best, 1e-9) << "trial " << trial;
  }
}

std::unique_ptr<Database> legalDesign(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.numCells = 500;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  Rng rng(seed + 9);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i,
                        rng.uniform(die.xl, die.xh - db->cellWidth(i)),
                        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  AbacusLegalizer().run(*db);
  return db;
}

TEST(IsmTest, NeverIncreasesHpwlAndPreservesLegality) {
  auto db = legalDesign(151);
  const double before = hpwl(*db);
  const IsmResult result = independentSetMatching(*db, IsmOptions{});
  const double after = hpwl(*db);
  EXPECT_LE(after, before + 1e-6);
  EXPECT_GT(result.setsSolved, 0);
  EXPECT_TRUE(checkLegality(*db).legal);
  // The reported gain matches the actual HPWL delta (net-disjoint sets
  // make the per-set accounting exact).
  EXPECT_NEAR(before - after, result.hpwlGain, 1e-6 * before);
}

TEST(IsmTest, ImprovesRandomLegalPlacement) {
  auto db = legalDesign(157);
  const double before = hpwl(*db);
  const IsmResult result = independentSetMatching(*db, IsmOptions{});
  EXPECT_GT(result.cellsMoved, 0);
  EXPECT_LT(hpwl(*db), before);
}

TEST(IsmTest, RespectsSetSizeLimitAndBudget) {
  auto db = legalDesign(163);
  IsmOptions options;
  options.maxSetSize = 4;
  options.maxSetsPerPass = 3;
  const IsmResult result = independentSetMatching(*db, options);
  EXPECT_LE(result.setsSolved, 3);
  EXPECT_TRUE(checkLegality(*db).legal);
}

TEST(IsmTest, ConvergesToFixedPoint) {
  // Every applied permutation strictly decreases HPWL, so repeated passes
  // must drive the per-pass gain to (near) zero in bounded time.
  auto db = legalDesign(167);
  double gain = 0.0;
  int passes = 0;
  for (; passes < 40; ++passes) {
    gain = independentSetMatching(*db, IsmOptions{}).hpwlGain;
    if (gain < 1e-4 * hpwl(*db)) {
      break;
    }
  }
  EXPECT_LT(passes, 40) << "last gain " << gain;
  EXPECT_TRUE(checkLegality(*db).legal);
}

}  // namespace
}  // namespace dreamplace
