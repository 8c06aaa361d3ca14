#include <gtest/gtest.h>

#include "common/parallel.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gp/quadratic_ip.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> design(std::uint64_t seed = 111,
                                 Index cells = 400) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

/// HPWL of center coordinates produced by the IP.
double hpwlOfCenters(const Database& db, const std::vector<double>& x,
                     const std::vector<double>& y) {
  std::vector<double> llx(db.numMovable()), lly(db.numMovable());
  for (Index i = 0; i < db.numMovable(); ++i) {
    llx[i] = x[i] - db.cellWidth(i) / 2;
    lly[i] = y[i] - db.cellHeight(i) / 2;
  }
  return hpwl(db, llx, lly);
}

TEST(QuadraticIpTest, ImprovesHpwlOverCenterStart) {
  auto db = design();
  const Index n = db->numMovable();
  const Box<Coord>& die = db->dieArea();
  std::vector<double> x(n, die.centerX());
  std::vector<double> y(n, die.centerY());
  const double before = hpwlOfCenters(*db, x, y);
  quadraticInitialPlacement<double>(*db, QuadraticIpOptions{}, x, y);
  const double after = hpwlOfCenters(*db, x, y);
  // All-at-center already has near-minimal movable-movable length; the
  // quadratic solve must reduce the fixed-pin (pad) contributions.
  EXPECT_LT(after, before);
}

TEST(QuadraticIpTest, StaysInsideDie) {
  auto db = design(113);
  const Index n = db->numMovable();
  const Box<Coord>& die = db->dieArea();
  std::vector<double> x(n, die.centerX());
  std::vector<double> y(n, die.centerY());
  quadraticInitialPlacement<double>(*db, QuadraticIpOptions{}, x, y);
  for (Index i = 0; i < n; ++i) {
    EXPECT_GE(x[i] - db->cellWidth(i) / 2, die.xl - 1e-6);
    EXPECT_LE(x[i] + db->cellWidth(i) / 2, die.xh + 1e-6);
    EXPECT_GE(y[i] - db->cellHeight(i) / 2, die.yl - 1e-6);
    EXPECT_LE(y[i] + db->cellHeight(i) / 2, die.yh + 1e-6);
  }
}

TEST(QuadraticIpTest, DeterministicAndConverging) {
  auto db = design(117);
  const Index n = db->numMovable();
  const Box<Coord>& die = db->dieArea();
  std::vector<double> x1(n, die.centerX()), y1(n, die.centerY());
  std::vector<double> x2(n, die.centerX()), y2(n, die.centerY());
  quadraticInitialPlacement<double>(*db, QuadraticIpOptions{}, x1, y1);
  quadraticInitialPlacement<double>(*db, QuadraticIpOptions{}, x2, y2);
  for (Index i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x1[i], x2[i]);
    ASSERT_DOUBLE_EQ(y1[i], y2[i]);
  }
  // More B2B rounds should not make quality (much) worse.
  QuadraticIpOptions deep;
  deep.b2bRounds = 60;
  std::vector<double> x3(n, die.centerX()), y3(n, die.centerY());
  quadraticInitialPlacement<double>(*db, deep, x3, y3);
  EXPECT_LE(hpwlOfCenters(*db, x3, y3),
            hpwlOfCenters(*db, x1, y1) * 1.05);
}

TEST(QuadraticIpTest, PullsCellsTowardFixedAnchors) {
  // Single movable cell on a net with one pad: the solve should put the
  // cell (near) the pad.
  Database db;
  const Index c = db.addCell("c", 4, 12, true);
  const Index pad = db.addCell("p", 1, 12, false);
  const Index net = db.addNet("n");
  db.addPin(net, c, 0, 0);
  db.addPin(net, pad, 0, 0);
  db.setDieArea({0, 0, 600, 600});
  for (int r = 0; r < 50; ++r) {
    db.addRow({static_cast<Coord>(r * 12), 12, 0, 600, 1});
  }
  db.setCellPosition(pad, 500, 240);
  db.setCellPosition(c, 10, 10);
  db.finalize();

  std::vector<double> x{300.0};
  std::vector<double> y{300.0};
  quadraticInitialPlacement<double>(db, QuadraticIpOptions{}, x, y);
  EXPECT_NEAR(x[0], 500.5, 2.0);  // pad pin center
  EXPECT_NEAR(y[0], 246.0, 2.0);
}

TEST(QuadraticIpTest, SinglePrecisionWorks) {
  auto db = design(119, 200);
  const Index n = db->numMovable();
  const Box<Coord>& die = db->dieArea();
  std::vector<float> x(n, static_cast<float>(die.centerX()));
  std::vector<float> y(n, static_cast<float>(die.centerY()));
  quadraticInitialPlacement<float>(*db, QuadraticIpOptions{}, x, y);
  for (Index i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(x[i]) && std::isfinite(y[i]));
  }
}

/// The x and y chains run as two pool tasks that share only the const
/// database, so every coordinate must match the serial result to the
/// last bit at any thread count, in both precisions.
template <typename T>
void expectBitIdenticalAcrossThreadCounts() {
  auto db = design(121, 600);
  const Index n = db->numMovable();
  auto run = [&](int threads) {
    ThreadPool::instance().setThreads(threads);
    // Start from the generator's placement so x and y begin asymmetric.
    std::vector<T> x(n), y(n);
    for (Index i = 0; i < n; ++i) {
      x[i] = static_cast<T>(db->cellX(i) + db->cellWidth(i) / 2);
      y[i] = static_cast<T>(db->cellY(i) + db->cellHeight(i) / 2);
    }
    quadraticInitialPlacement<T>(*db, QuadraticIpOptions{}, x, y);
    return std::make_pair(x, y);
  };
  const auto serial = run(1);
  for (const int threads : {2, 4}) {
    const auto pooled = run(threads);
    for (Index i = 0; i < n; ++i) {
      EXPECT_EQ(serial.first[i], pooled.first[i]) << threads << " threads";
      EXPECT_EQ(serial.second[i], pooled.second[i]) << threads << " threads";
    }
  }
  ThreadPool::instance().setThreads(0);
}

TEST(QuadraticIpTest, BitIdenticalAcrossThreadCounts) {
  expectBitIdenticalAcrossThreadCounts<double>();
  expectBitIdenticalAcrossThreadCounts<float>();
}

}  // namespace
}  // namespace dreamplace
