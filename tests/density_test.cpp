#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/netlist_generator.h"
#include "ops/density_map.h"
#include "ops/density_op.h"

namespace dreamplace {
namespace {

DensityGrid<double> unitGrid(int m, double binSize = 1.0) {
  DensityGrid<double> grid;
  grid.mx = m;
  grid.my = m;
  grid.xl = 0;
  grid.yl = 0;
  grid.binW = binSize;
  grid.binH = binSize;
  return grid;
}

double mapSum(const std::vector<double>& map) {
  return std::accumulate(map.begin(), map.end(), 0.0);
}

TEST(MakeGridTest, PowerOfTwoAndClamped) {
  Box<Coord> region{0, 0, 1000, 1000};
  const auto grid = makeGrid<double>(region, 2000, 16, 1024);
  EXPECT_EQ(grid.mx, grid.my);
  EXPECT_EQ(grid.mx & (grid.mx - 1), 0);  // power of two
  EXPECT_GE(grid.mx, 16);
  EXPECT_LE(grid.mx, 1024);
  EXPECT_DOUBLE_EQ(grid.binW * grid.mx, 1000);
  // Tiny design clamps to the minimum.
  EXPECT_EQ(makeGrid<double>(region, 4, 16, 1024).mx, 16);
}

TEST(DensityMapTest, ScatterConservesCharge) {
  // Total map mass (in density units * bin area) equals total cell area,
  // regardless of smoothing, as long as cells stay inside the region.
  const auto grid = unitGrid(32);
  std::vector<double> w{3.0, 0.5, 10.0};
  std::vector<double> h{2.0, 0.5, 4.0};
  DensityMapBuilder<double> builder(grid, w, h);
  std::vector<double> map(32 * 32, 0.0);
  const double x[] = {10.0, 20.0, 16.0};
  const double y[] = {10.0, 20.0, 16.0};
  builder.scatter(x, y, 0, 3, map);
  const double expected = 3 * 2 + 0.5 * 0.5 + 10 * 4;
  EXPECT_NEAR(mapSum(map) * grid.binArea(), expected, 1e-9);
}

TEST(DensityMapTest, SmoothingExpandsSmallCells) {
  const auto grid = unitGrid(16, 2.0);  // bins 2x2
  std::vector<double> w{0.5};
  std::vector<double> h{0.5};
  DensityMapBuilder<double> builder(grid, w, h);
  // Effective footprint >= sqrt(2)*bin in each dimension.
  EXPECT_GE(builder.effectiveWidth(0), M_SQRT2 * 2.0 - 1e-12);
  EXPECT_GE(builder.effectiveHeight(0), M_SQRT2 * 2.0 - 1e-12);
  // Charge scale preserves area.
  EXPECT_NEAR(builder.chargeScale(0) * builder.effectiveWidth(0) *
                  builder.effectiveHeight(0),
              0.25, 1e-12);
  // Large cells are untouched.
  std::vector<double> w2{10.0};
  std::vector<double> h2{10.0};
  DensityMapBuilder<double> big(grid, w2, h2);
  EXPECT_DOUBLE_EQ(big.effectiveWidth(0), 10.0);
  EXPECT_DOUBLE_EQ(big.chargeScale(0), 1.0);
}

class DensityKernelTest
    : public ::testing::TestWithParam<std::tuple<DensityKernel, int>> {};

TEST_P(DensityKernelTest, StrategiesProduceIdenticalMaps) {
  const auto [kernel, subdivision] = GetParam();
  const auto grid = unitGrid(32);
  Rng rng(7);
  const int n = 40;
  std::vector<double> w(n), h(n), x(n), y(n);
  for (int i = 0; i < n; ++i) {
    w[i] = rng.uniform(0.5, 6.0);
    h[i] = rng.uniform(0.5, 6.0);
    x[i] = rng.uniform(4, 28);
    y[i] = rng.uniform(4, 28);
  }
  DensityMapBuilder<double>::Options base_opts;
  base_opts.kernel = DensityKernel::kNaive;
  base_opts.subdivision = 1;
  DensityMapBuilder<double> reference(grid, w, h, base_opts);
  DensityMapBuilder<double>::Options opts;
  opts.kernel = kernel;
  opts.subdivision = subdivision;
  DensityMapBuilder<double> variant(grid, w, h, opts);

  std::vector<double> map_ref(32 * 32, 0.0), map_var(32 * 32, 0.0);
  reference.scatter(x.data(), y.data(), 0, n, map_ref);
  variant.scatter(x.data(), y.data(), 0, n, map_var);
  for (size_t b = 0; b < map_ref.size(); ++b) {
    ASSERT_NEAR(map_var[b], map_ref[b], 1e-9) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSubdivisions, DensityKernelTest,
    ::testing::Combine(::testing::Values(DensityKernel::kNaive,
                                         DensityKernel::kSorted),
                       ::testing::Values(1, 2, 4, 8)));

TEST(DensityMapTest, ScatterRangeRestriction) {
  const auto grid = unitGrid(16);
  std::vector<double> w{2, 2, 2};
  std::vector<double> h{2, 2, 2};
  DensityMapBuilder<double> builder(grid, w, h);
  const double x[] = {4.0, 8.0, 12.0};
  const double y[] = {4.0, 8.0, 12.0};
  std::vector<double> first(16 * 16, 0.0), rest(16 * 16, 0.0),
      all(16 * 16, 0.0);
  builder.scatter(x, y, 0, 1, first);
  builder.scatter(x, y, 1, 3, rest);
  builder.scatter(x, y, 0, 3, all);
  for (size_t b = 0; b < all.size(); ++b) {
    ASSERT_NEAR(first[b] + rest[b], all[b], 1e-12);
  }
}

TEST(DensityOverflowTest, ZeroWhenSpreadHighWhenClumped) {
  const auto grid = unitGrid(16);
  const int n = 16;
  std::vector<double> w(n, 1.0), h(n, 1.0);
  DensityMapBuilder<double> builder(grid, w, h);
  std::vector<double> fixed(16 * 16, 0.0);

  // Spread: one cell per distinct bin.
  std::vector<double> xs(n), ys(n);
  for (int i = 0; i < n; ++i) {
    xs[i] = (i % 4) * 4 + 2.0;
    ys[i] = (i / 4) * 4 + 2.0;
  }
  std::vector<double> map(16 * 16, 0.0);
  builder.scatter(xs.data(), ys.data(), 0, n, map);
  EXPECT_LT(densityOverflow<double>(map, fixed, grid, 1.0, n * 1.0), 0.15);

  // Clumped: all cells on one spot.
  std::fill(xs.begin(), xs.end(), 8.0);
  std::fill(ys.begin(), ys.end(), 8.0);
  std::fill(map.begin(), map.end(), 0.0);
  builder.scatter(xs.data(), ys.data(), 0, n, map);
  EXPECT_GT(densityOverflow<double>(map, fixed, grid, 1.0, n * 1.0), 0.5);
}

TEST(FixedDensityMapTest, CoversFixedCellsAndClamps) {
  Database db;
  db.addCell("m", 2, 2, true);
  const Index f1 = db.addCell("f1", 4, 4, false);
  const Index f2 = db.addCell("f2", 4, 4, false);
  const Index net = db.addNet("n");
  db.addPin(net, 0, 0, 0);
  db.addPin(net, f1, 0, 0);
  db.setDieArea({0, 0, 16, 16});
  db.addRow({0, 2, 0, 16, 1});
  db.setCellPosition(f1, 4, 4);
  db.setCellPosition(f2, 4, 4);  // stacked on purpose
  db.finalize();

  const auto grid = unitGrid(16);
  const auto map = buildFixedDensityMap<double>(db, grid);
  // Bins inside the macro area fully covered; clamped at 1 despite stack.
  EXPECT_DOUBLE_EQ(map[5 * 16 + 5], 1.0);
  EXPECT_DOUBLE_EQ(map[0], 0.0);
}

TEST(GatherForceTest, PushesApartTwoClumps) {
  // Two heavy nodes at the same location: the field must push them in
  // opposite directions (gradient signs differ) or at minimum produce a
  // repulsive configuration once separated slightly.
  GeneratorConfig cfg;
  cfg.numCells = 64;
  cfg.seed = 12;
  auto db = generateNetlist(cfg);
  const auto grid = makeGrid<double>(db->dieArea(), db->numMovable(), 16, 64);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(*db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(*db, grid, nodeW, nodeH);

  const Index n = op.numNodes();
  std::vector<double> params(2 * static_cast<size_t>(n));
  const double cx = db->dieArea().centerX();
  const double cy = db->dieArea().centerY();
  // Left half slightly left of center, right half slightly right.
  for (Index i = 0; i < n; ++i) {
    params[i] = cx + (i % 2 == 0 ? -2.0 : 2.0);
    params[i + n] = cy;
  }
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  // Density gradient points toward increasing energy; descending it moves
  // left cells further left (negative direction => gradient positive).
  double left_grad = 0, right_grad = 0;
  for (Index i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      left_grad += grad[i];
    } else {
      right_grad += grad[i];
    }
  }
  EXPECT_GT(left_grad, 0.0);   // -grad pushes left cells left
  EXPECT_LT(right_grad, 0.0);  // -grad pushes right cells right
}

TEST(DensityOpTest, EnergyDecreasesAsCellsSpread) {
  GeneratorConfig cfg;
  cfg.numCells = 100;
  cfg.seed = 14;
  auto db = generateNetlist(cfg);
  const auto grid = makeGrid<double>(db->dieArea(), db->numMovable(), 16, 64);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(*db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(*db, grid, nodeW, nodeH);
  const Index n = op.numNodes();
  const auto& die = db->dieArea();

  // Clumped at center.
  std::vector<double> clumped(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    clumped[i] = die.centerX();
    clumped[i + n] = die.centerY();
  }
  // Spread on a grid.
  std::vector<double> spread(2 * static_cast<size_t>(n));
  const int side = static_cast<int>(std::ceil(std::sqrt(double(n))));
  for (Index i = 0; i < n; ++i) {
    spread[i] = die.xl + (0.5 + i % side) * die.width() / side;
    spread[i + n] = die.yl + (0.5 + i / side) * die.height() / side;
  }
  std::vector<double> grad(2 * static_cast<size_t>(n));
  const double e_clumped = op.evaluate(clumped, grad);
  const double e_spread = op.evaluate(spread, grad);
  EXPECT_LT(e_spread, e_clumped);
  EXPECT_LT(op.overflow(spread), op.overflow(clumped));
}

TEST(DensityGradientTest, ApproximatesEnergyDerivativeForSmoothCell) {
  // The electric-force gradient is the continuum approximation of the
  // energy derivative; for a cell spanning many bins the two should agree
  // to within a modest tolerance (docs/ALGORITHMS.md §3).
  Database db;
  const Index big = db.addCell("big", 40, 40, true);
  const Index anchor = db.addCell("a", 2, 2, true);
  const Index net = db.addNet("n");
  db.addPin(net, big, 0, 0);
  db.addPin(net, anchor, 0, 0);
  db.setDieArea({0, 0, 128, 128});
  db.addRow({0, 2, 0, 128, 1});
  db.finalize();

  DensityGrid<double> grid;
  grid.mx = 64;
  grid.my = 64;
  grid.xl = 0;
  grid.yl = 0;
  grid.binW = 2;
  grid.binH = 2;
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(db, grid, nodeW, nodeH);
  const Index n = op.numNodes();
  // Place the big cell off-center so the field at it is nonzero.
  std::vector<double> params{40.0, 90.0, 40.0, 90.0};
  ASSERT_EQ(params.size(), 2 * static_cast<size_t>(n));
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);

  const double h = 0.5;
  std::vector<double> scratch(params.size());
  for (int coord : {0, 2}) {  // big cell x and y
    auto plus = params;
    auto minus = params;
    plus[coord] += h;
    minus[coord] -= h;
    const double fp = op.evaluate(plus, scratch);
    const double fm = op.evaluate(minus, scratch);
    const double numeric = (fp - fm) / (2 * h);
    ASSERT_NE(numeric, 0.0);
    // Same sign and within 35% magnitude.
    EXPECT_GT(grad[coord] * numeric, 0.0) << "coord " << coord;
    EXPECT_NEAR(grad[coord], numeric, 0.35 * std::abs(numeric))
        << "coord " << coord;
  }
}

TEST(ComputeFillersTest, FillsWhitespaceToTarget) {
  GeneratorConfig cfg;
  cfg.numCells = 500;
  cfg.utilization = 0.6;
  cfg.seed = 15;
  auto db = generateNetlist(cfg);
  std::vector<double> w, h;
  computeFillers<double>(*db, 1.0, w, h);
  ASSERT_FALSE(w.empty());
  double filler_area = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    filler_area += w[i] * h[i];
  }
  const double whitespace = db->dieArea().area() - db->totalFixedArea();
  const double expected = 1.0 * whitespace - db->totalMovableArea();
  EXPECT_NEAR(filler_area, expected, 0.01 * expected);
  // A lower target can require no fillers at all.
  computeFillers<double>(*db, 0.3, w, h);
  EXPECT_TRUE(w.empty());
}

TEST(ComputeFillersTest, HugeSparseDieThrowsBeforeAllocating) {
  // Two 4x12 cells on one row 2^29 sites wide: 2^27 fillers of 48 each
  // would fill the whitespace. The uncapped count once asked for them all.
  Database db;
  const Index a = db.addCell("a", 4, 12, true);
  const Index b = db.addCell("b", 4, 12, true);
  const Index net = db.addNet("n");
  db.addPin(net, a, 0, 0);
  db.addPin(net, b, 0, 0);
  const Coord width = Coord(Index(1) << 29);
  db.addRow({0, 12, 0, width, 1});
  db.setDieArea({0, 0, width, 12});
  db.finalize();
  std::vector<float> w, h;
  try {
    computeFillers<float>(db, 1.0, w, h);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* part : {"die area", "whitespace", "movable area",
                             "fillers", "2^24"}) {
      EXPECT_NE(what.find(part), std::string::npos) << part << ": " << what;
    }
  }
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace dreamplace
