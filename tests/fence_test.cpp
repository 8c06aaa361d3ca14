#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "common/flow_context.h"
#include "common/parallel.h"
#include "gen/netlist_generator.h"
#include "gp/global_placer.h"
#include "ops/density_op.h"
#include "place/placer.h"
#include "place/report.h"

namespace dreamplace {
namespace {

/// Design with two fences on the left/right thirds of the die; every third
/// cell goes to fence 1, every third+1 to fence 2, rest default.
struct FenceSetup {
  std::unique_ptr<Database> db;
  std::vector<FenceRegion> fences;
  std::vector<int> cellGroup;
};

FenceSetup makeSetup(Index cells = 500, std::uint64_t seed = 77) {
  FenceSetup setup;
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.utilization = 0.5;  // fences need headroom
  cfg.seed = seed;
  setup.db = generateNetlist(cfg);
  const Box<Coord>& die = setup.db->dieArea();
  const double w3 = die.width() / 3.0;
  setup.fences.push_back({{die.xl, die.yl, die.xl + w3, die.yh}});
  setup.fences.push_back({{die.xh - w3, die.yl, die.xh, die.yh}});
  setup.cellGroup.resize(setup.db->numMovable());
  for (Index i = 0; i < setup.db->numMovable(); ++i) {
    setup.cellGroup[i] = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 2 : 0;
  }
  return setup;
}

TEST(AssignFillerGroupsTest, CoversAllNodesAndGroups) {
  FenceSetup setup = makeSetup(300);
  const Index fillers = 100;
  const auto groups = assignFillerGroups(*setup.db, setup.cellGroup,
                                         setup.fences, fillers);
  ASSERT_EQ(static_cast<Index>(groups.size()),
            setup.db->numMovable() + fillers);
  int counts[3] = {0, 0, 0};
  for (size_t i = setup.db->numMovable(); i < groups.size(); ++i) {
    ASSERT_GE(groups[i], 0);
    ASSERT_LE(groups[i], 2);
    ++counts[groups[i]];
  }
  // Each fence covers a third of the die; fillers should land in every
  // group.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
}

TEST(DensityOpFenceTest, GradientPushesIntrudersTowardTheirFence) {
  FenceSetup setup = makeSetup(200);
  Database& db = *setup.db;
  const auto grid = makeGrid<double>(db.dieArea(), db.numMovable(), 16, 32);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  std::vector<int> groups(setup.cellGroup);
  DensityOp<double> op(db, grid, setup.fences, groups, nodeW, nodeH);

  // Park every cell at the die center (outside both fences).
  const Index n = op.numNodes();
  std::vector<double> params(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    params[i] = db.dieArea().centerX();
    params[i + n] = db.dieArea().centerY();
  }
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  // Fence-1 cells (left third) must feel a net force to the left
  // (negative x), fence-2 cells to the right: the descending direction is
  // -grad, so grad must be positive for group 1, negative for group 2.
  double g1 = 0, g2 = 0;
  int n1 = 0, n2 = 0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (setup.cellGroup[i] == 1) {
      g1 += grad[i];
      ++n1;
    } else if (setup.cellGroup[i] == 2) {
      g2 += grad[i];
      ++n2;
    }
  }
  ASSERT_GT(n1, 0);
  ASSERT_GT(n2, 0);
  EXPECT_GT(g1 / n1, 0.0);
  EXPECT_LT(g2 / n2, 0.0);
}

TEST(DensityOpFenceTest, NodeGeometryAccessors) {
  FenceSetup setup = makeSetup(100);
  Database& db = *setup.db;
  const auto grid = makeGrid<double>(db.dieArea(), db.numMovable(), 16, 32);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(db, grid, setup.fences, setup.cellGroup, nodeW, nodeH);
  for (Index i = 0; i < db.numMovable(); i += 13) {
    EXPECT_GE(op.nodeWidth(i), db.cellWidth(i) - 1e-9);
    EXPECT_GE(op.nodeHeight(i), db.cellHeight(i) - 1e-9);
    EXPECT_NEAR(op.nodeArea(i), db.cellArea(i), 1e-6 * db.cellArea(i));
    const int g = setup.cellGroup[i];
    EXPECT_EQ(op.nodeBox(i),
              g == 0 ? db.dieArea() : setup.fences[g - 1].box);
  }
}

TEST(DensityOpFenceTest, RejectsBadFenceInputs) {
  // Each case once aborted the process (a short cellFence) or returned a
  // "legal" placement with fence members outside their fence.
  struct Case {
    const char* name;
    std::function<void(PlacerOptions&, const Box<Coord>&)> mutate;
    std::string expect;
  };
  const std::vector<Case> cases = {
      {"empty cellFence",
       [](PlacerOptions& o, const Box<Coord>&) { o.gp.cellFence.clear(); },
       "gp.cellFence"},
      {"short cellFence",
       [](PlacerOptions& o, const Box<Coord>&) { o.gp.cellFence.pop_back(); },
       "gp.cellFence"},
      {"zero-width fence",
       [](PlacerOptions& o, const Box<Coord>&) {
         o.gp.fences[1].box.xh = o.gp.fences[1].box.xl;
       },
       "gp.fences[1]"},
      {"fence outside the die",
       [](PlacerOptions& o, const Box<Coord>& die) {
         o.gp.fences[0].box = {die.xh + 10, die.yl, die.xh + 50, die.yh};
       },
       "gp.fences[0]"},
      {"fence smaller than its cells",
       [](PlacerOptions& o, const Box<Coord>& die) {
         o.gp.fences[1].box.xl = die.xh - die.width() / 50.0;
       },
       "gp.fences[1]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FenceSetup setup = makeSetup(300, 91);
    PlacerOptions options;
    options.gp.maxIterations = 50;
    options.gp.fences = setup.fences;
    options.gp.cellFence = setup.cellGroup;
    c.mutate(options, setup.db->dieArea());
    try {
      placeDesign(*setup.db, options);
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << e.what();
    }
  }
}

TEST(DensityOpFenceTest, ReportShowsEveryFieldsKernels) {
  // One scatter/poisson/gather scope per field solve, and every field's
  // maps in ops/density/grids.
  FenceSetup setup = makeSetup(600, 85);
  PlacerOptions options;
  options.gp.maxIterations = 40;
  options.gp.binsMax = 32;
  options.gp.fences = setup.fences;
  options.gp.cellFence = setup.cellGroup;
  FlowContext context;
  RunReport report;
  placeDesign(*setup.db, options, context, &report);

  ASSERT_EQ(report.counters.count("ops/electrostatics/solve"), 1u);
  const auto solves = report.counters.at("ops/electrostatics/solve");
  ASSERT_EQ(report.counters.count("ops/density/evaluate"), 1u);
  // Three non-empty fields: each evaluate solves three times.
  EXPECT_EQ(solves, 3 * report.counters.at("ops/density/evaluate"));
  for (const char* key : {"gp/op/density/scatter", "gp/op/density/poisson",
                          "gp/op/density/gather"}) {
    ASSERT_EQ(report.timing.count(key), 1u) << key;
    EXPECT_EQ(report.timing.at(key).count, solves) << key;
  }
  const auto grid = makeGrid<double>(setup.db->dieArea(),
                                     setup.db->numMovable(), 16, 32);
  const std::int64_t map_bytes =
      static_cast<std::int64_t>(grid.mx) * grid.my * sizeof(double);
  ASSERT_EQ(report.trackedMemory.count("ops/density/grids"), 1u);
  EXPECT_GE(report.trackedMemory.at("ops/density/grids").peakBytes,
            3 * map_bytes);
}

TEST(FenceGlobalPlacerTest, CellsEndUpInsideTheirFences) {
  FenceSetup setup = makeSetup(400, 81);
  Database& db = *setup.db;
  GlobalPlacerOptions options;
  options.maxIterations = 400;
  options.binsMax = 32;
  options.fences = setup.fences;
  options.cellFence = setup.cellGroup;
  GlobalPlacer<double> placer(db, options);
  const auto result = placer.run();
  EXPECT_TRUE(std::isfinite(result.hpwl));

  Index violations = 0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    const int g = setup.cellGroup[i];
    if (g == 0) {
      continue;
    }
    const Box<Coord>& fence = setup.fences[g - 1].box;
    const double cx = db.cellX(i) + db.cellWidth(i) / 2;
    const double cy = db.cellY(i) + db.cellHeight(i) / 2;
    if (!fence.contains(cx, cy)) {
      ++violations;
    }
  }
  // The projection clamps every member into its fence each iteration, so
  // there must be no violations at all.
  EXPECT_EQ(violations, 0);
}

TEST(FenceGlobalPlacerTest, QualityComparableToUnfenced) {
  // Fencing constrains the solution; HPWL should degrade but stay within
  // a sane factor of the unconstrained run on the same design.
  FenceSetup setup = makeSetup(400, 83);
  auto unfenced_db = generateNetlist([&] {
    GeneratorConfig cfg;
    cfg.numCells = 400;
    cfg.utilization = 0.5;
    cfg.seed = 83;
    return cfg;
  }());
  GlobalPlacerOptions base;
  base.maxIterations = 400;
  base.binsMax = 32;
  GlobalPlacer<double> plain(*unfenced_db, base);
  const auto r_plain = plain.run();

  GlobalPlacerOptions fenced = base;
  fenced.fences = setup.fences;
  fenced.cellFence = setup.cellGroup;
  GlobalPlacer<double> placer(*setup.db, fenced);
  const auto r_fenced = placer.run();
  EXPECT_LT(r_fenced.hpwl, 4.0 * r_plain.hpwl);
  EXPECT_GT(r_fenced.hpwl, r_plain.hpwl * 0.9);
}

TEST(FenceGlobalPlacerTest, BitIdenticalAcrossThreadCounts) {
  // Large enough that every field has >= 2048 members and takes the
  // sliced parallel scatter.
  struct Outcome {
    double hpwl;
    std::vector<Coord> x, y;
  };
  const auto run = [](int threads) {
    FenceSetup setup = makeSetup(7000, 7);
    ThreadPool::instance().setThreads(threads);
    GlobalPlacerOptions options;
    options.maxIterations = 60;
    options.fences = setup.fences;
    options.cellFence = setup.cellGroup;
    GlobalPlacer<double> placer(*setup.db, options);
    Outcome out{placer.run().hpwl, {}, {}};
    for (Index i = 0; i < setup.db->numMovable(); ++i) {
      out.x.push_back(setup.db->cellX(i));
      out.y.push_back(setup.db->cellY(i));
    }
    return out;
  };
  const Outcome t1 = run(1);
  for (const int threads : {2, 4}) {
    const Outcome t = run(threads);
    EXPECT_EQ(t1.hpwl, t.hpwl) << threads << " threads";
    EXPECT_EQ(t1.x, t.x) << threads << " threads";
    EXPECT_EQ(t1.y, t.y) << threads << " threads";
  }
  ThreadPool::instance().setThreads(0);
}

}  // namespace
}  // namespace dreamplace
