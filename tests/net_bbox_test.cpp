// Unit tests for the incremental net-bbox cache (dp/net_bbox.h): every
// value the cache or its override evaluator produces must equal a full
// rescan bit-for-bit (EXPECT_EQ on doubles, no tolerance) — that is the
// property that lets the DP back-end replace the full-scan
// evaluator without perturbing any placement result.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "dp/net_bbox.h"
#include "gen/netlist_generator.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> synthDesign(std::uint64_t seed, Index cells = 300) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numPads = 8;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

/// Brute-force reference: weighted HPWL of `net` with the given cells'
/// positions overridden, by scanning every pin.
double scanNetHpwl(const Database& db, Index net,
                   const std::vector<Index>& ovCells,
                   const std::vector<Coord>& ovX,
                   const std::vector<Coord>& ovY) {
  if (db.netPinEnd(net) - db.netPinBegin(net) < 2) {
    return 0.0;
  }
  double xl = std::numeric_limits<double>::infinity();
  double xh = -xl, yl = xl, yh = -xl;
  for (Index p = db.netPinBegin(net); p < db.netPinEnd(net); ++p) {
    const Index c = db.pinCell(p);
    double base_x = db.cellX(c);
    double base_y = db.cellY(c);
    for (std::size_t k = 0; k < ovCells.size(); ++k) {
      if (ovCells[k] == c) {
        base_x = ovX[k];
        base_y = ovY[k];
        break;
      }
    }
    const double px = base_x + db.cellWidth(c) / 2 + db.pinOffsetX(p);
    const double py = base_y + db.cellHeight(c) / 2 + db.pinOffsetY(p);
    xl = std::min(xl, px);
    xh = std::max(xh, px);
    yl = std::min(yl, py);
    yh = std::max(yh, py);
  }
  return db.netWeight(net) * ((xh - xl) + (yh - yl));
}

TEST(NetBboxCacheTest, TracksRandomMoveSequenceExactly) {
  auto db = synthDesign(11);
  NetBboxCache cache;
  cache.build(*db);

  // Random walk: move random cells (including exact revisits of previous
  // positions, which stress the boundary-multiplicity bookkeeping) and
  // keep the cache in lockstep.
  Rng rng(7);
  const Coord h = db->rowHeight();
  for (int step = 0; step < 500; ++step) {
    const auto cell =
        static_cast<Index>(rng.uniformInt(db->numMovable()));
    const Coord old_x = db->cellX(cell);
    const Coord old_y = db->cellY(cell);
    Coord nx = old_x + rng.uniform(-4 * h, 4 * h);
    Coord ny = old_y + rng.uniform(-4 * h, 4 * h);
    if (step % 5 == 0) {
      nx = old_x;  // pure-y move: x boundaries must survive untouched
    }
    db->setCellPosition(cell, nx, ny);
    cache.moveCell(*db, cell, old_x, old_y);
  }

  for (Index e = 0; e < db->numNets(); ++e) {
    EXPECT_EQ(cache.netHpwl(*db, e), scanNetHpwl(*db, e, {}, {}, {}))
        << "net " << e;
  }
  // The walk above is long enough that some move must have taken a
  // boundary away (rescan) and some must not have (pure delta).
  EXPECT_GT(cache.maintenanceRescans, 0);
}

TEST(NetBboxEvalTest, OverridesMatchBruteForce) {
  auto db = synthDesign(23);
  NetBboxCache cache;
  cache.build(*db);
  NetBboxEval eval(*db, cache);

  Rng rng(3);
  const Coord h = db->rowHeight();
  std::vector<Index> cells;
  std::vector<Coord> xs, ys;
  for (int trial = 0; trial < 200; ++trial) {
    eval.clearOverrides();
    cells.clear();
    xs.clear();
    ys.clear();
    const int k = 1 + static_cast<int>(rng.uniformInt(3));
    for (int i = 0; i < k; ++i) {
      const auto c = static_cast<Index>(rng.uniformInt(db->numMovable()));
      if (std::find(cells.begin(), cells.end(), c) != cells.end()) {
        continue;
      }
      const Coord nx = db->cellX(c) + rng.uniform(-6 * h, 6 * h);
      const Coord ny = db->cellY(c) + rng.uniform(-6 * h, 6 * h);
      eval.setOverride(c, nx, ny);
      cells.push_back(c);
      xs.push_back(nx);
      ys.push_back(ny);
    }
    // Every net touched by an override, plus a random (likely untouched)
    // net, must match the brute-force scan exactly.
    for (const Index c : cells) {
      for (Index s = db->cellPinBegin(c); s < db->cellPinEnd(c); ++s) {
        const Index e = db->pinNet(db->cellPinAt(s));
        ASSERT_EQ(eval.netHpwl(e), scanNetHpwl(*db, e, cells, xs, ys))
            << "net " << e << " trial " << trial;
      }
    }
    const auto e = static_cast<Index>(rng.uniformInt(db->numNets()));
    ASSERT_EQ(eval.netHpwl(e), scanNetHpwl(*db, e, cells, xs, ys))
        << "net " << e << " trial " << trial;
  }
  EXPECT_GT(eval.deltas, 0);
}

TEST(NetBboxEvalTest, UpdateOverrideMatchesFreshOverrides) {
  // The slot-repositioning fast path (no moved-pin rebuild) must produce
  // the same values as tearing down and re-establishing the overrides.
  auto db = synthDesign(41);
  NetBboxCache cache;
  cache.build(*db);
  NetBboxEval fast(*db, cache);
  NetBboxEval fresh(*db, cache);

  const Index a = 3;
  const Index b = static_cast<Index>(db->numMovable() - 5);
  std::vector<Index> nets;
  for (const Index c : {a, b}) {
    for (Index s = db->cellPinBegin(c); s < db->cellPinEnd(c); ++s) {
      nets.push_back(db->pinNet(db->cellPinAt(s)));
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  fast.setOverride(a, db->cellX(a), db->cellY(a));
  fast.setOverride(b, db->cellX(b), db->cellY(b));
  Rng rng(5);
  const Coord h = db->rowHeight();
  for (int trial = 0; trial < 100; ++trial) {
    const Coord ax = db->cellX(a) + rng.uniform(-6 * h, 6 * h);
    const Coord ay = db->cellY(a) + rng.uniform(-6 * h, 6 * h);
    const Coord bx = db->cellX(b) + rng.uniform(-6 * h, 6 * h);
    const Coord by = db->cellY(b) + rng.uniform(-6 * h, 6 * h);
    fast.updateOverride(0, ax, ay);
    fast.updateOverride(1, bx, by);
    fresh.clearOverrides();
    fresh.setOverride(a, ax, ay);
    fresh.setOverride(b, bx, by);
    ASSERT_EQ(fast.netsHpwl(nets), fresh.netsHpwl(nets)) << "trial " << trial;
  }
}

TEST(NetBboxEvalTest, NetsHpwlAccumulatesInListOrder) {
  auto db = synthDesign(31, 200);
  NetBboxCache cache;
  cache.build(*db);
  NetBboxEval eval(*db, cache);

  const auto cell = static_cast<Index>(db->numMovable() / 2);
  eval.setOverride(cell, db->cellX(cell) + 3 * db->rowHeight(),
                   db->cellY(cell));

  std::vector<Index> nets;
  for (Index s = db->cellPinBegin(cell); s < db->cellPinEnd(cell); ++s) {
    nets.push_back(db->pinNet(db->cellPinAt(s)));
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  double expected = 0.0;
  for (const Index e : nets) {
    expected += scanNetHpwl(*db, e, {cell},
                            {db->cellX(cell) + 3 * db->rowHeight()},
                            {db->cellY(cell)});
  }
  EXPECT_EQ(eval.netsHpwl(nets), expected);
}

}  // namespace
}  // namespace dreamplace
