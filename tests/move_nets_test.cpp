// Oracle tests for the DP move evaluators (dp/move_nets.h): every cost a
// reorder window, a swap pair or an ISM row produces must equal the
// full-rescan HPWL of the same nets summed in the same order, bit for bit
// (EXPECT_EQ on doubles, no tolerance). That is the property that lets
// the DP back-end scan each move set once without perturbing any
// placement result.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "dp/move_nets.h"
#include "gen/netlist_generator.h"

namespace dreamplace {
namespace {

/// A generated design with every movable cell at a random position, so
/// boxes are neither degenerate nor tied by construction.
std::unique_ptr<Database> scatteredDesign(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.numCells = 300;
  cfg.numPads = 8;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  Rng rng(seed + 1);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, rng.uniform(die.xl, die.xh - db->cellWidth(i)),
                        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  return db;
}

/// Cells moved to given lower-left positions; every other cell stays.
struct Overrides {
  std::vector<Index> cells;
  std::vector<Coord> xs, ys;
};

/// Full rescan: weighted HPWL of `net` under `ov`.
double rescanNetHpwl(const Database& db, Index net, const Overrides& ov) {
  double xl = std::numeric_limits<double>::infinity();
  double xh = -xl, yl = xl, yh = -xl;
  for (Index p = db.netPinBegin(net); p < db.netPinEnd(net); ++p) {
    const Index c = db.pinCell(p);
    Coord x = db.cellX(c);
    Coord y = db.cellY(c);
    for (std::size_t k = 0; k < ov.cells.size(); ++k) {
      if (ov.cells[k] == c) {
        x = ov.xs[k];
        y = ov.ys[k];
      }
    }
    const double px = x + db.cellWidth(c) / 2 + db.pinOffsetX(p);
    const double py = y + db.cellHeight(c) / 2 + db.pinOffsetY(p);
    xl = std::min(xl, px);
    xh = std::max(xh, px);
    yl = std::min(yl, py);
    yh = std::max(yh, py);
  }
  return db.netWeight(net) * ((xh - xl) + (yh - yl));
}

/// The nets of `cells`, ascending and deduplicated.
std::vector<Index> netUnion(const Database& db,
                            const std::vector<Index>& cells) {
  std::vector<Index> nets;
  for (const Index c : cells) {
    for (Index s = db.cellPinBegin(c); s < db.cellPinEnd(c); ++s) {
      nets.push_back(db.pinNet(db.cellPinAt(s)));
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

/// Rescan HPWL of `nets` under `ov`, summed in list order from 0.0.
double rescanSum(const Database& db, const std::vector<Index>& nets,
                 const Overrides& ov) {
  double total = 0.0;
  for (const Index e : nets) {
    total += rescanNetHpwl(db, e, ov);
  }
  return total;
}

/// Up to `count` distinct movable cells of one random net (so they share
/// it), topped up with random movable cells.
std::vector<Index> sharingCells(const Database& db, Rng& rng, int count) {
  std::vector<Index> cells;
  const auto net = static_cast<Index>(rng.uniformInt(db.numNets()));
  for (Index p = db.netPinBegin(net);
       p < db.netPinEnd(net) && static_cast<int>(cells.size()) < count;
       ++p) {
    const Index c = db.pinCell(p);
    if (db.isMovable(c) &&
        std::find(cells.begin(), cells.end(), c) == cells.end()) {
      cells.push_back(c);
    }
  }
  while (static_cast<int>(cells.size()) < count) {
    const auto c = static_cast<Index>(rng.uniformInt(db.numMovable()));
    if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
      cells.push_back(c);
    }
  }
  return cells;
}

bool shareANet(const Database& db, Index a, Index b) {
  const std::vector<Index> na = netUnion(db, {a});
  const std::vector<Index> nb = netUnion(db, {b});
  std::vector<Index> both;
  std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                        std::back_inserter(both));
  return !both.empty();
}

TEST(MoveNetsTest, WindowCostsMatchRescan) {
  // Reorder: the window's current cost, and the cost of each packing of
  // its cells along one row, over the window's nets in ascending id.
  auto db = scatteredDesign(23);
  Rng rng(3);
  const Coord h = db->rowHeight();
  MoveNets nets;
  for (int trial = 0; trial < 200; ++trial) {
    const int w = 2 + static_cast<int>(rng.uniformInt(7));  // 2..8
    const std::vector<Index> window = sharingCells(*db, rng, w);
    nets.scan(*db, window.data(), w);
    const std::vector<Index> ids = netUnion(*db, window);
    ASSERT_EQ(nets.current(), rescanSum(*db, ids, {})) << "trial " << trial;

    const Coord y = db->cellY(window[0]);
    for (int placement = 0; placement < 5; ++placement) {
      Overrides ov{window, {}, std::vector<Coord>(w, y)};
      Coord x = db->cellX(window[0]) + rng.uniform(-6 * h, 6 * h);
      for (int k = 0; k < w; ++k) {
        ov.xs.push_back(x);
        nets.place(k, x, y);
        x += db->cellWidth(window[k]) + rng.uniform(0, 2 * h);
      }
      ASSERT_EQ(nets.placed(), rescanSum(*db, ids, ov))
          << "trial " << trial << " placement " << placement;
    }
  }
}

TEST(MoveNetsTest, SwapCostsMatchRescan) {
  // Global swap: before and after two cells trade positions, over the
  // union of their nets in ascending id; also the swapping cell's rest
  // boxes, which give its optimal region.
  auto db = scatteredDesign(41);
  Rng rng(5);
  MoveNets cell_nets, other_nets;
  int shared = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<Index> pair = sharingCells(*db, rng, 2);
    const Index a = pair[0];
    const Index b = pair[1];
    shared += shareANet(*db, a, b) ? 1 : 0;
    cell_nets.scan(*db, &a, 1);
    other_nets.scan(*db, &b, 1, a);
    const SwapCost cost = swapCost(*db, cell_nets, other_nets);
    const std::vector<Index> ids = netUnion(*db, {a, b});
    const Overrides swapped{{a, b},
                            {db->cellX(b), db->cellX(a)},
                            {db->cellY(b), db->cellY(a)}};
    ASSERT_EQ(cost.before, rescanSum(*db, ids, {})) << "trial " << trial;
    ASSERT_EQ(cost.after, rescanSum(*db, ids, swapped)) << "trial " << trial;

    for (const MoveNets::Net& n : cell_nets.nets()) {
      PinBox rest;
      for (Index p = db->netPinBegin(n.net); p < db->netPinEnd(n.net); ++p) {
        if (db->pinCell(p) != a) {
          rest.add(db->pinX(p), db->pinY(p));
        }
      }
      ASSERT_EQ(n.rest.xl, rest.xl);
      ASSERT_EQ(n.rest.xh, rest.xh);
      ASSERT_EQ(n.rest.yl, rest.yl);
      ASSERT_EQ(n.rest.yh, rest.yh);
    }
  }
  // Most pairs come from one net, so the shared-net merge is exercised.
  EXPECT_GT(shared, 100);
}

TEST(MoveNetsTest, IsmRowsMatchRescan) {
  // ISM: a cell's cost at each of k slots, summed per pin in cell-pin
  // order (a net on two of the cell's pins counts twice).
  auto db = scatteredDesign(31);
  Rng rng(7);
  MoveNets nets;
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<Index> set = sharingCells(*db, rng, 6);
    const Index cell = set[0];
    nets.scan(*db, &cell, 1);
    for (const Index slot : set) {
      nets.place(0, db->cellX(slot), db->cellY(slot));
      const Overrides moved{{cell}, {db->cellX(slot)}, {db->cellY(slot)}};
      double expected = 0.0;
      for (Index s = db->cellPinBegin(cell); s < db->cellPinEnd(cell); ++s) {
        expected += rescanNetHpwl(*db, db->pinNet(db->cellPinAt(s)), moved);
      }
      ASSERT_EQ(nets.placedPerPin(), expected) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace dreamplace
