#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/metrics.h"
#include "dp/detailed_placer.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> legalizedDesign(std::uint64_t seed,
                                          Index cells = 500,
                                          Index macros = 0) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numMacros = macros;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  Rng rng(seed + 100);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(
        i, rng.uniform(die.xl, die.xh - db->cellWidth(i)),
        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  AbacusLegalizer().run(*db);
  EXPECT_TRUE(checkLegality(*db).legal);
  return db;
}

TEST(DetailedPlacerTest, NeverIncreasesHpwl) {
  auto db = legalizedDesign(11);
  const double before = hpwl(*db);
  const auto result = DetailedPlacer().run(*db);
  EXPECT_LE(result.finalHpwl, before + 1e-6);
  EXPECT_DOUBLE_EQ(result.initialHpwl, before);
  EXPECT_NEAR(result.finalHpwl, hpwl(*db), 1e-9);
}

TEST(DetailedPlacerTest, ImprovesRandomLegalPlacement) {
  // A randomly legalized placement has plenty of slack; DP must find some.
  auto db = legalizedDesign(13);
  const auto result = DetailedPlacer().run(*db);
  EXPECT_LT(result.finalHpwl, result.initialHpwl * 0.995);
  EXPECT_GT(result.reorderMoves + result.swapMoves, 0);
}

TEST(DetailedPlacerTest, PreservesLegality) {
  auto db = legalizedDesign(17);
  DetailedPlacer().run(*db);
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST(DetailedPlacerTest, PreservesLegalityWithMacros) {
  auto db = legalizedDesign(19, 600, /*macros=*/5);
  DetailedPlacer().run(*db);
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST(DetailedPlacerTest, MorePassesNeverHurt) {
  auto db1 = legalizedDesign(23);
  auto db2 = legalizedDesign(23);
  DetailedPlacer::Options one;
  one.passes = 1;
  DetailedPlacer::Options three;
  three.passes = 3;
  const auto r1 = DetailedPlacer(one).run(*db1);
  const auto r3 = DetailedPlacer(three).run(*db2);
  EXPECT_LE(r3.finalHpwl, r1.finalHpwl + 1e-6);
}

TEST(DetailedPlacerTest, WindowSizeFourWorks) {
  auto db = legalizedDesign(29, 300);
  DetailedPlacer::Options options;
  options.windowSize = 4;
  const auto result = DetailedPlacer(options).run(*db);
  EXPECT_LE(result.finalHpwl, result.initialHpwl + 1e-6);
  EXPECT_TRUE(checkLegality(*db).legal);
}

TEST(DetailedPlacerTest, IdempotentOnConvergedPlacement) {
  auto db = legalizedDesign(31, 300);
  DetailedPlacer::Options options;
  options.passes = 30;
  options.convergenceTolerance = 1e-4;  // run to a fixed point
  DetailedPlacer(options).run(*db);
  const double converged = hpwl(*db);
  const auto again = DetailedPlacer(options).run(*db);
  // A second full run should find (almost) nothing at the fixed point.
  EXPECT_NEAR(again.finalHpwl, converged, 0.003 * converged);
}

TEST(DetailedPlacerTest, SameRowSwapKeepsBothCellsInTheRowIndex) {
  // Ten rows of height 12. Cell a (row 0, x 0) is pulled to b's slot
  // (row 0, x 60) by pad p1, and b has no nets, so global swap exchanges
  // them inside one row. Cell c (row 5) is then pulled to x 0 of row 0,
  // where b now sits: c finds b only if the same-row swap left b in the
  // row occupancy.
  Database db;
  const Index a = db.addCell("a", 4, 12, true);
  const Index b = db.addCell("b", 4, 12, true);
  const Index c = db.addCell("c", 4, 12, true);
  const Index p1 = db.addCell("p1", 4, 12, false);
  const Index p3 = db.addCell("p3", 4, 12, false);
  db.setDieArea({0, 0, 120, 120});
  for (int r = 0; r < 10; ++r) {
    db.addRow({static_cast<Coord>(r * 12), 12, 0, 120, 1});
  }
  // Pad pins sit at the centers of b's slot and of row 0's first slot.
  const Index na = db.addNet("na");
  db.addPin(na, a, 0, 0);
  db.addPin(na, p1, 62 - 118, 0);
  const Index nc = db.addNet("nc");
  db.addPin(nc, c, 0, 0);
  db.addPin(nc, p3, 2 - 102, 0);
  db.setCellPosition(a, 0, 0);
  db.setCellPosition(b, 60, 0);
  db.setCellPosition(c, 0, 60);
  db.setCellPosition(p1, 116, 0);
  db.setCellPosition(p3, 100, 0);
  db.finalize();
  const Index ia = db.findCell("a");
  const Index ib = db.findCell("b");
  const Index ic = db.findCell("c");

  DetailedPlacer::Options options;
  options.passes = 1;
  options.enableIsm = false;
  const auto result = DetailedPlacer(options).run(db);
  EXPECT_EQ(result.swapMoves, 2);
  EXPECT_EQ(db.cellX(ia), 60);
  EXPECT_EQ(db.cellY(ia), 0);
  EXPECT_EQ(db.cellX(ic), 0);
  EXPECT_EQ(db.cellY(ic), 0);
  EXPECT_EQ(db.cellX(ib), 0);
  EXPECT_EQ(db.cellY(ib), 60);
  EXPECT_EQ(result.finalHpwl, 0.0);
  EXPECT_TRUE(checkLegality(db).legal);
}

}  // namespace
}  // namespace dreamplace
