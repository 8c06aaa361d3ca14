#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"

namespace dreamplace {
namespace {

/// Builds a tiny 4-cell, 2-net design used across database tests:
///   movable a (8x12), fixed pad p (1x12), movable b (4x12), movable c.
///   net n1: a, b, p;  net n2: b, c.
/// `edit` runs on the unfinalized database just before finalize().
Database makeTinyDb(const std::function<void(Database&)>& edit = {}) {
  Database db;
  const Index a = db.addCell("a", 8, 12, true);
  const Index p = db.addCell("p", 1, 12, false);  // fixed added in middle
  const Index b = db.addCell("b", 4, 12, true);
  const Index c = db.addCell("c", 6, 12, true);
  const Index n1 = db.addNet("n1");
  const Index n2 = db.addNet("n2");
  db.addPin(n1, a, 1.0, 2.0);
  db.addPin(n1, b, 0.0, 0.0);
  db.addPin(n1, p, 0.0, 0.0);
  db.addPin(n2, b, -1.0, 0.0);
  db.addPin(n2, c, 0.5, -0.5);
  db.setDieArea({0, 0, 120, 48});
  for (int r = 0; r < 4; ++r) {
    db.addRow({static_cast<Coord>(r * 12), 12, 0, 120, 1});
  }
  db.setCellPosition(a, 0, 0);
  db.setCellPosition(p, 100, 0);
  db.setCellPosition(b, 20, 12);
  db.setCellPosition(c, 40, 24);
  if (edit) {
    edit(db);
  }
  db.finalize();
  return db;
}

TEST(DatabaseTest, FinalizeThrowsNamingTheBadInput) {
  // Each case once aborted the process on an assert instead of reporting
  // the bad input to the caller.
  struct Case {
    std::function<void(Database&)> edit;
    std::string expect;
  };
  const std::vector<Case> cases = {
      {[](Database& db) { db.setDieArea({0, 0, 0, 48}); },
       "die area is empty"},
      {[](Database& db) { db.addCell("z", 0, 12, true); },
       "cell z has non-positive size"},
      {[](Database& db) { db.addCell("h", 4, -12, true); },
       "cell h has non-positive size"},
      {[](Database& db) { db.addNet("lonely"); }, "net lonely has no pins"},
      {[](Database& db) { db.addPin(0, 99, 0, 0); },
       "of net n1 has cell index 99"},
      {[](Database& db) { db.addPin(7, 0, 0, 0); }, "has net index 7"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expect);
    try {
      makeTinyDb(c.edit);
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << e.what();
    }
  }
}

TEST(DatabaseTest, CountsAndPartitioning) {
  Database db = makeTinyDb();
  EXPECT_EQ(db.numCells(), 4);
  EXPECT_EQ(db.numMovable(), 3);
  EXPECT_EQ(db.numFixed(), 1);
  EXPECT_EQ(db.numNets(), 2);
  EXPECT_EQ(db.numPins(), 5);
  // Movable-first ordering: indices [0,3) movable, 3 fixed.
  for (Index i = 0; i < 3; ++i) {
    EXPECT_TRUE(db.isMovable(i));
  }
  EXPECT_FALSE(db.isMovable(3));
  EXPECT_EQ(db.cellName(3), "p");
}

TEST(DatabaseTest, PositionsSurviveReordering) {
  Database db = makeTinyDb();
  // The fixed pad was added second but must keep its position.
  const Index p = db.findCell("p");
  ASSERT_NE(p, kInvalidIndex);
  EXPECT_DOUBLE_EQ(db.cellX(p), 100);
  EXPECT_DOUBLE_EQ(db.cellY(p), 0);
  const Index b = db.findCell("b");
  EXPECT_DOUBLE_EQ(db.cellX(b), 20);
  EXPECT_DOUBLE_EQ(db.cellY(b), 12);
}

TEST(DatabaseTest, NetPinCsr) {
  Database db = makeTinyDb();
  const Index n1 = 0;  // nets keep insertion order
  EXPECT_EQ(db.netName(n1), "n1");
  EXPECT_EQ(db.netDegree(n1), 3);
  EXPECT_EQ(db.netDegree(1), 2);
  // Every pin of n1 references n1.
  for (Index p = db.netPinBegin(n1); p < db.netPinEnd(n1); ++p) {
    EXPECT_EQ(db.pinNet(p), n1);
  }
}

TEST(DatabaseTest, CellPinCsr) {
  Database db = makeTinyDb();
  const Index b = db.findCell("b");
  // b appears on both nets.
  EXPECT_EQ(db.cellPinEnd(b) - db.cellPinBegin(b), 2);
  std::set<Index> nets;
  for (Index s = db.cellPinBegin(b); s < db.cellPinEnd(b); ++s) {
    const Index pin = db.cellPinAt(s);
    EXPECT_EQ(db.pinCell(pin), b);
    nets.insert(db.pinNet(pin));
  }
  EXPECT_EQ(nets.size(), 2u);
}

TEST(DatabaseTest, PinPositionsFromCenterOffsets) {
  Database db = makeTinyDb();
  const Index a = db.findCell("a");
  // a at (0,0), 8x12, pin offset (1,2) from center => pin at (5, 8).
  Index pin = kInvalidIndex;
  for (Index s = db.cellPinBegin(a); s < db.cellPinEnd(a); ++s) {
    pin = db.cellPinAt(s);
  }
  ASSERT_NE(pin, kInvalidIndex);
  EXPECT_DOUBLE_EQ(db.pinX(pin), 0 + 4 + 1);
  EXPECT_DOUBLE_EQ(db.pinY(pin), 0 + 6 + 2);
}

TEST(DatabaseTest, FindCell) {
  Database db = makeTinyDb();
  EXPECT_NE(db.findCell("a"), kInvalidIndex);
  EXPECT_NE(db.findCell("c"), kInvalidIndex);
  EXPECT_EQ(db.findCell("nope"), kInvalidIndex);
  EXPECT_EQ(db.findCell(""), kInvalidIndex);
  // A view that is not NUL-terminated finds its own characters only.
  EXPECT_EQ(db.findCell(std::string_view("cx").substr(0, 1)),
            db.findCell("c"));
  // A second cell named "b" (added last, 2 wide) loses to the first.
  Database dup =
      makeTinyDb([](Database& d) { d.addCell("b", 2, 12, true); });
  EXPECT_DOUBLE_EQ(dup.cellWidth(dup.findCell("b")), 4);
}

TEST(DatabaseTest, Areas) {
  Database db = makeTinyDb();
  EXPECT_DOUBLE_EQ(db.totalMovableArea(), (8 + 4 + 6) * 12.0);
  EXPECT_DOUBLE_EQ(db.totalFixedArea(), 1 * 12.0);
  const double whitespace = 120.0 * 48 - 12;
  EXPECT_NEAR(db.utilization(), (8 + 4 + 6) * 12.0 / whitespace, 1e-12);
}

TEST(DatabaseTest, FixedCellsOutsideDieClippedInArea) {
  Database db;
  db.addCell("m", 10, 10, true);
  const Index f = db.addCell("f", 20, 20, false);
  const Index n = db.addNet("n");
  db.addPin(n, 0, 0, 0);
  db.addPin(n, f, 0, 0);
  db.setDieArea({0, 0, 100, 100});
  db.addRow({0, 10, 0, 100, 1});
  db.setCellPosition(f, 90, 90);  // hangs over the boundary
  db.finalize();
  EXPECT_DOUBLE_EQ(db.totalFixedArea(), 100.0);  // only 10x10 inside
}

TEST(DatabaseTest, RowAccessors) {
  Database db = makeTinyDb();
  EXPECT_EQ(db.rows().size(), 4u);
  EXPECT_DOUBLE_EQ(db.rowHeight(), 12);
  EXPECT_DOUBLE_EQ(db.siteWidth(), 1);
}

}  // namespace
}  // namespace dreamplace
