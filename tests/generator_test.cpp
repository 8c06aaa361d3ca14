#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gen/suites.h"

namespace dreamplace {
namespace {

TEST(GeneratorTest, ProducesRequestedCounts) {
  GeneratorConfig cfg;
  cfg.numCells = 500;
  cfg.numNets = 520;
  cfg.numPads = 20;
  cfg.seed = 1;
  auto db = generateNetlist(cfg);
  EXPECT_EQ(db->numMovable(), 500);
  EXPECT_EQ(db->numNets(), 520);
  EXPECT_EQ(db->numFixed(), 20);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  GeneratorConfig cfg;
  cfg.numCells = 400;
  cfg.seed = 77;
  auto a = generateNetlist(cfg);
  auto b = generateNetlist(cfg);
  EXPECT_EQ(a->numPins(), b->numPins());
  EXPECT_DOUBLE_EQ(hpwl(*a), hpwl(*b));
  for (Index i = 0; i < a->numCells(); i += 37) {
    EXPECT_DOUBLE_EQ(a->cellX(i), b->cellX(i));
    EXPECT_DOUBLE_EQ(a->cellWidth(i), b->cellWidth(i));
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.numCells = 400;
  cfg.seed = 1;
  auto a = generateNetlist(cfg);
  cfg.seed = 2;
  auto b = generateNetlist(cfg);
  EXPECT_NE(hpwl(*a), hpwl(*b));
}

TEST(GeneratorTest, UtilizationNearTarget) {
  for (double target : {0.5, 0.7, 0.9}) {
    GeneratorConfig cfg;
    cfg.numCells = 1000;
    cfg.utilization = target;
    cfg.seed = 3;
    auto db = generateNetlist(cfg);
    EXPECT_NEAR(db->utilization(), target, 0.05) << "target " << target;
  }
}

TEST(GeneratorTest, NetDegreeDistributionShape) {
  GeneratorConfig cfg;
  cfg.numCells = 2000;
  cfg.numNets = 2000;
  cfg.seed = 4;
  auto db = generateNetlist(cfg);
  std::map<Index, int> hist;
  Index max_degree = 0;
  for (Index e = 0; e < db->numNets(); ++e) {
    ++hist[db->netDegree(e)];
    max_degree = std::max(max_degree, db->netDegree(e));
  }
  // Contest-like: 2-pin nets dominate, some high-fanout tail exists.
  EXPECT_GT(hist[2], db->numNets() / 3);
  EXPECT_GT(max_degree, 10);
  EXPECT_LE(max_degree, 70);
}

TEST(GeneratorTest, PadsOnPeripheryAndFixed) {
  GeneratorConfig cfg;
  cfg.numCells = 300;
  cfg.numPads = 40;
  cfg.seed = 6;
  auto db = generateNetlist(cfg);
  const Box<Coord>& die = db->dieArea();
  for (Index i = db->numMovable(); i < db->numCells(); ++i) {
    if (db->cellName(i)[0] != 'p') {
      continue;
    }
    const Box<Coord> box = db->cellBox(i);
    const bool on_edge = box.xl <= die.xl + 1e-9 ||
                         box.xh >= die.xh - 1e-9 ||
                         box.yl <= die.yl + 1e-9 || box.yh >= die.yh - 1e-9;
    EXPECT_TRUE(on_edge) << db->cellName(i);
  }
}

TEST(GeneratorTest, MacrosInsideDieAndNonOverlapping) {
  GeneratorConfig cfg;
  cfg.numCells = 1000;
  cfg.numMacros = 6;
  cfg.macroAreaFraction = 0.2;
  cfg.seed = 8;
  auto db = generateNetlist(cfg);
  std::vector<Box<Coord>> macros;
  for (Index i = db->numMovable(); i < db->numCells(); ++i) {
    if (db->cellName(i)[0] == 'm') {
      macros.push_back(db->cellBox(i));
    }
  }
  EXPECT_GE(macros.size(), 4u);  // a couple may fail placement; most land
  for (size_t i = 0; i < macros.size(); ++i) {
    EXPECT_TRUE(db->dieArea().containsBox(macros[i]));
    for (size_t j = i + 1; j < macros.size(); ++j) {
      EXPECT_FALSE(macros[i].overlaps(macros[j]));
    }
  }
}

TEST(GeneratorTest, AllNetsHaveAtLeastTwoPins) {
  GeneratorConfig cfg;
  cfg.numCells = 500;
  cfg.seed = 10;
  auto db = generateNetlist(cfg);
  for (Index e = 0; e < db->numNets(); ++e) {
    EXPECT_GE(db->netDegree(e), 2);
  }
}

TEST(GeneratorTest, FewerThanTwoCellsThrowsNamingTheField) {
  for (const Index n : {-3, 0, 1}) {
    GeneratorConfig cfg;
    cfg.numCells = n;
    try {
      generateNetlist(cfg);
      ADD_FAILURE() << "no throw for numCells = " << n;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("numCells"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SuitesTest, AllSuitesScaleCounts) {
  const double scale = 0.005;
  for (const auto& suite :
       {ispd2005Suite(scale), industrialSuite(scale), dac2012Suite(scale)}) {
    ASSERT_FALSE(suite.empty());
    for (const auto& entry : suite) {
      EXPECT_GE(entry.config.numCells, 200);
      EXPECT_NEAR(entry.config.numCells,
                  std::max(200.0, entry.paperCellsK * 1000 * scale),
                  1.0)
          << entry.name;
    }
  }
}

TEST(SuitesTest, RelativeSizesPreserved) {
  const auto suite = ispd2005Suite(0.01);
  // bigblue4 is the largest ISPD 2005 design in the paper.
  const auto& bb4 = suite.back();
  EXPECT_EQ(bb4.name, "bigblue4");
  for (const auto& entry : suite) {
    EXPECT_LE(entry.config.numCells, bb4.config.numCells);
  }
}

TEST(SuitesTest, FindByName) {
  EXPECT_EQ(findSuiteEntry("adaptec1").name, "adaptec1");
  EXPECT_EQ(findSuiteEntry("design6").name, "design6");
  EXPECT_EQ(findSuiteEntry("SB19").name, "SB19");
  EXPECT_THROW(findSuiteEntry("nonexistent"), std::runtime_error);
}

TEST(SuitesTest, SuiteEntriesGenerate) {
  const auto entry = findSuiteEntry("adaptec1", 0.002);
  auto db = generateNetlist(entry.config);
  EXPECT_GT(db->numMovable(), 0);
  EXPECT_GT(db->numNets(), 0);
}

}  // namespace
}  // namespace dreamplace
