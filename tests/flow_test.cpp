#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>

#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"
#include "place/placer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> flowDesign(std::uint64_t seed, Index cells = 800,
                                     Index macros = 0) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numMacros = macros;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

PlacerOptions fastFlow() {
  PlacerOptions options;
  options.gp.maxIterations = 400;
  options.gp.binsMax = 64;
  options.dp.passes = 2;
  return options;
}

/// A copy of the finalized `src` in which cell i is width(i) wide.
std::unique_ptr<Database> withWidths(const Database& src,
                                     const std::function<Coord(Index)>& width) {
  auto db = std::make_unique<Database>();
  db->setName(src.name());
  db->setDieArea(src.dieArea());
  for (const Row& row : src.rows()) db->addRow(row);
  for (Index i = 0; i < src.numCells(); ++i) {
    db->addCell(src.cellName(i), width(i), src.cellHeight(i),
                src.isMovable(i));
    db->setCellPosition(i, src.cellX(i), src.cellY(i));
  }
  for (Index n = 0; n < src.numNets(); ++n) {
    db->addNet(src.netName(n), src.netWeight(n));
    for (Index p = src.netPinBegin(n); p < src.netPinEnd(n); ++p) {
      db->addPin(n, src.pinCell(p), src.pinOffsetX(p), src.pinOffsetY(p));
    }
  }
  db->finalize();
  return db;
}

/// The placeDesign error for `db`, or "" when it does not throw
/// std::invalid_argument.
std::string placeError(Database& db) {
  try {
    placeDesign(db, fastFlow());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FeasibilityTest, MovableAreaBeyondFreeRowAreaThrowsNamingTheDesign) {
  // The generated design fits; with every movable cell twice as wide its
  // cells need about 1.4x the free row area.
  const auto db = flowDesign(7, 600, 2);
  EXPECT_NO_THROW(checkPlaceable(*db));
  auto overfull = withWidths(*db, [&](Index i) {
    return db->cellWidth(i) * (db->isMovable(i) ? 2 : 1);
  });
  const std::string error = placeError(*overfull);
  EXPECT_NE(error.find("design 'synthetic'"), std::string::npos) << error;
  EXPECT_NE(error.find("movable standard-cell area"), std::string::npos)
      << error;
  EXPECT_NE(error.find("exceeds the free row area"), std::string::npos)
      << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

TEST(FeasibilityTest, CellWiderThanEveryRowThrowsNamingTheCell) {
  const auto db = flowDesign(7, 600, 2);
  const Coord die_width = db->dieArea().xh - db->dieArea().xl;
  auto wide = withWidths(*db, [&](Index i) {
    return i == 3 ? die_width + 10 : db->cellWidth(i);
  });
  const std::string error = placeError(*wide);
  EXPECT_NE(error.find("design 'synthetic'"), std::string::npos) << error;
  EXPECT_NE(error.find("movable cell '" + db->cellName(3) + "'"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("wider than every row"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

class PrecisionFlowTest : public ::testing::TestWithParam<Precision> {};

TEST_P(PrecisionFlowTest, FullFlowProducesLegalPlacement) {
  auto db = flowDesign(101);
  PlacerOptions options = fastFlow();
  options.precision = GetParam();
  const FlowResult result = placeDesign(*db, options);
  EXPECT_TRUE(result.legal);
  EXPECT_LT(result.overflow, 0.10);
  EXPECT_GT(result.hpwl, 0.0);
  // DP must not be worse than LG output.
  EXPECT_LE(result.hpwl, result.hpwlLegal + 1e-6);
  EXPECT_TRUE(checkLegality(*db).legal);
}

INSTANTIATE_TEST_SUITE_P(Precisions, PrecisionFlowTest,
                         ::testing::Values(Precision::kFloat32,
                                           Precision::kFloat64),
                         [](const auto& info) {
                           return info.param == Precision::kFloat32
                                      ? "Float32"
                                      : "Float64";
                         });

TEST(FlowTest, BeatsAnchoredReferencePlacement) {
  auto db = flowDesign(103);
  const double reference = anchoredHpwlBound(*db);
  const FlowResult result = placeDesign(*db, fastFlow());
  EXPECT_LT(result.hpwl, reference);
}

TEST(FlowTest, StageTimesAccounted) {
  auto db = flowDesign(107, 500);
  const FlowResult result = placeDesign(*db, fastFlow());
  EXPECT_GT(result.gpSeconds, 0.0);
  EXPECT_GT(result.lgSeconds, 0.0);
  EXPECT_GT(result.dpSeconds, 0.0);
  EXPECT_GE(result.totalSeconds,
            result.gpSeconds + result.lgSeconds + result.dpSeconds - 0.1);
}

TEST(FlowTest, WorksWithMacros) {
  auto db = flowDesign(109, 900, /*macros=*/6);
  const FlowResult result = placeDesign(*db, fastFlow());
  EXPECT_TRUE(result.legal);
  EXPECT_LT(result.overflow, 0.12);
}

TEST(FlowTest, SkipDetailedPlacement) {
  auto db = flowDesign(113, 400);
  PlacerOptions options = fastFlow();
  options.runDetailedPlacement = false;
  const FlowResult result = placeDesign(*db, options);
  EXPECT_TRUE(result.legal);
  EXPECT_DOUBLE_EQ(result.hpwl, result.hpwlLegal);
  EXPECT_GE(result.dpSeconds, 0.0);
}

TEST(FlowTest, RoutabilityModeProducesMetrics) {
  GeneratorConfig cfg;
  cfg.numCells = 600;
  cfg.utilization = 0.55;
  cfg.seed = 127;
  auto db = generateNetlist(cfg);
  PlacerOptions options = fastFlow();
  options.routability = true;
  options.routabilityOptions.maxRounds = 2;
  options.routabilityOptions.router.gridX = 24;
  options.routabilityOptions.router.gridY = 24;
  const FlowResult result = placeDesign(*db, options);
  EXPECT_TRUE(result.legal);
  EXPECT_GE(result.rc, 100.0);
  EXPECT_GE(result.sHpwl, result.hpwl - 1e-9);
  EXPECT_GT(result.nlSeconds, 0.0);
}

TEST(FlowTest, ResultRoundTripsThroughBookshelf) {
  namespace fs = std::filesystem;
  auto db = flowDesign(131, 400);
  placeDesign(*db, fastFlow());
  const fs::path dir = fs::temp_directory_path() / "dp_flow_roundtrip";
  fs::remove_all(dir);
  writeBookshelf(*db, dir.string(), "placed");
  auto loaded = readBookshelf((dir / "placed.aux").string());
  EXPECT_NEAR(hpwl(*loaded), hpwl(*db), 1e-6 * hpwl(*db));
  EXPECT_TRUE(checkLegality(*loaded).legal);
  fs::remove_all(dir);
}

TEST(FlowTest, DeterministicEndToEnd) {
  auto db1 = flowDesign(137, 400);
  auto db2 = flowDesign(137, 400);
  const FlowResult r1 = placeDesign(*db1, fastFlow());
  const FlowResult r2 = placeDesign(*db2, fastFlow());
  EXPECT_DOUBLE_EQ(r1.hpwl, r2.hpwl);
  EXPECT_EQ(r1.gpIterations, r2.gpIterations);
}

// ---------------------------------------------------------------------------
// PlacerOptions::validate()
// ---------------------------------------------------------------------------

/// The thrown message should tell the user which knob is wrong.
void expectValidateFails(const PlacerOptions& options,
                         const std::string& expected_fragment) {
  try {
    options.validate();
    FAIL() << "expected validate() to throw for " << expected_fragment;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected_fragment),
              std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(PlacerOptionsValidateTest, DefaultsAreValid) {
  PlacerOptions options;
  EXPECT_NO_THROW(options.validate());
  EXPECT_NO_THROW(fastFlow().validate());
}

TEST(PlacerOptionsValidateTest, RejectsBadGpKnobs) {
  PlacerOptions options;
  options.gp.targetDensity = 1.5;
  expectValidateFails(options, "targetDensity");

  options = PlacerOptions();
  options.gp.targetDensity = 0.0;
  expectValidateFails(options, "targetDensity");

  options = PlacerOptions();
  options.gp.binsMax = 0;
  expectValidateFails(options, "binsMax");

  // The spectral solve needs an even (power-of-two) grid of >= 16 bins.
  options = PlacerOptions();
  options.gp.binsMax = 17;
  expectValidateFails(options, "binsMax");

  options = PlacerOptions();
  options.gp.binsMax = 8;
  expectValidateFails(options, "binsMax");

  options = PlacerOptions();
  options.gp.stopOverflow = 0.0;
  expectValidateFails(options, "stopOverflow");

  options = PlacerOptions();
  options.gp.maxIterations = 0;
  expectValidateFails(options, "maxIterations");

  options = PlacerOptions();
  options.gp.minIterations = 500;
  options.gp.maxIterations = 100;
  expectValidateFails(options, "minIterations");

  options = PlacerOptions();
  options.gp.lambdaUpdateEvery = 0;
  expectValidateFails(options, "lambdaUpdateEvery");

  options = PlacerOptions();
  options.gp.densitySubdivision = 0;
  expectValidateFails(options, "densitySubdivision");

  options = PlacerOptions();
  options.gp.noiseRatio = -0.1;
  expectValidateFails(options, "noiseRatio");
}

TEST(PlacerOptionsValidateTest, RejectsBadDpKnobs) {
  // Each of these once hung placeDesign (ismSetSize 0: the ISM set
  // builder never advanced) or aborted it (windowSize 1).
  PlacerOptions options;
  options.dp.windowSize = 1;
  expectValidateFails(options, "dp.windowSize");

  options = PlacerOptions();
  options.dp.windowSize = 9;
  expectValidateFails(options, "dp.windowSize");

  options = PlacerOptions();
  options.dp.ismSetSize = 0;
  expectValidateFails(options, "dp.ismSetSize");

  options = PlacerOptions();
  options.dp.ismSetSize = 1;
  expectValidateFails(options, "dp.ismSetSize");

  options = PlacerOptions();
  options.dp.passes = -1;
  expectValidateFails(options, "dp.passes");

  options = PlacerOptions();
  options.dp.maxCandidates = -1;
  expectValidateFails(options, "dp.maxCandidates");

  options = PlacerOptions();
  options.dp.swapRadiusRows = -1;
  expectValidateFails(options, "dp.swapRadiusRows");

  options = PlacerOptions();
  options.dp.convergenceTolerance = -0.1;
  expectValidateFails(options, "dp.convergenceTolerance");

  options = PlacerOptions();
  options.dp.convergenceTolerance = std::numeric_limits<double>::infinity();
  expectValidateFails(options, "dp.convergenceTolerance");

  options = PlacerOptions();
  options.dp.windowSize = DetailedPlacer::kMaxWindowSize;
  options.dp.ismSetSize = 2;
  options.dp.passes = 0;
  EXPECT_NO_THROW(options.validate());

  // placeDesign validates before it places anything.
  auto db = flowDesign(5, 200);
  options = PlacerOptions();
  options.dp.ismSetSize = 0;
  EXPECT_THROW(placeDesign(*db, options), std::invalid_argument);
}

TEST(PlacerOptionsValidateTest, RejectsBadSolverLearningRate) {
  PlacerOptions options;
  options.gp.solver = SolverKind::kAdam;
  options.gp.lr = 0.0;
  expectValidateFails(options, "gp.lr");

  // Nesterov derives its own step size, so lr is not consulted.
  options = PlacerOptions();
  options.gp.solver = SolverKind::kNesterov;
  options.gp.lr = 0.0;
  EXPECT_NO_THROW(options.validate());

  options = PlacerOptions();
  options.gp.lrDecay = 0.0;
  expectValidateFails(options, "lrDecay");
}

TEST(PlacerOptionsValidateTest, RejectsInconsistentFences) {
  PlacerOptions options;
  options.gp.cellFence = {0, 1};
  expectValidateFails(options, "fences");

  options = PlacerOptions();
  options.gp.fences = {{{0, 0, 10, 10}}};
  options.gp.cellFence = {0, 2};  // 2 is out of range with one fence
  expectValidateFails(options, "cellFence");

  options = PlacerOptions();
  options.gp.fences = {{{0, 0, 10, 10}}};
  options.gp.cellFence = {0, 1, 0};
  EXPECT_NO_THROW(options.validate());
}

TEST(PlacerOptionsValidateTest, RejectsBadRoutabilityConfig) {
  PlacerOptions options;
  options.routability = true;
  options.routabilityOptions.router.gridX = 0;
  expectValidateFails(options, "gridX");

  options = PlacerOptions();
  options.routability = true;
  options.routabilityOptions.inflationTrigger = 1.5;
  expectValidateFails(options, "inflationTrigger");

  options = PlacerOptions();
  options.routability = true;
  options.routabilityOptions.maxRounds = 0;
  expectValidateFails(options, "maxRounds");

  // The same knobs are ignored when routability mode is off.
  options = PlacerOptions();
  options.routability = false;
  options.routabilityOptions.maxRounds = 0;
  EXPECT_NO_THROW(options.validate());
}

TEST(PlacerOptionsValidateTest, ReportsEveryViolationAtOnce) {
  PlacerOptions options;
  options.gp.targetDensity = -1.0;
  options.gp.maxIterations = -5;
  options.gp.lambdaUpdateEvery = 0;
  try {
    options.validate();
    FAIL() << "expected validate() to throw";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("targetDensity"), std::string::npos);
    EXPECT_NE(message.find("maxIterations"), std::string::npos);
    EXPECT_NE(message.find("lambdaUpdateEvery"), std::string::npos);
  }
}

TEST(PlacerOptionsValidateTest, PlaceDesignRejectsInvalidOptions) {
  auto db = flowDesign(139, 200);
  PlacerOptions options;
  options.gp.targetDensity = 2.0;
  EXPECT_THROW(placeDesign(*db, options), std::invalid_argument);
}

}  // namespace
}  // namespace dreamplace
