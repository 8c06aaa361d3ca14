// FlowPipeline + checkpoint/resume (place/pipeline.h, place/checkpoint.h;
// docs/FLOW.md): the stage list must match the options, checkpoints must
// round-trip bit-exactly, and — the acceptance test of the subsystem — a
// float64 flow interrupted mid-GP and resumed from its checkpoint must
// reproduce the uninterrupted run bit-for-bit (EXPECT_EQ, no tolerance)
// at multiple thread counts, including every resume-comparable counter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "autograd/objective.h"
#include "autograd/optimizers.h"
#include "common/flow_context.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "place/checkpoint.h"
#include "place/engine.h"
#include "place/pipeline.h"
#include "place/report.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Database> pipelineDesign(std::uint64_t seed,
                                         Index cells = 400,
                                         double util = 0.7) {
  GeneratorConfig cfg;
  cfg.designName = "pipe" + std::to_string(seed);
  cfg.numCells = cells;
  cfg.utilization = util;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

PlacerOptions pipelineFlow() {
  PlacerOptions options;
  options.precision = Precision::kFloat64;
  options.gp.maxIterations = 300;
  options.gp.binsMax = 64;
  options.dp.passes = 1;
  return options;
}

fs::path freshDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<double> movablePositions(const Database& db) {
  std::vector<double> xy;
  xy.reserve(2 * static_cast<std::size_t>(db.numMovable()));
  for (Index i = 0; i < db.numMovable(); ++i) {
    xy.push_back(db.cellX(i));
    xy.push_back(db.cellY(i));
  }
  return xy;
}

/// Cancels the current flow once, the first time GP reaches `iteration`.
/// The fired flag makes a resumed flow (which re-passes the same
/// iteration index) run to completion.
class CancelAtIteration final : public TelemetrySink {
 public:
  explicit CancelAtIteration(int iteration) : iteration_(iteration) {}
  void onIteration(const IterationStats& stats) override {
    if (!fired_ && stats.iteration >= iteration_) {
      fired_ = true;
      FlowContext::current().requestCancel();
    }
  }

 private:
  int iteration_;
  bool fired_ = false;
};

TEST(PipelineTest, StageListMatchesOptions) {
  PlacerOptions standard = pipelineFlow();
  EXPECT_EQ(buildFlowPipeline<double>(standard).signature(),
            "gp|macro_lg|lg|dp|finalize");

  PlacerOptions routability = pipelineFlow();
  routability.routability = true;
  EXPECT_EQ(buildFlowPipeline<double>(routability).signature(),
            "gp_rt|macro_lg|lg|dp|finalize|route");

  PlacerOptions partial = pipelineFlow();
  partial.runGlobalPlacement = false;
  const FlowPipeline pipeline = buildFlowPipeline<double>(partial);
  EXPECT_EQ(pipeline.signature(), "macro_lg|lg|dp|finalize");
  ASSERT_EQ(pipeline.stages().size(), 4u);
  EXPECT_STREQ(pipeline.stages()[0]->name(), "macro_lg");
  EXPECT_EQ(pipeline.stages()[3]->heartbeatStage(), FlowStage::kDone);
}

TEST(PipelineTest, ValidateRejectsBadCheckpointConfigs) {
  PlacerOptions noDir = pipelineFlow();
  noDir.checkpointEveryIterations = 25;  // requires checkpointDir
  EXPECT_THROW(noDir.validate(), std::invalid_argument);

  PlacerOptions negative = pipelineFlow();
  negative.checkpointDir = "ckpt";
  negative.checkpointEveryIterations = -1;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  PlacerOptions partialRoutability = pipelineFlow();
  partialRoutability.runGlobalPlacement = false;
  partialRoutability.routability = true;
  EXPECT_THROW(partialRoutability.validate(), std::invalid_argument);
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  CheckpointData data;
  data.precision = 1;
  data.signature = "gp|macro_lg|lg|dp|finalize";
  data.stageCursor = 2;
  data.midStage = true;
  data.stageState = std::string("blob\0with\0nuls", 13);
  data.result.hpwlGp = 1.25e7;
  data.result.hpwl = 1.5e7;
  data.result.overflow = 0.0625;
  data.result.gpIterations = 123;
  data.result.legal = true;
  data.result.lgFallback = true;
  data.result.lgFailedCells = 3;
  data.cellX = {0.5, 1.75, -2.0};
  data.cellY = {10.0, 11.0, 12.5};
  data.counters = {{"fft/dct2d", 42}, {"ops/density/evaluate", 17}};

  const CheckpointData back = decodeCheckpoint(encodeCheckpoint(data));
  EXPECT_EQ(back.precision, data.precision);
  EXPECT_EQ(back.signature, data.signature);
  EXPECT_EQ(back.stageCursor, data.stageCursor);
  EXPECT_EQ(back.midStage, data.midStage);
  EXPECT_EQ(back.stageState, data.stageState);
  EXPECT_EQ(back.result.hpwlGp, data.result.hpwlGp);
  EXPECT_EQ(back.result.hpwl, data.result.hpwl);
  EXPECT_EQ(back.result.overflow, data.result.overflow);
  EXPECT_EQ(back.result.gpIterations, data.result.gpIterations);
  EXPECT_EQ(back.result.legal, data.result.legal);
  EXPECT_EQ(back.result.lgFallback, data.result.lgFallback);
  EXPECT_EQ(back.result.lgFailedCells, data.result.lgFailedCells);
  EXPECT_EQ(back.cellX, data.cellX);
  EXPECT_EQ(back.cellY, data.cellY);
  EXPECT_EQ(back.counters, data.counters);
}

TEST(CheckpointTest, DecodeRejectsCorruptDocuments) {
  CheckpointData data;
  data.cellX = {1.0};
  data.cellY = {2.0};
  std::string bytes = encodeCheckpoint(data);

  std::string wrongMagic = bytes;
  wrongMagic[0] = 'X';
  EXPECT_THROW(decodeCheckpoint(wrongMagic), std::runtime_error);

  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(decodeCheckpoint(truncated), std::runtime_error);

  const std::string trailing = bytes + "junk";
  EXPECT_THROW(decodeCheckpoint(trailing), std::runtime_error);

  // A NaN or infinite position would be restored into the database.
  for (const double bad : {std::nan(""), -HUGE_VAL}) {
    CheckpointData corrupt;
    corrupt.cellX = {1.0, 3.0};
    corrupt.cellY = {2.0, bad};
    try {
      decodeCheckpoint(encodeCheckpoint(corrupt));
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "checkpoint: non-finite position for cell 1");
    }
  }
}

TEST(CheckpointTest, EveryBitFlipIsRejected) {
  // Before the CRC, most single-bit flips decoded into a different
  // placement or counter table with no error.
  CheckpointData data;
  data.signature = "gp|lg";
  data.stageCursor = 1;
  data.cellX = {1.5, -2.25};
  data.cellY = {3.0, 4.75};
  data.counters = {{"ops/density/evaluate", 12}};
  const std::string bytes = encodeCheckpoint(data);
  int mismatches = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      try {
        decodeCheckpoint(flipped);
        ADD_FAILURE() << "no throw for byte " << i << " bit " << bit;
      } catch (const std::runtime_error& e) {
        mismatches += std::string(e.what()) == "checkpoint: checksum mismatch";
      }
    }
  }
  // Flips in the magic and version words fail before the checksum.
  EXPECT_EQ(mismatches, static_cast<int>(8 * (bytes.size() - 8)));

  // A version-1 document (no checksum) names its version.
  std::string v1 = bytes.substr(0, bytes.size() - 4);
  const std::uint32_t one = 1;
  std::memcpy(v1.data() + 4, &one, sizeof(one));
  try {
    decodeCheckpoint(v1);
    ADD_FAILURE() << "no throw for a version-1 document";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, FileRoundTripAndPathResolution) {
  const fs::path dir = freshDir("dp_checkpoint_file_test");

  PlacerOptions off;
  EXPECT_EQ(checkpointFilePath(off), "");
  PlacerOptions named = off;
  named.checkpointDir = dir.string();
  EXPECT_EQ(checkpointFilePath(named), (dir / "flow.dpck").string());
  named.checkpointName = "job7";
  EXPECT_EQ(checkpointFilePath(named), (dir / "job7.dpck").string());

  CheckpointData data;
  data.signature = "lg|dp";
  data.stageCursor = 1;
  data.cellX = {3.25};
  data.cellY = {-7.5};
  data.counters = {{"lg/fallback", 1}};
  std::string error;
  ASSERT_TRUE(writeCheckpointFile(checkpointFilePath(named), data, &error))
      << error;
  const CheckpointData back = loadCheckpointFile(checkpointFilePath(named));
  EXPECT_EQ(back.signature, data.signature);
  EXPECT_EQ(back.stageCursor, data.stageCursor);
  EXPECT_EQ(back.cellX, data.cellX);
  EXPECT_EQ(back.cellY, data.cellY);
  EXPECT_EQ(back.counters, data.counters);

  EXPECT_THROW(loadCheckpointFile((dir / "missing.dpck").string()),
               std::runtime_error);
}

/// Convex quadratic used to drive the optimizer state round trips.
class Quadratic final : public ObjectiveFunction<double> {
 public:
  Quadratic(std::vector<double> a, std::vector<double> c)
      : a_(std::move(a)), c_(std::move(c)) {}
  std::size_t size() const override { return a_.size(); }
  double evaluate(std::span<const double> p, std::span<double> g) override {
    double value = 0;
    for (std::size_t i = 0; i < a_.size(); ++i) {
      const double d = p[i] - c_[i];
      value += 0.5 * a_[i] * d * d;
      g[i] = a_[i] * d;
    }
    return value;
  }

 private:
  std::vector<double> a_;
  std::vector<double> c_;
};

/// Runs `warm` steps, snapshots, runs `tail` more steps on the original,
/// then replays the snapshot into a freshly constructed optimizer and
/// checks the tail reproduces bit-for-bit.
template <typename MakeOpt>
void expectOptimizerRoundTrip(MakeOpt makeOpt, int warm, int tail) {
  Quadratic objA({1.0, 4.0, 0.25}, {3.0, -2.0, 10.0});
  Quadratic objB({1.0, 4.0, 0.25}, {3.0, -2.0, 10.0});
  auto a = makeOpt(objA, std::vector<double>{0.0, 0.0, 0.0});
  for (int i = 0; i < warm; ++i) {
    a->step();
  }
  ByteWriter w;
  a->saveState(w);
  const std::string blob = w.take();

  std::vector<double> valuesA;
  for (int i = 0; i < tail; ++i) {
    valuesA.push_back(a->step());
  }

  auto b = makeOpt(objB, std::vector<double>{9.0, 9.0, 9.0});
  ByteReader r(blob);
  b->loadState(r);
  EXPECT_TRUE(r.atEnd());
  for (int i = 0; i < tail; ++i) {
    EXPECT_EQ(b->step(), valuesA[static_cast<std::size_t>(i)]) << "step " << i;
  }
  for (std::size_t i = 0; i < a->params().size(); ++i) {
    EXPECT_EQ(b->params()[i], a->params()[i]) << "param " << i;
  }
}

TEST(OptimizerStateTest, AllSolversRoundTripBitIdentically) {
  expectOptimizerRoundTrip(
      [](ObjectiveFunction<double>& obj, std::vector<double> initial) {
        return std::make_unique<NesterovOptimizer<double>>(obj,
                                                           std::move(initial));
      },
      7, 10);
  expectOptimizerRoundTrip(
      [](ObjectiveFunction<double>& obj, std::vector<double> initial) {
        return std::make_unique<AdamOptimizer<double>>(obj,
                                                       std::move(initial));
      },
      7, 10);
  expectOptimizerRoundTrip(
      [](ObjectiveFunction<double>& obj, std::vector<double> initial) {
        return std::make_unique<SgdMomentumOptimizer<double>>(
            obj, std::move(initial));
      },
      7, 10);
  expectOptimizerRoundTrip(
      [](ObjectiveFunction<double>& obj, std::vector<double> initial) {
        return std::make_unique<RmsPropOptimizer<double>>(obj,
                                                          std::move(initial));
      },
      7, 10);
}

TEST(OptimizerStateTest, LoadRejectsMismatchedSnapshot) {
  Quadratic obj({1.0, 2.0}, {0.0, 0.0});
  NesterovOptimizer<double> small(obj, {0.0, 0.0});
  small.step();
  ByteWriter w;
  small.saveState(w);
  const std::string blob = w.take();

  Quadratic obj3({1.0, 2.0, 3.0}, {0.0, 0.0, 0.0});
  NesterovOptimizer<double> big(obj3, {0.0, 0.0, 0.0});
  ByteReader r(blob);
  EXPECT_THROW(big.loadState(r), std::runtime_error);
}

// Satellite: the greedy-fallback legalization path. An overfull die
// (movable area > row capacity) makes the first Abacus pass fail, which
// must take the fallback (greedy repack + Abacus re-run), record it in
// the FlowResult — the second pass's outcome used to be silently
// discarded — and tick the lg/fallback counter.
TEST(PipelineTest, GreedyFallbackIsRecorded) {
  auto db = pipelineDesign(21, 300, /*util=*/1.3);
  PlacerOptions options = pipelineFlow();
  options.runGlobalPlacement = false;  // straight to LG on an overfull die
  options.runDetailedPlacement = false;

  FlowContext context;
  RunReport report;
  const FlowResult result = placeDesign(*db, options, context, &report);

  EXPECT_TRUE(result.lgFallback);
  EXPECT_GT(result.lgFailedCells, 0);
  EXPECT_FALSE(result.legal);
  ASSERT_EQ(report.counters.count("lg/fallback"), 1u);
  EXPECT_EQ(report.counters.at("lg/fallback"), 1);
}

// Satellite: partial flows. A scattered design legalized+refined without
// GP must come out legal, with no GP stage in the timing registry.
TEST(PipelineTest, PartialFlowLegalizesCurrentPositions) {
  auto db = pipelineDesign(22, 400);
  PlacerOptions options = pipelineFlow();
  options.runGlobalPlacement = false;

  FlowContext context;
  RunReport report;
  const FlowResult result = placeDesign(*db, options, context, &report);

  EXPECT_TRUE(result.legal);
  EXPECT_EQ(result.gpIterations, 0);
  EXPECT_EQ(result.hpwlGp, 0.0);
  EXPECT_GT(result.hpwlLegal, 0.0);
  EXPECT_EQ(report.timing.count("gp"), 0u);
  EXPECT_EQ(report.timing.count("lg"), 1u);
}

TEST(PipelineTest, ResumeRejectsSignatureMismatch) {
  const fs::path dir = freshDir("dp_resume_mismatch_test");
  auto db = pipelineDesign(23, 200);

  CheckpointData data;
  data.signature = "bogus|pipeline";
  data.stageCursor = 0;
  for (Index i = 0; i < db->numMovable(); ++i) {
    data.cellX.push_back(db->cellX(i));
    data.cellY.push_back(db->cellY(i));
  }
  const std::string path = (dir / "bad.dpck").string();
  std::string error;
  ASSERT_TRUE(writeCheckpointFile(path, data, &error)) << error;

  PlacerOptions options = pipelineFlow();
  options.resumeFrom = path;
  FlowContext context;
  EXPECT_THROW(placeDesign(*db, options, context), std::runtime_error);
}

// The subsystem's acceptance test (ISSUE 9): interrupt a float64 flow
// mid-GP, resume from its checkpoint, and require the final positions,
// result fields, and every resume-comparable counter to equal the
// uninterrupted run's bit-for-bit — at 1 and 4 worker threads.
TEST(PipelineTest, ResumedFlowMatchesUninterruptedBitExact) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const fs::path dir = freshDir("dp_resume_identity_test");

    // Uninterrupted reference run.
    auto cleanDb = pipelineDesign(24);
    PlacerOptions cleanOptions = pipelineFlow();
    cleanOptions.threads = threads;
    FlowContext cleanContext;
    RunReport cleanReport;
    const FlowResult clean =
        placeDesign(*cleanDb, cleanOptions, cleanContext, &cleanReport);
    const std::vector<double> cleanXy = movablePositions(*cleanDb);

    // Interrupted run: checkpoint every 20 GP iterations, cancel at 50.
    auto db = pipelineDesign(24);
    PlacerOptions options = pipelineFlow();
    options.threads = threads;
    options.checkpointDir = dir.string();
    options.checkpointName = "identity";
    options.checkpointEveryIterations = 20;
    CancelAtIteration cancel(50);
    options.telemetry = &cancel;
    FlowContext interrupted;
    EXPECT_THROW(placeDesign(*db, options, interrupted), FlowCancelledError);
    const std::string checkpoint = checkpointFilePath(options);
    ASSERT_TRUE(fs::exists(checkpoint));

    // Resume under a fresh context (a retry starts from zero counters;
    // the checkpoint restores the original segment's).
    PlacerOptions resumeOptions = pipelineFlow();
    resumeOptions.threads = threads;
    resumeOptions.checkpointDir = dir.string();
    resumeOptions.checkpointName = "identity";
    resumeOptions.checkpointEveryIterations = 20;
    resumeOptions.resumeFrom = checkpoint;
    FlowContext resumedContext;
    RunReport resumedReport;
    const FlowResult resumed =
        placeDesign(*db, resumeOptions, resumedContext, &resumedReport);

    EXPECT_EQ(resumed.hpwlGp, clean.hpwlGp);
    EXPECT_EQ(resumed.hpwlLegal, clean.hpwlLegal);
    EXPECT_EQ(resumed.hpwl, clean.hpwl);
    EXPECT_EQ(resumed.overflow, clean.overflow);
    EXPECT_EQ(resumed.gpIterations, clean.gpIterations);
    EXPECT_EQ(resumed.legal, clean.legal);
    EXPECT_EQ(resumed.lgFallback, clean.lgFallback);
    EXPECT_EQ(resumed.lgFailedCells, clean.lgFailedCells);

    const std::vector<double> resumedXy = movablePositions(*db);
    ASSERT_EQ(resumedXy.size(), cleanXy.size());
    for (std::size_t i = 0; i < cleanXy.size(); ++i) {
      ASSERT_EQ(resumedXy[i], cleanXy[i]) << "coordinate " << i;
    }

    // Counter identity: original segment (restored from the checkpoint)
    // plus resumed segment equals the uninterrupted totals, outside the
    // documented resume-variant keys.
    EXPECT_EQ(resumeComparableCounters(resumedReport.counters),
              resumeComparableCounters(cleanReport.counters));

    // The completed flow deleted its checkpoint.
    EXPECT_FALSE(fs::exists(checkpoint));
  }
  ThreadPool::instance().setThreads(0);
}

}  // namespace
}  // namespace dreamplace
