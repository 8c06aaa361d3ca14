#include "place/placer.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/metrics.h"
#include "lg/macro_legalizer.h"
#include "place/pipeline.h"
#include "place/report.h"

namespace dreamplace {

namespace {

/// Records the flow's trace when PlacerOptions::traceFile is set: enables
/// the flow's recorder on construction and writes the file once, in
/// finish() or (for a flow that throws) the destructor. Constructed with
/// the flow's context installed, so the trace is the flow's recorder.
class TraceExport {
 public:
  explicit TraceExport(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      currentTraceRecorder().setEnabled(true);
    }
  }
  ~TraceExport() { finish(); }

  /// Stops recording and writes the file. Returns "" on success or when
  /// no trace was requested; on failure logs and returns the message so
  /// the caller can put it in the run report's warnings (a silently
  /// missing trace looks like a flow that never emitted scopes).
  std::string finish() {
    if (path_.empty()) {
      return {};
    }
    const std::string path = std::exchange(path_, {});
    TraceRecorder& trace = currentTraceRecorder();
    trace.setEnabled(false);
    if (!trace.writeJson(path)) {
      const std::string error = "trace: cannot write " + path;
      logWarn("%s", error.c_str());
      return error;
    }
    return {};
  }

 private:
  std::string path_;
};

template <typename T>
FlowResult runFlow(Database& db, const PlacerOptions& options,
                   std::vector<GlobalPlacerResult>& gpRuns) {
  FlowResult result;
  FlowPipeline pipeline = buildFlowPipeline<T>(options);
  StageContext context{db, options, result, options.telemetry};
  pipeline.run(context);
  gpRuns = std::move(context.gpRuns);
  logInfo("flow: hpwl gp %.4e -> legal %.4e -> final %.4e, legal=%d, "
          "gp %.1fs lg %.1fs dp %.1fs",
          result.hpwlGp, result.hpwlLegal, result.hpwl, result.legal ? 1 : 0,
          result.gpSeconds, result.lgSeconds, result.dpSeconds);
  return result;
}

}  // namespace

void PlacerOptions::validate() const {
  std::string errors;
  const auto fail = [&errors](const std::string& message) {
    errors += (errors.empty() ? "" : "; ") + message;
  };

  if (threads < 0) {
    fail("threads must be >= 0 (got " + std::to_string(threads) +
         "); 0 means auto (DREAMPLACE_THREADS or hardware concurrency)");
  }
  if (gp.binsMax < 16 || (gp.binsMax & (gp.binsMax - 1)) != 0) {
    fail("gp.binsMax must be a power of two >= 16 (got " +
         std::to_string(gp.binsMax) +
         "); the density grid is a power-of-two bin count per axis, at "
         "least 16");
  }
  if (!(gp.targetDensity > 0.0) || gp.targetDensity > 1.0) {
    fail("gp.targetDensity must be in (0, 1] (got " +
         std::to_string(gp.targetDensity) +
         "); it is the bin utilization GP spreads toward");
  }
  if (!(gp.stopOverflow > 0.0) || gp.stopOverflow >= 1.0) {
    fail("gp.stopOverflow must be in (0, 1) (got " +
         std::to_string(gp.stopOverflow) +
         "); GP stops when density overflow falls below it");
  }
  if (gp.maxIterations <= 0) {
    fail("gp.maxIterations must be positive (got " +
         std::to_string(gp.maxIterations) + ")");
  }
  if (gp.minIterations < 0 || gp.minIterations > gp.maxIterations) {
    fail("gp.minIterations must be in [0, maxIterations] (got " +
         std::to_string(gp.minIterations) + " with maxIterations " +
         std::to_string(gp.maxIterations) + ")");
  }
  if (gp.lambdaUpdateEvery < 1) {
    fail("gp.lambdaUpdateEvery must be >= 1 (got " +
         std::to_string(gp.lambdaUpdateEvery) +
         "); it is the eq. (18) update period in iterations");
  }
  if (gp.densitySubdivision < 1) {
    fail("gp.densitySubdivision must be >= 1 (got " +
         std::to_string(gp.densitySubdivision) + ")");
  }
  if (gp.noiseRatio < 0.0) {
    fail("gp.noiseRatio must be non-negative (got " +
         std::to_string(gp.noiseRatio) + ")");
  }
  if (gp.solver != SolverKind::kNesterov && gp.lr <= 0.0) {
    fail("gp.lr must be positive for the " +
         std::string(solverName(gp.solver)) +
         " solver (got " + std::to_string(gp.lr) +
         "); only Nesterov derives its own step size");
  }
  if (gp.lrDecay <= 0.0 || gp.lrDecay > 1.0) {
    fail("gp.lrDecay must be in (0, 1] (got " + std::to_string(gp.lrDecay) +
         "); it multiplies the learning rate each iteration");
  }
  if (dp.windowSize < 2 || dp.windowSize > DetailedPlacer::kMaxWindowSize) {
    fail("dp.windowSize must be in [2, " +
         std::to_string(DetailedPlacer::kMaxWindowSize) + "] (got " +
         std::to_string(dp.windowSize) + "); a window of w cells tries w! "
         "orderings");
  }
  if (dp.ismSetSize < 2) {
    fail("dp.ismSetSize must be >= 2 (got " + std::to_string(dp.ismSetSize) +
         "); ISM permutes sets of at least two cells");
  }
  if (dp.passes < 0) {
    fail("dp.passes must be >= 0 (got " + std::to_string(dp.passes) + ")");
  }
  if (dp.maxCandidates < 0) {
    fail("dp.maxCandidates must be >= 0 (got " +
         std::to_string(dp.maxCandidates) + ")");
  }
  if (!(dp.swapRadiusRows >= 0.0)) {
    fail("dp.swapRadiusRows must be >= 0 (got " +
         std::to_string(dp.swapRadiusRows) + ")");
  }
  if (!std::isfinite(dp.convergenceTolerance) ||
      dp.convergenceTolerance < 0.0) {
    fail("dp.convergenceTolerance must be finite and >= 0 (got " +
         std::to_string(dp.convergenceTolerance) + "); 0 always runs every "
         "pass");
  }
  if (gp.fences.empty() && !gp.cellFence.empty()) {
    fail("gp.cellFence assigns cells to fence regions but gp.fences is "
         "empty; provide the fence list or clear cellFence");
  }
  for (const int f : gp.cellFence) {
    if (f < 0 || f > static_cast<int>(gp.fences.size())) {
      fail("gp.cellFence entries must be 0 (default region) or a 1-based "
           "index into gp.fences (got " + std::to_string(f) + " with " +
           std::to_string(gp.fences.size()) + " fences)");
      break;
    }
  }
  if (!runGlobalPlacement && routability) {
    fail("runGlobalPlacement=false is incompatible with routability mode; "
         "the inflation loop *is* a GP loop");
  }
  if (checkpointEveryIterations < 0) {
    fail("checkpointEveryIterations must be >= 0 (got " +
         std::to_string(checkpointEveryIterations) +
         "); 0 checkpoints at stage boundaries only");
  }
  if (checkpointEveryIterations > 0 && checkpointDir.empty()) {
    fail("checkpointEveryIterations requires checkpointDir; mid-GP "
         "snapshots need somewhere to go");
  }
  if (routability) {
    const RouterOptions& router = routabilityOptions.router;
    if (router.gridX <= 0 || router.gridY <= 0) {
      fail("routability mode needs a positive router grid "
           "(routabilityOptions.router.gridX/gridY, got " +
           std::to_string(router.gridX) + "x" + std::to_string(router.gridY) +
           ")");
    }
    if (router.numLayerPairs <= 0) {
      fail("routabilityOptions.router.numLayerPairs must be positive (got " +
           std::to_string(router.numLayerPairs) + ")");
    }
    if (!(routabilityOptions.inflationTrigger > 0.0) ||
        routabilityOptions.inflationTrigger >= 1.0) {
      fail("routabilityOptions.inflationTrigger must be in (0, 1) (got " +
           std::to_string(routabilityOptions.inflationTrigger) +
           "); it is the overflow at which inflation starts");
    }
    if (routabilityOptions.maxRounds < 1) {
      fail("routabilityOptions.maxRounds must be >= 1 (got " +
           std::to_string(routabilityOptions.maxRounds) + ")");
    }
  }

  if (!errors.empty()) {
    throw std::invalid_argument("PlacerOptions: " + errors);
  }
}

void checkPlaceable(const Database& db) {
  const std::vector<Row>& rows = db.rows();
  if (rows.empty()) {
    return;
  }
  const std::string design =
      "placeDesign: design '" + (db.name().empty() ? "unnamed" : db.name()) +
      "' cannot be legalized: ";
  const auto number = [](double v) {
    std::ostringstream out;
    out << v;
    return out.str();
  };
  Coord widest_row = 0;
  for (const Row& row : rows) {
    widest_row = std::max(widest_row, row.xh - row.xl);
  }
  Coord cell_area = 0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (isMovableMacro(db, i)) {
      continue;
    }
    if (db.cellWidth(i) > widest_row) {
      throw std::invalid_argument(
          design + "movable cell '" + db.cellName(i) + "' is " +
          number(db.cellWidth(i)) + " wide, wider than every row (widest " +
          number(widest_row) + ")");
    }
    cell_area += db.cellArea(i);
  }

  // Rows in ascending y (they do not overlap), then each fixed cell's
  // x-span on every row it overlaps vertically: the span the legalizer's
  // row segments leave out.
  std::vector<Index> order(rows.size());
  for (Index r = 0; r < static_cast<Index>(rows.size()); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](Index a, Index b) { return rows[a].y < rows[b].y; });
  std::vector<std::vector<std::pair<Coord, Coord>>> blocked(rows.size());
  for (Index i = db.numMovable(); i < db.numCells(); ++i) {
    const Box<Coord> box = db.cellBox(i);
    auto it = std::partition_point(order.begin(), order.end(), [&](Index r) {
      return rows[r].y + rows[r].height <= box.yl;
    });
    for (; it != order.end() && rows[*it].y < box.yh; ++it) {
      const Row& row = rows[*it];
      const Coord xl = std::max(box.xl, row.xl);
      const Coord xh = std::min(box.xh, row.xh);
      if (xh > xl) {
        blocked[*it].emplace_back(xl, xh);
      }
    }
  }
  Coord row_area = 0;
  Coord fixed_area = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_area += (rows[r].xh - rows[r].xl) * rows[r].height;
    std::sort(blocked[r].begin(), blocked[r].end());
    Coord cursor = rows[r].xl;
    for (const auto& [xl, xh] : blocked[r]) {
      if (xh > cursor) {
        fixed_area += (xh - std::max(xl, cursor)) * rows[r].height;
        cursor = xh;
      }
    }
  }
  if (cell_area > row_area - fixed_area) {
    throw std::invalid_argument(
        design + "movable standard-cell area " + number(cell_area) +
        " exceeds the free row area " + number(row_area - fixed_area) +
        " (row area " + number(row_area) + " minus fixed area " +
        number(fixed_area) + " inside the rows)");
  }
}

FlowResult placeDesign(Database& db, const PlacerOptions& options) {
  // Fresh context per call: the flow's counters/timings start from zero,
  // so sequential flows in one process no longer leak into each other's
  // reports. A trace export gets its own recorder; otherwise scopes keep
  // landing on the shared default recorder (program-wide tracing, e.g. a
  // bench's TelemetrySession, still sees the flow).
  FlowContext::Config config;
  config.privateTrace = !options.traceFile.empty();
  FlowContext context(config);
  return placeDesign(db, options, context, nullptr);
}

FlowResult placeDesign(Database& db, const PlacerOptions& options,
                       FlowContext& context, RunReport* reportOut) {
  options.validate();
  // A flow that skips GP goes straight to the legalizer, which reports an
  // overfull design itself (lgFallback, lgFailedCells) in milliseconds.
  if (options.runGlobalPlacement) {
    checkPlaceable(db);
  }
  FlowContextScope scope(context);
  // 0 keeps the pool as configured (auto-resolution or a caller's
  // earlier setThreads); only an explicit request reconfigures it.
  if (options.threads > 0) {
    context.pool().setThreads(options.threads);
  }
  context.markFlowStart();
  TraceExport trace(options.traceFile);
  std::vector<GlobalPlacerResult> gp_runs;
  const FlowResult result =
      options.precision == Precision::kFloat32
          ? runFlow<float>(db, options, gp_runs)
          : runFlow<double>(db, options, gp_runs);
  if (reportOut != nullptr || !options.reportJson.empty()) {
    RunReport report = buildRunReport(db, options, result, gp_runs, context);
    // Write the trace before the report so a failed export lands in the
    // report's warnings array.
    const std::string trace_error = trace.finish();
    if (!trace_error.empty()) {
      report.warnings.push_back(trace_error);
    }
    std::string error;
    if (!options.reportJson.empty() &&
        !writeRunReport(report, options.reportJson, &error)) {
      // The caller asked for a report file; silently dropping it would
      // make the run look observable when it is not. Fail the flow.
      throw std::runtime_error(error);
    }
    if (reportOut != nullptr) {
      *reportOut = std::move(report);
    }
  }
  return result;
}

}  // namespace dreamplace
