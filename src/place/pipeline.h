// Composable flow pipeline: the stage sequence of the paper's Fig. 2b
// (GP -> LG -> DP, plus the Table V routability re-estimate) as an
// explicit stage list instead of a hardcoded function body.
//
// Each PipelineStage declares its heartbeat stage, timing scope, and
// which FlowResult slots it fills; FlowPipeline::run() centralizes what
// every stage boundary used to do by hand — cooperative interrupt check,
// heartbeat transition, ScopedTimer, per-stage seconds and HPWL snapshot
// — so adding a stage is one registration, not five edit sites. On top,
// the pipeline checkpoints (place/checkpoint.h): a boundary snapshot
// after every stage when PlacerOptions::checkpointDir is set, plus
// mid-GP snapshots every checkpointEveryIterations, and a resume path
// (PlacerOptions::resumeFrom) that restores positions, counters, partial
// results, and the in-progress stage's state — bit-identical (float64)
// to an uninterrupted run. docs/FLOW.md has the full contract.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/heartbeat.h"
#include "common/timer.h"
#include "place/placer.h"

namespace dreamplace {

class ByteReader;
class ByteWriter;
class FlowCheckpointer;

/// Everything a stage may touch, assembled once per flow run.
struct StageContext {
  Database& db;
  const PlacerOptions& options;
  FlowResult& result;
  /// The caller's GP telemetry sink, PlacerOptions::telemetry (null =
  /// none).
  TelemetrySink* telemetry = nullptr;
  /// Flow stopwatch, started when the pipeline starts (a resumed run
  /// therefore reports only the resumed segment's wall time).
  const Timer* totalTimer = nullptr;
  /// Non-null while checkpointing is enabled; owned by the pipeline.
  FlowCheckpointer* checkpointer = nullptr;
  /// Index of the running stage, maintained by the pipeline.
  std::size_t stageIndex = 0;
  /// Every GP run of this flow segment (routability restarts included),
  /// in order; the run report's "gp_runs".
  std::vector<GlobalPlacerResult> gpRuns{};
};

/// One flow stage. Concrete stages live in pipeline.cpp and are reached
/// through buildFlowPipeline(); tests address them via name().
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;

  virtual const char* name() const = 0;
  /// Heartbeat stage the pipeline enters before run() (deduplicated
  /// against the previous stage's value).
  virtual FlowStage heartbeatStage() const = 0;
  /// Timing-registry scope opened around run(); nullptr = none (stages
  /// whose workers open their own scopes, e.g. "gp" inside GlobalPlacer).
  virtual const char* timerKey() const { return nullptr; }
  /// FlowResult field receiving this stage's elapsed seconds (additive,
  /// so the two legalization stages share lgSeconds); nullptr = none.
  virtual double* secondsSlot(FlowResult&) const { return nullptr; }
  /// FlowResult field receiving hpwl(db) after the stage; nullptr = none.
  virtual double* hpwlSlot(FlowResult&) const { return nullptr; }

  virtual void run(StageContext& context) = 0;

  /// Mid-stage resumable state for checkpoints taken while the stage is
  /// running. Stateless stages (the default) write/read nothing; the GP
  /// stage round-trips the GlobalPlacer loop snapshot.
  virtual void saveState(ByteWriter&) const {}
  virtual void loadState(ByteReader&) {}
};

/// Writes flow checkpoints for one pipeline run. Owned by
/// FlowPipeline::run(); stages reach it through StageContext to request
/// mid-stage snapshots. A failed write throws — the caller asked for
/// checkpoints, and a silently missing one would defeat resume (the same
/// fail-loudly contract as report exports).
class FlowCheckpointer {
 public:
  FlowCheckpointer(std::string path, std::string signature,
                   std::uint8_t precision);

  /// Stage-boundary snapshot: the next stage to run is `nextCursor`.
  void saveBoundary(const StageContext& context, std::size_t nextCursor);
  /// Mid-stage snapshot of the stage at context.stageIndex, embedding
  /// stage.saveState().
  void saveMidStage(const StageContext& context, const PipelineStage& stage);
  /// Deletes the checkpoint file (the flow completed).
  void clear();

  const std::string& path() const { return path_; }

 private:
  void save(const StageContext& context, std::size_t cursor, bool midStage,
            std::string stageState);

  std::string path_;
  std::string signature_;
  std::uint8_t precision_;
};

class FlowPipeline {
 public:
  explicit FlowPipeline(std::vector<std::unique_ptr<PipelineStage>> stages);

  /// '|'-joined stage names — the checkpoint compatibility key: a resume
  /// rejects a checkpoint whose producing pipeline differs.
  std::string signature() const;
  const std::vector<std::unique_ptr<PipelineStage>>& stages() const {
    return stages_;
  }

  /// Runs the stages in order under the current FlowContext, resuming
  /// from context.options.resumeFrom when set and checkpointing when
  /// checkpointDir is set.
  void run(StageContext& context);

 private:
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

/// Assembles the standard flow for `options`:
///   [gp | gp_rt] -> macro_lg -> lg -> dp -> finalize [-> route]
/// honoring runGlobalPlacement (partial LG+DP-only flows) and
/// routability mode.
template <typename T>
FlowPipeline buildFlowPipeline(const PlacerOptions& options);

}  // namespace dreamplace
