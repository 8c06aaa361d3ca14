// Top-level placement flow (paper Fig. 2b): GP -> LG -> DP, with the
// per-stage runtime accounting the paper's tables report (GP / LG / DP /
// IO columns) and an optional routability-driven mode (Table V).
#pragma once

#include <string>

#include "db/database.h"
#include "dp/detailed_placer.h"
#include "gp/global_placer.h"
#include "lg/abacus_legalizer.h"
#include "lg/greedy_legalizer.h"
#include "routeopt/inflation.h"

namespace dreamplace {

class FlowContext;
struct RunReport;

enum class Precision { kFloat32, kFloat64 };

/// Flow-scoped placement configuration: everything that describes *one*
/// flow run. Process/engine-scoped settings (worker pool size, job
/// concurrency, cache and trace capacities) live in EngineOptions
/// (place/engine.h); the one legacy exception is `threads` below, kept
/// for standalone placeDesign() callers and ignored under an engine.
struct PlacerOptions {
  Precision precision = Precision::kFloat64;
  /// Worker threads for the deterministic parallel runtime
  /// (common/parallel.h). 0 leaves the pool as configured (auto:
  /// DREAMPLACE_THREADS env var if set, else hardware concurrency).
  /// 1 runs strictly serial. Results are bit-identical for any value
  /// (docs/PARALLEL.md). Process-scoped: resizes the pool the flow runs
  /// on; PlacementEngine forces 0 so one job cannot resize the shared
  /// engine pool under its siblings (docs/ENGINE.md).
  int threads = 0;
  GlobalPlacerOptions gp;
  GreedyLegalizer::Options greedy;
  AbacusLegalizer::Options abacus;
  DetailedPlacer::Options dp;
  /// Partial-flow switch: false skips global placement and legalizes /
  /// refines the database's *current* positions (warm-start LG+DP-only
  /// re-runs; docs/FLOW.md). Incompatible with routability mode, whose
  /// inflation loop is a GP loop.
  bool runGlobalPlacement = true;
  bool runDetailedPlacement = true;
  bool routability = false;          ///< Table V mode.
  RoutabilityOptions routabilityOptions;

  // --- Checkpoint / resume (docs/FLOW.md) ---------------------------------
  /// Directory for flow checkpoints. Empty (default) disables
  /// checkpointing; non-empty writes a versioned binary snapshot
  /// (place/checkpoint.h) at every stage boundary, atomically replacing
  /// the previous one. The file is deleted when the flow completes.
  std::string checkpointDir;
  /// Checkpoint file stem inside checkpointDir ("<name>.dpck"); empty
  /// defaults to "flow". PlacementEngine sets it to the job name.
  std::string checkpointName;
  /// Additionally checkpoint mid-GP every N iterations (0 = stage
  /// boundaries only). Requires checkpointDir. Ignored in routability
  /// mode, whose GP restarts carry inflation state a mid-run snapshot
  /// does not cover — routability flows checkpoint at stage boundaries.
  int checkpointEveryIterations = 0;
  /// Path of a checkpoint to resume from. The flow restores positions,
  /// counters, and partial results, then continues at the saved stage
  /// (mid-GP when the checkpoint was taken there). A float64 resumed run
  /// is bit-identical to an uninterrupted one (docs/FLOW.md lists the
  /// few allocation-bookkeeping counters that legitimately differ).
  /// Must target the same design, options, and precision.
  std::string resumeFrom;

  // --- Observability exports (all off by default; see
  // docs/OBSERVABILITY.md) -------------------------------------------------
  /// Chrome trace-event JSON (chrome://tracing / Perfetto) covering the
  /// whole flow: every ScopedTimer scope plus GP counter tracks.
  std::string traceFile;
  /// End-of-flow run report (place/report.h): one JSON document with
  /// stage and per-op self-time breakdowns, GP convergence summaries,
  /// counter deltas, and memory attribution. CI's regression gate
  /// (tools/check_report) consumes this file.
  std::string reportJson;
  /// Per-iteration GP observer (non-owning; e.g. a JsonlTelemetrySink),
  /// passed to every GP run as GlobalPlacerOptions::telemetry.
  TelemetrySink* telemetry = nullptr;
  /// Label stamped on telemetry records (design name); defaults to "".
  std::string telemetryLabel;

  /// Rejects nonsensical configurations with an actionable message.
  /// Throws std::invalid_argument listing every violated constraint.
  void validate() const;

  /// Full configuration as one JSON object (every field, names instead of
  /// enum ordinals). Embedded as "config" in RunReport so a
  /// report completely identifies the run that produced it.
  std::string toJson() const;
};

struct FlowResult {
  double hpwlGp = 0.0;     ///< HPWL right after global placement.
  double hpwlLegal = 0.0;  ///< After legalization.
  double hpwl = 0.0;       ///< Final (after DP).
  double overflow = 0.0;
  int gpIterations = 0;
  bool legal = false;
  /// Legalization took the greedy-fallback path (the first Abacus pass
  /// left cells unplaced, so greedy packing ran and Abacus re-ran).
  bool lgFallback = false;
  /// Cells the *final* legalization pass still could not place (0 on a
  /// healthy flow; >0 means the placement is not legal).
  int lgFailedCells = 0;
  double gpSeconds = 0.0;
  double lgSeconds = 0.0;
  double dpSeconds = 0.0;
  double nlSeconds = 0.0;  ///< Routability mode: nonlinear optimization.
  double grSeconds = 0.0;  ///< Routability mode: global routing.
  double rc = 0.0;         ///< Routability mode: congestion metric.
  double sHpwl = 0.0;      ///< Routability mode: scaled HPWL.
  double totalSeconds = 0.0;
};

/// Throws std::invalid_argument, in one line naming the design, when no
/// legalizer can place `db`: its movable standard cells (movable cells no
/// taller than a row) need more area than the rows leave free of fixed
/// cells, or one of them is wider than every row. A design without rows
/// passes. placeDesign runs this check first whenever the flow runs
/// global placement, so an unplaceable design fails in milliseconds
/// instead of after a full GP.
void checkPlaceable(const Database& db);

/// Runs the full placement flow on `db` in place. Each call runs under a
/// fresh FlowContext, so the RunReport (when requested) contains exactly
/// this flow's counters/timings — sequential flows in one process no
/// longer leak into each other's reports.
FlowResult placeDesign(Database& db, const PlacerOptions& options);

/// Context-aware variant: runs the flow under `context` (installed on the
/// calling thread for the duration). The context carries the registries,
/// trace recorder, worker pool, and the cooperative deadline/cancel state
/// honored at GP-iteration and stage boundaries. When `reportOut` is
/// non-null the assembled RunReport is also returned through it (built
/// regardless of whether file exports were requested). This is the entry
/// point PlacementEngine drives.
FlowResult placeDesign(Database& db, const PlacerOptions& options,
                       FlowContext& context, RunReport* reportOut = nullptr);

}  // namespace dreamplace
