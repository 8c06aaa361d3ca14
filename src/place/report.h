// Flow run report: one machine-readable document per placeDesign() call.
//
// The paper's evaluation tables are runtime/quality *reports* (per-stage
// GP/LG/DP/IO columns, per-kernel breakdowns, convergence summaries).
// RunReport assembles the same facts from the live registries — timing
// (with self-time and call counts), counters, memory attribution, one
// summary per GP run — plus design/config metadata, and renders them as
// one JSON document.
//
// Timing and counter sections come from the flow's own FlowContext
// registries, which start empty when the flow starts — so a process that
// runs several flows (benches, sweeps, engine batches) reports exact
// per-run numbers with no delta arithmetic and no cross-flow leakage.
// Memory merges the default context's tracker (pre-flow attributions such
// as the database, loaded before placeDesign) with the flow's own; the IO
// stage likewise folds in pre-flow "io/" scopes.
//
// The JSON schema is pinned by tests/report_test.cpp and consumed by
// tools/check_report.cpp, the count-based CI regression gate (see
// tools/report_baseline.json and docs/OBSERVABILITY.md).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/memory.h"
#include "common/timer.h"
#include "db/database.h"
#include "gp/telemetry.h"
#include "place/placer.h"

namespace dreamplace {

/// Everything one flow run exposes, ready to render.
struct RunReport {
  static constexpr const char* kSchema = "dreamplace.run_report.v2";

  std::string label;

  // Design facts.
  Index numCells = 0;
  Index numMovable = 0;
  Index numNets = 0;
  Index numPins = 0;
  double utilization = 0.0;

  /// PlacerOptions::toJson() of the producing run, spliced verbatim as
  /// "config" — the complete configuration. Empty renders as {}
  /// (hand-built reports in tests).
  std::string optionsJson;

  // Outcome + stage breakdown.
  FlowResult result;
  double ioSeconds = 0.0;  ///< Absolute "io/" prefix (read/write scopes).

  // GP convergence, one entry per GP run (restarts included).
  std::vector<GlobalPlacerResult> gpRuns;

  // Parallel runtime (common/parallel.h): configured thread count plus
  // the pool's busy/capacity time over this run (deltas). utilization =
  // busy / capacity, 0 when the pool did no parallel work.
  int threads = 0;
  double poolBusySeconds = 0.0;
  double poolCapacitySeconds = 0.0;
  double poolUtilization = 0.0;

  // SIMD kernel layer (common/simd.h): whether the HwVec kernels were
  // compiled in, which ISA they target, and the native lane widths —
  // build facts, filled from the simd layer's constants.
  bool simdEnabled = false;
  std::string simdIsa;
  int simdWidthF32 = 1;
  int simdWidthF64 = 1;

  /// Conditions worth surfacing without digging through counters:
  /// nonzero trace/dropped, watchdog verdicts that raced completion.
  /// Rendered as a JSON "warnings" array.
  std::vector<std::string> warnings;

  // Registry sections: timing/counters are run deltas, memory is live.
  std::map<std::string, TimingStat> timing;
  std::map<std::string, CounterRegistry::Value> counters;
  std::map<std::string, MemoryTracker::Usage> trackedMemory;
  ProcessMemory processMemory;

  std::string toJson() const;
};

/// Assembles the report for a finished flow run from `context`, the
/// FlowContext the flow ran under (its registries hold exactly this
/// flow's activity; context.markFlowStart() must have been called at flow
/// start for the pool section). `gpRuns` are the flow's GP runs, in
/// order (StageContext::gpRuns).
RunReport buildRunReport(const Database& db, const PlacerOptions& options,
                         const FlowResult& result,
                         const std::vector<GlobalPlacerResult>& gpRuns,
                         FlowContext& context);

/// Writes the JSON rendering to `jsonPath`. Logs a warning and returns
/// false if the write fails, setting `error` (if non-null) to
/// "report: cannot write <path>". placeDesign treats a failed write as a
/// flow failure — a requested export must not silently vanish.
bool writeRunReport(const RunReport& report, const std::string& jsonPath,
                    std::string* error = nullptr);

}  // namespace dreamplace
