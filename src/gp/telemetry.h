// Per-iteration GP telemetry: the placement analogue of a training
// stack's metrics layer.
//
// The paper casts global placement as neural-network training (Fig. 1);
// ePlace/RePlAce tune their schedulers off per-iteration signals
// (overflow, HPWL delta, density weight lambda of eq. (18), the gamma
// schedule, the Nesterov step size). IterationStats is that record, one
// per kernel-GP iteration; TelemetrySink is the observer API the loop
// publishes it through, to exactly one caller-provided sink. The JSONL
// sink exports one JSON object per iteration. The loop itself emits the
// gp.* chrome://tracing counter tracks when the flow's trace recorder is
// enabled, and the flow's run report keeps one GlobalPlacerResult per GP
// run. A null sink costs the loop one pointer compare per iteration.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"

namespace dreamplace {

/// One kernel-GP iteration's worth of observable state.
struct IterationStats {
  int iteration = 0;
  double objective = 0.0;
  double wirelength = 0.0;  ///< Smoothed WA/LSE wirelength.
  double hpwl = 0.0;        ///< Exact HPWL.
  double density = 0.0;
  double overflow = 0.0;
  double gamma = 0.0;
  double lambda = 0.0;
  double stepSize = 0.0;         ///< Optimizer step (Nesterov alpha / lr).
  double wlOpSeconds = 0.0;      ///< Wirelength op time this iteration.
  double densityOpSeconds = 0.0; ///< Density op time this iteration.
};

/// Static facts about one GP run, published before the first iteration.
struct TelemetryRunInfo {
  std::string label;     ///< Design / configuration name (may be empty).
  Index numNodes = 0;    ///< Movable + filler.
  Index numMovable = 0;
  Index numNets = 0;
  std::string solver;
};

/// Final outcome of one GP run: what GlobalPlacer::run() returns, what
/// TelemetrySink::onRunEnd() receives, and one "gp_runs" entry of the run
/// report.
struct GlobalPlacerResult {
  int iterations = 0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double finalLambda = 0.0;  ///< Density weight at termination.
  double seconds = 0.0;      ///< Wall time of the run.
};

/// Observer of the kernel-GP loop. Implementations must tolerate multiple
/// runs through the same sink (the routability loop restarts GP; benches
/// sweep configurations).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  virtual void onRunBegin(const TelemetryRunInfo& /*info*/) {}
  virtual void onIteration(const IterationStats& stats) = 0;
  virtual void onRunEnd(const GlobalPlacerResult& /*result*/) {}
};

/// Writes one JSON object per iteration (JSONL). Schema:
///   {"iter":..,"objective":..,"wl":..,"density":..,"lambda":..,
///    "gamma":..,"overflow":..,"hpwl":..,"step":..,
///    "wl_op_s":..,"density_op_s":..}
/// Run boundaries are marked with {"run":"<label>",...} header records so
/// multi-run files stay self-describing.
class JsonlTelemetrySink final : public TelemetrySink {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlTelemetrySink(const std::string& path);
  ~JsonlTelemetrySink() override;

  void onRunBegin(const TelemetryRunInfo& info) override;
  void onIteration(const IterationStats& stats) override;
  void onRunEnd(const GlobalPlacerResult& result) override;

 private:
  std::FILE* file_ = nullptr;
};

/// In-memory sink for tests and programmatic consumers.
class RecordingTelemetrySink final : public TelemetrySink {
 public:
  void onRunBegin(const TelemetryRunInfo& info) override { runs_.push_back(info); }
  void onIteration(const IterationStats& stats) override {
    iterations_.push_back(stats);
  }
  void onRunEnd(const GlobalPlacerResult& result) override {
    summaries_.push_back(result);
  }

  const std::vector<TelemetryRunInfo>& runs() const { return runs_; }
  const std::vector<IterationStats>& iterations() const { return iterations_; }
  const std::vector<GlobalPlacerResult>& summaries() const {
    return summaries_;
  }

 private:
  std::vector<TelemetryRunInfo> runs_;
  std::vector<IterationStats> iterations_;
  std::vector<GlobalPlacerResult> summaries_;
};

}  // namespace dreamplace
