// Global placement engine: the "kernel GP iterations" loop of Fig. 2b.
//
// Per iteration: one fused forward/backward pass of the wirelength and
// density ops, one optimizer update, the gamma schedule (wirelength
// smoothness as a function of overflow), and the lambda schedule
// (eq. (18)). The loop stops when density overflow falls below the target
// (default 7%, the ePlace/RePlAce convention) or at the iteration cap.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "autograd/optimizers.h"
#include "db/database.h"
#include "gp/initial_placement.h"
#include "gp/placement_objective.h"
#include "gp/telemetry.h"
#include "ops/density_op.h"
#include "ops/schedulers.h"
#include "ops/wirelength.h"

namespace dreamplace {

struct GlobalPlacerOptions {
  double targetDensity = 1.0;
  SolverKind solver = SolverKind::kNesterov;
  double lr = 0.01;        ///< For Adam/SGD/RMSProp.
  double lrDecay = 1.0;    ///< Per-iteration decay (Table IV).
  WirelengthModel wlModel = WirelengthModel::kWeightedAverage;
  WirelengthKernel wlKernel = WirelengthKernel::kMerged;  ///< WA only.
  DensityKernel densityKernel = DensityKernel::kSorted;
  int densitySubdivision = 2;      ///< Fig. 6 sub-rectangle factor.
  fft::Dct2dAlgorithm dct = fft::Dct2dAlgorithm::kFft2dN;
  int maxIterations = 1000;
  int minIterations = 30;
  double stopOverflow = 0.07;
  std::uint64_t seed = 1;
  InitialPlacement init = InitialPlacement::kRandomCenter;
  double noiseRatio = 0.001;       ///< Gaussian noise, fraction of die W/H.
  int lambdaUpdateEvery = 1;       ///< 5 in routability mode (Sec. III-F).
  bool tcadMuVariant = true;       ///< TCAD mu_max damping (Sec. III-C).
  Index ignoreNetDegree = 0;
  bool precondition = true;
  int binsMax = 1024;
  bool verbose = false;
  /// Per-movable-cell density width multipliers (cell inflation); empty =>
  /// no inflation.
  std::vector<double> inflation;
  /// Fence regions (paper Sec. III-G): cellFence[i] assigns movable cell i
  /// to fences[cellFence[i] - 1], or the default region when 0. Empty =>
  /// single-field density. Each fence gets its own electric field and the
  /// optimizer projects member cells into their fence box.
  std::vector<FenceRegion> fences;
  std::vector<int> cellFence;
  /// Starting density weight; <= 0 derives ePlace's lambda0 from the
  /// gradient balance. The routability loop carries the previous round's
  /// weight through solver restarts so convergence resumes where it left
  /// off instead of re-ramping under the slowed schedule.
  double initialDensityWeight = 0.0;
  /// Per-iteration stats observer (gp/telemetry.h); non-owning, may be
  /// null (the default — the loop then skips all telemetry work).
  TelemetrySink* telemetry = nullptr;
  /// Label forwarded to the telemetry sink (design / config name).
  std::string telemetryLabel;

  // --- Checkpoint / resume hooks (place/pipeline.h wires these) -----------
  /// Every N iterations, serialize the loop state (optimizer vectors,
  /// lambda, EMA, overflow) and hand it to checkpointSink. 0 (default)
  /// disables. Requires checkpointSink.
  int checkpointEveryIterations = 0;
  std::function<void(const std::string&)> checkpointSink;
  /// Non-null resumes the loop from a snapshot previously produced for
  /// checkpointSink: skips initial placement / lambda0 seeding and
  /// restores the optimizer, continuing bit-identically from the saved
  /// iteration. Must come from the same design, solver, and options.
  const std::string* resumeState = nullptr;
};

template <typename T>
class GlobalPlacer {
 public:
  /// Called after every iteration; return false to stop the loop early
  /// (the routability flow uses this to trigger inflation at 20%).
  using Callback = std::function<bool(const IterationStats&)>;

  GlobalPlacer(Database& db, GlobalPlacerOptions options = {});
  ~GlobalPlacer();

  /// Overrides the initial node centers (e.g. to continue after an
  /// inflation restart). Must be called before run().
  void setInitialPositions(std::vector<T> x, std::vector<T> y);

  /// Runs GP and commits the final movable-cell positions to the database.
  GlobalPlacerResult run(const Callback& callback = {});

  Index numNodes() const { return num_nodes_; }
  /// Node centers after run() (movable cells then fillers).
  std::vector<T> nodeX() const;
  std::vector<T> nodeY() const;

  const DensityGrid<T>& grid() const { return grid_; }

 private:
  void buildOps();
  void commit(const std::vector<T>& params);
  /// Constructs optimizer_ for options_.solver over `initial` with the
  /// given projection (the switch formerly inlined in run()).
  void makeSolver(std::vector<T> initial,
                  std::function<void(std::vector<T>&)> projection);
  /// Loop snapshot handed to options_.checkpointSink: versioned blob of
  /// the next iteration index, schedule state, and optimizer state.
  std::string serializeRunState(int next_iter, double lambda, double ema_hpwl,
                                double overflow, double cur_hpwl) const;

  Database& db_;
  GlobalPlacerOptions options_;
  Index num_nodes_ = 0;
  std::unique_ptr<WirelengthOp<T>> wirelength_;
  std::unique_ptr<DensityOp<T>> density_;
  DensityGrid<T> grid_{};
  std::unique_ptr<PlacementObjective<T>> objective_;
  std::unique_ptr<Optimizer<T>> optimizer_;
  std::vector<T> init_x_, init_y_;
  bool has_initial_positions_ = false;
  std::vector<T> final_params_;
};

}  // namespace dreamplace
