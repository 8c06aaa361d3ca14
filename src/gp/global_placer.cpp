#include "gp/global_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/timer.h"

namespace dreamplace {

template <typename T>
GlobalPlacer<T>::GlobalPlacer(Database& db, GlobalPlacerOptions options)
    : db_(db), options_(std::move(options)) {
  buildOps();
}

template <typename T>
GlobalPlacer<T>::~GlobalPlacer() = default;

template <typename T>
void GlobalPlacer<T>::buildOps() {
  const DensityGrid<T> grid =
      makeGrid<T>(db_.dieArea(), db_.numMovable(), 16, options_.binsMax);

  std::vector<T> filler_w;
  std::vector<T> filler_h;
  computeFillers<T>(db_, options_.targetDensity, filler_w, filler_h);
  std::vector<T> node_w;
  std::vector<T> node_h;
  if (!options_.inflation.empty()) {
    DP_ASSERT(static_cast<Index>(options_.inflation.size()) ==
              db_.numMovable());
    // Cell inflation adds virtual area; give the same amount back by
    // dropping fillers, otherwise total charge exceeds the die capacity
    // and the GP can never reach its stopping overflow (Sec. III-F's
    // whitespace budget exists for exactly this reason).
    double extra = 0.0;
    for (Index i = 0; i < db_.numMovable(); ++i) {
      extra += db_.cellArea(i) * (options_.inflation[i] - 1.0);
    }
    while (!filler_w.empty() && extra > 0) {
      extra -= static_cast<double>(filler_w.back()) *
               static_cast<double>(filler_h.back());
      filler_w.pop_back();
      filler_h.pop_back();
    }
    DensityOp<T>::makeNodeSizes(db_, filler_w, filler_h, node_w, node_h);
    for (Index i = 0; i < db_.numMovable(); ++i) {
      node_w[i] *= static_cast<T>(options_.inflation[i]);
    }
  } else {
    DensityOp<T>::makeNodeSizes(db_, filler_w, filler_h, node_w, node_h);
  }
  num_nodes_ = static_cast<Index>(node_w.size());

  if (options_.wlModel == WirelengthModel::kWeightedAverage) {
    typename WaWirelengthOp<T>::Options wl_opts;
    wl_opts.kernel = options_.wlKernel;
    wl_opts.ignoreNetDegree = options_.ignoreNetDegree;
    wirelength_ =
        std::make_unique<WaWirelengthOp<T>>(db_, num_nodes_, wl_opts);
  } else {
    wirelength_ = std::make_unique<LseWirelengthOp<T>>(
        db_, num_nodes_, options_.ignoreNetDegree);
  }

  grid_ = grid;
  typename DensityOp<T>::Options d_opts;
  d_opts.targetDensity = options_.targetDensity;
  d_opts.map.kernel = options_.densityKernel;
  d_opts.map.subdivision = options_.densitySubdivision;
  d_opts.dct = options_.dct;
  if (options_.fences.empty()) {
    density_ = std::make_unique<DensityOp<T>>(db_, grid, std::move(node_w),
                                              std::move(node_h), d_opts);
  } else {
    const Index num_fillers =
        static_cast<Index>(node_w.size()) - db_.numMovable();
    std::vector<int> node_group = assignFillerGroups(
        db_, options_.cellFence, options_.fences, num_fillers);
    density_ = std::make_unique<DensityOp<T>>(
        db_, grid, options_.fences, std::move(node_group), std::move(node_w),
        std::move(node_h), d_opts);
  }

  objective_ = std::make_unique<PlacementObjective<T>>(db_, *wirelength_,
                                                       *density_);
  objective_->setPreconditioning(options_.precondition);

  logInfo("gp: %d nodes (%d movable + %d fillers), grid %dx%d, target %.2f",
          num_nodes_, db_.numMovable(), num_nodes_ - db_.numMovable(),
          grid.mx, grid.my, options_.targetDensity);
}

template <typename T>
void GlobalPlacer<T>::setInitialPositions(std::vector<T> x,
                                          std::vector<T> y) {
  DP_ASSERT(static_cast<Index>(x.size()) == num_nodes_ &&
            static_cast<Index>(y.size()) == num_nodes_);
  init_x_ = std::move(x);
  init_y_ = std::move(y);
  has_initial_positions_ = true;
}

template <typename T>
GlobalPlacerResult GlobalPlacer<T>::run(const Callback& callback) {
  ScopedTimer gp_timer("gp");
  Timer run_timer;
  TelemetrySink* telemetry = options_.telemetry;
  const Index n = num_nodes_;
  const bool resuming =
      options_.resumeState != nullptr && !options_.resumeState->empty();

  // --- Schedulers --------------------------------------------------------------
  // Stateless given the iteration index, so a resumed loop reconstructs
  // them instead of checkpointing them.
  const double bin_size = 0.5 * (grid().binW + grid().binH);
  GammaScheduler gamma_scheduler(bin_size);
  DensityWeightScheduler::Options lam_opts;
  lam_opts.tcadMuVariant = options_.tcadMuVariant;
  DensityWeightScheduler lambda_scheduler(lam_opts);
  // The paper's reference HPWL delta (3.5e5) is ~0.5% of an ISPD-design
  // HPWL; we keep that ratio relative to the *current* HPWL so the
  // schedule is design-size independent. Small designs have noisy
  // per-iteration HPWL, so the delta is taken on an exponential moving
  // average: at a spreading equilibrium the smoothed delta goes to zero
  // and mu returns to mu_max, which is what breaks the stall.
  constexpr double kRefRatio = 5e-3;
  constexpr double kEmaAlpha = 0.3;

  // --- Feasibility projection ---------------------------------------------------
  // Nodes are clamped into the die — or into their fence box when fence
  // regions are active (fences are axis-aligned boxes, so the projection
  // is an exact Euclidean projection per node).
  auto projection = [this, n](std::vector<T>& p) {
    const Index movable = db_.numMovable();
    parallelFor("gp/project", n, 2048, [&](Index i) {
      // Keep node footprints inside their box; fillers use smoothed sizes.
      const T hw = (i < movable ? static_cast<T>(db_.cellWidth(i))
                                : density_->nodeWidth(i)) /
                   T(2);
      const T hh = (i < movable ? static_cast<T>(db_.cellHeight(i))
                                : density_->nodeHeight(i)) /
                   T(2);
      const Box<Coord>& box = density_->nodeBox(i);
      p[i] = clampSafe<T>(p[i], static_cast<T>(box.xl) + hw,
                          static_cast<T>(box.xh) - hw);
      p[i + n] = clampSafe<T>(p[i + n], static_cast<T>(box.yl) + hh,
                              static_cast<T>(box.yh) - hh);
    });
  };

  double lambda = 0.0;
  double ema_hpwl = 0.0;
  double overflow = 0.0;
  /// HPWL seeding the heartbeat: the initial placement's on a fresh run,
  /// the last pre-snapshot iteration's on a resume.
  double hpwl_seed = 0.0;
  int start_iter = 0;

  if (resuming) {
    // Restore the loop state exactly as serializeRunState() wrote it; the
    // initial-placement and lambda0 computations are skipped entirely (the
    // fresh run already performed them, so re-running would double their
    // counters and diverge from the uninterrupted baseline).
    ByteReader r(*options_.resumeState);
    const std::uint32_t version = r.u32();
    if (version != 1) {
      throw std::runtime_error("gp resume: unsupported snapshot version " +
                               std::to_string(version));
    }
    const std::uint8_t solver = r.u8();
    if (solver != static_cast<std::uint8_t>(options_.solver)) {
      throw std::runtime_error("gp resume: solver mismatch");
    }
    const Index nodes = r.i32();
    if (nodes != n) {
      throw std::runtime_error(
          "gp resume: node count mismatch (snapshot " + std::to_string(nodes) +
          ", placer " + std::to_string(n) + ")");
    }
    start_iter = r.i32();
    lambda = r.f64();
    ema_hpwl = r.f64();
    overflow = r.f64();
    hpwl_seed = r.f64();
    makeSolver(std::vector<T>(2 * static_cast<std::size_t>(n)), projection);
    optimizer_->loadState(r);
    if (!r.atEnd()) {
      throw std::runtime_error("gp resume: trailing bytes in snapshot");
    }
    objective_->setDensityWeight(lambda);
    logInfo("gp: resuming at iteration %d (lambda %.3e, overflow %.4f)",
            start_iter, lambda, overflow);
  } else {
    // --- Initial placement ---------------------------------------------------
    std::vector<T> x;
    std::vector<T> y;
    if (has_initial_positions_) {
      x = init_x_;
      y = init_y_;
    } else {
      initializePlacement<T>(db_, n, options_.init, options_.seed,
                             options_.noiseRatio, x, y);
    }
    std::vector<T> params(2 * static_cast<size_t>(n));
    std::copy(x.begin(), x.end(), params.begin());
    std::copy(y.begin(), y.end(), params.begin() + n);

    // --- Initial density weight (ePlace lambda0) ------------------------------
    std::vector<T> wl_grad(params.size());
    std::vector<T> density_grad(params.size());
    wirelength_->setGamma(gamma_scheduler.gamma(1.0));
    wirelength_->evaluate(std::span<const T>(params), std::span<T>(wl_grad));
    density_->evaluate(std::span<const T>(params),
                       std::span<T>(density_grad));
    double wl_abs = 0.0;
    double d_abs = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      wl_abs += std::abs(static_cast<double>(wl_grad[i]));
      d_abs += std::abs(static_cast<double>(density_grad[i]));
    }
    lambda = options_.initialDensityWeight > 0
                 ? options_.initialDensityWeight
                 : DensityWeightScheduler::initialWeight(wl_abs, d_abs);
    objective_->setDensityWeight(lambda);

    hpwl_seed = wirelength_->hpwl(std::span<const T>(params));
    ema_hpwl = hpwl_seed;
    overflow = density_->overflow(std::span<const T>(params));
    makeSolver(std::move(params), projection);
  }

  // --- Kernel GP iterations ---------------------------------------------------------
  if (telemetry) {
    TelemetryRunInfo info;
    info.label = options_.telemetryLabel;
    info.numNodes = n;
    info.numMovable = db_.numMovable();
    info.numNets = db_.numNets();
    info.solver = optimizer_->name();
    telemetry->onRunBegin(info);
  }
  TimingRegistry& timing = currentTimingRegistry();
  GlobalPlacerResult result;
  int iter = start_iter;
  FlowContext& flow = FlowContext::current();
  // Liveness heartbeat (common/heartbeat.h): the pre-loop publish seeds
  // the running-best HPWL with the initial placement, so the engine
  // watchdog measures divergence against the true starting point even if
  // its first sample lands iterations into the loop.
  HeartbeatState& heartbeat = flow.heartbeat();
  TraceRecorder& trace = flow.trace();
  heartbeat.beginStage(FlowStage::kGlobalPlacement);
  heartbeat.publishIteration(start_iter - 1, hpwl_seed, overflow);
  for (; iter < options_.maxIterations; ++iter) {
    // Cooperative timeout/cancel point: once per iteration keeps engine
    // job deadlines responsive without per-kernel checks.
    flow.throwIfInterrupted();
    // Per-op time attribution: the ops accumulate into the timing
    // registry; the delta across one step is this iteration's share.
    double wl_t0 = 0.0, density_t0 = 0.0;
    if (telemetry) {
      wl_t0 = timing.total("gp/op/wirelength");
      density_t0 = timing.total("gp/op/density");
    }
    wirelength_->setGamma(gamma_scheduler.gamma(overflow));
    const double obj = optimizer_->step();
    const std::vector<T>& cur = optimizer_->params();

    const double cur_hpwl = wirelength_->hpwl(std::span<const T>(cur));
    {
      ScopedTimer t("gp/overflow");
      overflow = density_->overflow(std::span<const T>(cur));
    }
    // A few relaxed atomic stores per iteration; observers only read.
    heartbeat.publishIteration(iter, cur_hpwl, overflow);

    const double prev_ema = ema_hpwl;
    ema_hpwl = (1.0 - kEmaAlpha) * ema_hpwl + kEmaAlpha * cur_hpwl;
    if ((iter + 1) % options_.lambdaUpdateEvery == 0) {
      lambda_scheduler.setReferenceDelta(
          std::max(kRefRatio * cur_hpwl, 1e-12));
      lambda = lambda_scheduler.update(lambda, ema_hpwl - prev_ema, iter);
      objective_->setDensityWeight(lambda);
    }

    IterationStats stats;
    stats.iteration = iter;
    stats.objective = obj;
    stats.wirelength = objective_->lastWirelength();
    stats.hpwl = cur_hpwl;
    stats.density = objective_->lastDensity();
    stats.overflow = overflow;
    stats.gamma = wirelength_->gamma();
    stats.lambda = lambda;
    stats.stepSize = optimizer_->stepSize();
    if (telemetry) {
      stats.wlOpSeconds = timing.total("gp/op/wirelength") - wl_t0;
      stats.densityOpSeconds = timing.total("gp/op/density") - density_t0;
      telemetry->onIteration(stats);
    }
    // Counter tracks render the convergence curves above the kernel
    // timeline, the way ScopedTimer renders its scopes.
    if (trace.enabled()) {
      trace.counterEvent("gp.overflow", overflow);
      trace.counterEvent("gp.hpwl", cur_hpwl);
      trace.counterEvent("gp.lambda", lambda);
      trace.counterEvent("gp.gamma", stats.gamma);
      trace.counterEvent("gp.step", stats.stepSize);
    }
    if (options_.verbose && iter % 50 == 0) {
      logInfo("gp iter %4d: hpwl %.4e overflow %.4f lambda %.3e", iter,
              cur_hpwl, overflow, lambda);
    }
    if (callback && !callback(stats)) {
      ++iter;
      break;
    }
    if (iter >= options_.minIterations && overflow < options_.stopOverflow) {
      ++iter;
      break;
    }
    // Mid-run checkpoint, last so a terminating iteration is not
    // snapshotted (the stage-boundary checkpoint supersedes it). The
    // snapshot captures the post-update state; a resume re-enters the
    // loop at iter+1 with it, bit-identical to never having stopped.
    if (options_.checkpointEveryIterations > 0 && options_.checkpointSink &&
        (iter + 1) % options_.checkpointEveryIterations == 0) {
      options_.checkpointSink(
          serializeRunState(iter + 1, lambda, ema_hpwl, overflow, cur_hpwl));
    }
  }

  final_params_ = optimizer_->params();
  commit(final_params_);
  result.iterations = iter;
  result.hpwl = wirelength_->hpwl(std::span<const T>(final_params_));
  result.overflow = overflow;
  result.finalLambda = lambda;
  result.seconds = run_timer.elapsed();
  if (telemetry) {
    telemetry->onRunEnd(result);
  }
  logInfo("gp: done after %d iterations, hpwl %.4e, overflow %.4f",
          result.iterations, result.hpwl, result.overflow);
  return result;
}

template <typename T>
void GlobalPlacer<T>::makeSolver(
    std::vector<T> initial, std::function<void(std::vector<T>&)> projection) {
  switch (options_.solver) {
    case SolverKind::kNesterov: {
      typename NesterovOptimizer<T>::Options opt;
      opt.projection = std::move(projection);
      optimizer_ =
          std::make_unique<NesterovOptimizer<T>>(*objective_, initial, opt);
      break;
    }
    case SolverKind::kAdam: {
      typename AdamOptimizer<T>::Options opt;
      // Scale the learning rate to the die so solver settings transfer
      // across design sizes (PyTorch defaults assume O(1) parameters).
      opt.lr = options_.lr * 0.5 * (grid().binW + grid().binH);
      opt.lrDecay = options_.lrDecay;
      opt.projection = std::move(projection);
      optimizer_ =
          std::make_unique<AdamOptimizer<T>>(*objective_, initial, opt);
      break;
    }
    case SolverKind::kSgdMomentum: {
      typename SgdMomentumOptimizer<T>::Options opt;
      opt.lr = options_.lr * 0.5 * (grid().binW + grid().binH);
      opt.lrDecay = options_.lrDecay;
      opt.projection = std::move(projection);
      optimizer_ = std::make_unique<SgdMomentumOptimizer<T>>(*objective_,
                                                             initial, opt);
      break;
    }
    case SolverKind::kRmsProp: {
      typename RmsPropOptimizer<T>::Options opt;
      opt.lr = options_.lr * 0.5 * (grid().binW + grid().binH);
      opt.lrDecay = options_.lrDecay;
      opt.projection = std::move(projection);
      optimizer_ =
          std::make_unique<RmsPropOptimizer<T>>(*objective_, initial, opt);
      break;
    }
  }
}

template <typename T>
std::string GlobalPlacer<T>::serializeRunState(int next_iter, double lambda,
                                               double ema_hpwl,
                                               double overflow,
                                               double cur_hpwl) const {
  ByteWriter w;
  w.u32(1);  // snapshot version
  w.u8(static_cast<std::uint8_t>(options_.solver));
  w.i32(num_nodes_);
  w.i32(next_iter);
  w.f64(lambda);
  w.f64(ema_hpwl);
  w.f64(overflow);
  w.f64(cur_hpwl);
  optimizer_->saveState(w);
  return w.take();
}

template <typename T>
void GlobalPlacer<T>::commit(const std::vector<T>& params) {
  const Index n = num_nodes_;
  const Box<Coord>& die = db_.dieArea();
  for (Index i = 0; i < db_.numMovable(); ++i) {
    const Coord w = db_.cellWidth(i);
    const Coord h = db_.cellHeight(i);
    const Coord cx = static_cast<Coord>(params[i]);
    const Coord cy = static_cast<Coord>(params[i + n]);
    db_.setCellPosition(i, clampSafe(cx - w / 2, die.xl, die.xh - w),
                        clampSafe(cy - h / 2, die.yl, die.yh - h));
  }
}

template <typename T>
std::vector<T> GlobalPlacer<T>::nodeX() const {
  return {final_params_.begin(), final_params_.begin() + num_nodes_};
}

template <typename T>
std::vector<T> GlobalPlacer<T>::nodeY() const {
  return {final_params_.begin() + num_nodes_, final_params_.end()};
}

template class GlobalPlacer<float>;
template class GlobalPlacer<double>;

}  // namespace dreamplace
