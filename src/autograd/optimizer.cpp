#include "autograd/optimizers.h"

#include <cmath>

#include "common/counters.h"
#include "common/log.h"

namespace dreamplace {

namespace {

template <typename T>
double norm2(const std::vector<T>& a, const std::vector<T>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// Reads a checkpointed vector, enforcing the size the optimizer was
/// constructed with — a snapshot from a different problem must not load.
template <typename V>
void readVec(ByteReader& r, std::vector<V>& out) {
  const std::size_t expected = out.size();
  out = r.f64Vec<V>();
  if (out.size() != expected) {
    throw std::runtime_error(
        "optimizer: snapshot vector size " + std::to_string(out.size()) +
        " does not match problem size " + std::to_string(expected));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// NesterovOptimizer
// ---------------------------------------------------------------------------

template <typename T>
NesterovOptimizer<T>::NesterovOptimizer(ObjectiveFunction<T>& objective,
                                        std::vector<T> initial,
                                        Options options)
    : objective_(objective), options_(options), u_(std::move(initial)) {
  reset();
}

template <typename T>
void NesterovOptimizer<T>::reset() {
  const std::size_t n = u_.size();
  u_prev_ = u_;
  v_ = u_;
  v_prev_ = u_;
  grad_v_.assign(n, T(0));
  grad_v_prev_.assign(n, T(0));
  v_cand_.assign(n, T(0));
  grad_cand_.assign(n, T(0));
  u_cand_.assign(n, T(0));
  a_ = 1.0;
  first_step_ = true;
  alpha_ = options_.initialStep;
}

template <typename T>
double NesterovOptimizer<T>::evalAt(const std::vector<T>& point,
                                    std::vector<T>& grad) {
  ++evaluations_;
  static Counter evals("optimizer/nesterov/evaluations");
  evals.add();
  return objective_.evaluate(std::span<const T>(point), std::span<T>(grad));
}

template <typename T>
double NesterovOptimizer<T>::estimateInitialStep() {
  // Probe the local Lipschitz constant with a small perturbation along the
  // negative gradient (same spirit as ePlace's initialization).
  std::vector<T> probe = v_;
  double gnorm = 0.0;
  for (T g : grad_v_) {
    gnorm += static_cast<double>(g) * static_cast<double>(g);
  }
  gnorm = std::sqrt(gnorm);
  if (gnorm == 0.0) {
    return 1.0;
  }
  const double h = 1.0 / gnorm;  // unit-length probe
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] = v_[i] - static_cast<T>(h * grad_v_[i]);
  }
  const double ignored [[maybe_unused]] = evalAt(probe, grad_cand_);
  const double dg = norm2(grad_cand_, grad_v_);
  if (dg == 0.0) {
    return 1.0;
  }
  return 1.0 / dg * 1.0;  // |dv| / |dg| with |dv| == 1
}

template <typename T>
double NesterovOptimizer<T>::step() {
  static Counter steps("optimizer/nesterov/steps");
  steps.add();
  const std::size_t n = u_.size();
  double value = 0.0;
  if (first_step_) {
    value = evalAt(v_, grad_v_);
    if (alpha_ <= 0.0) {
      alpha_ = estimateInitialStep();
    }
    first_step_ = false;
  }

  // Backtracking on the inverse-Lipschitz step estimate: take a trial step
  // from v_k, measure |dv|/|dg| at the landing point, and shrink until the
  // estimate stabilizes (ePlace's line search).
  double alpha = alpha_;
  const double a_next = (1.0 + std::sqrt(4.0 * a_ * a_ + 1.0)) / 2.0;
  const double momentum = (a_ - 1.0) / a_next;
  double cand_value = 0.0;
  for (int bt = 0; bt < options_.maxBacktracks; ++bt) {
    for (std::size_t i = 0; i < n; ++i) {
      u_cand_[i] = v_[i] - static_cast<T>(alpha * grad_v_[i]);
      v_cand_[i] = u_cand_[i] + static_cast<T>(momentum) *
                                    (u_cand_[i] - u_[i]);
    }
    if (options_.projection) {
      options_.projection(u_cand_);
      options_.projection(v_cand_);
    }
    cand_value = evalAt(v_cand_, grad_cand_);
    const double dv = norm2(v_cand_, v_);
    const double dg = norm2(grad_cand_, grad_v_);
    const double alpha_new = dg > 0.0 ? dv / dg : alpha;
    if (alpha_new >= options_.backtrackTolerance * alpha) {
      alpha_ = alpha_new;
      break;
    }
    alpha = alpha_new;
    alpha_ = alpha_new;
  }
  value = cand_value;

  // Commit by rotating buffers: the *_cand_ vectors receive the stale
  // *_prev_ contents, which the next step overwrites before reading.
  u_prev_.swap(u_);
  u_.swap(u_cand_);
  v_prev_.swap(v_);
  v_.swap(v_cand_);
  grad_v_prev_.swap(grad_v_);
  grad_v_.swap(grad_cand_);
  a_ = a_next;
  return value;
}

template <typename T>
void NesterovOptimizer<T>::saveState(ByteWriter& w) const {
  // v_cand_/grad_cand_/u_cand_ are per-step scratch (fully overwritten
  // before any read), so only the committed state is serialized.
  w.f64Vec(u_);
  w.f64Vec(u_prev_);
  w.f64Vec(v_);
  w.f64Vec(v_prev_);
  w.f64Vec(grad_v_);
  w.f64Vec(grad_v_prev_);
  w.f64(a_);
  w.f64(alpha_);
  w.u8(first_step_ ? 1 : 0);
  w.i64(evaluations_);
}

template <typename T>
void NesterovOptimizer<T>::loadState(ByteReader& r) {
  readVec(r, u_);
  readVec(r, u_prev_);
  readVec(r, v_);
  readVec(r, v_prev_);
  readVec(r, grad_v_);
  readVec(r, grad_v_prev_);
  a_ = r.f64();
  alpha_ = r.f64();
  first_step_ = r.u8() != 0;
  evaluations_ = static_cast<long>(r.i64());
}

// ---------------------------------------------------------------------------
// AdamOptimizer
// ---------------------------------------------------------------------------

template <typename T>
AdamOptimizer<T>::AdamOptimizer(ObjectiveFunction<T>& objective,
                                std::vector<T> initial, Options options)
    : objective_(objective), options_(options), params_(std::move(initial)) {
  reset();
}

template <typename T>
void AdamOptimizer<T>::reset() {
  grad_.assign(params_.size(), T(0));
  m_.assign(params_.size(), 0.0);
  v_.assign(params_.size(), 0.0);
  lr_ = options_.lr;
  t_ = 0;
}

template <typename T>
double AdamOptimizer<T>::step() {
  static Counter steps("optimizer/adam/steps");
  steps.add();
  const double value = objective_.evaluate(std::span<const T>(params_),
                                           std::span<T>(grad_));
  ++t_;
  const double bias1 = 1.0 - std::pow(options_.beta1, t_);
  const double bias2 = 1.0 - std::pow(options_.beta2, t_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double g = static_cast<double>(grad_[i]);
    m_[i] = options_.beta1 * m_[i] + (1.0 - options_.beta1) * g;
    v_[i] = options_.beta2 * v_[i] + (1.0 - options_.beta2) * g * g;
    const double mhat = m_[i] / bias1;
    const double vhat = v_[i] / bias2;
    params_[i] -= static_cast<T>(lr_ * mhat /
                                 (std::sqrt(vhat) + options_.eps));
  }
  if (options_.projection) {
    options_.projection(params_);
  }
  lr_ *= options_.lrDecay;
  return value;
}

template <typename T>
void AdamOptimizer<T>::saveState(ByteWriter& w) const {
  w.f64Vec(params_);
  w.f64Vec(m_);
  w.f64Vec(v_);
  w.f64(lr_);
  w.i64(t_);
}

template <typename T>
void AdamOptimizer<T>::loadState(ByteReader& r) {
  readVec(r, params_);
  readVec(r, m_);
  readVec(r, v_);
  lr_ = r.f64();
  t_ = static_cast<long>(r.i64());
}

// ---------------------------------------------------------------------------
// SgdMomentumOptimizer
// ---------------------------------------------------------------------------

template <typename T>
SgdMomentumOptimizer<T>::SgdMomentumOptimizer(ObjectiveFunction<T>& objective,
                                              std::vector<T> initial,
                                              Options options)
    : objective_(objective), options_(options), params_(std::move(initial)) {
  reset();
}

template <typename T>
void SgdMomentumOptimizer<T>::reset() {
  grad_.assign(params_.size(), T(0));
  velocity_.assign(params_.size(), 0.0);
  lr_ = options_.lr;
}

template <typename T>
double SgdMomentumOptimizer<T>::step() {
  static Counter steps("optimizer/sgd_momentum/steps");
  steps.add();
  const double value = objective_.evaluate(std::span<const T>(params_),
                                           std::span<T>(grad_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    velocity_[i] = options_.momentum * velocity_[i] +
                   static_cast<double>(grad_[i]);
    params_[i] -= static_cast<T>(lr_ * velocity_[i]);
  }
  if (options_.projection) {
    options_.projection(params_);
  }
  lr_ *= options_.lrDecay;
  return value;
}

template <typename T>
void SgdMomentumOptimizer<T>::saveState(ByteWriter& w) const {
  w.f64Vec(params_);
  w.f64Vec(velocity_);
  w.f64(lr_);
}

template <typename T>
void SgdMomentumOptimizer<T>::loadState(ByteReader& r) {
  readVec(r, params_);
  readVec(r, velocity_);
  lr_ = r.f64();
}

// ---------------------------------------------------------------------------
// RmsPropOptimizer
// ---------------------------------------------------------------------------

template <typename T>
RmsPropOptimizer<T>::RmsPropOptimizer(ObjectiveFunction<T>& objective,
                                      std::vector<T> initial, Options options)
    : objective_(objective), options_(options), params_(std::move(initial)) {
  reset();
}

template <typename T>
void RmsPropOptimizer<T>::reset() {
  grad_.assign(params_.size(), T(0));
  meanSquare_.assign(params_.size(), 0.0);
  lr_ = options_.lr;
}

template <typename T>
double RmsPropOptimizer<T>::step() {
  static Counter steps("optimizer/rmsprop/steps");
  steps.add();
  const double value = objective_.evaluate(std::span<const T>(params_),
                                           std::span<T>(grad_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double g = static_cast<double>(grad_[i]);
    meanSquare_[i] = options_.alpha * meanSquare_[i] +
                     (1.0 - options_.alpha) * g * g;
    params_[i] -=
        static_cast<T>(lr_ * g / (std::sqrt(meanSquare_[i]) + options_.eps));
  }
  if (options_.projection) {
    options_.projection(params_);
  }
  lr_ *= options_.lrDecay;
  return value;
}

template <typename T>
void RmsPropOptimizer<T>::saveState(ByteWriter& w) const {
  w.f64Vec(params_);
  w.f64Vec(meanSquare_);
  w.f64(lr_);
}

template <typename T>
void RmsPropOptimizer<T>::loadState(ByteReader& r) {
  readVec(r, params_);
  readVec(r, meanSquare_);
  lr_ = r.f64();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

template <typename T>
std::unique_ptr<Optimizer<T>> makeOptimizer(SolverKind kind,
                                            ObjectiveFunction<T>& objective,
                                            std::vector<T> initial,
                                            double lr, double lrDecay) {
  switch (kind) {
    case SolverKind::kNesterov:
      return std::make_unique<NesterovOptimizer<T>>(objective,
                                                    std::move(initial));
    case SolverKind::kAdam: {
      typename AdamOptimizer<T>::Options opt;
      opt.lr = lr;
      opt.lrDecay = lrDecay;
      return std::make_unique<AdamOptimizer<T>>(objective, std::move(initial),
                                                opt);
    }
    case SolverKind::kSgdMomentum: {
      typename SgdMomentumOptimizer<T>::Options opt;
      opt.lr = lr;
      opt.lrDecay = lrDecay;
      return std::make_unique<SgdMomentumOptimizer<T>>(objective,
                                                       std::move(initial), opt);
    }
    case SolverKind::kRmsProp: {
      typename RmsPropOptimizer<T>::Options opt;
      opt.lr = lr;
      opt.lrDecay = lrDecay;
      return std::make_unique<RmsPropOptimizer<T>>(objective,
                                                   std::move(initial), opt);
    }
  }
  logFatal("unknown solver kind");
}

const char* solverName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kNesterov:
      return "Nesterov";
    case SolverKind::kAdam:
      return "Adam";
    case SolverKind::kSgdMomentum:
      return "SGD Momentum";
    case SolverKind::kRmsProp:
      return "RMSProp";
  }
  return "?";
}

#define DP_INSTANTIATE_OPT(T)                                               \
  template class NesterovOptimizer<T>;                                      \
  template class AdamOptimizer<T>;                                          \
  template class SgdMomentumOptimizer<T>;                                   \
  template class RmsPropOptimizer<T>;                                       \
  template std::unique_ptr<Optimizer<T>> makeOptimizer<T>(                  \
      SolverKind, ObjectiveFunction<T>&, std::vector<T>, double, double);

DP_INSTANTIATE_OPT(float)
DP_INSTANTIATE_OPT(double)

#undef DP_INSTANTIATE_OPT

}  // namespace dreamplace
