#include "fft/dct.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/log.h"

namespace dreamplace::fft {

namespace {

template <typename T>
void dctNaive(const T* x, T* out, int n) {
  for (int k = 0; k < n; ++k) {
    double acc = 0.0;
    for (int m = 0; m < n; ++m) {
      acc += static_cast<double>(x[m]) * std::cos(M_PI * (m + 0.5) * k / n);
    }
    out[k] = static_cast<T>(acc);
  }
}

template <typename T>
void idctNaive(const T* c, T* out, int n) {
  for (int k = 0; k < n; ++k) {
    double acc = 0.5 * static_cast<double>(c[0]);
    for (int m = 1; m < n; ++m) {
      acc += static_cast<double>(c[m]) * std::cos(M_PI * m * (k + 0.5) / n);
    }
    out[k] = static_cast<T>(acc);
  }
}

}  // namespace

template <typename T>
DctPlan<T>::DctPlan(int n, DctAlgorithm algo) : n_(n), algo_(algo) {
  DP_ASSERT(n >= 1);
  std::size_t transform_slots = 0;
  switch (algo_) {
    case DctAlgorithm::kNaive:
      break;
    case DctAlgorithm::kFft2N:
      fwd2n_.emplace(2 * n_, false);
      inv2n_.emplace(2 * n_, true);
      transform_slots = static_cast<std::size_t>(2 * n_) +
          std::max(fwd2n_->scratchSize(), inv2n_->scratchSize());
      break;
    case DctAlgorithm::kFftN: {
      DP_ASSERT_MSG(n_ % 2 == 0, "N-point DCT requires even N, got %d", n_);
      rfwd_.emplace(n_, false);
      rinv_.emplace(n_, true);
      // n reals (n/2 slots) + n/2+1 spectrum bins + the real FFT's own.
      const int h = n_ / 2;
      transform_slots = static_cast<std::size_t>(2 * h + 1) +
          std::max(rfwd_->scratchSize(), rinv_->scratchSize());
      break;
    }
  }
  if (algo_ != DctAlgorithm::kNaive) {
    tw_.resize(n_);
    for (int k = 0; k < n_; ++k) {
      const double angle = -M_PI * k / (2.0 * n_);
      tw_[k] = std::complex<T>(static_cast<T>(std::cos(angle)),
                               static_cast<T>(std::sin(angle)));
    }
  }
  // idxst keeps its n-real flipped input ahead of the idct scratch.
  scratch_size_ = static_cast<std::size_t>((n_ + 1) / 2) + transform_slots;
}

/// DCT-II via a 2N-point complex FFT of the half-sample even extension
/// [x_0..x_{N-1}, x_{N-1}..x_0]: Y_k = 2 e^{+j pi k/2N} X_k.
template <typename T>
void DctPlan<T>::dctFft2N(const T* x, T* out,
                          std::complex<T>* scratch) const {
  const int n = n_;
  std::complex<T>* y = scratch;
  std::fill(y, y + 2 * n, std::complex<T>(0, 0));
  for (int i = 0; i < n; ++i) {
    y[i] = x[i];
    y[2 * n - 1 - i] = x[i];
  }
  fwd2n_->execute(y, scratch + 2 * n);
  for (int k = 0; k < n; ++k) {
    out[k] = T(0.5) * (tw_[k] * y[k]).real();
  }
}

/// IDCT via a 2N-point inverse FFT: idct(c)_k = Re(S_k) - c_0/2 with
/// S = 2N * IDFT_2N(d), d_n = c_n e^{+j pi n/2N} zero-padded to 2N.
template <typename T>
void DctPlan<T>::idctFft2N(const T* c, T* out,
                           std::complex<T>* scratch) const {
  const int n = n_;
  std::complex<T>* d = scratch;
  std::fill(d, d + 2 * n, std::complex<T>(0, 0));
  for (int m = 0; m < n; ++m) {
    d[m] = c[m] * std::conj(tw_[m]);
  }
  inv2n_->execute(d, scratch + 2 * n);
  const T half_c0 = c[0] / T(2);
  for (int k = 0; k < n; ++k) {
    out[k] = static_cast<T>(2 * n) * d[k].real() - half_c0;
  }
}

/// Makhoul N-point DCT (Algorithm 3 in the paper): reorder, one-sided real
/// FFT, and a linear-time twiddle pass.
template <typename T>
void DctPlan<T>::dctFftN(const T* x, T* out, std::complex<T>* scratch) const {
  const int n = n_;
  const int h = n / 2;
  // The n reordered samples live in n/2 complex slots viewed as reals
  // (std::complex guarantees the array-of-(re, im) layout).
  T* v = reinterpret_cast<T*>(scratch);
  std::complex<T>* spectrum = scratch + h;
  for (int t = 0; t < n; ++t) {
    v[t] = (t < h) ? x[2 * t] : x[2 * (n - t) - 1];
  }
  rfwd_->forward(v, spectrum, spectrum + h + 1);
  for (int k = 0; k < n; ++k) {
    // Conjugate symmetry of the real FFT covers k > N/2.
    const std::complex<T> vk =
        (k <= h) ? spectrum[k] : std::conj(spectrum[n - k]);
    out[k] = (tw_[k] * vk).real();
  }
}

/// Makhoul N-point IDCT: U_t = e^{+j pi t/2N} (c_t - j c_{N-t}) for
/// t = 0..N/2 (c_N := 0), one-sided inverse real FFT, inverse reorder,
/// scale by N/2.
template <typename T>
void DctPlan<T>::idctFftN(const T* c, T* out,
                          std::complex<T>* scratch) const {
  const int n = n_;
  const int h = n / 2;
  std::complex<T>* u = scratch;
  T* v = reinterpret_cast<T*>(scratch + h + 1);
  for (int t = 0; t <= h; ++t) {
    const T ct = c[t];
    const T cnt = (t == 0) ? T(0) : c[n - t];
    u[t] = std::conj(tw_[t]) * std::complex<T>(ct, -cnt);
  }
  rinv_->inverse(u, v, scratch + 2 * h + 1);
  const T scale = static_cast<T>(n) / T(2);
  for (int k = 0; k < n; ++k) {
    // Inverse of the forward reorder: even outputs from the first half.
    out[k] = scale * ((k % 2 == 0) ? v[k / 2] : v[n - (k + 1) / 2]);
  }
}

template <typename T>
void DctPlan<T>::dct(const T* in, T* out, std::complex<T>* scratch) const {
  switch (algo_) {
    case DctAlgorithm::kNaive:
      return dctNaive(in, out, n_);
    case DctAlgorithm::kFft2N:
      return dctFft2N(in, out, scratch);
    case DctAlgorithm::kFftN:
      return dctFftN(in, out, scratch);
  }
  logFatal("unknown DCT algorithm");
}

template <typename T>
void DctPlan<T>::idct(const T* in, T* out, std::complex<T>* scratch) const {
  switch (algo_) {
    case DctAlgorithm::kNaive:
      return idctNaive(in, out, n_);
    case DctAlgorithm::kFft2N:
      return idctFft2N(in, out, scratch);
    case DctAlgorithm::kFftN:
      return idctFftN(in, out, scratch);
  }
  logFatal("unknown IDCT algorithm");
}

template <typename T>
void DctPlan<T>::idxst(const T* in, T* out, std::complex<T>* scratch) const {
  // Paper eq. (8e): idxst(c)_k = (-1)^k idct(z)_k, z_0 = 0, z_n = c_{N-n}.
  const int n = n_;
  T* z = reinterpret_cast<T*>(scratch);
  z[0] = T(0);
  for (int m = 1; m < n; ++m) {
    z[m] = in[n - m];
  }
  idct(z, out, scratch + (n + 1) / 2);
  for (int k = 1; k < n; k += 2) {
    out[k] = -out[k];
  }
}

namespace {

/// Runs one plan method on a vector with a plan and scratch of its own.
template <typename T, typename Method>
std::vector<T> oneShot(const std::vector<T>& in, DctAlgorithm algo,
                       Method method) {
  const DctPlan<T> plan(static_cast<int>(in.size()), algo);
  std::vector<std::complex<T>> scratch(plan.scratchSize());
  std::vector<T> out(in.size());
  (plan.*method)(in.data(), out.data(), scratch.data());
  return out;
}

}  // namespace

template <typename T>
std::vector<T> dct(const std::vector<T>& x, DctAlgorithm algo) {
  return oneShot(x, algo, &DctPlan<T>::dct);
}

template <typename T>
std::vector<T> idct(const std::vector<T>& c, DctAlgorithm algo) {
  return oneShot(c, algo, &DctPlan<T>::idct);
}

template <typename T>
std::vector<T> idxst(const std::vector<T>& c, DctAlgorithm algo) {
  return oneShot(c, algo, &DctPlan<T>::idxst);
}

#define DP_INSTANTIATE_DCT(T)                                           \
  template class DctPlan<T>;                                            \
  template std::vector<T> dct<T>(const std::vector<T>&, DctAlgorithm);  \
  template std::vector<T> idct<T>(const std::vector<T>&, DctAlgorithm); \
  template std::vector<T> idxst<T>(const std::vector<T>&, DctAlgorithm);

DP_INSTANTIATE_DCT(float)
DP_INSTANTIATE_DCT(double)

#undef DP_INSTANTIATE_DCT

}  // namespace dreamplace::fft
