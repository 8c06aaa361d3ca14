#include "fft/plan.h"

#include <cmath>

#include "common/counters.h"
#include "common/log.h"

namespace dreamplace::fft {

namespace {

bool isPowerOfTwo(int n) { return n > 0 && (n & (n - 1)) == 0; }

int nextPowerOfTwo(int n) {
  int p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

template <typename T>
std::complex<T> unitPhase(double angle) {
  return {static_cast<T>(std::cos(angle)), static_cast<T>(std::sin(angle))};
}

void countPlanCreate() {
  static Counter creates("fft/plan/create");
  creates.add();
}

/// Half-size plan length for an even real transform; checked before the
/// owned half plan is constructed.
int halfSize(int n) {
  DP_ASSERT_MSG(n >= 2 && n % 2 == 0, "real FFT requires even n, got %d", n);
  return n / 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// FftPlan
// ---------------------------------------------------------------------------

template <typename T>
FftPlan<T>::FftPlan(int n, bool inverse) : n_(n), inverse_(inverse) {
  DP_ASSERT(n >= 1);
  countPlanCreate();
  if (n_ == 1) {
    return;
  }
  if (isPowerOfTwo(n_)) {
    // Bit-reversal swap pairs (i < j only, so execution is a plain sweep).
    swaps_.reserve(n_ / 2);
    for (int i = 1, j = 0; i < n_; ++i) {
      int bit = n_ >> 1;
      for (; j & bit; bit >>= 1) {
        j ^= bit;
      }
      j ^= bit;
      if (i < j) {
        swaps_.emplace_back(i, j);
      }
    }
    // Per-stage twiddle tables, every entry from fresh double trigonometry
    // (the legacy w *= wlen recurrence drifted ~1e-4 in float32 by
    // n = 4096; see tests/fft_test.cpp Float32AccuracyAt4096).
    twiddles_.reserve(n_ - 1);
    for (int len = 2; len <= n_; len <<= 1) {
      const double base = (inverse_ ? 2.0 : -2.0) * M_PI / len;
      for (int k = 0; k < len / 2; ++k) {
        twiddles_.push_back(unitPhase<T>(base * k));
      }
    }
    return;
  }

  // Bluestein chirp-z state. k^2 mod 2n keeps the quadratic phase exact
  // for large n.
  m_ = nextPowerOfTwo(2 * n_ + 1);
  scratch_size_ = static_cast<std::size_t>(m_);
  chirp_.resize(n_);
  for (int k = 0; k < n_; ++k) {
    const long long k2 = (static_cast<long long>(k) * k) % (2LL * n_);
    const double angle = (inverse_ ? 1.0 : -1.0) * M_PI *
                         static_cast<double>(k2) / static_cast<double>(n_);
    chirp_[k] = unitPhase<T>(angle);
  }
  sub_fwd_ = std::make_unique<const FftPlan<T>>(m_, false);
  sub_inv_ = std::make_unique<const FftPlan<T>>(m_, true);
  // Pre-transform the chirp kernel q once; execution then needs a single
  // forward sub-FFT, a pointwise product, and one inverse sub-FFT.
  qspec_.assign(m_, std::complex<T>(0, 0));
  qspec_[0] = std::conj(chirp_[0]);
  for (int k = 1; k < n_; ++k) {
    qspec_[k] = qspec_[m_ - k] = std::conj(chirp_[k]);
  }
  sub_fwd_->execute(qspec_.data(), nullptr);
}

template <typename T>
void FftPlan<T>::executePow2(std::complex<T>* a) const {
  for (const auto& [i, j] : swaps_) {
    std::swap(a[i], a[j]);
  }
  const std::complex<T>* tw = twiddles_.data();
  for (int len = 2; len <= n_; len <<= 1) {
    const int half = len / 2;
    for (int i = 0; i < n_; i += len) {
      for (int k = 0; k < half; ++k) {
        const std::complex<T> u = a[i + k];
        const std::complex<T> v = a[i + k + half] * tw[k];
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
    tw += half;
  }
  if (inverse_) {
    const T scale = T(1) / static_cast<T>(n_);
    for (int i = 0; i < n_; ++i) {
      a[i] *= scale;
    }
  }
}

template <typename T>
void FftPlan<T>::executeBluestein(std::complex<T>* a,
                                  std::complex<T>* scratch) const {
  DP_ASSERT_MSG(scratch != nullptr, "Bluestein execution needs scratch");
  std::complex<T>* p = scratch;
  for (int k = 0; k < n_; ++k) {
    p[k] = a[k] * chirp_[k];
  }
  for (int k = n_; k < m_; ++k) {
    p[k] = std::complex<T>(0, 0);
  }
  sub_fwd_->execute(p, nullptr);
  for (int k = 0; k < m_; ++k) {
    p[k] *= qspec_[k];
  }
  sub_inv_->execute(p, nullptr);
  for (int k = 0; k < n_; ++k) {
    a[k] = p[k] * chirp_[k];
  }
  if (inverse_) {
    const T scale = T(1) / static_cast<T>(n_);
    for (int k = 0; k < n_; ++k) {
      a[k] *= scale;
    }
  }
}

template <typename T>
void FftPlan<T>::execute(std::complex<T>* data,
                         std::complex<T>* scratch) const {
  if (n_ == 1) {
    return;
  }
  if (m_ == 0) {
    executePow2(data);
  } else {
    executeBluestein(data, scratch);
  }
}

// ---------------------------------------------------------------------------
// RfftPlan
// ---------------------------------------------------------------------------

template <typename T>
RfftPlan<T>::RfftPlan(int n, bool inverse)
    : n_(n), inverse_(inverse), half_(halfSize(n), inverse) {
  countPlanCreate();
  const int h = n_ / 2;
  unpack_.resize(h + 1);
  const double base = (inverse_ ? 2.0 : -2.0) * M_PI / n_;
  for (int k = 0; k <= h; ++k) {
    unpack_[k] = unitPhase<T>(base * k);
  }
}

template <typename T>
std::size_t RfftPlan<T>::scratchSize() const {
  return static_cast<std::size_t>(n_ / 2) + half_.scratchSize();
}

template <typename T>
void RfftPlan<T>::forward(const T* in, std::complex<T>* out,
                          std::complex<T>* scratch) const {
  DP_ASSERT(!inverse_);
  const int h = n_ / 2;
  std::complex<T>* z = scratch;
  // Pack adjacent real pairs into complex samples and run a half-size FFT.
  for (int m = 0; m < h; ++m) {
    z[m] = std::complex<T>(in[2 * m], in[2 * m + 1]);
  }
  half_.execute(z, scratch + h);
  // Unpack: E_k (even-sample DFT) and O_k (odd-sample DFT).
  for (int k = 0; k <= h; ++k) {
    const std::complex<T> zk = z[k % h];
    const std::complex<T> zc = std::conj(z[(h - k) % h]);
    const std::complex<T> even = (zk + zc) * T(0.5);
    const std::complex<T> odd =
        (zk - zc) * std::complex<T>(0, T(-0.5));  // divide by 2i
    out[k] = even + unpack_[k] * odd;
  }
}

template <typename T>
void RfftPlan<T>::inverse(const std::complex<T>* in, T* out,
                          std::complex<T>* scratch) const {
  DP_ASSERT(inverse_);
  const int h = n_ / 2;
  std::complex<T>* z = scratch;
  for (int k = 0; k < h; ++k) {
    const std::complex<T> xk = in[k];
    const std::complex<T> xc = std::conj(in[h - k]);
    const std::complex<T> even = (xk + xc) * T(0.5);
    const std::complex<T> odd = (xk - xc) * T(0.5) * unpack_[k];
    z[k] = even + std::complex<T>(0, 1) * odd;
  }
  half_.execute(z, scratch + h);
  for (int m = 0; m < h; ++m) {
    out[2 * m] = z[m].real();
    out[2 * m + 1] = z[m].imag();
  }
}

#define DP_INSTANTIATE_PLAN(T) \
  template class FftPlan<T>;     \
  template class RfftPlan<T>;

DP_INSTANTIATE_PLAN(float)
DP_INSTANTIATE_PLAN(double)

#undef DP_INSTANTIATE_PLAN

}  // namespace dreamplace::fft
