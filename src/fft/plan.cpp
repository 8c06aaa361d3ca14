#include "fft/plan.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/counters.h"
#include "common/log.h"
#include "common/simd.h"

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

/// Complex values per native vector (0 when SIMD is off).
template <typename T>
inline constexpr int kVecComplex = simd::kNativeWidth<T> / 2;

/// A twiddle w ready for products across a batch: its parts, and with
/// SIMD the vectors of w.real() and of the factor (-wi, wi, -wi, wi,
/// ...) that multiplies swapPairs(v): two broadcasts and a sign flip.
template <typename T>
struct BatchTwiddle {
  using V = simd::NativeVec<T>;

  explicit BatchTwiddle(std::complex<T> w) : wr(w.real()), wi(w.imag()) {
    if constexpr (kVecComplex<T> > 0) {
      T signs[V::kWidth];
      for (int i = 0; i < V::kWidth; ++i) {
        signs[i] = (i % 2 == 0) ? T(-1) : T(1);
      }
      re = V::broadcast(wr);
      im = V::broadcast(wi) * V::load(signs);  // exact: a sign flip
    }
  }

  T wr;
  T wi;
  V re;
  V im;
};

/// dst[c] = src[c] * w for c < count, as std::complex multiplies:
/// (ar*wr - ai*wi, ar*wi + ai*wr), unfused. The vector lanes compute
/// ar*wr + ai*(-wi) and ai*wr + ar*wi, the same bits. src may equal dst.
template <typename T, typename Count>
inline void mulRow(const std::complex<T>* src, const BatchTwiddle<T>& w,
                   std::complex<T>* dst, Count count) {
  const T* s = reinterpret_cast<const T*>(src);
  T* d = reinterpret_cast<T*>(dst);
  int c = 0;
  if constexpr (kVecComplex<T> > 0) {
    using V = simd::NativeVec<T>;
    for (; c + kVecComplex<T> <= count; c += kVecComplex<T>) {
      const V a = V::load(s + 2 * c);
      (a * w.re + simd::swapPairs(a) * w.im).store(d + 2 * c);
    }
  }
  for (; c < count; ++c) {
    const T ar = s[2 * c];
    const T ai = s[2 * c + 1];
    d[2 * c] = ar * w.wr - ai * w.wi;
    d[2 * c + 1] = ar * w.wi + ai * w.wr;
  }
}

/// One radix-2 butterfly across a batch: x = v*w, u' = u + x, v' = u - x.
template <typename T, typename Count>
inline void butterflyRow(std::complex<T>* u, std::complex<T>* v,
                         const BatchTwiddle<T>& w, Count count) {
  T* pu = reinterpret_cast<T*>(u);
  T* pv = reinterpret_cast<T*>(v);
  int c = 0;
  if constexpr (kVecComplex<T> > 0) {
    using V = simd::NativeVec<T>;
    for (; c + kVecComplex<T> <= count; c += kVecComplex<T>) {
      const V a = V::load(pu + 2 * c);
      const V b = V::load(pv + 2 * c);
      const V x = b * w.re + simd::swapPairs(b) * w.im;
      (a + x).store(pu + 2 * c);
      (a - x).store(pv + 2 * c);
    }
  }
  for (; c < count; ++c) {
    const T br = pv[2 * c];
    const T bi = pv[2 * c + 1];
    const T xr = br * w.wr - bi * w.wi;
    const T xi = br * w.wi + bi * w.wr;
    const T ar = pu[2 * c];
    const T ai = pu[2 * c + 1];
    pu[2 * c] = ar + xr;
    pu[2 * c + 1] = ai + xi;
    pv[2 * c] = ar - xr;
    pv[2 * c + 1] = ai - xi;
  }
}

/// a[t*stride + c] *= scale for t < rows, c < count (complex times real:
/// both parts scaled).
template <typename T, typename Count, typename Stride>
void scaleRows(std::complex<T>* a, int rows, Count count, Stride stride,
               T scale) {
  for (int t = 0; t < rows; ++t) {
    T* row = reinterpret_cast<T*>(a + t * stride);
    for (int i = 0; i < 2 * static_cast<int>(count); ++i) {
      row[i] *= scale;
    }
  }
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
template <typename Count, typename Stride>
void FftPlan<T>::executePow2(std::complex<T>* a, Count count,
                             Stride stride) const {
  for (const auto& [i, j] : swaps_) {
    std::swap_ranges(a + i * stride, a + i * stride + count, a + j * stride);
  }
  const std::complex<T>* tw = twiddles_.data();
  for (int len = 2; len <= n_; len <<= 1) {
    const int half = len / 2;
    for (int i = 0; i < n_; i += len) {
      for (int k = 0; k < half; ++k) {
        butterflyRow(a + (i + k) * stride, a + (i + k + half) * stride,
                     BatchTwiddle<T>(tw[k]), count);
      }
    }
    tw += half;
  }
  if (inverse_) {
    scaleRows(a, n_, count, stride, T(1) / static_cast<T>(n_));
  }
}

template <typename T>
template <typename Count, typename Stride>
void FftPlan<T>::executeBluestein(std::complex<T>* a, Count count,
                                  Stride stride,
                                  std::complex<T>* scratch) const {
  DP_ASSERT_MSG(scratch != nullptr, "Bluestein execution needs scratch");
  // The padded sequences live in scratch as m rows of `count`.
  const Stride c = static_cast<Stride>(count);
  std::complex<T>* p = scratch;
  for (int k = 0; k < n_; ++k) {
    mulRow(a + k * stride, BatchTwiddle<T>(chirp_[k]), p + k * c, count);
  }
  std::fill(p + n_ * c, p + m_ * c, std::complex<T>(0, 0));
  sub_fwd_->executePow2(p, count, c);
  for (int k = 0; k < m_; ++k) {
    mulRow(p + k * c, BatchTwiddle<T>(qspec_[k]), p + k * c, count);
  }
  sub_inv_->executePow2(p, count, c);
  for (int k = 0; k < n_; ++k) {
    mulRow(p + k * c, BatchTwiddle<T>(chirp_[k]), a + k * stride, count);
  }
  if (inverse_) {
    scaleRows(a, n_, count, stride, T(1) / static_cast<T>(n_));
  }
}

template <typename T>
void FftPlan<T>::execute(std::complex<T>* data, int count, std::size_t stride,
                         std::complex<T>* scratch) const {
  DP_ASSERT(count >= 1 && stride >= static_cast<std::size_t>(count));
  if (n_ == 1) {
    return;
  }
  const auto run = [&](auto batch, auto step) {
    if (m_ == 0) {
      executePow2(data, batch, step);
    } else {
      executeBluestein(data, batch, step, scratch);
    }
  };
  // The batch of one, and the strip and row-block widths of Dct2dPlan as
  // compile-time counts: whole vectors, no tail loop.
  using One = std::integral_constant<int, 1>;
  if (count == 1 && stride == 1) {
    run(One{}, One{});
  } else if (count == 4) {
    run(std::integral_constant<int, 4>{}, stride);
  } else if (count == 8) {
    run(std::integral_constant<int, 8>{}, stride);
  } else {
    run(count, stride);
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
  // Pack adjacent real pairs into complex samples: the batch of one.
  const int h = n_ / 2;
  for (int m = 0; m < h; ++m) {
    scratch[m] = std::complex<T>(in[2 * m], in[2 * m + 1]);
  }
  forwardPacked(scratch, 1, out, 0, scratch + h);
}

template <typename T>
void RfftPlan<T>::forwardPacked(std::complex<T>* z, int count,
                                std::complex<T>* out, std::size_t outStride,
                                std::complex<T>* scratch) const {
  DP_ASSERT(!inverse_);
  const int h = n_ / 2;
  const std::size_t c = static_cast<std::size_t>(count);
  half_.execute(z, count, c, scratch);
  // Unpack: E_k (even-sample DFT) and O_k (odd-sample DFT), spelled out
  // as std::complex evaluates them: even = (zk + zc) * 0.5, odd = (zk -
  // zc) * (0, -0.5), out = even + unpack_k * odd.
  for (int k = 0; k <= h; ++k) {
    // Rows k mod h and (h - k) mod h, without the divisions.
    const std::complex<T>* zk_row = z + (k == h ? 0 : k) * c;
    const std::complex<T>* zc_row = z + (k == 0 ? 0 : h - k) * c;
    const T ur = unpack_[k].real();
    const T ui = unpack_[k].imag();
    for (int r = 0; r < count; ++r) {
      const T zkr = zk_row[r].real();
      const T zki = zk_row[r].imag();
      const T zcr = zc_row[r].real();
      const T zci = -zc_row[r].imag();
      const T er = (zkr + zcr) * T(0.5);
      const T ei = (zki + zci) * T(0.5);
      const T dr = zkr - zcr;
      const T di = zki - zci;
      const T odd_r = dr * T(0) - di * T(-0.5);
      const T odd_i = dr * T(-0.5) + di * T(0);
      out[r * outStride + k] = std::complex<T>(
          er + (ur * odd_r - ui * odd_i), ei + (ur * odd_i + ui * odd_r));
    }
  }
}

template <typename T>
void RfftPlan<T>::inverse(const std::complex<T>* in, T* out,
                          std::complex<T>* scratch) const {
  const int h = n_ / 2;
  inversePacked(&in, 1, scratch, scratch + h);
  for (int m = 0; m < h; ++m) {
    out[2 * m] = scratch[m].real();
    out[2 * m + 1] = scratch[m].imag();
  }
}

template <typename T>
void RfftPlan<T>::inversePacked(const std::complex<T>* const* rows, int count,
                                std::complex<T>* z,
                                std::complex<T>* scratch) const {
  DP_ASSERT(inverse_);
  const int h = n_ / 2;
  const std::size_t c = static_cast<std::size_t>(count);
  // even = (xk + xc) * 0.5, odd = (xk - xc) * 0.5 * unpack_k, z = even +
  // (0, 1) * odd, spelled out as std::complex evaluates them.
  for (int k = 0; k < h; ++k) {
    const T ur = unpack_[k].real();
    const T ui = unpack_[k].imag();
    std::complex<T>* zk = z + k * c;
    for (int r = 0; r < count; ++r) {
      const T xkr = rows[r][k].real();
      const T xki = rows[r][k].imag();
      const T xcr = rows[r][h - k].real();
      const T xci = -rows[r][h - k].imag();
      const T er = (xkr + xcr) * T(0.5);
      const T ei = (xki + xci) * T(0.5);
      const T tr = (xkr - xcr) * T(0.5);
      const T ti = (xki - xci) * T(0.5);
      const T odd_r = tr * ur - ti * ui;
      const T odd_i = tr * ui + ti * ur;
      zk[r] = std::complex<T>(er + (T(0) * odd_r - T(1) * odd_i),
                              ei + (T(0) * odd_i + T(1) * odd_r));
    }
  }
  half_.execute(z, count, c, scratch);
}

#define DP_INSTANTIATE_PLAN(T) \
  template class FftPlan<T>;     \
  template class RfftPlan<T>;

DP_INSTANTIATE_PLAN(float)
DP_INSTANTIATE_PLAN(double)

#undef DP_INSTANTIATE_PLAN

}  // namespace dreamplace::fft
