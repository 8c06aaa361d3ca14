// Test-side references that pin the FFT and spectral-solve bits.
//
// Each function is a serial, textbook spelling of the algorithm the
// library runs, with the same tables, the same operation order and the
// same std::complex arithmetic per element:
//   - fft::reference::Fft: one sequence through bit reversal plus radix-2
//     stages (power-of-two n) or Bluestein chirp-z (other n), every
//     product a std::complex multiply;
//   - rfft / irfft: the half-size complex FFT plus the pack/unpack step;
//   - Dct2d: the kFft2dN forward and inverse 2-D transforms (paper Alg.
//     4 / Makhoul) through per-row RfftPlan, per-column FftPlan::execute,
//     a materialized reorder and separate twiddle, gather, sign and scale
//     passes;
//   - poissonSolve: PoissonSolver::solve on top of Dct2d, its energy
//     summed in blocks of 8 rows.
// The library batches, fuses and vectorizes these passes; the tests
// compare its output to these functions with memcmp.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "fft/plan.h"

namespace dreamplace::fft::reference {

template <typename T>
std::complex<T> unitPhase(double angle) {
  return {static_cast<T>(std::cos(angle)), static_cast<T>(std::sin(angle))};
}

/// One-sequence complex FFT (inverse scaled by 1/n).
template <typename T>
class Fft {
 public:
  Fft(int n, bool inverse) : n_(n), inverse_(inverse) {
    if (n_ == 1) return;
    if ((n_ & (n_ - 1)) == 0) {
      for (int len = 2; len <= n_; len <<= 1) {
        const double base = (inverse_ ? 2.0 : -2.0) * M_PI / len;
        for (int k = 0; k < len / 2; ++k) {
          twiddles_.push_back(unitPhase<T>(base * k));
        }
      }
      return;
    }
    m_ = 1;
    while (m_ < 2 * n_ + 1) m_ <<= 1;
    chirp_.resize(n_);
    for (int k = 0; k < n_; ++k) {
      const long long k2 = (static_cast<long long>(k) * k) % (2LL * n_);
      chirp_[k] = unitPhase<T>((inverse_ ? 1.0 : -1.0) * M_PI *
                               static_cast<double>(k2) /
                               static_cast<double>(n_));
    }
    sub_fwd_.emplace_back(m_, false);
    sub_inv_.emplace_back(m_, true);
    qspec_.assign(m_, std::complex<T>(0, 0));
    qspec_[0] = std::conj(chirp_[0]);
    for (int k = 1; k < n_; ++k) {
      qspec_[k] = qspec_[m_ - k] = std::conj(chirp_[k]);
    }
    sub_fwd_[0].run(qspec_.data());
  }

  void run(std::complex<T>* a) const {
    if (n_ == 1) return;
    if (m_ == 0) {
      radix2(a);
    } else {
      bluestein(a);
    }
  }

 private:
  void radix2(std::complex<T>* a) const {
    for (int i = 1, j = 0; i < n_; ++i) {
      int bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
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
      for (int i = 0; i < n_; ++i) a[i] *= scale;
    }
  }

  void bluestein(std::complex<T>* a) const {
    std::vector<std::complex<T>> p(m_, std::complex<T>(0, 0));
    for (int k = 0; k < n_; ++k) p[k] = a[k] * chirp_[k];
    sub_fwd_[0].run(p.data());
    for (int k = 0; k < m_; ++k) p[k] *= qspec_[k];
    sub_inv_[0].run(p.data());
    for (int k = 0; k < n_; ++k) a[k] = p[k] * chirp_[k];
    if (inverse_) {
      const T scale = T(1) / static_cast<T>(n_);
      for (int k = 0; k < n_; ++k) a[k] *= scale;
    }
  }

  int n_;
  bool inverse_;
  int m_ = 0;
  std::vector<std::complex<T>> twiddles_;
  std::vector<std::complex<T>> chirp_, qspec_;
  std::vector<Fft> sub_fwd_, sub_inv_;  ///< zero or one each
};

/// rfft of in[0..n) into out[0..n/2].
template <typename T>
void rfft(int n, const T* in, std::complex<T>* out) {
  const int h = n / 2;
  std::vector<std::complex<T>> z(h);
  for (int m = 0; m < h; ++m) z[m] = std::complex<T>(in[2 * m], in[2 * m + 1]);
  Fft<T>(h, false).run(z.data());
  for (int k = 0; k <= h; ++k) {
    const std::complex<T> zk = z[k % h];
    const std::complex<T> zc = std::conj(z[(h - k) % h]);
    const std::complex<T> even = (zk + zc) * T(0.5);
    const std::complex<T> odd = (zk - zc) * std::complex<T>(0, T(-0.5));
    out[k] = even + unitPhase<T>(-2.0 * M_PI / n * k) * odd;
  }
}

/// irfft of in[0..n/2] into out[0..n).
template <typename T>
void irfft(int n, const std::complex<T>* in, T* out) {
  const int h = n / 2;
  std::vector<std::complex<T>> z(h);
  for (int k = 0; k < h; ++k) {
    const std::complex<T> xk = in[k];
    const std::complex<T> xc = std::conj(in[h - k]);
    const std::complex<T> even = (xk + xc) * T(0.5);
    const std::complex<T> odd =
        (xk - xc) * T(0.5) * unitPhase<T>(2.0 * M_PI / n * k);
    z[k] = even + std::complex<T>(0, 1) * odd;
  }
  Fft<T>(h, true).run(z.data());
  for (int m = 0; m < h; ++m) {
    out[2 * m] = z[m].real();
    out[2 * m + 1] = z[m].imag();
  }
}

/// The kFft2dN 2-D transforms of an n1 x n2 row-major map (n2 even).
template <typename T>
class Dct2d {
 public:
  Dct2d(int n1, int n2)
      : n1_(n1),
        n2_(n2),
        h2_(n2 / 2),
        row_fwd_(n2, false),
        row_inv_(n2, true),
        col_fwd_(n1, false),
        col_inv_(n1, true) {}

  void dct2d(const T* in, T* out) {
    const auto reorder = [](int t, int n) {
      return (t < (n + 1) / 2) ? 2 * t : 2 * (n - t) - 1;
    };
    std::vector<T> buf(static_cast<size_t>(n1_) * n2_);
    for (int t1 = 0; t1 < n1_; ++t1) {
      for (int t2 = 0; t2 < n2_; ++t2) {
        buf[static_cast<size_t>(t1) * n2_ + t2] =
            in[static_cast<size_t>(reorder(t1, n1_)) * n2_ + reorder(t2, n2_)];
      }
    }
    std::vector<std::complex<T>> scratch(row_fwd_.scratchSize());
    for (int t1 = 0; t1 < n1_; ++t1) {
      row_fwd_.forward(buf.data() + static_cast<size_t>(t1) * n2_,
                       spec(t1), scratch.data());
    }
    columns(col_fwd_);
    for (int k1 = 0; k1 < n1_; ++k1) {
      const int r1 = (n1_ - k1) % n1_;
      const std::complex<T> tw1 = tw(k1, n1_);
      for (int k2 = 0; k2 < n2_; ++k2) {
        std::complex<T> a;
        std::complex<T> b;
        if (k2 <= h2_) {
          a = spec(k1)[k2];
          b = std::conj(spec(r1)[k2]);
        } else {
          a = std::conj(spec(r1)[n2_ - k2]);
          b = spec(k1)[n2_ - k2];
        }
        const std::complex<T> tw2 = tw(k2, n2_);
        const std::complex<T> combined = tw2 * a + std::conj(tw2) * b;
        out[static_cast<size_t>(k1) * n2_ + k2] =
            T(0.5) * (tw1 * combined).real();
      }
    }
  }

  void idct2d(const T* in, T* out) { inverse(in, out); }

  /// IDCT along dim0, IDXST along dim1: flip dim1 (eq. (14)), IDCT, then
  /// (-1)^k2 (eq. (15)).
  void idctIdxst(const T* in, T* out) {
    std::vector<T> flipped(static_cast<size_t>(n1_) * n2_);
    for (int i1 = 0; i1 < n1_; ++i1) {
      for (int i2 = 1; i2 < n2_; ++i2) {
        flipped[static_cast<size_t>(i1) * n2_ + i2] =
            in[static_cast<size_t>(i1) * n2_ + (n2_ - i2)];
      }
    }
    inverse(flipped.data(), out);
    for (int i1 = 0; i1 < n1_; ++i1) {
      for (int i2 = 1; i2 < n2_; i2 += 2) {
        out[static_cast<size_t>(i1) * n2_ + i2] =
            -out[static_cast<size_t>(i1) * n2_ + i2];
      }
    }
  }

  /// IDXST along dim0, IDCT along dim1: flip dim0 (eq. (16)), IDCT, then
  /// (-1)^k1 (eq. (17)).
  void idxstIdct(const T* in, T* out) {
    std::vector<T> flipped(static_cast<size_t>(n1_) * n2_);
    for (int i1 = 1; i1 < n1_; ++i1) {
      std::copy(in + static_cast<size_t>(n1_ - i1) * n2_,
                in + static_cast<size_t>(n1_ - i1 + 1) * n2_,
                flipped.begin() + static_cast<size_t>(i1) * n2_);
    }
    inverse(flipped.data(), out);
    for (int i1 = 1; i1 < n1_; i1 += 2) {
      for (int i2 = 0; i2 < n2_; ++i2) {
        out[static_cast<size_t>(i1) * n2_ + i2] =
            -out[static_cast<size_t>(i1) * n2_ + i2];
      }
    }
  }

 private:
  static std::complex<T> tw(int k, int n) {
    return unitPhase<T>(-M_PI * k / (2.0 * n));
  }

  std::complex<T>* spec(int row) {
    return spec_.data() + static_cast<size_t>(row) * (h2_ + 1);
  }

  void columns(const FftPlan<T>& plan) {
    std::vector<std::complex<T>> col(n1_ + plan.scratchSize());
    for (int k2 = 0; k2 <= h2_; ++k2) {
      for (int t1 = 0; t1 < n1_; ++t1) col[t1] = spec(t1)[k2];
      plan.execute(col.data(), col.data() + n1_);
      for (int t1 = 0; t1 < n1_; ++t1) spec(t1)[k2] = col[t1];
    }
  }

  /// Paper eq. (12): gather, inverse columns, inverse rows, then the
  /// eq. (13) inverse reorder and the (n1/2)(n2/2) scale.
  void inverse(const T* in, T* out) {
    const auto at = [&](int i1, int i2) -> T {
      if (i1 >= n1_ || i2 >= n2_) return T(0);
      return in[static_cast<size_t>(i1) * n2_ + i2];
    };
    for (int t1 = 0; t1 < n1_; ++t1) {
      const std::complex<T> tw1 = std::conj(tw(t1, n1_));
      for (int t2 = 0; t2 <= h2_; ++t2) {
        const std::complex<T> tw2 = std::conj(tw(t2, n2_));
        const T re = at(t1, t2) - at(n1_ - t1, n2_ - t2);
        const T im = -(at(t1, n2_ - t2) + at(n1_ - t1, t2));
        spec(t1)[t2] = tw1 * tw2 * std::complex<T>(re, im);
      }
    }
    columns(col_inv_);
    std::vector<T> buf(static_cast<size_t>(n1_) * n2_);
    std::vector<std::complex<T>> scratch(row_inv_.scratchSize());
    for (int t1 = 0; t1 < n1_; ++t1) {
      row_inv_.inverse(spec(t1), buf.data() + static_cast<size_t>(t1) * n2_,
                       scratch.data());
    }
    const auto unorder = [](int k, int n) {
      return (k % 2 == 0) ? k / 2 : n - (k + 1) / 2;
    };
    const T scale = static_cast<T>(n1_) * static_cast<T>(n2_) / T(4);
    for (int k1 = 0; k1 < n1_; ++k1) {
      for (int k2 = 0; k2 < n2_; ++k2) {
        out[static_cast<size_t>(k1) * n2_ + k2] =
            scale * buf[static_cast<size_t>(unorder(k1, n1_)) * n2_ +
                        unorder(k2, n2_)];
      }
    }
  }

  int n1_, n2_, h2_;
  RfftPlan<T> row_fwd_, row_inv_;
  FftPlan<T> col_fwd_, col_inv_;
  std::vector<std::complex<T>> spec_ =
      std::vector<std::complex<T>>(static_cast<size_t>(n1_) * (h2_ + 1));
};

/// PoissonSolver::solve: forward DCT, the mode scaling with the energy
/// summed per block of 8 rows (each block from 0.0, blocks in ascending
/// order), then the two field transforms.
template <typename T>
struct PoissonResult {
  std::vector<T> fieldX, fieldY;
  double energy = 0.0;
};

template <typename T>
PoissonResult<T> poissonSolve(int mx, int my, const std::vector<T>& density) {
  Dct2d<T> dct(mx, my);
  const size_t total = static_cast<size_t>(mx) * my;
  std::vector<T> coeff(total), zx(total), zy(total);
  dct.dct2d(density.data(), coeff.data());
  std::vector<T> wu(mx), wv(my);
  for (int u = 0; u < mx; ++u) wu[u] = static_cast<T>(M_PI * u / mx);
  for (int v = 0; v < my; ++v) wv[v] = static_cast<T>(M_PI * v / my);
  const T norm = T(4) / (static_cast<T>(mx) * static_cast<T>(my));
  PoissonResult<T> result;
  for (int block = 0; block < mx; block += 8) {
    double partial = 0.0;
    for (int u = block; u < std::min(block + 8, mx); ++u) {
      for (int v = 0; v < my; ++v) {
        const size_t i = static_cast<size_t>(u) * my + v;
        const T w2 = wu[u] * wu[u] + wv[v] * wv[v];
        const T inv_w2 = (u == 0 && v == 0) ? T(0) : T(1) / w2;
        const T z = norm * coeff[i] * inv_w2;
        zx[i] = z * wu[u];
        zy[i] = z * wv[v];
        partial += 0.5 * (u == 0 ? 0.5 : 1.0) * (v == 0 ? 0.5 : 1.0) *
                   static_cast<double>(coeff[i]) * static_cast<double>(z);
      }
    }
    result.energy += partial;
  }
  result.fieldX.resize(total);
  result.fieldY.resize(total);
  dct.idxstIdct(zx.data(), result.fieldX.data());
  dct.idctIdxst(zy.data(), result.fieldY.data());
  return result;
}

}  // namespace dreamplace::fft::reference
