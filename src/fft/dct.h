// 1-D discrete cosine transforms used by the spectral Poisson solver.
//
// Conventions (all unnormalized; matching paper eq. (7)):
//   dct(x)_k   = sum_{n=0}^{N-1} x_n cos(pi*(n+1/2)*k/N)           (DCT-II)
//   idct(c)_k  = c_0/2 + sum_{n=1}^{N-1} c_n cos(pi*n*(k+1/2)/N)   (DCT-III)
//   idxst(c)_k = sum_{n=0}^{N-1} c_n sin(pi*n*(k+1/2)/N)           (eq. (8))
// so that idct(dct(x)) == (N/2) * x.
//
// Two fast formulations are provided, mirroring the paper's comparison
// (Fig. 11): the textbook 2N-point-FFT route and Makhoul's N-point-FFT
// route (Algorithm 3). The N-point route additionally uses the one-sided
// real FFT, halving the transform size again.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <vector>

#include "fft/plan.h"

namespace dreamplace::fft {

enum class DctAlgorithm {
  kNaive,      ///< O(N^2) direct evaluation (test oracle).
  kFft2N,      ///< via a 2N-point complex FFT.
  kFftN,       ///< via an N-point real FFT (Algorithm 3).
};

// One-shot vector forms (the test oracle API): each call builds a plan
// and a local scratch buffer.
template <typename T>
std::vector<T> dct(const std::vector<T>& x,
                   DctAlgorithm algo = DctAlgorithm::kFftN);

template <typename T>
std::vector<T> idct(const std::vector<T>& c,
                    DctAlgorithm algo = DctAlgorithm::kFftN);

/// Inverse DXT used for the electric field (paper eq. (8)); implemented by
/// reduction to idct: idxst(c)_k = (-1)^k * idct(z)_k with z_0 = 0,
/// z_n = c_{N-n}.
template <typename T>
std::vector<T> idxst(const std::vector<T>& c,
                     DctAlgorithm algo = DctAlgorithm::kFftN);

/// Immutable 1-D plan for one (n, algorithm): the quarter-wave twiddles
/// exp(-i*pi*k/(2n)) plus the FFT plans the algorithm executes (both
/// directions, owned). The transforms perform no trigonometry and no
/// allocation; callers pass scratchSize() complex slots, so one plan may
/// serve any number of threads concurrently, each with its own scratch.
/// `in` and `out` must not alias each other or the scratch.
template <typename T>
class DctPlan {
 public:
  /// kFftN requires even n; the other algorithms take any n >= 1.
  explicit DctPlan(int n, DctAlgorithm algo = DctAlgorithm::kFftN);

  /// Complex scratch slots any of the three transforms needs.
  std::size_t scratchSize() const { return scratch_size_; }

  void dct(const T* in, T* out, std::complex<T>* scratch) const;
  void idct(const T* in, T* out, std::complex<T>* scratch) const;
  void idxst(const T* in, T* out, std::complex<T>* scratch) const;

 private:
  void dctFft2N(const T* x, T* out, std::complex<T>* scratch) const;
  void idctFft2N(const T* c, T* out, std::complex<T>* scratch) const;
  void dctFftN(const T* x, T* out, std::complex<T>* scratch) const;
  void idctFftN(const T* c, T* out, std::complex<T>* scratch) const;

  int n_;
  DctAlgorithm algo_;
  std::size_t scratch_size_ = 0;
  std::vector<std::complex<T>> tw_;  ///< exp(-i*pi*k/(2n)), k < n
  std::optional<FftPlan<T>> fwd2n_;  ///< kFft2N: size 2n forward
  std::optional<FftPlan<T>> inv2n_;  ///< kFft2N: size 2n inverse
  std::optional<RfftPlan<T>> rfwd_;  ///< kFftN: size n rfft
  std::optional<RfftPlan<T>> rinv_;  ///< kFftN: size n irfft
};

}  // namespace dreamplace::fft
