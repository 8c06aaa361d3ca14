// 2-D DCT-family transforms for the spectral Poisson solver.
//
// Maps are stored row-major as flat arrays: element (i1, i2) of an n1 x n2
// map lives at index i1*n2 + i2. In the electrostatics code dim0 is the
// x (horizontal bin) axis and dim1 the y axis.
//
// Three implementations mirror the paper's Fig. 11 comparison:
//  * kRowCol2N — 1-D DCT via 2N-point FFT applied rows-then-columns,
//  * kRowColN  — 1-D DCT via N-point real FFT (Alg. 3) rows-then-columns,
//  * kFft2dN   — single-pass 2-D transform via one 2-D real FFT (Alg. 4).
//
// Scaling follows the 1-D conventions in dct.h applied per dimension, so
// idct2d(dct2d(x)) == (n1/2)*(n2/2) * x.
//
// Dct2dPlan is the only 2-D entry point (docs/FFT.md): it owns its 1-D
// plans, the reorder index maps, the twiddle tables, and every scratch
// buffer, so executing any transform is trig-free and allocation-free.
#pragma once

#include <complex>
#include <optional>
#include <vector>

#include "common/memory.h"
#include "fft/dct.h"
#include "fft/plan.h"

namespace dreamplace::fft {

enum class Dct2dAlgorithm {
  kRowColNaive,  ///< O(N^3) test oracle built on 1-D naive transforms.
  kRowCol2N,
  kRowColN,
  kFft2dN,
};

/// Reusable 2-D transform plan for one (n1, n2, algorithm) triple.
///
/// Construction builds the plans the algorithm executes — two 1-D FFT
/// plans per dimension for kFft2dN, one DctPlan per dimension for the
/// row-column algorithms — plus, for kFft2dN, the Makhoul reorder index
/// maps and quarter-wave twiddle tables, and sizes all workspace
/// (including per-pool-worker row and column scratch), so the transform
/// methods perform no trigonometry and no heap allocation (scratch
/// regrows only if the thread pool is enlarged after plan construction).
/// The mixed inverse transforms fuse the paper's eq. (14)/(16) input flips
/// and eq. (15)/(17) sign passes into the existing twiddle and reorder
/// sweeps instead of materializing a flipped copy plus a sign sweep
/// (kFft2dN only; row-column algorithms keep the literal flip for oracle
/// comparability).
///
/// NOT thread-safe: a plan owns its workspace, so use one plan per thread
/// (the transforms parallelize internally on the deterministic
/// ThreadPool). In/out pointers may alias each other but must not alias
/// plan workspace.
template <typename T>
class Dct2dPlan {
 public:
  Dct2dPlan(int n1, int n2, Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

  int n1() const { return n1_; }
  int n2() const { return n2_; }
  Dct2dAlgorithm algorithm() const { return algo_; }

  void dct2d(const T* in, T* out);
  void idct2d(const T* in, T* out);
  /// IDCT along dim0, IDXST along dim1 (paper Alg. 4 IDCT_IDXST).
  void idctIdxst(const T* in, T* out);
  /// IDXST along dim0, IDCT along dim1 (paper Alg. 4 IDXST_IDCT).
  void idxstIdct(const T* in, T* out);

 private:
  void forwardFft2d(const T* in, T* out);
  /// Generalized inverse: optional flip along dim0/dim1 realizes the
  /// IDXST reductions without extra full-map passes.
  void inverseFft2d(const T* in, T* out, bool flip0, bool flip1);
  void rowColApply(const T* in, T* out, bool forward);
  /// Attributes all owned workspace/table bytes to "fft/scratch".
  void trackWorkspace();
  /// Grows the per-worker scratch if the pool gained threads since plan
  /// construction.
  void ensureScratch();

  std::complex<T>* rowScratch(int worker);
  std::complex<T>* colScratch(int worker);

  int n1_;
  int n2_;
  int h2_ = 0;      ///< n2/2 (kFft2dN)
  int stride_ = 0;  ///< h2_+1, row stride of the one-sided spectrum
  Dct2dAlgorithm algo_;

  // Row-column state.
  std::optional<DctPlan<T>> row_dct_;  ///< size n2
  std::optional<DctPlan<T>> col_dct_;  ///< size n1

  // kFft2dN state.
  std::optional<RfftPlan<T>> row_fwd_;  ///< size n2
  std::optional<RfftPlan<T>> row_inv_;
  std::optional<FftPlan<T>> col_fwd_;  ///< size n1
  std::optional<FftPlan<T>> col_inv_;
  std::vector<std::complex<T>> tw1_;  ///< exp(-i*pi*k1/(2*n1)), k1 < n1
  std::vector<std::complex<T>> tw2_;  ///< exp(-i*pi*k2/(2*n2)), k2 < n2
  std::vector<int> reorder1_, reorder2_;        ///< forward gather maps
  std::vector<int> inv_reorder1_, inv_reorder2_;

  // Workspace (ctor-sized; transforms never allocate).
  std::vector<T> buf_a_;                    ///< n1*n2 reorder/output buffer
  std::vector<T> buf_b_;                    ///< n1*n2, row-col only
  std::vector<T> flip_;                     ///< n1*n2, row-col mixed only
  std::vector<std::complex<T>> spec_;       ///< n1*stride, kFft2dN only
  std::size_t row_scratch_stride_ = 0;
  std::size_t col_scratch_stride_ = 0;
  int scratch_workers_ = 0;                 ///< pool size scratch is sized for
  std::vector<std::complex<T>> row_ws_;     ///< per-worker row scratch
  std::vector<std::complex<T>> col_ws_;     ///< per-worker column scratch
  TrackedBytes mem_{"fft/scratch"};         ///< memory attribution
};

}  // namespace dreamplace::fft
