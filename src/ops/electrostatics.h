// Spectral Poisson solver for the electrostatic density model
// (paper Sec. II-C eq. (4)-(5) and Sec. III-B3 eq. (9)).
//
// Solves  laplacian(psi) = -rho  on an mx x my bin grid with Neumann
// (zero normal field) boundary conditions, which the DCT-II basis
// cos(pi*u*(x+1/2)/M) satisfies naturally. The DC mode is zeroed,
// implementing the zero-total-charge compatibility condition (eq. (4c)).
//
// Outputs, all in bin-index coordinates:
//   fieldX = -d psi / dx  (IDXST along x, IDCT along y),
//   fieldY = -d psi / dy  (IDCT along x, IDXST along y),
//   energy = 1/2 sum_b rho_b * psi_b, summed over the spectral modes
//            (docs/ALGORITHMS.md §3), so the potential psi itself is
//            never transformed back to bins.
//
// Maps are row-major with dim0 = x: element (bx, by) at bx*my + by.
#pragma once

#include <span>
#include <vector>

#include "common/memory.h"
#include "fft/dct2d.h"

namespace dreamplace {

template <typename T>
struct PoissonSolution {
  std::vector<T> fieldX;
  std::vector<T> fieldY;
  double energy = 0.0;
};

template <typename T>
class PoissonSolver {
 public:
  PoissonSolver(int mx, int my,
                fft::Dct2dAlgorithm algo = fft::Dct2dAlgorithm::kFft2dN);

  /// Solves for the given density map. The transform plans and all
  /// spectral workspace are constructed once with the solver and reused,
  /// so steady-state calls (same `out` object) perform no heap
  /// allocation; the counter pair `ops/electrostatics/ws_alloc` /
  /// `ws_reuse` records whether a call had to grow the output buffers.
  void solve(std::span<const T> density, PoissonSolution<T>& out);

  int mx() const { return mx_; }
  int my() const { return my_; }

 private:
  int mx_;
  int my_;
  fft::Dct2dPlan<T> plan_;   ///< owns FFT plans + transform workspace
  std::vector<T> wu_;        ///< omega_u = pi*u/mx
  std::vector<T> wv_;        ///< omega_v = pi*v/my
  std::vector<T> inv_w2_;    ///< 1/(wu^2+wv^2), 0 at DC
  std::vector<T> coeff_;     ///< forward DCT of the density
  std::vector<T> zx_;        ///< scaled modes for fieldX
  std::vector<T> zy_;        ///< scaled modes for fieldY
  TrackedBytes mem_{"ops/density/grids"};  ///< spectral workspace bytes
};

}  // namespace dreamplace
